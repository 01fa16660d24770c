// The lineage node arena (lineage/node_arena.h): committed bytes grow in
// doublings from the commit floor, node references survive every growth, a
// refused reservation shrinks instead of failing, and growth past the
// reservation or the id space throws.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "lineage/lineage.h"
#include "lineage/node_arena.h"
#include "parallel/thread_pool.h"
#include "query/executor.h"
#include "relation/snapshot.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

TEST(LineageArenaTest, NodeBytesAreCommittedDoublings) {
  LineageManager mgr;
  EXPECT_EQ(mgr.node_bytes(), NodeArena::kCommitFloorBytes);
  const std::size_t floor_nodes =
      NodeArena::kCommitFloorBytes / sizeof(LineageNode);
  VarId v = 0;
  while (mgr.size() < floor_nodes) mgr.MakeVar(v++);
  EXPECT_EQ(mgr.node_bytes(), NodeArena::kCommitFloorBytes);
  mgr.MakeVar(v++);
  EXPECT_EQ(mgr.node_bytes(), 2 * NodeArena::kCommitFloorBytes);
  while (mgr.size() < 4 * floor_nodes + 1) mgr.MakeVar(v++);
  EXPECT_EQ(mgr.node_bytes(), 8 * NodeArena::kCommitFloorBytes);
}

// A reference from node(id) stays valid for the manager's lifetime: it is
// held across several commit doublings of one-at-a-time growth and one
// ConcatBlock growth on a pool, then read back (ASan checks the reads).
TEST(LineageArenaTest, NodeReferencesSurviveGrowth) {
  ThreadPool pool(4);
  LineageManager mgr;
  const LineageId a = mgr.MakeVar(0);
  const LineageId b = mgr.MakeVar(1);
  const LineageId ab = mgr.MakeAnd(a, b);
  const LineageNode& held = mgr.node(ab);
  const LineageNode* const at = &held;

  const std::size_t bytes0 = mgr.node_bytes();
  VarId v = 2;
  while (mgr.node_bytes() < 16 * bytes0) mgr.MakeVar(v++);

  // Fresh ∧s over nearby leaves: about twice as many new nodes as the
  // arena holds, so the block grows it past at least one more doubling.
  std::vector<LineagePair> block;
  for (LineageId leaf = 2; leaf + 2 < mgr.size(); ++leaf) {
    block.push_back({leaf, leaf + 1});
    block.push_back({leaf, leaf + 2});
  }
  std::vector<LineageId> ids(block.size());
  const std::size_t before = mgr.node_bytes();
  mgr.ConcatBlock(SetOpKind::kIntersect, block, &pool, ids);
  EXPECT_GT(mgr.node_bytes(), before);

  EXPECT_EQ(&mgr.node(ab), at);
  EXPECT_EQ(held.kind, LineageKind::kAnd);
  EXPECT_EQ(held.left, a);
  EXPECT_EQ(held.right, b);
  EXPECT_EQ(mgr.node(ids.back()).kind, LineageKind::kAnd);
}

TEST(LineageArenaTest, GrowthPastTheIdSpaceThrows) {
  NodeArena arena;
  EXPECT_THROW(arena.GrowTo(std::size_t{kNullLineage} + 1), std::length_error);
  EXPECT_EQ(arena.size(), 0u);
}

// The process's mapped bytes, from /proc/self/statm.
std::size_t MappedBytes() {
  unsigned long pages = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%lu", &pages) != 1) pages = 0;
  std::fclose(f);
  return pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// Under an RLIMIT_AS cap far below one full reservation, a fresh arena
// reserves what fits, refuses growth past it with std::bad_alloc, and a
// context built under the cap answers a query correctly.
bool QueryUnderAddressSpaceCap() {
  const rlim_t cap = MappedBytes() + (rlim_t{96} << 20);
  const rlimit limit{cap, cap};
  if (MappedBytes() == 0 || setrlimit(RLIMIT_AS, &limit) != 0) return false;

  NodeArena arena;
  const std::size_t nodes = arena.reserved_bytes() / sizeof(LineageNode);
  if (arena.reserved_bytes() >= NodeArena::kReserveBytes ||
      arena.reserved_bytes() < NodeArena::kCommitFloorBytes) {
    return false;
  }
  arena.GrowTo(nodes);  // commits without touching a page
  try {
    arena.push_back({LineageKind::kVar, 0, kNullLineage, kNullLineage});
    return false;
  } catch (const std::bad_alloc&) {
  }

  testing::SupermarketDb db;
  QueryExecutor exec(db.ctx);
  for (const TpRelation* rel : {&db.a, &db.b, &db.c}) {
    if (!exec.Register(*rel).ok()) return false;
  }
  Result<TpRelation> out = exec.Execute("c - (a | b)");
  if (!out.ok() || out->empty()) return false;
  return RelationsEquivalent(
      *out, ReferenceSetOp(SetOpKind::kExcept, db.c,
                           ReferenceSetOp(SetOpKind::kUnion, db.a, db.b)));
}

TEST(LineageArenaDeathTest, ReservationShrinksUnderAnAddressSpaceCap) {
  EXPECT_EXIT(std::exit(QueryUnderAddressSpaceCap() ? 0 : 1),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace tpset
