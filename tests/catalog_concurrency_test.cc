// The catalog lookups against concurrent registration: FindStored,
// SnapshotRelation and Execute (which resolves every leaf through
// FindStored) run on reader threads while one thread registers relations
// and continuous queries. Readers query bare relations, which never touch
// the lineage arena, so the only shared state in play is the catalog's two
// maps; ThreadSanitizer (the concurrency label) reports any unguarded
// access to them.
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "relation/relation.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::MakeRelation;

TEST(CatalogConcurrencyTest, LookupsRaceRegistrationSafely) {
  testing::SupermarketDb db;
  QueryExecutor exec(db.ctx);
  ASSERT_TRUE(exec.Register(db.a).ok());
  ASSERT_TRUE(exec.Register(db.b).ok());
  ASSERT_TRUE(exec.Register(db.c).ok());
  ASSERT_TRUE(exec.RegisterContinuous("w0", "a | b").ok());

  // Built up front: constructing a relation writes the lineage arena.
  constexpr int kNew = 40;
  std::vector<TpRelation> fresh;
  for (int i = 0; i < kNew; ++i) {
    const std::string n = std::to_string(i);
    fresh.push_back(MakeRelation(db.ctx, "n" + n,
                                 {{"milk", "n" + n + "x", 1, 5, 0.5},
                                  {"tea", "n" + n + "y", 2, 6, 0.5}}));
  }

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  auto reader = [&](int which) {
    while (!done.load(std::memory_order_acquire) || reads.load() < 100) {
      switch (which) {
        case 0: {
          Result<TpRelation> out = exec.Execute("a");
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          EXPECT_EQ(out->size(), db.a.size());
          break;
        }
        case 1: {
          Result<StorageSnapshot> snap = exec.SnapshotRelation("b");
          ASSERT_TRUE(snap.ok()) << snap.status().ToString();
          EXPECT_EQ(snap->size(), db.b.size());
          break;
        }
        default: {
          Result<const StoredRelation*> stored = exec.FindStored("c");
          ASSERT_TRUE(stored.ok()) << stored.status().ToString();
          EXPECT_TRUE(exec.FindContinuous("w0").ok());
          break;
        }
      }
      reads.fetch_add(1);
    }
  };
  std::vector<std::thread> readers;
  for (int which = 0; which < 3; ++which) readers.emplace_back(reader, which);
  for (int i = 0; i < kNew; ++i) {
    ASSERT_TRUE(exec.Register(fresh[i]).ok());
    if (i % 4 == 0) {
      const std::string name = "q" + std::to_string(i);
      ASSERT_TRUE(exec.RegisterContinuous(name, "a | n" + std::to_string(i)).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  for (int i = 0; i < kNew; ++i) {
    EXPECT_TRUE(exec.FindStored("n" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(exec.FindContinuous("q0").ok());
  EXPECT_FALSE(exec.FindStored("missing").ok());
}

}  // namespace
}  // namespace tpset
