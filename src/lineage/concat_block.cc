// LineageManager::ConcatBlock: one Table I operation's concatenations for a
// block of windows, interned on a thread pool with the ids, nodes, index
// contents and intern counts of the sequential ConcatLineage loop.
//
// A block that gets one task (a null or one-worker pool, or fewer than
// 2 * kMinWindowsPerTask windows) runs that loop itself: on one thread, the
// phases below cost 19-28% more than the loop per 4096-window block
// (DESIGN.md, "Sequential operator").
//
// A window makes at most one construction: ∪'s ∨, ∩'s ∧ (an andNot when λs
// is a ¬ node), or −'s andNot (an ∧ when λs = ¬x, a ¬ when λr = True), each
// after the constructors' folds. The loop appends a node exactly at the
// first occurrence of a key that the arena lacks, so a new node's id is
// size() at the call plus the number of first occurrences at earlier
// windows. The block computes that in phases, each run as one task per
// worker with a barrier after it:
//
//   1. fold    (by window chunk) Table I's null rules and the folds of
//              MakeOr / MakeAnd / MakeAndNot; every remaining key (kind,
//              left, right) is hashed and counted per (chunk, shard).
//   2. route   (by window chunk) a stable radix scatter of the keys into
//              shard order, window order kept within a shard.
//   3. look up (by shard) the owner probes its shard of the index — only
//              pre-block nodes are in it — and records each miss's first
//              occurrence in a table of its own; equal keys share a shard.
//   4. number  (by window chunk) first occurrences are counted per chunk,
//              prefix-summed, and every window resolves to its id; new
//              nodes are written at their ids into the pre-grown array.
//   5. index   (by shard) the new nodes are scattered by shard once more,
//              and each owner grows its shard once and inserts them.
//
// A key's shard is a function of its hash, so no two tasks ever touch one
// shard, and the in-block tables are per shard too: no phase needs an
// atomic. Only the calling thread writes the intern counts, after the last
// barrier. DESIGN.md, "Determinism", has the argument that the ids are the
// loop's.
#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "lineage/lineage.h"
#include "parallel/thread_pool.h"

namespace tpset {

namespace {

constexpr std::size_t kShards = ConsIndex::kShards;

/// How a window's construction resolves.
enum Tag : std::uint8_t {
  kId,       // v is the id: a fold, or a node that existed before the block
  kPending,  // a key not looked up yet
  kFirst,    // the first occurrence of a key the arena lacks: a new node
  kRef,      // v is the window of the key's first occurrence
};

struct WindowState {
  /// The key (kind, left, right), unless the window folded.
  LineageId left;
  LineageId right;
  /// kId: the id. kRef: the first occurrence's window. kFirst, from phase
  /// 4 on: the number of new nodes before it in its chunk.
  LineageId v;
  std::uint32_t hash;
  LineageKind kind;
  Tag tag;
};

bool SameKey(const WindowState& a, const WindowState& b) {
  return a.kind == b.kind && a.left == b.left && a.right == b.right;
}

/// A hash with what it keys: a window routed to its shard (phases 2-3), a
/// first-occurrence table slot (window + 1, 0 when empty), or a new node's
/// id routed to its shard (phase 5).
struct Routed {
  std::uint32_t hash;
  std::uint32_t item;
};

using ShardCounts = std::array<std::uint32_t, kShards>;

/// Turns per-(chunk, shard) counts into scatter cursors: shard s's entries
/// land in [begin[s], begin[s + 1]), chunk c's share of them from
/// counts[c][s] on. Chunks are in window order and each writes its entries
/// in order, so the scatter is stable. Returns begin.
std::array<std::uint32_t, kShards + 1> Route(std::vector<ShardCounts>* counts) {
  std::array<std::uint32_t, kShards + 1> begin{};
  std::uint32_t at = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    begin[s] = at;
    for (ShardCounts& c : *counts) at += std::exchange(c[s], at);
  }
  begin[kShards] = at;
  return begin;
}

/// First occurrences among one shard's keys in window order: an
/// open-addressed table of (hash, window + 1) at load <= 1/2 over a region
/// of a shared buffer, owned by the shard's task.
class FirstSeen {
 public:
  static std::size_t SlotsFor(std::size_t keys) {
    return keys == 0 ? 0 : std::bit_ceil(2 * keys);
  }

  FirstSeen(Routed* slots, std::size_t n) : slots_(slots), mask_(n - 1) {
    std::fill(slots_, slots_ + n, Routed{0, 0});
  }

  /// The first window whose key `same` matches, recording `window` as the
  /// first when there is none.
  template <typename Same>
  std::uint32_t FindOrAdd(std::uint32_t hash, std::uint32_t window,
                          Same&& same) {
    std::size_t i = hash & mask_;
    for (; slots_[i].item != 0; i = (i + 1) & mask_) {
      if (slots_[i].hash == hash && same(slots_[i].item - 1)) {
        return slots_[i].item - 1;
      }
    }
    slots_[i] = {hash, window + 1};
    return window;
  }

 private:
  Routed* slots_;
  std::size_t mask_;
};

}  // namespace

/// The phases of one ConcatBlock call (see the file comment).
class BlockIntern {
 public:
  BlockIntern(LineageManager& mgr, SetOpKind op,
              std::span<const LineagePair> block, ThreadPool* pool,
              std::size_t tasks, std::span<LineageId> out)
      : mgr_(mgr),
        op_(op),
        block_(block.data()),
        out_(out.data()),
        n_(block.size()),
        base_(static_cast<LineageId>(mgr.nodes_.size())),
        tasks_(tasks),
        chunk_((n_ + tasks_ - 1) / tasks_),
        pool_(pool),
        state_(new WindowState[n_]),
        counts_(tasks_) {
    assert(n_ < std::numeric_limits<std::uint32_t>::max() &&
           "windows + 1 must fit 32 bits");
  }

  void Run() {
    const bool consing = mgr_.hash_consing_;
    ForChunks([&](std::size_t c, std::size_t lo, std::size_t hi) {
      for (std::size_t w = lo; w < hi; ++w) {
        Fold(w);
        if (state_[w].tag == kPending) ++counts_[c][Shard(w)];
      }
    });
    if (consing) LookUp();
    Number();
    if (consing) Index();
    for (const Tally& t : tallies_) {
      mgr_.counts_.lookups += t.lookups;
      mgr_.counts_.hits += t.hits;
    }
  }

 private:
  struct Tally {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
  };

  template <typename Body>
  void ForChunks(const Body& body) {
    RunTasks(pool_, tasks_, [&](std::size_t c) {
      body(c, std::min(n_, c * chunk_), std::min(n_, (c + 1) * chunk_));
    });
  }

  template <typename Body>
  void ForShards(const Body& body) {
    RunTasks(pool_, tasks_, [&](std::size_t t) {
      for (std::size_t s = t; s < kShards; s += tasks_) body(s);
    });
  }

  std::size_t Shard(std::size_t w) const {
    return ConsIndex::ShardOf(state_[w].hash);
  }

  /// Phase 1 for window w: what ConcatLineage(op_, mgr_, λr, λs) folds, or
  /// the one key it interns — pending a lookup, or, with hash-consing off,
  /// a new node outright.
  void Fold(std::size_t w) {
    WindowState& st = state_[w];
    const LineagePair p = block_[w];
    LineageId folded = kNullLineage;
    LineageManager::Key key{};
    bool done = false;
    switch (op_) {
      case SetOpKind::kUnion:
        assert((p.lr != kNullLineage || p.ls != kNullLineage) &&
               "or requires at least one non-null lineage");
        if (p.lr == kNullLineage || p.ls == kNullLineage) {
          folded = p.lr == kNullLineage ? p.ls : p.lr;
          done = true;
        } else {
          done = LineageManager::FoldOr(p.lr, p.ls, &folded);
          key = {LineageKind::kOr, p.lr, p.ls};
        }
        break;
      case SetOpKind::kIntersect:
        assert(p.lr != kNullLineage && p.ls != kNullLineage &&
               "and requires non-null lineages");
        done = mgr_.FoldAnd(p.lr, p.ls, &folded, &key);
        break;
      case SetOpKind::kExcept:
        assert(p.lr != kNullLineage && "andNot requires non-null left lineage");
        if (p.ls == kNullLineage) {
          folded = p.lr;
          done = true;
        } else {
          done = mgr_.FoldAndNot(p.lr, p.ls, &folded, &key);
        }
        break;
    }
    if (done) {
      st.tag = kId;
      st.v = folded;
      return;
    }
    st.kind = key.kind;
    st.left = key.left;
    st.right = key.right;
    if (!mgr_.hash_consing_) {
      st.tag = kFirst;
      return;
    }
    st.tag = kPending;
    st.hash = ConsIndex::Hash(key.kind, key.left, key.right);
  }

  /// Phases 2-3 for the pending keys (counted per chunk and shard in
  /// counts_).
  void LookUp() {
    const std::array<std::uint32_t, kShards + 1> begin = Route(&counts_);
    const std::size_t keys = begin[kShards];
    if (keys == 0) return;
    std::unique_ptr<Routed[]> routed(new Routed[keys]);
    ForChunks([&](std::size_t c, std::size_t lo, std::size_t hi) {
      ShardCounts& cursor = counts_[c];
      for (std::size_t w = lo; w < hi; ++w) {
        if (state_[w].tag != kPending) continue;
        routed[cursor[Shard(w)]++] = {state_[w].hash,
                                      static_cast<std::uint32_t>(w)};
      }
    });
    for (ShardCounts& c : counts_) c.fill(0);

    // The first-occurrence tables, one per shard.
    std::array<std::size_t, kShards + 1> table{};
    for (std::size_t s = 0; s < kShards; ++s) {
      table[s + 1] = table[s] + FirstSeen::SlotsFor(begin[s + 1] - begin[s]);
    }
    std::unique_ptr<Routed[]> tables(new Routed[table[kShards]]);
    tallies_.resize(kShards);

    const NodeArena& nodes = mgr_.nodes_;
    ForShards([&](std::size_t s) {
      if (begin[s] == begin[s + 1]) return;
      FirstSeen seen(&tables[table[s]], table[s + 1] - table[s]);
      const ConsIndex::Shard& index = mgr_.index_.shard(s);
      Tally& tally = tallies_[s];
      for (std::uint32_t k = begin[s]; k < begin[s + 1]; ++k) {
        const Routed r = routed[k];
        WindowState& st = state_[r.item];
        ++tally.lookups;
        const LineageId hit = index.Find(r.hash, [&](LineageId id) {
          const LineageNode& n = nodes[id];
          return n.kind == st.kind && n.left == st.left && n.right == st.right;
        });
        if (hit != 0) {
          ++tally.hits;
          st.tag = kId;
          st.v = hit;
          continue;
        }
        const std::uint32_t first =
            seen.FindOrAdd(r.hash, r.item, [&](std::uint32_t u) {
              return SameKey(state_[u], st);
            });
        if (first == r.item) {
          st.tag = kFirst;
        } else {
          ++tally.hits;
          st.tag = kRef;
          st.v = first;
        }
      }
    });
  }

  /// The id of window w, which is resolved (kId, kFirst, kRef). Valid in
  /// phase 4, once every chunk's first-occurrence prefix is known.
  LineageId Resolve(std::size_t w) const {
    const WindowState& st = state_[w];
    if (st.tag == kId) return st.v;
    if (st.tag == kRef) w = st.v;
    return base_ + chunk_new_[w / chunk_] + state_[w].v;
  }

  /// Phase 4: count, prefix-sum and resolve; write the new nodes.
  void Number() {
    chunk_new_.assign(tasks_ + 1, 0);
    ForChunks([&](std::size_t c, std::size_t lo, std::size_t hi) {
      std::uint32_t fresh = 0;
      for (std::size_t w = lo; w < hi; ++w) {
        if (state_[w].tag == kFirst) state_[w].v = fresh++;
      }
      chunk_new_[c + 1] = fresh;
    });
    for (std::size_t c = 0; c < tasks_; ++c) chunk_new_[c + 1] += chunk_new_[c];
    const std::size_t added = chunk_new_[tasks_];
    mgr_.nodes_.GrowTo(base_ + added);
    if (mgr_.hash_consing_) new_hash_.reset(new std::uint32_t[added]);

    LineageNode* nodes = mgr_.nodes_.data();
    ForChunks([&](std::size_t c, std::size_t lo, std::size_t hi) {
      ShardCounts& count = counts_[c];
      for (std::size_t w = lo; w < hi; ++w) {
        const WindowState& st = state_[w];
        const LineageId id = Resolve(w);
        out_[w] = id;
        if (st.tag != kFirst) continue;
        nodes[id] = {st.kind, kInvalidVar, st.left, st.right};
        if (!mgr_.hash_consing_) continue;
        new_hash_[id - base_] = st.hash;
        ++count[ConsIndex::ShardOf(st.hash)];
      }
    });
  }

  /// Phase 5: index the new nodes, each shard grown once by its owner.
  void Index() {
    const std::array<std::uint32_t, kShards + 1> begin = Route(&counts_);
    if (begin[kShards] == 0) return;
    std::unique_ptr<Routed[]> routed(new Routed[begin[kShards]]);
    ForChunks([&](std::size_t c, std::size_t, std::size_t) {
      ShardCounts& cursor = counts_[c];
      for (std::uint32_t k = chunk_new_[c]; k < chunk_new_[c + 1]; ++k) {
        const std::uint32_t h = new_hash_[k];
        routed[cursor[ConsIndex::ShardOf(h)]++] = {h, base_ + k};
      }
    });
    ForShards([&](std::size_t s) {
      ConsIndex::Shard& shard = mgr_.index_.shard(s);
      shard.Reserve(begin[s + 1] - begin[s]);
      for (std::uint32_t k = begin[s]; k < begin[s + 1]; ++k) {
        shard.Insert(routed[k].hash, routed[k].item);
      }
    });
  }

  LineageManager& mgr_;
  const SetOpKind op_;
  const LineagePair* const block_;
  LineageId* const out_;
  const std::size_t n_;
  const LineageId base_;
  const std::size_t tasks_;
  const std::size_t chunk_;
  ThreadPool* const pool_;
  std::unique_ptr<WindowState[]> state_;
  /// Per chunk: keys per shard, then scatter cursors.
  std::vector<ShardCounts> counts_;
  /// Per shard: the lookups and hits its owner counted.
  std::vector<Tally> tallies_;
  /// chunk_new_[c]: new nodes in chunks before c.
  std::vector<std::uint32_t> chunk_new_;
  /// The hash of new node base_ + k, for phase 5.
  std::unique_ptr<std::uint32_t[]> new_hash_;
};

void LineageManager::ConcatBlock(SetOpKind op,
                                 std::span<const LineagePair> block,
                                 ThreadPool* pool, std::span<LineageId> out) {
  assert(out.size() == block.size());
  const std::size_t n = block.size();
  const std::size_t tasks =
      pool == nullptr
          ? 1
          : std::clamp<std::size_t>(n / kMinWindowsPerTask, 1, pool->size());
  if (tasks > 1) {
    BlockIntern(*this, op, block, pool, tasks, out).Run();
    return;
  }
  switch (op) {
    case SetOpKind::kUnion:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = ConcatOr(block[i].lr, block[i].ls);
      }
      return;
    case SetOpKind::kIntersect:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = ConcatAnd(block[i].lr, block[i].ls);
      }
      return;
    case SetOpKind::kExcept:
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = ConcatAndNot(block[i].lr, block[i].ls);
      }
      return;
  }
}

}  // namespace tpset
