// LineageManager::ConcatBlock: one Table I operation's concatenations for a
// block of windows, interned on a thread pool with the ids, nodes, index
// contents and intern counts of the sequential ConcatLineage loop.
//
// A block that gets one task (a null or one-worker pool, or fewer than
// 2 * kMinWindowsPerTask windows) runs that loop itself: on one thread, the
// phases below cost 19-28% more than the loop per 4096-window block
// (DESIGN.md, "Sequential operator").
//
// A window makes at most two constructions, at positions 2w + level: its
// ∧/∨ (or andNot's ¬) at level 0, and andNot's ∧ at level 1. The loop
// appends a node exactly at the first occurrence of a key that the arena
// lacks, so a new node's id is size() at the call plus the number of first
// occurrences at earlier positions. The block computes that in phases, each
// run as one task per worker with a barrier after it:
//
//   1. fold    (by window chunk) Table I's null rules and the constant, ¬¬
//              and a ∧ a folds; every remaining key is hashed and counted
//              per (chunk, shard).
//   2. route   (by window chunk) a stable radix scatter of the keys into
//              shard order, window order kept within a shard.
//   3. look up (by shard) the owner probes its shard of the index — only
//              pre-block nodes are in it — and records each miss's first
//              occurrence in a table of its own. For andNot, a ∧ over a
//              pre-existing ¬ is a level-1 key with known children and
//              repeats 2-3; a ∧ over a ¬ that is new in this block cannot
//              exist in the arena, and since equal ¬s share a shard, the
//              same owner deduplicates it on (λr, λs) at once.
//   4. number  (by window chunk) first occurrences are counted per chunk,
//              prefix-summed, and every position resolves to its id; new
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
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "lineage/lineage.h"
#include "parallel/thread_pool.h"

namespace tpset {

namespace {

constexpr std::size_t kShards = ConsIndex::kShards;

/// How one (window, level) position resolves.
enum Tag : std::uint8_t {
  kNone,     // no construction at this level
  kId,       // v is the id: a fold, or a node that existed before the block
  kPending,  // a key not looked up yet; its hash is in WindowState::hash
  kFirst,    // the first occurrence of a key the arena lacks: a new node
  kRef,      // v is the position 2w + level of the key's first occurrence
};

struct WindowState {
  LineageId v[2];
  /// The pending key's hash; from phase 4 on, the number of first
  /// occurrences in this window's chunk before it.
  std::uint32_t hash;
  Tag tag[2];
};

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
    assert(n_ < (std::size_t{1} << 31) && "positions 2w + 1 must fit 32 bits");
    switch (op_) {
      case SetOpKind::kUnion: kind0_ = LineageKind::kOr; break;
      case SetOpKind::kIntersect: kind0_ = LineageKind::kAnd; break;
      case SetOpKind::kExcept: kind0_ = LineageKind::kNot; break;
    }
  }

  void Run() {
    const bool consing = mgr_.hash_consing_;
    ForChunks([&](std::size_t c, std::size_t lo, std::size_t hi) {
      for (std::size_t w = lo; w < hi; ++w) {
        Fold(w);
        if (state_[w].tag[0] == kPending) ++counts_[c][Shard(w)];
      }
    });
    if (consing) {
      LookUp(/*level=*/0);
      if (op_ == SetOpKind::kExcept) {
        ForChunks([&](std::size_t c, std::size_t lo, std::size_t hi) {
          for (std::size_t w = lo; w < hi; ++w) {
            if (state_[w].tag[1] == kPending) ++counts_[c][Shard(w)];
          }
        });
        LookUp(/*level=*/1);
      }
    }
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

  /// Marks (w, level) as the key (kind, a, b): pending a lookup, or — with
  /// hash-consing off — a new node outright.
  void Key(std::size_t w, int level, LineageKind kind, LineageId a,
           LineageId b) {
    WindowState& st = state_[w];
    if (!mgr_.hash_consing_) {
      st.tag[level] = kFirst;
      return;
    }
    st.tag[level] = kPending;
    st.hash = ConsIndex::Hash(kind, a, b);
  }

  /// andNot's level 1 over a ¬ that is new in this block, first at
  /// position `neg`: the folds of MakeAnd(λr, ¬λs) — the ∧ cannot exist in
  /// the arena, and equal ∧s share λr and λs. `seen` is null with
  /// hash-consing off.
  void AndOverNewNot(std::size_t w, std::uint32_t neg, FirstSeen* seen,
                     Tally* tally) {
    WindowState& st = state_[w];
    const LineagePair p = block_[w];
    if (p.lr == LineageManager::kFalseId) {
      st.tag[1] = kId;
      st.v[1] = LineageManager::kFalseId;
    } else if (p.lr == LineageManager::kTrueId) {
      st.tag[1] = kRef;
      st.v[1] = neg;
    } else if (seen == nullptr) {
      st.tag[1] = kFirst;
    } else {
      ++tally->lookups;
      const std::uint32_t first = seen->FindOrAdd(
          ConsIndex::Hash(LineageKind::kAnd, p.lr, p.ls),
          static_cast<std::uint32_t>(w), [&](std::uint32_t u) {
            return block_[u].lr == p.lr && block_[u].ls == p.ls;
          });
      if (first == w) {
        st.tag[1] = kFirst;
      } else {
        ++tally->hits;
        st.tag[1] = kRef;
        st.v[1] = 2 * first + 1;
      }
    }
  }

  /// Phase 1 for window w.
  void Fold(std::size_t w) {
    WindowState& st = state_[w];
    st.tag[0] = st.tag[1] = kNone;
    const LineagePair p = block_[w];
    LineageId folded = kNullLineage;
    switch (op_) {
      case SetOpKind::kUnion:
        assert((p.lr != kNullLineage || p.ls != kNullLineage) &&
               "or requires at least one non-null lineage");
        if (p.lr == kNullLineage || p.ls == kNullLineage) {
          st.tag[0] = kId;
          st.v[0] = p.lr == kNullLineage ? p.ls : p.lr;
        } else if (LineageManager::FoldOr(p.lr, p.ls, &folded)) {
          st.tag[0] = kId;
          st.v[0] = folded;
        } else {
          Key(w, 0, LineageKind::kOr, p.lr, p.ls);
        }
        return;
      case SetOpKind::kIntersect:
        assert(p.lr != kNullLineage && p.ls != kNullLineage &&
               "and requires non-null lineages");
        if (LineageManager::FoldAnd(p.lr, p.ls, &folded)) {
          st.tag[0] = kId;
          st.v[0] = folded;
        } else {
          Key(w, 0, LineageKind::kAnd, p.lr, p.ls);
        }
        return;
      case SetOpKind::kExcept:
        assert(p.lr != kNullLineage && "andNot requires non-null left lineage");
        if (p.ls == kNullLineage) {
          st.tag[1] = kId;
          st.v[1] = p.lr;
        } else if (mgr_.FoldNot(p.ls, &folded)) {
          st.tag[0] = kId;
          st.v[0] = folded;
          AndOverKnown(w);
        } else {
          Key(w, 0, LineageKind::kNot, p.ls, kNullLineage);
          if (!mgr_.hash_consing_) {
            AndOverNewNot(w, static_cast<std::uint32_t>(2 * w), nullptr,
                          nullptr);
          }
        }
        return;
    }
  }

  /// andNot's level 1 once its ¬ (state v[0]) is a known id.
  void AndOverKnown(std::size_t w) {
    WindowState& st = state_[w];
    const LineageId lr = block_[w].lr;
    LineageId folded = kNullLineage;
    if (LineageManager::FoldAnd(lr, st.v[0], &folded)) {
      st.tag[1] = kId;
      st.v[1] = folded;
    } else {
      Key(w, 1, LineageKind::kAnd, lr, st.v[0]);
    }
  }

  /// The key at (w, level), for comparing against nodes and other windows.
  LineageKind KindAt(int level) const {
    return level == 0 ? kind0_ : LineageKind::kAnd;
  }
  std::pair<LineageId, LineageId> KeyAt(std::size_t w, int level) const {
    const LineagePair p = block_[w];
    if (level == 1) return {p.lr, state_[w].v[0]};
    if (op_ == SetOpKind::kExcept) return {p.ls, kNullLineage};
    return {p.lr, p.ls};
  }

  /// Phases 2-3 for the pending keys at `level` (counted per chunk and
  /// shard in counts_).
  void LookUp(int level) {
    const std::array<std::uint32_t, kShards + 1> begin = Route(&counts_);
    const std::size_t keys = begin[kShards];
    if (keys == 0) return;
    std::unique_ptr<Routed[]> routed(new Routed[keys]);
    ForChunks([&](std::size_t c, std::size_t lo, std::size_t hi) {
      ShardCounts& cursor = counts_[c];
      for (std::size_t w = lo; w < hi; ++w) {
        if (state_[w].tag[level] != kPending) continue;
        routed[cursor[Shard(w)]++] = {state_[w].hash,
                                      static_cast<std::uint32_t>(w)};
      }
    });
    for (ShardCounts& c : counts_) c.fill(0);

    // The first-occurrence tables: one per shard, plus, for andNot's ¬s,
    // one for the ∧s over the new ones.
    const bool nested = level == 0 && op_ == SetOpKind::kExcept;
    std::array<std::size_t, kShards + 1> table{};
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::size_t slots = FirstSeen::SlotsFor(begin[s + 1] - begin[s]);
      table[s + 1] = table[s] + (nested ? 2 : 1) * slots;
    }
    std::unique_ptr<Routed[]> tables(new Routed[table[kShards]]);
    tallies_.resize(kShards);

    const LineageKind kind = KindAt(level);
    const NodeArena& nodes = mgr_.nodes_;
    ForShards([&](std::size_t s) {
      if (begin[s] == begin[s + 1]) return;
      const std::size_t slots = FirstSeen::SlotsFor(begin[s + 1] - begin[s]);
      FirstSeen seen(&tables[table[s]], slots);
      std::optional<FirstSeen> seen_and;
      if (nested) seen_and.emplace(&tables[table[s] + slots], slots);
      const ConsIndex::Shard& index = mgr_.index_.shard(s);
      Tally& tally = tallies_[s];
      for (std::uint32_t k = begin[s]; k < begin[s + 1]; ++k) {
        const Routed r = routed[k];
        const std::size_t w = r.item;
        WindowState& st = state_[w];
        const auto [a, b] = KeyAt(w, level);
        ++tally.lookups;
        const LineageId hit = index.Find(r.hash, [&](LineageId id) {
          const LineageNode& n = nodes[id];
          return n.kind == kind && n.left == a && n.right == b;
        });
        if (hit != 0) {
          ++tally.hits;
          st.tag[level] = kId;
          st.v[level] = hit;
          // A pre-existing ¬: its ∧ has known children, looked up next.
          if (nested) AndOverKnown(w);
          continue;
        }
        const std::uint32_t first =
            seen.FindOrAdd(r.hash, r.item, [&](std::uint32_t u) {
              return KeyAt(u, level) == std::pair{a, b};
            });
        std::uint32_t pos = static_cast<std::uint32_t>(2 * w + level);
        if (first == r.item) {
          st.tag[level] = kFirst;
        } else {
          ++tally.hits;
          pos = static_cast<std::uint32_t>(2 * first + level);
          st.tag[level] = kRef;
          st.v[level] = pos;
        }
        if (nested) AndOverNewNot(w, pos, &*seen_and, &tally);
      }
    });
  }

  /// The id of position (w, level), which is resolved (kId, kFirst, kRef).
  /// Valid in phase 4, once every chunk's first-occurrence prefix is known.
  LineageId Resolve(std::size_t w, int level) const {
    const WindowState& st = state_[w];
    if (st.tag[level] == kId) return st.v[level];
    if (st.tag[level] == kRef) {
      w = st.v[level] >> 1;
      level = static_cast<int>(st.v[level] & 1);
    }
    const WindowState& first = state_[w];
    return base_ + chunk_new_[w / chunk_] + first.hash +
           (level == 1 && first.tag[0] == kFirst ? 1 : 0);
  }

  /// Phase 4: count, prefix-sum and resolve; write the new nodes.
  void Number() {
    chunk_new_.assign(tasks_ + 1, 0);
    ForChunks([&](std::size_t c, std::size_t lo, std::size_t hi) {
      std::uint32_t fresh = 0;
      for (std::size_t w = lo; w < hi; ++w) {
        WindowState& st = state_[w];
        st.hash = fresh;
        fresh += (st.tag[0] == kFirst) + (st.tag[1] == kFirst);
      }
      chunk_new_[c + 1] = fresh;
    });
    for (std::size_t c = 0; c < tasks_; ++c) chunk_new_[c + 1] += chunk_new_[c];
    const std::size_t added = chunk_new_[tasks_];
    mgr_.nodes_.GrowTo(base_ + added);
    if (mgr_.hash_consing_) new_hash_.reset(new std::uint32_t[added]);

    const int out_level = op_ == SetOpKind::kExcept ? 1 : 0;
    LineageNode* nodes = mgr_.nodes_.data();
    ForChunks([&](std::size_t c, std::size_t lo, std::size_t hi) {
      ShardCounts& count = counts_[c];
      auto add = [&](LineageId id, LineageKind kind, LineageId a, LineageId b) {
        nodes[id] = {kind, kInvalidVar, a, b};
        if (!mgr_.hash_consing_) return;
        const std::uint32_t h = ConsIndex::Hash(kind, a, b);
        new_hash_[id - base_] = h;
        ++count[ConsIndex::ShardOf(h)];
      };
      for (std::size_t w = lo; w < hi; ++w) {
        const WindowState& st = state_[w];
        if (st.tag[0] == kFirst) {
          const auto [a, b] = KeyAt(w, 0);
          add(Resolve(w, 0), kind0_, a, b);
        }
        if (st.tag[1] == kFirst) {
          add(Resolve(w, 1), LineageKind::kAnd, block_[w].lr, Resolve(w, 0));
        }
        out_[w] = Resolve(w, out_level);
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
  LineageKind kind0_ = LineageKind::kOr;
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
