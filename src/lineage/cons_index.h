// Sharded open-addressed hash-consing index behind LineageManager.
//
// The index is kShards independent tables; a key's shard is the top
// kShardBits of its 32-bit hash. Each shard is a power-of-two table of
// (32-bit hash, 32-bit id) slots, probed linearly from `hash & mask`. Id 0
// marks an empty slot: it is the constant False, which is never interned. A
// probe compares the stored hash first — the tag filter — and asks the
// owner to compare nodes only when the tags match, so walking past an
// occupied slot reads no node. Only ∧/∨/¬/andNot nodes are keyed here: a
// variable leaf is found by its VarId in LineageManager's leaf table, which
// needs no hash. A −Tp window keys at most one node, the fused andNot
// (kind, λ1, λ2).
//
// A shard allocates its table on its first insert, at kMinSlots, and
// doubles on its own once more than three quarters of its slots are taken,
// so it holds 11-21 bytes per indexed node and linear probes stay short; an
// empty index owns no memory. Growth re-inserts each occupied slot at
// `stored hash & new mask`: the index keeps the whole hash, so it needs
// neither a rehash nor the nodes, and never walks the arena. That is what
// lets arena nodes that were never indexed (variable leaves, every node
// with hash_consing off) sit beside indexed ones — growth cannot pick them
// up.
//
// A shard's slot count is a function of its key count alone, and a key's
// shard of its hash alone, so any insertion order of one key set leaves the
// same bytes(). Shards share nothing, which is what lets
// LineageManager::ConcatBlock give each shard to one worker — probes,
// growth and inserts with no atomics (DESIGN.md, "Lineage arena").
#ifndef TPSET_LINEAGE_CONS_INDEX_H_
#define TPSET_LINEAGE_CONS_INDEX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace tpset {

enum class LineageKind : std::uint8_t;

class ConsIndex {
 public:
  static constexpr unsigned kShardBits = 6;
  static constexpr std::size_t kShards = std::size_t{1} << kShardBits;

  /// Hash of a ∧/∨/¬/andNot node's full key. The pre-mix is injective per
  /// kind over (left, right); the 64-bit finalizer (MurmurHash3's fmix64) spreads
  /// every input bit into both the top bits that pick the shard and the low
  /// bits a shard masks with.
  static std::uint32_t Hash(LineageKind kind, LineageId left, LineageId right) {
    std::uint64_t x = (std::uint64_t{left} << 32 | right) ^
                      (static_cast<std::uint8_t>(kind) * 0x9E3779B97F4A7C15ull);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return static_cast<std::uint32_t>(x);
  }

  /// The shard that holds keys of this hash.
  static std::size_t ShardOf(std::uint32_t hash) {
    return hash >> (32 - kShardBits);
  }

  /// One independent table: the unit a single thread owns.
  class Shard {
   public:
    /// The indexed id stored under `hash` for which `same(id)` holds, or 0
    /// (never an indexed id) on a miss. Reads only.
    template <typename Same>
    LineageId Find(std::uint32_t hash, Same&& same) const {
      if (slots_.empty()) return kEmpty;
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = hash & mask; slots_[i].id != kEmpty;
           i = (i + 1) & mask) {
        if (slots_[i].hash == hash && same(slots_[i].id)) return slots_[i].id;
      }
      return kEmpty;
    }

    /// Find, and on a miss indexes `fresh` under `hash` and returns it.
    template <typename Same>
    LineageId FindOrAdd(std::uint32_t hash, LineageId fresh, Same&& same) {
      if (slots_.empty()) slots_.assign(kMinSlots, Slot{0, kEmpty});
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = hash & mask;
      for (; slots_[i].id != kEmpty; i = (i + 1) & mask) {
        if (slots_[i].hash == hash && same(slots_[i].id)) return slots_[i].id;
      }
      slots_[i] = {hash, fresh};
      if (++size_ * 4 > slots_.size() * 3) Resize(2 * slots_.size());
      return fresh;
    }

    /// Indexes `id` under `hash`; the caller knows the key is absent. Grows
    /// exactly as FindOrAdd's miss does.
    void Insert(std::uint32_t hash, LineageId id) {
      FindOrAdd(hash, id, [](LineageId) { return false; });
    }

    /// Grows the table at once to the slot count `size() + more` inserts
    /// would reach one at a time, so a bulk insert rehashes at most once.
    void Reserve(std::size_t more) {
      if (more == 0) return;
      std::size_t slots = slots_.empty() ? kMinSlots : slots_.size();
      while ((size_ + more) * 4 > slots * 3) slots *= 2;
      if (slots != slots_.size()) Resize(slots);
    }

    std::size_t size() const { return size_; }
    std::size_t bytes() const { return slots_.size() * sizeof(Slot); }

   private:
    struct Slot {
      std::uint32_t hash;
      LineageId id;
    };

    void Resize(std::size_t slots) {
      const std::vector<Slot> old =
          std::exchange(slots_, std::vector<Slot>(slots, Slot{0, kEmpty}));
      const std::size_t mask = slots_.size() - 1;
      for (const Slot& s : old) {
        if (s.id == kEmpty) continue;
        std::size_t i = s.hash & mask;
        while (slots_[i].id != kEmpty) i = (i + 1) & mask;
        slots_[i] = s;
      }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  /// The indexed id stored under `hash` for which `same(id)` holds; on a
  /// miss, indexes `fresh` under `hash` and returns it.
  template <typename Same>
  LineageId FindOrAdd(std::uint32_t hash, LineageId fresh, Same&& same) {
    return shards_[ShardOf(hash)].FindOrAdd(hash, fresh,
                                            std::forward<Same>(same));
  }

  Shard& shard(std::size_t s) { return shards_[s]; }
  const Shard& shard(std::size_t s) const { return shards_[s]; }

  /// Bytes held by the slot tables.
  std::size_t bytes() const {
    std::size_t total = 0;
    for (const Shard& s : shards_) total += s.bytes();
    return total;
  }

 private:
  static constexpr LineageId kEmpty = 0;
  static constexpr std::size_t kMinSlots = 16;

  std::array<Shard, kShards> shards_;
};

}  // namespace tpset

#endif  // TPSET_LINEAGE_CONS_INDEX_H_
