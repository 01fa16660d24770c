// Open-addressed hash-consing index behind LineageManager and StagingArena.
//
// Slots are (32-bit hash, 32-bit id) pairs in a power-of-two table, probed
// linearly from `hash & mask`. Id 0 marks an empty slot: it is the constant
// False, which is never interned (nor is any staged cell, whose ids start
// at frozen_size >= 2). A probe compares the stored hash first — the tag
// filter — and asks the owner to compare nodes only when the tags match, so
// walking past an occupied slot reads no node.
//
// The table doubles once more than three quarters of its slots are taken,
// so it holds 11-21 bytes per indexed node and linear probes stay short.
// Growth re-inserts each occupied slot at `stored hash & new mask`: the
// index keeps the whole hash, so it needs neither a rehash nor the nodes,
// and never walks the arena. That is what lets arena nodes that were never
// indexed (SpliceStaged cells, every node with hash_consing off) sit beside
// indexed ones — growth cannot pick them up.
#ifndef TPSET_LINEAGE_CONS_INDEX_H_
#define TPSET_LINEAGE_CONS_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace tpset {

enum class LineageKind : std::uint8_t;

class ConsIndex {
 public:
  /// Hash of a node's full key. The pre-mix is injective per kind over
  /// (left, right) and over var; the 64-bit finalizer (MurmurHash3's fmix64)
  /// spreads every input bit into the low bits the table masks with.
  static std::uint32_t Hash(LineageKind kind, VarId var, LineageId left,
                            LineageId right) {
    const std::uint64_t kind_var =
        std::uint64_t{var} << 3 | static_cast<std::uint8_t>(kind);
    std::uint64_t x = (std::uint64_t{left} << 32 | right) ^
                      (kind_var * 0x9E3779B97F4A7C15ull);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return static_cast<std::uint32_t>(x);
  }

  /// The indexed id stored under `hash` for which `same(id)` holds; on a
  /// miss, indexes `fresh` under `hash` and returns it.
  template <typename Same>
  LineageId FindOrAdd(std::uint32_t hash, LineageId fresh, Same&& same) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    for (; slots_[i].id != kEmpty; i = (i + 1) & mask) {
      if (slots_[i].hash == hash && same(slots_[i].id)) return slots_[i].id;
    }
    slots_[i] = {hash, fresh};
    if (++size_ * 4 > slots_.size() * 3) Grow();
    return fresh;
  }

  /// Bytes held by the slot table.
  std::size_t bytes() const { return slots_.size() * sizeof(Slot); }

 private:
  static constexpr LineageId kEmpty = 0;
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    std::uint32_t hash;
    LineageId id;
  };

  void Grow() {
    const std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(2 * slots_.size(), Slot{0, kEmpty}));
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kEmpty) continue;
      std::size_t i = s.hash & mask;
      while (slots_[i].id != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(kMinSlots, Slot{0, kEmpty});
  std::size_t size_ = 0;
};

}  // namespace tpset

#endif  // TPSET_LINEAGE_CONS_INDEX_H_
