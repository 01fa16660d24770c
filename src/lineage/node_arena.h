// The lineage node array: one reserved address range that never moves.
//
// NodeArena keeps LineageManager's nodes in an address range reserved once
// for the whole 32-bit id space — 2^32 nodes of 16 bytes, 64 GiB of
// addresses — with mmap(PROT_NONE, MAP_NORESERVE), which takes addresses
// but no memory. Growth commits the range with mprotect in doubling steps
// from kCommitFloorBytes, so it copies nothing, faults each page once, and
// a reference to a node stays valid for the arena's lifetime. The range is
// advised MADV_HUGEPAGE: once the committed prefix passes 2 MiB, each
// further 2 MiB-aligned stretch can fault in as one huge page, while a
// small arena stays on 4 KiB pages (DESIGN.md, "Lineage arena").
//
// A refused reservation (an RLIMIT_AS cap, a sanitizer's smaller
// application range) halves and retries down to kCommitFloorBytes. An arena
// that outgrows a shrunken reservation throws std::bad_alloc, as a vector
// does when memory runs out; a node past the id space throws
// std::length_error rather than take the id kNullLineage.
#ifndef TPSET_LINEAGE_NODE_ARENA_H_
#define TPSET_LINEAGE_NODE_ARENA_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace tpset {

/// Node discriminator. kTrue/kFalse arise only from restriction (Shannon
/// cofactors); the set-operation algebra itself never creates constants.
/// kAndNot is Table I's andNot(λ1, λ2) = λ1 ∧ ¬λ2 stored as one node, the
/// one place set operations build a ¬: no kAnd node has a kNot right child
/// (LineageManager::MakeAnd builds a kAndNot instead).
enum class LineageKind : std::uint8_t {
  kFalse = 0,
  kTrue,
  kVar,
  kNot,
  kAnd,
  kOr,
  kAndNot,
};

/// One formula node. For kVar, `var` holds the variable; for kNot only
/// `left` is used; for kAnd/kOr both children are used; for kAndNot `left`
/// is λ1 and `right` is λ2, the negated operand.
struct LineageNode {
  LineageKind kind;
  VarId var;
  LineageId left;
  LineageId right;
};

class NodeArena {
 public:
  /// Bytes of the first commit; each later one doubles the committed size.
  static constexpr std::size_t kCommitFloorBytes = std::size_t{64} << 10;
  /// Bytes reserved when the address space allows: every id below
  /// kNullLineage, rounded up to 2^32 nodes.
  static constexpr std::size_t kReserveBytes =
      (std::size_t{1} << 32) * sizeof(LineageNode);

  /// Reserves the range; throws std::bad_alloc if not even
  /// kCommitFloorBytes of addresses are available.
  NodeArena();
  ~NodeArena();
  NodeArena(const NodeArena&) = delete;
  NodeArena& operator=(const NodeArena&) = delete;

  std::size_t size() const { return size_; }
  const LineageNode& operator[](LineageId id) const { return nodes_[id]; }
  LineageNode* data() { return nodes_; }

  void push_back(const LineageNode& node) {
    if (size_ == committed_) Commit(size_ + 1);
    Expose(size_, size_ + 1);
    nodes_[size_++] = node;
  }

  /// Grows to `n` nodes; the caller writes the new ones.
  void GrowTo(std::size_t n) {
    if (n > committed_) Commit(n);
    Expose(size_, n);
    size_ = n;
  }

  /// Bytes committed so far: a function of the largest size() reached.
  std::size_t committed_bytes() const {
    return committed_ * sizeof(LineageNode);
  }
  /// Bytes of addresses reserved: kReserveBytes unless the reservation had
  /// to shrink.
  std::size_t reserved_bytes() const {
    return reserved_ * sizeof(LineageNode);
  }

 private:
  /// Commits the smallest doubling step that holds `n` nodes.
  void Commit(std::size_t n);
  /// Marks nodes [from, to) as in use for AddressSanitizer, which otherwise
  /// sees the committed tail beyond size() as poisoned; a no-op elsewhere.
  void Expose(std::size_t from, std::size_t to);

  LineageNode* nodes_ = nullptr;
  std::size_t size_ = 0;
  std::size_t committed_ = 0;
  std::size_t reserved_ = 0;
  void* map_ = nullptr;  // the mapping as mmap returned it
  std::size_t map_bytes_ = 0;
};

#if !defined(__SANITIZE_ADDRESS__)
inline void NodeArena::Expose(std::size_t, std::size_t) {}
#endif

}  // namespace tpset

#endif  // TPSET_LINEAGE_NODE_ARENA_H_
