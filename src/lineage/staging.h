// Per-range staging of lineage concatenations against a frozen arena, for
// the incremental engine's parallel delta apply (one-shot execution interns
// through LineageManager::ConcatBlock instead, with t1's ids).
//
// A StagingArena lets each fact range intern its concatenations
// *thread-locally*: cells carry range-local ids numbered upward from a
// frozen base-arena snapshot size, and reference either frozen base nodes
// (id < frozen_size) or earlier cells of the same staging arena
// (id >= frozen_size). A cheap sequential merge
// (LineageManager::SpliceStaged) later walks ranges in fact order and
// splices the staged cells into the shared arena with a deterministic
// old-id→new-id remap — O(staged cells) of mostly-memcpy work.
//
// Safety: staging runs on pool threads while the splicing thread appends
// to the shared arena, so a StagingArena never reads base-arena nodes — it
// only compares ids against the frozen snapshot size and the constant ids.
// That is what makes overlapped splices sound: SpliceStaged for range i
// may append to the shared arena while ranges > i are still staging on
// pool threads — those arenas reference only ids below their common frozen
// snapshot, never the nodes the splice is appending. The splice-readiness
// handoff is the scheduler's completion plane (MorselBatch::WaitMorsel): a
// range's cells become splice-ready exactly when its done flag flips under
// the batch mutex, which also publishes the cell vector to the splicing
// thread. Consequence: the ¬¬-fold of LineageManager::MakeNot is applied
// only when the operand is a staged cell (whose node the arena owns); a
// base-id operand whose node happens to be a negation is wrapped as ¬¬x
// instead of folding to x. This never arises from the set-operation
// algebra (derived lineages are ∧/∨-rooted) and is semantically neutral —
// valuation and therefore tuple probabilities are unchanged.
//
// Deduplication is local: with hash-consing, structurally equal cells share
// one id *within* a staging arena, but the splice deliberately does not
// hash cells into the shared consing index. A cell structurally equal to a
// node of another range or to a pre-existing node becomes a duplicate
// arena node — semantically neutral, since valuation and CanonicalKey are
// structural.
//
// Determinism: for a fixed range layout the staged cells, and the splice
// order, are a pure function of the inputs, so staging is deterministic
// across runs. Node *ids* may differ from the sequential interning order:
// same tuples, same intervals, probability-equal lineage.
#ifndef TPSET_LINEAGE_STAGING_H_
#define TPSET_LINEAGE_STAGING_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/types.h"
#include "lineage/cons_index.h"
#include "lineage/lineage.h"

namespace tpset {

/// Thread-local arena of deferred lineage concatenations. Mirrors the
/// constant-folding and (local) hash-consing behavior of LineageManager's
/// Table I concatenation functions; see the file comment for the one
/// intended folding deviation.
class StagingArena {
 public:
  /// `frozen_size` must exceed every base-arena id the staged formulas will
  /// reference (use 1 + the maximum input lineage id, at least 2 so the
  /// constants are base ids). `hash_consing` should match the base manager:
  /// with it, structurally equal staged cells share one local id.
  StagingArena(LineageId frozen_size, bool hash_consing)
      : frozen_(frozen_size), hash_consing_(hash_consing) {
    assert(frozen_ >= 2 && "constants must be below the frozen snapshot");
  }

  StagingArena(StagingArena&&) = default;
  StagingArena& operator=(StagingArena&&) = default;

  // ---- Table I lineage-concatenation functions (null-aware) ----

  /// and(λ1, λ2); both inputs non-null.
  LineageId ConcatAnd(LineageId l1, LineageId l2) { return MakeAnd(l1, l2); }

  /// andNot(λ1, λ2) = λ1 if λ2 = null, else (λ1) ∧ ¬(λ2).
  LineageId ConcatAndNot(LineageId l1, LineageId l2) {
    assert(l1 != kNullLineage && "andNot requires non-null left lineage");
    if (l2 == kNullLineage) return l1;
    return MakeAnd(l1, MakeNot(l2));
  }

  /// or(λ1, λ2) = the non-null side if one is null, else (λ1) ∨ (λ2).
  LineageId ConcatOr(LineageId l1, LineageId l2) {
    assert((l1 != kNullLineage || l2 != kNullLineage) &&
           "or requires at least one non-null lineage");
    if (l1 == kNullLineage) return l2;
    if (l2 == kNullLineage) return l1;
    return MakeOr(l1, l2);
  }

  /// Base-arena snapshot size this arena was built against. Ids >= this are
  /// staged cells (local index id - frozen_size()); ids below are frozen
  /// base nodes that pass through the splice unchanged.
  LineageId frozen_size() const { return frozen_; }

  /// Staged cells in creation order. Children are encoded as described
  /// above; kNot cells leave `right` at kNullLineage.
  const std::vector<LineageNode>& cells() const { return cells_; }

  std::size_t size() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }
  bool hash_consing() const { return hash_consing_; }

 private:
  LineageId MakeNot(LineageId a);
  LineageId MakeAnd(LineageId a, LineageId b);
  LineageId MakeOr(LineageId a, LineageId b);
  LineageId Intern(LineageKind kind, LineageId left, LineageId right);

  LineageId frozen_;
  bool hash_consing_;
  std::vector<LineageNode> cells_;
  // Local consing table over cell ids; staging never creates kVar cells.
  // One shard's table, not the sharded index: nothing splits a staging
  // arena's interning across threads, and the incremental engine builds
  // one arena per fact range per epoch, most of which intern a few cells.
  ConsIndex::Shard index_;
};

}  // namespace tpset

#endif  // TPSET_LINEAGE_STAGING_H_
