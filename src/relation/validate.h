// Well-formedness and duplicate-freeness checks for TP relations.
#ifndef TPSET_RELATION_VALIDATE_H_
#define TPSET_RELATION_VALIDATE_H_

#include "common/status.h"
#include "relation/relation.h"

namespace tpset {

/// Structural sanity: context present, every interval non-empty, every
/// lineage concrete (never kNullLineage), every fact id interned.
Status ValidateWellFormed(const TpRelation& rel);

/// The paper's duplicate-freeness (§III): for any two distinct tuples with
/// the same fact, the intervals must not overlap. O(n) with no copy on
/// (fact, start)-sorted input; O(n log n) on a sorted copy otherwise.
Status ValidateDuplicateFree(const TpRelation& rel);

/// The (fact, start) order required by LAWA and by the fact-range
/// partitioner. Enforced at the catalog boundary (QueryExecutor::Register)
/// so every registered relation is partition-ready; sort with
/// TpRelation::SortFactTime first. O(n).
Status ValidateSortedFactTime(const TpRelation& rel);

/// Preconditions for a binary TP set operation: both relations well formed,
/// duplicate-free, sharing one context, with compatible schemas.
Status ValidateSetOpInputs(const TpRelation& r, const TpRelation& s);

}  // namespace tpset

#endif  // TPSET_RELATION_VALIDATE_H_
