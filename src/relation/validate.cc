#include "relation/validate.h"

#include <algorithm>
#include <vector>

namespace tpset {

Status ValidateWellFormed(const TpRelation& rel) {
  if (!rel.context()) {
    return Status::InvalidArgument("relation '" + rel.name() + "' has no context");
  }
  const FactDictionary& facts = rel.context()->facts();
  for (std::size_t i = 0; i < rel.size(); ++i) {
    const TpTuple& t = rel[i];
    if (!t.t.IsValid()) {
      return Status::Corruption("tuple " + std::to_string(i) + " of '" + rel.name() +
                                "' has empty interval " + ToString(t.t));
    }
    if (t.lineage == kNullLineage) {
      return Status::Corruption("tuple " + std::to_string(i) + " of '" + rel.name() +
                                "' has null lineage");
    }
    if (!facts.Contains(t.fact)) {
      return Status::Corruption("tuple " + std::to_string(i) + " of '" + rel.name() +
                                "' references unknown fact id " +
                                std::to_string(t.fact));
    }
  }
  return Status::OK();
}

Status ValidateDuplicateFree(const TpRelation& rel) {
  // In (fact, start) order, two overlapping tuples of one fact imply an
  // overlapping adjacent pair, so sorted input (all that Register accepts)
  // is checked in place. Only unsorted input is copied and sorted.
  std::vector<TpTuple> copy;
  const std::vector<TpTuple>* sorted = &rel.tuples();
  if (!rel.IsSortedFactTime()) {
    copy = rel.tuples();
    std::sort(copy.begin(), copy.end(), FactTimeOrder());
    sorted = &copy;
  }
  for (std::size_t i = 1; i < sorted->size(); ++i) {
    const TpTuple& prev = (*sorted)[i - 1];
    const TpTuple& cur = (*sorted)[i];
    if (prev.fact == cur.fact && prev.t.Overlaps(cur.t)) {
      return Status::InvalidArgument(
          "relation '" + rel.name() + "' is not duplicate-free: fact " +
          ToString(rel.context()->facts().Get(cur.fact)) + " has overlapping intervals " +
          ToString(prev.t) + " and " + ToString(cur.t));
    }
  }
  return Status::OK();
}

Status ValidateSortedFactTime(const TpRelation& rel) {
  if (!rel.IsSortedFactTime()) {
    return Status::InvalidArgument(
        "relation '" + rel.name() +
        "' is not sorted by (fact, start); call SortFactTime() first");
  }
  return Status::OK();
}

Status ValidateSetOpInputs(const TpRelation& r, const TpRelation& s) {
  TPSET_RETURN_NOT_OK(ValidateWellFormed(r));
  TPSET_RETURN_NOT_OK(ValidateWellFormed(s));
  if (r.context() != s.context()) {
    return Status::InvalidArgument("relations '" + r.name() + "' and '" + s.name() +
                                   "' belong to different contexts");
  }
  if (!r.schema().CompatibleWith(s.schema())) {
    return Status::InvalidArgument("schemas of '" + r.name() + "' and '" + s.name() +
                                   "' are incompatible");
  }
  TPSET_RETURN_NOT_OK(ValidateDuplicateFree(r));
  TPSET_RETURN_NOT_OK(ValidateDuplicateFree(s));
  return Status::OK();
}

}  // namespace tpset
