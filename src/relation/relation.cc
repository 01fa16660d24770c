#include "relation/relation.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "lineage/eval.h"

namespace tpset {

Result<VarId> TpRelation::AddBase(const Fact& fact, Interval iv, double p,
                                  const std::string& var_name) {
  assert(ctx_ && "relation has no context");
  TPSET_RETURN_NOT_OK(schema_.Validate(fact));
  if (!iv.IsValid()) {
    return Status::InvalidArgument("empty interval " + ToString(iv));
  }
  if (!(p > 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("probability must be in (0,1]");
  }
  VarId v;
  if (var_name.empty()) {
    v = ctx_->vars().Add(p);
  } else {
    Result<VarId> named = ctx_->vars().AddNamed(var_name, p);
    if (!named.ok()) return named.status();
    v = *named;
  }
  FactId f = ctx_->facts().Intern(fact);
  tuples_.push_back({f, iv, ctx_->lineage().MakeVar(v)});
  NoteAppended();
  return v;
}

VarId TpRelation::AddBaseFast(FactId fact, Interval iv, double p) {
  assert(ctx_ && "relation has no context");
  assert(iv.IsValid());
  VarId v = ctx_->vars().Add(p);
  tuples_.push_back({fact, iv, ctx_->lineage().MakeVar(v)});
  NoteAppended();
  return v;
}

void TpRelation::AddDerived(FactId fact, Interval iv, LineageId lineage) {
  assert(iv.IsValid());
  assert(lineage != kNullLineage && "derived tuples carry concrete lineage");
  tuples_.push_back({fact, iv, lineage});
  NoteAppended();
}

void TpRelation::MergeSortedAppend(std::vector<TpTuple> batch) {
  assert(sorted_ && "MergeSortedAppend requires the sortedness witness");
  assert(std::is_sorted(batch.begin(), batch.end(), FactTimeOrder()));
  if (batch.empty()) return;
  const std::size_t old_size = tuples_.size();
  tuples_.insert(tuples_.end(), batch.begin(), batch.end());
  std::inplace_merge(tuples_.begin(), tuples_.begin() + old_size,
                     tuples_.end(), FactTimeOrder());
  sorted_ = true;  // merging two sorted runs preserves the witness
}

void TpRelation::SortFactTime() {
  std::sort(tuples_.begin(), tuples_.end(), FactTimeOrder());
  sorted_ = true;
}

bool TpRelation::IsSortedFactTime() const {
  if (sorted_) return true;
  return std::is_sorted(tuples_.begin(), tuples_.end(), FactTimeOrder());
}

double TpRelation::TupleProbability(std::size_t i, ProbabilityMethod method,
                                    std::size_t samples, Rng* rng) const {
  const LineageId lin = tuples_[i].lineage;
  switch (method) {
    case ProbabilityMethod::kReadOnce:
      return ProbabilityReadOnce(ctx_->lineage(), lin, ctx_->vars());
    case ProbabilityMethod::kExact:
      return ProbabilityExact(ctx_->lineage(), lin, ctx_->vars());
    case ProbabilityMethod::kMonteCarlo: {
      assert(rng != nullptr && "Monte-Carlo valuation needs an Rng");
      return ProbabilityMonteCarlo(ctx_->lineage(), lin, ctx_->vars(), samples, rng);
    }
  }
  return 0.0;
}

bool RelationsEquivalent(const TpRelation& a, const TpRelation& b) {
  if (a.context() != b.context()) return false;
  if (a.size() != b.size()) return false;
  const LineageManager& mgr = a.context()->lineage();
  using Key = std::tuple<FactId, TimePoint, TimePoint, std::string>;
  std::vector<Key> ka, kb;
  ka.reserve(a.size());
  kb.reserve(b.size());
  for (const TpTuple& t : a.tuples()) {
    ka.emplace_back(t.fact, t.t.start, t.t.end, mgr.CanonicalKey(t.lineage));
  }
  for (const TpTuple& t : b.tuples()) {
    kb.emplace_back(t.fact, t.t.start, t.t.end, mgr.CanonicalKey(t.lineage));
  }
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return ka == kb;
}

}  // namespace tpset
