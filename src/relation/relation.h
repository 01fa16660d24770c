// TpContext (shared database state) and TpRelation (a set of TP tuples).
#ifndef TPSET_RELATION_RELATION_H_
#define TPSET_RELATION_RELATION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/fact_dictionary.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "common/value.h"
#include "lineage/lineage.h"
#include "relation/tuple.h"

namespace tpset {

/// Shared state of one TP database: the fact dictionary, the Boolean
/// variables of all base tuples, and the lineage arena. Every relation that
/// participates in one query must share one context (facts and lineages are
/// only comparable within a context).
class TpContext {
 public:
  /// `hash_consing` is forwarded to the LineageManager; see lineage.h.
  explicit TpContext(bool hash_consing = true) : lineage_(hash_consing) {}

  TpContext(const TpContext&) = delete;
  TpContext& operator=(const TpContext&) = delete;

  FactDictionary& facts() { return facts_; }
  const FactDictionary& facts() const { return facts_; }
  VarTable& vars() { return vars_; }
  const VarTable& vars() const { return vars_; }
  LineageManager& lineage() { return lineage_; }
  const LineageManager& lineage() const { return lineage_; }

 private:
  FactDictionary facts_;
  VarTable vars_;
  LineageManager lineage_;
};

/// How to valuate a lineage into a probability (see lineage/eval.h).
enum class ProbabilityMethod {
  kReadOnce,    ///< linear; exact for 1OF lineages (non-repeating queries)
  kExact,       ///< Shannon expansion; exact for all lineages
  kMonteCarlo,  ///< sampling approximation
};

/// A temporal-probabilistic relation: a finite set of TP tuples plus the
/// schema of its conventional attributes. Tuples reference state in the
/// shared TpContext.
class TpRelation {
 public:
  TpRelation() = default;
  TpRelation(std::shared_ptr<TpContext> ctx, Schema schema, std::string name = "")
      : ctx_(std::move(ctx)), schema_(std::move(schema)), name_(std::move(name)) {}

  const std::shared_ptr<TpContext>& context() const { return ctx_; }
  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const std::vector<TpTuple>& tuples() const { return tuples_; }
  /// Direct tuple access for bulk algorithms. Conservatively clears the
  /// sortedness flag (the caller may reorder arbitrarily); producers that
  /// append in order should re-assert with MarkSortedUnchecked(). The flag
  /// is cleared at *call* time only — do not retain the reference across a
  /// later SortFactTime/MarkSortedUnchecked and then mutate through it, or
  /// the witness goes stale and the zero-sort fast path reads unsorted data.
  std::vector<TpTuple>& mutable_tuples() {
    sorted_ = false;
    return tuples_;
  }
  const TpTuple& operator[](std::size_t i) const { return tuples_[i]; }

  /// Adds a base tuple: interns the fact, registers a fresh Boolean variable
  /// with probability p (named `var_name` if non-empty), and stores the tuple
  /// with an atomic lineage. Returns the variable id.
  Result<VarId> AddBase(const Fact& fact, Interval iv, double p,
                        const std::string& var_name = "");

  /// Adds a base tuple for an already-interned fact (bulk/generator path;
  /// skips schema validation). Returns the fresh variable id.
  VarId AddBaseFast(FactId fact, Interval iv, double p);

  /// Adds a derived tuple with an existing lineage (algorithm output path).
  void AddDerived(FactId fact, Interval iv, LineageId lineage);

  /// Merges a (fact, start, end)-sorted batch into the relation in O(n + m),
  /// preserving the sortedness witness. This was the append path of the
  /// incremental engine before the run-indexed storage (src/storage/) moved
  /// appends off the O(n) merge — it remains the reference merge for
  /// StoredRelation's view fold and the baseline bench_storage measures the
  /// run index against. Requires the relation to carry the witness (catalog
  /// relations always do) and the batch to be sorted; both are asserted, not
  /// re-checked. Duplicate-freeness against existing tuples is the caller's
  /// contract (callers validate per fact before building the batch).
  void MergeSortedAppend(std::vector<TpTuple> batch);

  /// Sorts tuples into the (fact, start) order required by LAWA.
  void SortFactTime();

  /// True iff tuples are in (fact, start) order. Deliberately does NOT
  /// memoize into the witness: relations are read concurrently by the
  /// parallel engine, and a write-through-const would race. Callers that
  /// verified order and own the relation arm the witness explicitly
  /// (MarkSortedUnchecked), as QueryExecutor::Register does for its
  /// catalog copy.
  bool IsSortedFactTime() const;

  /// O(1) sortedness witness: true guarantees (fact, start, end) order —
  /// maintained incrementally by the Add* methods, set by SortFactTime /
  /// MarkSortedUnchecked, cleared by mutable_tuples(). False only means
  /// "unknown"; set operations use this to skip the per-operation copy +
  /// sort entirely (the §VI-B sort step) for inputs known sorted.
  bool known_sorted() const { return sorted_; }

  /// Asserts sortedness without the O(n) check. For algorithm outputs that
  /// are produced in (fact, start) order by construction (LAWA emits windows
  /// in fact order with increasing starts); the caller vouches for order.
  void MarkSortedUnchecked() { sorted_ = true; }

  /// The tuple array as the fused sweep kernel's input span: O(1), a
  /// borrow of tuples() valid until the next mutation. Only meaningful for
  /// sorted relations — callers hold the `known_sorted` witness (or have
  /// just sorted) before sweeping, as they do for tuples().
  TupleSpan columnar() const { return {tuples_.data(), tuples_.size()}; }

  /// Probability of tuple i under the chosen method. Monte-Carlo uses
  /// `samples` draws from `rng` (required for kMonteCarlo only).
  double TupleProbability(std::size_t i,
                          ProbabilityMethod method = ProbabilityMethod::kReadOnce,
                          std::size_t samples = 10000, Rng* rng = nullptr) const;

  /// The fact values of tuple i.
  const Fact& FactOf(std::size_t i) const {
    return ctx_->facts().Get(tuples_[i].fact);
  }

  /// Lineage of tuple i rendered with variable names.
  std::string LineageString(std::size_t i, bool ascii = false) const {
    return ctx_->lineage().ToString(tuples_[i].lineage, ctx_->vars(), ascii);
  }

 private:
  /// Incremental sortedness maintenance: appending a tuple that extends the
  /// (fact, start, end) order keeps the flag; one out-of-order append clears
  /// it until the next SortFactTime / IsSortedFactTime.
  void NoteAppended() {
    if (sorted_ && tuples_.size() > 1 &&
        FactTimeOrder()(tuples_.back(), tuples_[tuples_.size() - 2])) {
      sorted_ = false;
    }
  }

  std::shared_ptr<TpContext> ctx_;
  Schema schema_;
  std::string name_;
  std::vector<TpTuple> tuples_;
  /// True ⟹ tuples_ is in (fact, start, end) order; empty relations are
  /// vacuously sorted. Written only by non-const methods, so concurrent
  /// readers of a non-mutated relation are race-free.
  bool sorted_ = true;
};

/// Order-insensitive equivalence of two relations sharing one context:
/// same tuple multiset where lineages are compared up to commutativity /
/// associativity (LineageManager::CanonicalKey). Used by tests to compare
/// outputs of different algorithms.
bool RelationsEquivalent(const TpRelation& a, const TpRelation& b);

}  // namespace tpset

#endif  // TPSET_RELATION_RELATION_H_
