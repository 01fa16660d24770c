// The traced run's sequential replay of a one-shot query.
//
// QueryExecutor::Execute evaluates a query bottom-up: each leaf is the
// relation's folded storage view, copied; each set-operation node runs
// LawaSetOp, which sweeps the columnar projections of its inputs and, per
// surviving window, concatenates the lineage into the shared arena and
// appends the derived tuple. The replay performs the same calls through the
// public layer functions, in the same order, with the benchmark's own timer
// around each step — so the arena evolves exactly as under Execute and the
// output must be bit-identical to Execute's (the benchmark checks this).
// It covers the sequential path only: num_threads = 1 and inputs carrying
// the sortedness witness, as every catalog leaf and set-op output does.
#ifndef TPSET_E2EBENCH_REPLAY_H_
#define TPSET_E2EBENCH_REPLAY_H_

#include <string>

#include "common/status.h"
#include "query/executor.h"

namespace e2e {

/// Per-layer time and counts of replayed queries (accumulated across calls).
struct LayerTimes {
  double parse_ms = 0.0;        ///< query: ParseQuery
  double fold_ms = 0.0;         ///< storage: StoredRelation::FoldedView
  double leaf_copy_ms = 0.0;    ///< relation: copy of the folded leaf
  double columnar_ms = 0.0;     ///< relation: first columnar() per operand
  double sweep_ms = 0.0;        ///< lawa: ColumnarAdvancer::Sweep
  double concat_ms = 0.0;       ///< lineage: Concat* per surviving window
  double materialize_ms = 0.0;  ///< relation: AddDerived per surviving window
  double valuation_ms = 0.0;    ///< lineage: read-once TupleProbability
  std::size_t windows = 0;      ///< windows produced (Proposition 1 count)
  std::size_t surviving = 0;    ///< windows passing the λ-filter = concats
  std::size_t nodes_added = 0;  ///< lineage arena growth during concat
  std::size_t tail_runs = 0;    ///< pending storage runs at read, all leaves
  std::size_t debt = 0;         ///< compaction debt at read, all leaves

  double AttributedMs() const {
    return parse_ms + fold_ms + leaf_copy_ms + columnar_ms + sweep_ms +
           concat_ms + materialize_ms + valuation_ms;
  }

  void Add(const LayerTimes& o) {
    parse_ms += o.parse_ms;
    fold_ms += o.fold_ms;
    leaf_copy_ms += o.leaf_copy_ms;
    columnar_ms += o.columnar_ms;
    sweep_ms += o.sweep_ms;
    concat_ms += o.concat_ms;
    materialize_ms += o.materialize_ms;
    valuation_ms += o.valuation_ms;
    windows += o.windows;
    surviving += o.surviving;
    nodes_added += o.nodes_added;
    tail_runs += o.tail_runs;
    debt += o.debt;
  }
};

/// Replays `text` over `exec`'s catalog, valuating every output tuple, and
/// adds each layer's time and counts to `*t`.
tpset::Result<tpset::TpRelation> ReplayQuery(const tpset::QueryExecutor& exec,
                                             const std::string& text,
                                             LayerTimes* t);

}  // namespace e2e

#endif  // TPSET_E2EBENCH_REPLAY_H_
