// EXPLAIN for TP set queries: runs the query through QueryExecutor::Execute
// with a profile attached (one trace span per plan node, obs/profile.h) and
// renders every annotation — cardinalities, LAWA window counts against the
// Proposition 1 bound, phase walls, scheduler counters, the recommended
// probability-valuation method — from that span tree. Sequential and
// parallel explains are the same execution the options request (at
// num_threads > 1, the concurrent run with its real subtree overlap); only
// the "parallel:" config header differs.
#ifndef TPSET_QUERY_EXPLAIN_H_
#define TPSET_QUERY_EXPLAIN_H_

#include <string>

#include "common/status.h"
#include "obs/profile.h"
#include "query/ast.h"
#include "query/executor.h"

namespace tpset {

/// Renders an indented plan tree like:
///
///   except  [out=5, windows=8/9(bound)]
///     relation c  [4 tuples]
///     union  [out=6, windows=8/11(bound)]
///       relation a  [3 tuples]
///       relation b  [2 tuples]
///   non-repeating: yes -> valuation: read-once (linear, exact)
///
/// The query is actually executed (with LAWA, through Execute), so the
/// numbers are exact — and the execution counts into the executor's query
/// metrics like any other.
Result<std::string> ExplainQuery(const QueryExecutor& exec, const QueryNode& query);

/// Parses, then explains.
Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const std::string& query);

/// Explain under explicit execution options: the execution Execute runs
/// for them (at num_threads > 1, concurrent subtrees over the partitioned
/// parallel algorithm). Every node line carries the per-phase wall-time
/// breakdown:
///
///   except  [out=5, windows=8/9(bound), sort=0.01ms split=0.00ms
///            advance=0.05ms apply=0.02ms]
///
/// `apply` is the lineage intern in the operator's sequencer turn — run on
/// the operator's pool — plus the output fill after it.
Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const QueryNode& query,
                                 const ExecOptions& options);

/// Parses, then explains with options.
Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const std::string& query,
                                 const ExecOptions& options);

/// Explain into a caller-owned profile: the plan's span tree (one span per
/// node, phase children, LawaStats, kind/out/bound/tuples attrs) stays in
/// `profile` after the call — the exact data the returned text was rendered
/// from (tested by tests/explain_test.cc; the REPL's \profile rides on it).
Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const QueryNode& query,
                                 const ExecOptions& options,
                                 obs::QueryProfile* profile);

/// Renders the plan section (node tree only — no query/parallel header, no
/// valuation footer) from a span tree recorded by ExplainQuery or by any
/// profiled Execute. Children stream out before their parent with depth
/// markers, the layout EXPLAIN always used.
std::string RenderExplainPlan(const obs::Span& root);

/// EXPLAIN for a registered continuous plan: the incremental operator DAG
/// with each node's cumulative maintenance counters —
///
///   continuous query diff: (r - s)
///   epoch: 42, size: 102394, threads: 8, subscribers: 1, watermark: 310
///     except  [acc=102394, epochs_applied=42, facts_resumed=40,
///              facts_reswept=2, windows=204810, tuples_retired=5012]
///       relation r  [1000000 tuples, runs=3, tail_hits=210,
///                    runs_merged=18, tuples_retired=8000, watermark=310]
///       relation s  [1000000 tuples, runs=1, tail_hits=195,
///                    runs_merged=12, tuples_retired=7500, watermark=310]
///
/// facts_resumed counts per-fact sweeps continued from their checkpoint
/// (closed prefix reused); facts_reswept counts frontier-straddling deltas
/// that re-swept a fact and diffed the window stream. Leaf lines carry the
/// relation's storage counters (run count, O(1) tail-map hits, runs
/// consumed by merges, tuples retired by retention, watermark if set);
/// operator tuples_retired counts output windows dropped by checkpoint
/// rebase. Unlike the one-shot overloads this does not execute anything —
/// it reports the live state.
Result<std::string> ExplainContinuous(const QueryExecutor& exec,
                                      const std::string& name);

}  // namespace tpset

#endif  // TPSET_QUERY_EXPLAIN_H_
