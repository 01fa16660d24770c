#include "query/explain.h"

#include <cstdio>
#include <sstream>

#include "lawa/set_ops.h"
#include "obs/profile.h"
#include "parallel/parallel_set_op.h"
#include "query/analyzer.h"
#include "query/parser.h"

namespace tpset {

namespace {

// One plan node's line, rebuilt purely from its span. Children stream out
// first (depth-first), the node's own line follows with the depth marker —
// the same bottom-up-per-level layout EXPLAIN always used.
void RenderNode(const obs::Span& span, int depth, std::string* out) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  if (span.Attr("kind") == "relation") {
    *out += indent + span.name + "  [" + span.Attr("tuples") + " tuples]\n";
    return;
  }
  for (const auto& child : span.children) {
    if (!child->Attr("kind").empty()) RenderNode(*child, depth + 1, out);
  }
  const PhaseTimings t = PhaseTimings::FromSpan(span);
  char phases[224];
  std::snprintf(phases, sizeof(phases),
                ", sort=%.2fms split=%.2fms advance=%.2fms apply=%.2fms"
                ", morsels=%zu stolen=%zu facts_split=%zu",
                t.sort_ms, t.split_ms, t.advance_ms, t.apply_ms,
                span.stats.morsels_run, span.stats.morsels_stolen,
                span.stats.facts_split);
  // Which sweep kernel ran this node, from the attached LawaStats (a
  // parallel node sweeps one kernel across all morsels; "mixed" can only
  // appear on aggregated spans, e.g. incremental per-epoch deltas).
  const char* kernel = span.stats.sweeps_columnar > 0
                           ? (span.stats.sweeps_scalar > 0 ? "mixed"
                                                           : "columnar")
                           : "scalar";
  *out += indent + span.name + "  [out=" + span.Attr("out") +
          ", windows=" + std::to_string(span.stats.windows_produced) + "/" +
          span.Attr("bound") + "(bound)" + phases + " kernel=" + kernel +
          "]\n";
}

}  // namespace

std::string RenderExplainPlan(const obs::Span& root) {
  std::string out;
  for (const auto& child : root.children) {
    if (!child->Attr("kind").empty()) RenderNode(*child, 0, &out);
  }
  return out;
}

Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const QueryNode& query) {
  obs::QueryProfile profile("explain");
  return ExplainQuery(exec, query, ExecOptions{}, &profile);
}

Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const std::string& query) {
  Result<QueryPtr> parsed = ParseQuery(query);
  if (!parsed.ok()) return parsed.status();
  return ExplainQuery(exec, **parsed);
}

Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const QueryNode& query,
                                 const ExecOptions& options) {
  obs::QueryProfile profile("explain");
  return ExplainQuery(exec, query, options, &profile);
}

Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const QueryNode& query,
                                 const ExecOptions& options,
                                 obs::QueryProfile* profile) {
  // EXPLAIN is an ordinary profiled execution — sequential or concurrent,
  // the same run Execute performs — rendered from the span tree it left.
  ExecOptions profiled = options;
  profiled.profile = profile;
  Result<TpRelation> result = exec.Execute(query, profiled);
  if (!result.ok()) return result.status();
  std::ostringstream out;
  out << "query: " << QueryToString(query) << "\n";
  if (options.num_threads > 1) {
    out << "parallel: threads=" << options.num_threads << " apply="
        << (options.apply_mode == ApplyMode::kStaged ? "staged"
                                                     : "bit-identical")
        << "\n";
  }
  out << RenderExplainPlan(profile->root());
  const bool non_repeating = IsNonRepeating(query);
  out << "non-repeating: " << (non_repeating ? "yes" : "no")
      << " -> valuation: "
      << (non_repeating ? "read-once (linear, exact by Theorem 1)"
                        : "Shannon expansion (exact; #P-hard in general)")
      << "\n";
  return out.str();
}

Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const std::string& query,
                                 const ExecOptions& options) {
  Result<QueryPtr> parsed = ParseQuery(query);
  if (!parsed.ok()) return parsed.status();
  return ExplainQuery(exec, **parsed, options);
}

Result<std::string> ExplainContinuous(const QueryExecutor& exec,
                                      const std::string& name) {
  Result<ContinuousQuery*> cq = exec.FindContinuous(name);
  if (!cq.ok()) return cq.status();
  std::string out = (*cq)->Describe();
  if ((*cq)->last_epoch() != 0) {
    // The last applied epoch's span tree (per-operator walls + per-epoch
    // LawaStats deltas), straight from the query's reusable profile.
    out += "last epoch:\n" + (*cq)->last_profile().Render();
  }
  return out;
}

}  // namespace tpset
