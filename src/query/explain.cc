#include "query/explain.h"

#include <cstdio>
#include <sstream>
#include <string_view>

#include "lawa/set_ops.h"
#include "obs/profile.h"
#include "query/analyzer.h"
#include "query/parser.h"

namespace tpset {

namespace {

// A phase child's wall, or 0 when the node did not record that phase.
double PhaseMs(const obs::Span& span, std::string_view phase) {
  const obs::Span* child = span.FindChild(phase);
  return child == nullptr ? 0.0 : child->wall_ms;
}

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
  // A sequential node's advance splits into its blocks' summed steps.
  std::string steps;
  if (const obs::Span* advance = span.FindChild("advance")) {
    for (const auto& step : advance->children) {
      char part[64];
      std::snprintf(part, sizeof(part), "%s%s=%.2fms",
                    steps.empty() ? " (" : " ", step->name.c_str(),
                    step->wall_ms);
      steps += part;
    }
    if (!steps.empty()) steps += ")";
  }
  char phases[320];
  std::snprintf(phases, sizeof(phases),
                ", sort=%.2fms split=%.2fms advance=%.2fms%s apply=%.2fms"
                ", morsels=%zu stolen=%zu facts_split=%zu",
                PhaseMs(span, "sort"), PhaseMs(span, "split"),
                PhaseMs(span, "advance"), steps.c_str(), PhaseMs(span, "apply"),
                span.stats.morsels_run, span.stats.morsels_stolen,
                span.stats.facts_split);
  *out += indent + span.name + "  [out=" + span.Attr("out") +
          ", windows=" + std::to_string(span.stats.windows_produced) + "/" +
          span.Attr("bound") + "(bound)" + phases + "]\n";
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
    out << "parallel: threads=" << options.num_threads << "\n";
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
