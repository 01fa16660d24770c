#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/stream.h"
#include "datagen/synthetic.h"
#include "obs/profile.h"
#include "query/executor.h"
#include "query/parser.h"
#include "relation/snapshot.h"
#include "replay.h"

namespace e2e {

namespace {

using tpset::DeltaBatch;
using tpset::EpochDelta;
using tpset::ExecOptions;
using tpset::QueryExecutor;
using tpset::QueryNode;
using tpset::Result;
using tpset::Rng;
using tpset::TimePoint;
using tpset::TpContext;
using tpset::TpRelation;
using tpset::TpTuple;

// ---- Sizes ------------------------------------------------------------------
//
// A run performs a fixed number of sessions (and, for the stream, epochs)
// derived from --seconds and the nominal cost of one session on a 4-CPU
// x86 host. A fixed count keeps every run's sample count — and so the rank
// each percentile reads — identical across seeds and commits; a faster
// program finishes the same work sooner instead of measuring more of it.

const char* const kOneshotQueries[] = {"a | b", "a & b", "a - b", "c - (a | b)"};
// Tuples per relation, and the nominal wall of one session (set-up,
// queries, checks, teardown). The skewed relations are half the uniform
// size so a run holds 16 sessions: the pooled tail then reads inside the
// slowest query shape rather than between two shapes.
constexpr std::size_t kUniformTuples = 300000;
constexpr double kUniformSessionSec = 3.8;
constexpr std::size_t kSkewedTuples = 150000;
constexpr double kSkewedSessionSec = 1.85;
// Before each of its queries, a one-shot session appends this many batches
// of 0.1% of a relation's size to its log relation `d`: the storage append
// path with no continuous query to propagate to. Spreading the appends over
// the session samples the host as evenly as the queries do; in one block
// per session, a run's epochs fell into eight 20 ms windows, and the
// host's speed in those windows set the run's median.
constexpr std::size_t kOneshotEpochsPerQuery = 15;
// `d` is compacted (untimed) after every this many appends, which keeps its
// run debt below QueryExecutor's background-compaction threshold (4): no
// background merge overlaps a timed append.
constexpr std::size_t kOneshotCompactEvery = 3;

// Tuples per relation of the stream, over n/100 facts. The warm reads are
// consing-index probes, whose cost follows the host's memory load once the
// index outgrows a core's cache share. Run alternately on one host, the
// run medians of query_p50_ms spread 45-92 ms at 30k, 9.1-12.6 ms at 10k
// and 2.24-2.50 ms at 3k. Many short sessions keep the arena small too.
constexpr std::size_t kStreamTuples = 3000;
constexpr std::size_t kStreamSessions = 48;
constexpr std::size_t kStreamReadEvery = 10;   // one-shot read per N epochs
constexpr double kStreamCycleSec = 0.0045;     // N epochs + one read
constexpr double kStreamSessionSec = 0.05;     // set-up, checks, teardown
const char* const kStreamRead = "c - (r | s)";
const char* const kStreamContinuous[][2] = {{"diff", "c - (r | s)"},
                                            {"both", "r & s"}};

constexpr std::size_t kSmallTuples = 150;  // oracle replica, per relation

std::size_t SessionsFor(double seconds, double session_sec, std::size_t min) {
  return std::max<std::size_t>(
      min, static_cast<std::size_t>(std::llround(seconds / session_sec)));
}

std::uint64_t SessionSeed(std::uint64_t seed, std::size_t session) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + session + 1);
  return rng.Next();
}

// ---- Shared session pieces --------------------------------------------------

/// The paper's definitions applied to the catalog's current content: the
/// oracle the small replica is checked against.
Result<TpRelation> ReferenceEval(const QueryExecutor& exec, const QueryNode& q) {
  if (q.kind == QueryNode::Kind::kRelation) {
    Result<const TpRelation*> rel = exec.Find(q.relation_name);
    if (!rel.ok()) return rel.status();
    return **rel;
  }
  Result<TpRelation> l = ReferenceEval(exec, *q.left);
  if (!l.ok()) return l;
  Result<TpRelation> r = ReferenceEval(exec, *q.right);
  if (!r.ok()) return r;
  return tpset::ReferenceSetOp(q.op, *l, *r);
}

bool MatchesReference(const QueryExecutor& exec, const std::string& text,
                      const TpRelation& got) {
  Result<tpset::QueryPtr> parsed = tpset::ParseQuery(text);
  if (!parsed.ok()) return false;
  Result<TpRelation> want = ReferenceEval(exec, **parsed);
  return want.ok() && tpset::RelationsEquivalent(got, *want);
}

bool RegisterAll(QueryExecutor* exec, const std::vector<TpRelation>& rels) {
  for (const TpRelation& rel : rels) {
    if (!exec->Register(rel).ok()) return false;
  }
  return true;
}

/// Table-III-like relations a, b, c (preset 0.6: lengths and gaps up to 3)
/// over `facts` facts whose chains share staggered offsets, so the three
/// relations' same-fact chains overlap the way GenerateSyntheticPair's do.
std::vector<TpRelation> UniformRelations(const std::shared_ptr<TpContext>& ctx,
                                         std::size_t n, std::size_t facts,
                                         Rng* rng) {
  const tpset::SyntheticPairSpec preset = tpset::TableIIIPreset(0.6);
  tpset::SyntheticSpec spec;
  spec.num_tuples = n;
  spec.num_facts = facts;
  spec.max_interval_length = preset.max_interval_length_r;
  spec.max_time_distance = preset.max_time_distance;
  const double pitch =
      (static_cast<double>(spec.max_interval_length) + 1.0) / 2.0 +
      static_cast<double>(spec.max_time_distance) / 2.0;
  const auto range = static_cast<TimePoint>(pitch * static_cast<double>(n));
  const auto chain = static_cast<TimePoint>(
      pitch * static_cast<double>(n) / static_cast<double>(facts));
  std::vector<TimePoint> offsets(facts);
  for (TimePoint& o : offsets) o = rng->Uniform(0, std::max<TimePoint>(0, range - chain));
  std::vector<TpRelation> rels;
  for (const char* name : {"a", "b", "c"}) {
    rels.push_back(tpset::GenerateSynthetic(ctx, spec, name, rng, &offsets));
  }
  return rels;
}

/// Zipf(1.2) fact-skewed relations a, b (one GenerateSkewedPair) and c (the
/// first relation of a second pair over the same facts).
std::vector<TpRelation> SkewedRelations(const std::shared_ptr<TpContext>& ctx,
                                        std::size_t n, std::size_t facts,
                                        Rng* rng) {
  tpset::SkewedPairSpec spec;
  spec.num_tuples = n;
  spec.num_facts = facts;
  spec.zipf_s = 1.2;
  auto [a, b] = tpset::GenerateSkewedPair(ctx, spec, rng);
  auto [c, unused] = tpset::GenerateSkewedPair(ctx, spec, rng);
  (void)unused;
  a.set_name("a");
  b.set_name("b");
  c.set_name("c");
  std::vector<TpRelation> rels;
  rels.push_back(std::move(a));
  rels.push_back(std::move(b));
  rels.push_back(std::move(c));
  return rels;
}

using RelationMaker = std::function<std::vector<TpRelation>(
    const std::shared_ptr<TpContext>&, std::size_t, Rng*)>;

/// Every workload starts with one small replica checked against the
/// paper's reference evaluator.
void CheckOneshotReplica(const Options& opt, const RelationMaker& make,
                         const ExecOptions& exec_options, RunResult* out) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  Rng rng(SessionSeed(opt.seed, 1000003));
  const bool registered = RegisterAll(&exec, make(ctx, kSmallTuples, &rng));
  for (const char* q : kOneshotQueries) {
    Result<TpRelation> got = exec.Execute(q, exec_options);
    out->Count(registered && got.ok() && MatchesReference(exec, q, *got),
               Format("small replica vs ReferenceSetOp: %s", q));
  }
}

/// Where a run's wall time goes, phase by phase (a note, not a metric): the
/// steadiness and run-length budget are read from it.
class PhaseClock {
 public:
  void Lap(const std::string& phase) {
    const auto now = Clock::now();
    total_[phase] += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }
  std::string Summary(std::size_t sessions) const {
    std::string s = Format("run phases over %zu sessions (s):", sessions);
    for (const auto& [phase, sec] : total_) s += Format(" %s=%.2f", phase.c_str(), sec);
    return s;
  }

 private:
  Clock::time_point last_ = Clock::now();
  std::map<std::string, double> total_;
};

/// The pooled samples of the quietest quarter of a run's windows (its
/// sessions, or runs of consecutive epochs), ranked by their medians. On
/// a shared host every latency of a process slows together, by up to 2x,
/// for seconds to minutes at a time: in one 30 s stream run over 10k-tuple
/// relations the window medians ranged from 7.3 to 14.6 ms. Statistics
/// over the quiet quarter ignore slowdowns that cover less than three
/// quarters of a run, while a slower program moves every window. A
/// quarter, not the fastest window alone, so that one window of unusually
/// cheap data does not set it.
Samples QuietQuarter(const std::vector<Samples>& windows) {
  std::vector<std::pair<double, const Samples*>> ranked;
  for (const Samples& w : windows) {
    if (!w.empty()) ranked.push_back({w.Median(), &w});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  Samples kept;
  for (std::size_t i = 0; i < (ranked.size() + 3) / 4; ++i) {
    for (double v : ranked[i].second->values()) kept.Add(v);
  }
  return kept;
}

/// Fixed-shape end-to-end metrics every workload reports. query_p50_ms and
/// epoch_p50_ms are medians over the quiet quarter of their windows;
/// `query_tail` is the tail's population. `peak_rss_mb` is VmHWM at a point
/// the caller chooses.
void EmitEndToEnd(const Samples& setup_s,
                  const std::vector<Samples>& query_windows,
                  const Samples& query_tail,
                  const std::vector<Samples>& epoch_windows,
                  double peak_rss_mb, RunResult* out) {
  const Samples query_p50 = QuietQuarter(query_windows);
  const Samples epoch_p50 = QuietQuarter(epoch_windows);
  const Tail qt = query_tail.TailValue();
  out->Metric("setup_s", setup_s.Median(), "s");
  out->Metric("query_p50_ms", query_p50.Median(), "ms");
  out->Metric("query_tail_ms", qt.value, "ms");
  out->Metric("epoch_p50_ms", epoch_p50.Median(), "ms");
  out->Metric("peak_rss_mb", peak_rss_mb, "MiB");
  out->Note(Format("setup_s: median of %zu set-ups", setup_s.size()));
  out->Note(Format("query_p50_ms: median of %zu samples, the quiet quarter of "
                   "%zu windows", query_p50.size(), query_windows.size()));
  out->Note(Format("epoch_p50_ms: median of %zu samples, the quiet quarter of "
                   "%zu windows", epoch_p50.size(), epoch_windows.size()));
  for (const auto& [name, windows] :
       {std::pair{"query", &query_windows}, std::pair{"epoch", &epoch_windows}}) {
    Samples medians;
    for (const Samples& w : *windows) {
      if (!w.empty()) medians.Add(w.Median());
    }
    out->Note(Format("%s window medians (ms): min %.4g q25 %.4g median %.4g "
                     "q75 %.4g max %.4g", name, medians.Quantile(0.0),
                     medians.Quantile(0.25), medians.Quantile(0.5),
                     medians.Quantile(0.75), medians.Quantile(1.0)));
  }
  out->Note(Format("query_tail_ms = p%.1f of %zu queries (%zu beyond)",
                   qt.percentile, qt.n, qt.beyond));
}

/// Per-layer accumulators of one traced run. Times are means per traced
/// query (or per epoch), so they add up to the mean traced wall.
struct LayerTotals {
  LayerTimes layers;           // summed over traced queries
  std::size_t queries = 0;     // traced queries summed into `layers`
  Samples untraced_ms;         // same-run untraced queries (overhead base)
  Samples traced_ms;           // replayed or profiled queries
  Samples profiled_ms;         // ExecOptions::profile runs (uniform only)
  Samples unattributed_ms;
  double min_attributed = 1.0;
  Samples arena_end;
  // Parallel (profiled t4 Execute).
  Samples split_ms, advance_ms, apply_ms, cpu_busy, morsels, facts_split;
  // Incremental (stream epochs).
  Samples inc_apply_ms, deliver_ms, post_deliver_ms, delta_tuples;
  std::size_t resumed = 0, reswept = 0;
  double generations_per_epoch = 0.0;
};

void NoteAttribution(const std::string& query, double wall_ms,
                     double attributed_ms, const std::string& detail,
                     LayerTotals* lt, RunResult* out) {
  const double share = wall_ms > 0 ? attributed_ms / wall_ms : 0.0;
  lt->min_attributed = std::min(lt->min_attributed, share);
  lt->unattributed_ms.Add(wall_ms - attributed_ms);
  out->Note(Format("attribution %-12s wall=%.2fms named=%.1f%% %s%s",
                   query.c_str(), wall_ms, 100.0 * share, detail.c_str(),
                   share < 0.9 ? "  BELOW 90%" : ""));
}

/// Times one replayed query and folds its layers into `lt`.
Result<TpRelation> TracedReplay(const QueryExecutor& exec, const char* query,
                                LayerTotals* lt, RunResult* out) {
  LayerTimes t;
  const auto t0 = Clock::now();
  Result<TpRelation> res = ReplayQuery(exec, query, &t);
  const double wall = MsSince(t0);
  lt->traced_ms.Add(wall);
  NoteAttribution(query, wall, t.AttributedMs(),
                  Format("(fold %.1f copy %.1f columnar %.1f sweep %.1f concat "
                         "%.1f materialize %.1f valuation %.1f)",
                         t.fold_ms, t.leaf_copy_ms, t.columnar_ms, t.sweep_ms,
                         t.concat_ms, t.materialize_ms, t.valuation_ms),
                  lt, out);
  lt->layers.Add(t);
  ++lt->queries;
  return res;
}

/// `epoch_ms` gives epoch_tail_ms: its rank sits among a few rare stalls
/// (background compaction, arena growth), so across ten seeds on a shared
/// VM it spread by 0.24-0.29 of its median, beyond any end-to-end bound;
/// it is reported here, unbounded.
void EmitLayers(const LayerTotals& lt, const Samples& epoch_ms,
                RunResult* out) {
  const LayerTimes& r = lt.layers;
  const Tail et = epoch_ms.TailValue();
  out->Metric("epoch_tail_ms", et.value, "ms");
  out->Note(Format("epoch_tail_ms = p%.1f of %zu epochs (%zu beyond)",
                   et.percentile, et.n, et.beyond));
  const double q = lt.queries > 0 ? static_cast<double>(lt.queries) : 1.0;
  out->Metric("query.parse_us", 1000.0 * r.parse_ms / q, "us");
  out->Metric("query.unattributed_ms", lt.unattributed_ms.Mean(), "ms");
  out->Metric("storage.fold_ms", r.fold_ms / q, "ms");
  out->Metric("storage.tail_runs_at_read", r.tail_runs / q, "count");
  out->Metric("storage.compaction_debt_at_read", r.debt / q, "count");
  out->Metric("storage.generations", lt.generations_per_epoch, "1/epoch");
  out->Metric("relation.leaf_copy_ms", r.leaf_copy_ms / q, "ms");
  out->Metric("relation.columnar_build_ms", r.columnar_ms / q, "ms");
  out->Metric("relation.materialize_ms", r.materialize_ms / q, "ms");
  out->Metric("lawa.sweep_ms", r.sweep_ms / q, "ms");
  out->Metric("lawa.windows", r.windows / q, "count");
  out->Metric("lawa.output_per_window",
              r.windows > 0 ? static_cast<double>(r.surviving) / r.windows : 0.0,
              "ratio");
  out->Metric("lineage.concat_ms", r.concat_ms / q, "ms");
  out->Metric("lineage.nodes_added", r.nodes_added / q, "count");
  out->Metric("lineage.new_node_ratio",
              r.surviving > 0 ? static_cast<double>(r.nodes_added) / r.surviving
                              : 0.0,
              "ratio");
  out->Metric("lineage.arena_nodes_end", lt.arena_end.Median(), "count");
  out->Metric("lineage.valuation_ms", r.valuation_ms / q, "ms");
  out->Metric("parallel.split_ms", lt.split_ms.Mean(), "ms");
  out->Metric("parallel.advance_ms", lt.advance_ms.Mean(), "ms");
  out->Metric("parallel.apply_ms", lt.apply_ms.Mean(), "ms");
  out->Metric("parallel.cpu_busy_frac", lt.cpu_busy.Median(), "ratio");
  out->Metric("parallel.morsels", lt.morsels.Mean(), "count");
  out->Metric("parallel.facts_split", lt.facts_split.Mean(), "count");
  out->Metric("incremental.apply_ms", lt.inc_apply_ms.Mean(), "ms");
  out->Metric("incremental.deliver_ms", lt.deliver_ms.Mean(), "ms");
  out->Metric("incremental.post_deliver_ms", lt.post_deliver_ms.Mean(), "ms");
  const std::size_t applied = lt.resumed + lt.reswept;
  out->Metric("incremental.resumed_frac",
              applied > 0 ? static_cast<double>(lt.resumed) / applied : 0.0,
              "ratio");
  out->Metric("incremental.delta_tuples", lt.delta_tuples.Mean(), "count");
  // Ratios of means: every mode runs each query shape equally often, and
  // a median of the pooled shapes would fall between two of them.
  const double untraced = lt.untraced_ms.Mean();
  const double traced = lt.traced_ms.Mean();
  out->Metric("trace.overhead_frac",
              untraced > 0 ? traced / untraced - 1.0 : 0.0, "ratio");
  out->Metric("trace.attributed_frac_min", lt.min_attributed, "ratio");
  out->Metric("trace.profile_gap_frac",
              !lt.profiled_ms.empty() && traced > 0
                  ? lt.profiled_ms.Mean() / traced - 1.0
                  : 0.0,
              "ratio");
  out->Note(Format("trace: %zu untraced, %zu traced, %zu profiled queries",
                   lt.untraced_ms.size(), lt.traced_ms.size(),
                   lt.profiled_ms.size()));
}

/// The one-shot sessions' log relation `d`: per-fact chains that no query
/// reads, so appending to it between the queries leaves them cold and
/// their outputs unchanged.
bool RegisterLog(QueryExecutor* exec, const std::shared_ptr<TpContext>& ctx,
                 std::size_t n, Rng* rng, std::vector<TimePoint>* cursors) {
  cursors->assign(std::max<std::size_t>(3, n / 1000), 0);
  TpRelation log(ctx, tpset::Schema::SingleInt("fact"), "d");
  tpset::SeedFactChains(&log, n, cursors, rng);
  return exec->Register(log).ok();
}

/// Appends kOneshotEpochsPerQuery chain batches to `d`, compacting it
/// (untimed) after every kOneshotCompactEvery.
void OneshotEpochs(QueryExecutor* exec, std::size_t rows,
                   std::vector<TimePoint>* cursors, Rng* rng, Samples* block,
                   Samples* epoch_ms, RunResult* out) {
  for (std::size_t e = 1; e <= kOneshotEpochsPerQuery; ++e) {
    const DeltaBatch batch = tpset::NextChainBatch(cursors, rows, rng);
    const auto t0 = Clock::now();
    Result<tpset::EpochId> epoch = exec->Append("d", batch);
    const double wall = MsSince(t0);
    block->Add(wall);
    epoch_ms->Add(wall);
    out->Count(epoch.ok(), "append to d");
    if (e % kOneshotCompactEvery == 0) {
      out->Count(exec->Compact("d").ok(), "compact d");
    }
  }
}

// ---- One-shot workloads -----------------------------------------------------

enum class OneshotMode { kUntraced, kReplay, kProfiled };

/// One span tree of a profiled Execute, folded into per-layer sums.
struct ProfileSums {
  double parse_ms = 0.0, analyze_ms = 0.0, leaves_ms = 0.0, ops_ms = 0.0;
  double split_ms = 0.0, advance_ms = 0.0, apply_ms = 0.0;
  std::size_t morsels = 0, facts_split = 0, windows = 0, output = 0;
};

void SumSpans(const tpset::obs::Span& span, ProfileSums* s) {
  for (const auto& child : span.children) {
    const std::string& name = child->name;
    if (name == "parse") {
      s->parse_ms += child->wall_ms;
    } else if (name == "analyze") {
      s->analyze_ms += child->wall_ms;
    } else if (name.rfind("relation ", 0) == 0) {
      s->leaves_ms += child->wall_ms;
    } else if (name == "split") {
      s->split_ms += child->wall_ms;
    } else if (name == "advance") {
      s->advance_ms += child->wall_ms;
    } else if (name == "apply") {
      s->apply_ms += child->wall_ms;
    } else if (child->has_stats) {  // operator node: its wall is its compute
      s->ops_ms += child->wall_ms;
      s->morsels += child->stats.morsels_run;
      s->facts_split += child->stats.facts_split;
      s->windows += child->stats.windows_produced;
      s->output += child->stats.output_tuples;
      SumSpans(*child, s);
    }
  }
}

/// Leaf relations of a query, in evaluation order.
void Leaves(const QueryNode& q, std::vector<std::string>* out) {
  if (q.kind == QueryNode::Kind::kRelation) {
    out->push_back(q.relation_name);
    return;
  }
  Leaves(*q.left, out);
  Leaves(*q.right, out);
}

void RunOneshot(const Options& opt, const RelationMaker& make,
                std::size_t tuples, std::size_t num_threads, double session_sec,
                RunResult* out) {
  ExecOptions exec_options;
  exec_options.num_threads = num_threads;
  CheckOneshotReplica(opt, make, exec_options, out);

  // Traced runs rotate the session mode so the untraced baseline for the
  // overhead ratio comes from the same process; sequential runs also time
  // the program's own profiled path against the replay.
  std::vector<OneshotMode> modes = {OneshotMode::kUntraced};
  if (opt.trace) {
    if (num_threads <= 1) modes.push_back(OneshotMode::kReplay);
    modes.push_back(OneshotMode::kProfiled);
  }
  const std::size_t sessions = SessionsFor(opt.seconds, session_sec, 2 * modes.size());

  Samples setup_s, query_ms, epoch_ms;
  std::vector<Samples> epoch_blocks;  // one window per query's epochs
  LayerTotals lt;
  // The four query shapes differ up to 4x in cost, so the median of the
  // pooled per-query samples would fall in the gap between two shapes and
  // read one shape's maximum against another's minimum. query_p50_ms is
  // instead a median of the sessions' mean query latencies: one window per
  // session.
  std::vector<Samples> session_mean_ms;
  std::map<std::string, Samples> by_query;
  PhaseClock phases;
  double peak_rss_mb = 0.0;

  for (std::size_t session = 0; session < sessions; ++session) {
    const OneshotMode mode = modes[session % modes.size()];
    MoveToCpu(session);
    Rng rng(SessionSeed(opt.seed, session));
    const auto setup_t0 = Clock::now();
    auto ctx = std::make_shared<TpContext>();
    auto exec = std::make_unique<QueryExecutor>(ctx);
    std::vector<TimePoint> cursors;
    const bool registered =
        RegisterAll(exec.get(), make(ctx, tuples, &rng)) &&
        RegisterLog(exec.get(), ctx, tuples / 10, &rng, &cursors);
    setup_s.Add(MsSince(setup_t0) / 1000.0);
    out->Count(registered, "session setup");
    if (!registered) continue;
    phases.Lap("setup");

    // Timed queries first, on the cold arena; every check afterwards.
    std::vector<Result<TpRelation>> outputs;
    double session_query_ms = 0.0;
    for (const char* q : kOneshotQueries) {
      phases.Lap("queries");
      epoch_blocks.emplace_back();
      OneshotEpochs(exec.get(), tuples / 1000, &cursors, &rng,
                    &epoch_blocks.back(), &epoch_ms, out);
      phases.Lap("epochs");
      if (mode == OneshotMode::kReplay) {
        outputs.push_back(TracedReplay(*exec, q, &lt, out));
      } else if (mode == OneshotMode::kProfiled) {
        tpset::obs::QueryProfile profile;
        ExecOptions o = exec_options;
        o.profile = &profile;
        const std::size_t arena0 = ctx->lineage().size();
        const auto t0 = Clock::now();
        Result<TpRelation> res = exec->Execute(q, o);
        const double exec_wall = MsSince(t0);
        const std::size_t added = ctx->lineage().size() - arena0;
        const auto v0 = Clock::now();
        if (res.ok()) ValuateAll(*res);
        const double valuation = MsSince(v0);
        const double wall = exec_wall + valuation;
        if (num_threads <= 1) {
          lt.profiled_ms.Add(wall);
        } else {
          lt.traced_ms.Add(wall);
          ProfileSums s;
          SumSpans(profile.root(), &s);
          // The profile does not time the executor's leaf fold and copy;
          // the same steps are timed standalone (untimed for the query) so
          // the unattributed remainder can be read against them.
          Result<tpset::QueryPtr> parsed = tpset::ParseQuery(q);
          std::vector<std::string> leaves;
          if (parsed.ok()) Leaves(**parsed, &leaves);
          double fold = 0.0, copy = 0.0;
          for (const std::string& leaf : leaves) {
            Result<const tpset::StoredRelation*> stored = exec->FindStored(leaf);
            if (!stored.ok()) continue;
            auto l0 = Clock::now();
            auto folded = (*stored)->FoldedView();
            fold += MsSince(l0);
            l0 = Clock::now();
            TpRelation leaf_copy = *folded;
            copy += MsSince(l0);
          }
          LayerTimes t;
          t.parse_ms = s.parse_ms;
          t.fold_ms = fold;
          t.leaf_copy_ms = copy;
          t.valuation_ms = valuation;
          t.windows = s.windows;
          t.surviving = s.output;
          t.nodes_added = added;
          lt.layers.Add(t);
          ++lt.queries;
          lt.split_ms.Add(s.split_ms);
          lt.advance_ms.Add(s.advance_ms);
          lt.apply_ms.Add(s.apply_ms);
          lt.morsels.Add(static_cast<double>(s.morsels));
          lt.facts_split.Add(static_cast<double>(s.facts_split));
          // The outer wall starts before parsing, so parse is named too.
          const double named = s.parse_ms + s.analyze_ms + s.leaves_ms +
                               s.ops_ms + valuation;
          NoteAttribution(
              q, wall, named,
              Format("(ops %.1f split %.1f advance %.1f apply %.1f; leaf "
                     "fold+copy outside the profile %.1f)",
                     s.ops_ms, s.split_ms, s.advance_ms, s.apply_ms,
                     fold + copy),
              &lt, out);
        }
        outputs.push_back(std::move(res));
      } else {
        const double cpu0 = ProcessCpuMs();
        const auto t0 = Clock::now();
        Result<TpRelation> res = exec->Execute(q, exec_options);
        const double exec_wall = MsSince(t0);
        const double cpu = ProcessCpuMs() - cpu0;
        if (res.ok()) ValuateAll(*res);
        const double wall = MsSince(t0);
        query_ms.Add(wall);
        session_query_ms += wall;
        by_query[q].Add(wall);
        if (opt.trace) {
          lt.untraced_ms.Add(wall);
          if (num_threads > 1 && exec_wall > 0) {
            lt.cpu_busy.Add(cpu / (exec_wall * static_cast<double>(num_threads)));
          }
        }
        outputs.push_back(std::move(res));
      }
    }

    phases.Lap("queries");
    if (mode == OneshotMode::kUntraced) {
      session_mean_ms.emplace_back();
      session_mean_ms.back().Add(session_query_ms /
                                 static_cast<double>(outputs.size()));
    }

    // Checks (untimed). Sequential sessions: the replay and Execute must
    // agree bit for bit (whichever ran timed, the other re-runs warm and
    // hash-consing returns the same ids). t4 sessions: a sequential Execute
    // after the timed query must equal the parallel output bit for bit.
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      const char* q = kOneshotQueries[i];
      bool ok = outputs[i].ok();
      if (ok && num_threads > 1) {
        Result<TpRelation> seq = exec->Execute(q);
        ok = seq.ok() && BitIdentical(*outputs[i], *seq);
      } else if (ok && mode == OneshotMode::kReplay) {
        Result<TpRelation> executed = exec->Execute(q);
        ok = executed.ok() && BitIdentical(*outputs[i], *executed);
      } else if (ok) {
        LayerTimes unused;
        Result<TpRelation> replayed = ReplayQuery(*exec, q, &unused);
        ok = replayed.ok() && BitIdentical(*outputs[i], *replayed);
      }
      out->Count(ok, Format("session %zu query %s", session, q));
    }
    outputs.clear();
    phases.Lap("checks");
    lt.arena_end.Add(static_cast<double>(ctx->lineage().size()));
    // VmHWM when the first session ends: later sessions land on a heap the
    // earlier ones freed, and how much of it they reuse varies run to run
    // with the allocator's per-thread arenas (on the t4 workload by 15%).
    if (session == 0) peak_rss_mb = PeakRssMb();
    exec.reset();
    ctx.reset();
    phases.Lap("teardown");
  }

  for (const auto& [q, samples] : by_query) {
    out->Note(Format("query %-12s median %.2f ms over %zu", q.c_str(),
                     samples.Median(), samples.size()));
  }
  out->Note(phases.Summary(sessions));
  if (opt.trace) {
    EmitLayers(lt, epoch_ms, out);
  } else {
    EmitEndToEnd(setup_s, session_mean_ms, query_ms, epoch_blocks, peak_rss_mb,
                 out);
  }
}

}  // namespace

void RunOneshotUniform(const Options& opt, RunResult* out) {
  const RelationMaker make = [](const std::shared_ptr<TpContext>& ctx,
                                std::size_t n, Rng* rng) {
    return UniformRelations(ctx, n, std::max<std::size_t>(3, n / 1000), rng);
  };
  RunOneshot(opt, make, kUniformTuples, /*num_threads=*/1, kUniformSessionSec,
             out);
}

void RunOneshotSkewedT4(const Options& opt, RunResult* out) {
  const RelationMaker make = [](const std::shared_ptr<TpContext>& ctx,
                                std::size_t n, Rng* rng) {
    return SkewedRelations(ctx, n, n >= 1000 ? 64 : 8, rng);
  };
  RunOneshot(opt, make, kSkewedTuples, /*num_threads=*/4, kSkewedSessionSec,
             out);
}

// ---- Stream workload --------------------------------------------------------

namespace {

struct TupleOrder {
  bool operator()(const TpTuple& a, const TpTuple& b) const {
    if (a.fact != b.fact) return a.fact < b.fact;
    if (a.t.start != b.t.start) return a.t.start < b.t.start;
    if (a.t.end != b.t.end) return a.t.end < b.t.end;
    return a.lineage < b.lineage;
  }
};

/// A subscriber that folds the delta stream into the accumulated result,
/// stamping when each delivery arrived.
struct FoldingSubscriber {
  std::set<TpTuple, TupleOrder> state;
  bool consistent = true;  // every retraction named a held tuple
  Clock::time_point last_delivery{};
  std::size_t delta_tuples = 0;

  void Apply(const EpochDelta& d) {
    for (const TpTuple& t : d.delta.retracted) consistent &= state.erase(t) == 1;
    for (const TpTuple& t : d.delta.inserted) consistent &= state.insert(t).second;
    delta_tuples += d.delta.inserted.size() + d.delta.retracted.size();
    last_delivery = Clock::now();
  }
};

struct StreamSession {
  std::shared_ptr<TpContext> ctx;
  // Subscribers outlive the executor whose continuous queries call them.
  std::vector<std::unique_ptr<FoldingSubscriber>> subs;
  std::unique_ptr<QueryExecutor> exec;
  std::vector<tpset::ContinuousQuery*> cqs;
  std::vector<std::vector<TimePoint>> cursors;
};

const char* const kStreamNames[] = {"c", "r", "s"};

/// Seeds c, r, s with per-fact chains (n/100 facts each, at least 3),
/// registers them and both continuous queries, and subscribes one folding
/// subscriber each.
bool SetUpStream(std::size_t n, Rng* rng, StreamSession* s) {
  s->ctx = std::make_shared<TpContext>();
  s->exec = std::make_unique<QueryExecutor>(s->ctx);
  const std::size_t facts = std::max<std::size_t>(3, n / 100);
  s->cursors.assign(3, std::vector<TimePoint>(facts, 0));
  for (std::size_t k = 0; k < 3; ++k) {
    TpRelation rel(s->ctx, tpset::Schema::SingleInt("fact"), kStreamNames[k]);
    tpset::SeedFactChains(&rel, n, &s->cursors[k], rng);
    if (!s->exec->Register(rel).ok()) return false;
  }
  for (const auto& [name, text] : kStreamContinuous) {
    Result<tpset::ContinuousQuery*> cq = s->exec->RegisterContinuous(name, text);
    if (!cq.ok()) return false;
    auto sub = std::make_unique<FoldingSubscriber>();
    const TpRelation initial = (*cq)->Current();
    sub->state.insert(initial.tuples().begin(), initial.tuples().end());
    FoldingSubscriber* raw = sub.get();
    (*cq)->Subscribe([raw](const EpochDelta& d) { raw->Apply(d); });
    s->subs.push_back(std::move(sub));
    s->cqs.push_back(*cq);
  }
  return true;
}

/// End-of-session check: each subscriber's folded stream equals Current()
/// exactly, and Current() is equivalent to a from-scratch Execute.
void CheckStream(const StreamSession& s, RunResult* out) {
  for (std::size_t i = 0; i < s.cqs.size(); ++i) {
    const TpRelation current = s.cqs[i]->Current();
    const std::vector<TpTuple> folded(s.subs[i]->state.begin(),
                                      s.subs[i]->state.end());
    Result<TpRelation> scratch = s.exec->Execute(kStreamContinuous[i][1]);
    out->Count(s.subs[i]->consistent && folded == current.tuples() &&
                   scratch.ok() && tpset::RelationsEquivalent(current, *scratch),
               Format("continuous %s: folded deltas == Current() == Execute",
                      kStreamContinuous[i][0]));
  }
}

void CheckStreamReplica(const Options& opt, RunResult* out) {
  Rng rng(SessionSeed(opt.seed, 1000003));
  StreamSession s;
  const bool ok = SetUpStream(kSmallTuples, &rng, &s);
  out->Count(ok, "small stream replica setup");
  if (!ok) return;
  for (std::size_t e = 0; e < 12; ++e) {
    const std::size_t k = e % 3;
    const DeltaBatch batch = tpset::NextChainBatch(&s.cursors[k], 5, &rng);
    out->Count(s.exec->Append(kStreamNames[k], batch).ok(), "replica append");
  }
  for (std::size_t i = 0; i < s.cqs.size(); ++i) {
    out->Count(MatchesReference(*s.exec, kStreamContinuous[i][1],
                                s.cqs[i]->Current()),
               Format("small replica vs ReferenceSetOp: continuous %s",
                      kStreamContinuous[i][1]));
  }
  CheckStream(s, out);
}

}  // namespace

void RunStreamMixed(const Options& opt, RunResult* out) {
  CheckStreamReplica(opt, out);
  const std::size_t epochs_per_session =
      kStreamReadEvery *
      SessionsFor(std::max(0.0, opt.seconds / kStreamSessions - kStreamSessionSec),
                  kStreamCycleSec, 2);
  const std::size_t rows = kStreamTuples / 1000;  // 0.1% batches

  Samples setup_s, query_ms, epoch_ms;
  // Windows for the quiet-quarter statistics: a session's reads, and each
  // run of kStreamReadEvery epochs between two reads.
  std::vector<Samples> read_windows(kStreamSessions);
  std::vector<Samples> epoch_windows;
  LayerTotals lt;
  std::size_t reads = 0;
  double generations = 0.0;
  PhaseClock phases;
  for (std::size_t session = 0; session < kStreamSessions; ++session) {
    MoveToCpu(session);
    Rng rng(SessionSeed(opt.seed, session));
    StreamSession s;
    const auto setup_t0 = Clock::now();
    const bool ok = SetUpStream(kStreamTuples, &rng, &s);
    setup_s.Add(MsSince(setup_t0) / 1000.0);
    out->Count(ok, "stream session setup");
    if (!ok) continue;
    phases.Lap("setup");
    std::uint64_t gen0 = 0;
    for (const char* name : kStreamNames) {
      gen0 += (*s.exec->FindStored(name))->generation();
    }

    for (std::size_t e = 0; e < epochs_per_session; ++e) {
      const std::size_t k = e % 3;
      const DeltaBatch batch = tpset::NextChainBatch(&s.cursors[k], rows, &rng);
      std::size_t delta0 = 0;
      for (const auto& sub : s.subs) delta0 += sub->delta_tuples;
      const auto t0 = Clock::now();
      Result<tpset::EpochId> epoch = s.exec->Append(kStreamNames[k], batch);
      const auto t1 = Clock::now();
      const double epoch_wall =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      epoch_ms.Add(epoch_wall);
      if (e % kStreamReadEvery == 0) epoch_windows.emplace_back();
      epoch_windows.back().Add(epoch_wall);
      out->Count(epoch.ok(), Format("append to %s", kStreamNames[k]));
      if (opt.trace) {
        // Deliveries happen inside Append; the last one splits the epoch
        // into propagate+deliver and the post-delivery tail.
        Clock::time_point last = t0;
        double apply = 0.0;
        std::size_t delta1 = 0;
        for (std::size_t i = 0; i < s.cqs.size(); ++i) {
          delta1 += s.subs[i]->delta_tuples;
          if (!s.cqs[i]->Reads(kStreamNames[k])) continue;
          last = std::max(last, s.subs[i]->last_delivery);
          for (const auto& child : s.cqs[i]->last_profile().root().children) {
            apply += child->wall_ms;
            lt.resumed += child->stats.facts_resumed;
            lt.reswept += child->stats.facts_reswept;
          }
        }
        lt.inc_apply_ms.Add(apply);
        lt.deliver_ms.Add(std::chrono::duration<double, std::milli>(last - t0).count());
        lt.post_deliver_ms.Add(
            std::chrono::duration<double, std::milli>(t1 - last).count());
        lt.delta_tuples.Add(static_cast<double>(delta1 - delta0));
      }

      if (e % kStreamReadEvery != kStreamReadEvery - 1) continue;
      phases.Lap("epochs");
      // A warm one-shot read beside the writes; traced runs alternate it
      // between untraced Execute and the replay.
      const bool replay = opt.trace && reads % 2 == 1;
      ++reads;
      bool read_ok = false;
      if (replay) {
        Result<TpRelation> res = TracedReplay(*s.exec, kStreamRead, &lt, out);
        // Check (untimed): Execute over the same, now folded, catalog.
        Result<TpRelation> executed = s.exec->Execute(kStreamRead);
        read_ok = res.ok() && executed.ok() && BitIdentical(*res, *executed);
      } else {
        const auto r0 = Clock::now();
        Result<TpRelation> res = s.exec->Execute(kStreamRead);
        if (res.ok()) ValuateAll(*res);
        const double wall = MsSince(r0);
        query_ms.Add(wall);
        read_windows[session].Add(wall);
        if (opt.trace) lt.untraced_ms.Add(wall);
        read_ok = res.ok();
      }
      out->Count(read_ok, Format("session %zu read %s", session, kStreamRead));
      phases.Lap("reads");
    }

    std::uint64_t gen1 = 0;
    for (const char* name : kStreamNames) {
      gen1 += (*s.exec->FindStored(name))->generation();
    }
    generations += static_cast<double>(gen1 - gen0);
    lt.arena_end.Add(static_cast<double>(s.ctx->lineage().size()));
    phases.Lap("epochs");
    CheckStream(s, out);
    phases.Lap("checks");
    s.exec.reset();
    s.ctx.reset();
    phases.Lap("teardown");
  }

  out->Note(phases.Summary(kStreamSessions));
  if (opt.trace) {
    lt.generations_per_epoch =
        generations / static_cast<double>(kStreamSessions * epochs_per_session);
    EmitLayers(lt, epoch_ms, out);
  } else {
    // VmHWM at the end of the run: the largest of 48 sessions, a steadier
    // figure than the first session's alone.
    EmitEndToEnd(setup_s, read_windows, query_ms, epoch_windows, PeakRssMb(),
                 out);
  }
}

}  // namespace e2e
