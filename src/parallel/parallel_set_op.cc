#include "parallel/parallel_set_op.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <future>
#include <utility>
#include <vector>

#include "lawa/advancer.h"
#include "lawa/columnar_advancer.h"
#include "lineage/staging.h"
#include "parallel/partition.h"
#include "parallel/scheduler.h"
#include "relation/columnar.h"
#include "relation/validate.h"

namespace tpset {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// A window that passed the per-operation λ-filter but whose lineage
// concatenation is deferred to the sequential apply phase.
struct PendingWindow {
  FactId fact;
  Interval t;
  LineageId lr;
  LineageId ls;
};

// One morsel's phase-3 result under ApplyMode::kBitIdentical: its deferred
// concatenations, in window order.
struct PartitionSweep {
  std::vector<PendingWindow> windows;
  std::size_t windows_produced = 0;
};

// One morsel's result under ApplyMode::kStaged: output tuples whose lineage
// ids may be morsel-local (>= arena.frozen_size()), resolved at splice
// time. Default-constructible so a morsel batch can pre-size its result
// slots; workers move the real sweep in.
struct StagedSweep {
  StagingArena arena{2, false};
  std::vector<TpTuple> tuples;
  std::size_t windows_produced = 0;
};

// The operation's sorted inputs, shared read-only by every morsel sweep:
// tuple arrays for the scalar kernel, column spans of one SoA view for the
// columnar kernel.
struct SweepInputs {
  const TpTuple* r;
  const TpTuple* s;
  bool columnar;
  ColumnSpan rcols, scols;
};

// Phase 3: one morsel swept on the operation's kernel, handing every window
// that passes the per-operation λ-filter to `emit` — which defers it
// (kBitIdentical) or interns it into a thread-local staging arena
// (kStaged). Drain conditions and λ-filters are shared with LawaSetOp via
// ForEachSurvivingWindow / ColumnarAdvancer::Sweep — bit-identity depends
// on them agreeing, and the cross-check is the parallel_set_op_test
// property suite. Reads shared data only; returns the candidate windows.
template <typename Emit>
std::size_t SweepMorsel(SetOpKind op, const SweepInputs& in,
                        const FactPartition& part, Emit&& emit) {
  if (in.columnar) {
    ColumnarAdvancer adv(in.rcols.Slice(part.r_begin, part.r_end),
                         in.scols.Slice(part.s_begin, part.s_end));
    adv.Sweep(op, emit);
    return adv.windows_produced();
  }
  LineageAwareWindowAdvancer adv(in.r + part.r_begin, part.r_end - part.r_begin,
                                 in.s + part.s_begin, part.s_end - part.s_begin);
  ForEachSurvivingWindow(op, adv, emit);
  return adv.windows_produced();
}

}  // namespace

PhaseTimings PhaseTimings::FromSpan(const obs::Span& span) {
  PhaseTimings t;
  if (const obs::Span* c = span.FindChild("sort")) t.sort_ms = c->wall_ms;
  if (const obs::Span* c = span.FindChild("split")) t.split_ms = c->wall_ms;
  if (const obs::Span* c = span.FindChild("advance")) t.advance_ms = c->wall_ms;
  if (const obs::Span* c = span.FindChild("apply")) t.apply_ms = c->wall_ms;
  return t;
}

void ParallelSortBatch(std::vector<TpTuple>* const* arrays, std::size_t count,
                       SortMode mode, ThreadPool* pool) {
  const std::size_t chunks = pool == nullptr ? 1 : pool->size();

  // One merge-sort state per array still large enough to split; small arrays
  // are handled sequentially up front. All arrays share each round of task
  // submissions, so one array's narrow merge tail overlaps another's wide
  // chunk phase instead of idling the pool between the two sorts.
  struct Job {
    TpTuple* base;
    std::vector<std::size_t> bounds;  // chunk boundaries, shrinking per round
  };
  std::vector<Job> jobs;
  for (std::size_t a = 0; a < count; ++a) {
    const std::size_t n = arrays[a]->size();
    if (chunks < 2 || n < 2 * chunks) {
      SortTuples(arrays[a], mode);
      continue;
    }
    Job job;
    job.base = arrays[a]->data();
    job.bounds.reserve(chunks + 1);
    for (std::size_t c = 0; c <= chunks; ++c) job.bounds.push_back(n * c / chunks);
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) return;

  {
    std::vector<std::future<void>> sorted;
    for (const Job& job : jobs) {
      TpTuple* base = job.base;
      for (std::size_t c = 0; c + 1 < job.bounds.size(); ++c) {
        std::size_t lo = job.bounds[c], hi = job.bounds[c + 1];
        sorted.push_back(pool->Submit([base, lo, hi, mode]() {
          // SortTuples operates on a vector; sort the span directly instead.
          if (mode == SortMode::kComparison) {
            std::sort(base + lo, base + hi, FactTimeOrder());
          } else {
            std::vector<TpTuple> span(base + lo, base + hi);
            SortTuples(&span, mode);
            std::copy(span.begin(), span.end(), base + lo);
          }
        }));
      }
    }
    for (std::future<void>& f : sorted) f.get();
  }

  bool merging = true;
  while (merging) {
    merging = false;
    std::vector<std::future<void>> merged;
    for (Job& job : jobs) {
      if (job.bounds.size() <= 2) continue;
      TpTuple* base = job.base;
      std::vector<std::size_t> next;
      next.reserve(job.bounds.size() / 2 + 2);
      next.push_back(job.bounds[0]);
      for (std::size_t i = 0; i + 2 < job.bounds.size(); i += 2) {
        std::size_t lo = job.bounds[i], mid = job.bounds[i + 1],
                    hi = job.bounds[i + 2];
        merged.push_back(pool->Submit([base, lo, mid, hi]() {
          std::inplace_merge(base + lo, base + mid, base + hi, FactTimeOrder());
        }));
        next.push_back(hi);
      }
      if (job.bounds.size() % 2 == 0) next.push_back(job.bounds.back());
      job.bounds = std::move(next);
      if (job.bounds.size() > 2) merging = true;
    }
    for (std::future<void>& f : merged) f.get();
  }
}

void ParallelSortTuples(std::vector<TpTuple>* tuples, SortMode mode,
                        ThreadPool* pool) {
  std::vector<TpTuple>* arrays[] = {tuples};
  ParallelSortBatch(arrays, 1, mode, pool);
}

ParallelSetOpAlgorithm::ParallelSetOpAlgorithm(std::size_t num_threads,
                                               SortMode sort_mode,
                                               std::size_t partitions_per_thread,
                                               ApplyMode apply_mode,
                                               std::size_t morsel_budget)
    : num_threads_(num_threads),
      sort_mode_(sort_mode),
      partitions_per_thread_(
          partitions_per_thread == 0 ? 1 : partitions_per_thread),
      apply_mode_(apply_mode),
      morsel_budget_(morsel_budget) {}

ParallelSetOpAlgorithm::~ParallelSetOpAlgorithm() = default;

ThreadPool* ParallelSetOpAlgorithm::pool() const {
  std::call_once(pool_once_, [this]() {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  });
  return pool_.get();
}

TpRelation ParallelSetOpAlgorithm::Compute(SetOpKind op, const TpRelation& r,
                                           const TpRelation& s) const {
  return ComputeSequenced(op, r, s, /*seq=*/nullptr, /*ticket=*/0);
}

TpRelation ParallelSetOpAlgorithm::ComputeTimed(SetOpKind op,
                                                const TpRelation& r,
                                                const TpRelation& s,
                                                PhaseTimings* timings,
                                                LawaStats* stats) const {
  // Thin adapter: the span records the phases, FromSpan projects them back.
  obs::Span span;
  span.name = SetOpName(op);
  TpRelation out =
      ComputeSequenced(op, r, s, /*seq=*/nullptr, /*ticket=*/0, stats, &span);
  if (timings != nullptr) *timings = PhaseTimings::FromSpan(span);
  return out;
}

TpRelation ParallelSetOpAlgorithm::ComputeSequenced(SetOpKind op,
                                                    const TpRelation& r,
                                                    const TpRelation& s,
                                                    ApplySequencer* seq,
                                                    std::size_t ticket,
                                                    LawaStats* stats,
                                                    obs::Span* span) const {
  obs::SpanTimer span_timer(span);
  if (num_threads_ <= 1) {
    // Degenerate pool: the sequential algorithm *is* the partition sweep.
    // LawaSetOp mutates the arena throughout, so the whole call is the turn.
    TurnGuard turn(seq, ticket);
    turn.Wait();
    Clock::time_point t0 = Clock::now();
    LawaStats local_stats;
    TpRelation out = LawaSetOp(op, r, s, sort_mode_, &local_stats);
    if (span != nullptr) {
      // The sequential algorithm interleaves all phases; report its whole
      // wall time as the sweep.
      span->AddChild("advance")->wall_ms = MsSince(t0);
      span->AttachStats(local_stats);
      span->SetAttr("out", out.size());
    }
    if (stats != nullptr) *stats = local_stats;
    turn.Release();
    return out;
  }
  TurnGuard turn(seq, ticket);  // released on every path, including unwind

  assert(ValidateSetOpInputs(r, s).ok());
  ThreadPool* p = pool();
  TpRelation out(r.context(), r.schema(),
                 "(" + r.name() + " " + SetOpName(op) + " " + s.name() + ")");
  std::size_t sort_skipped = 0;
  Clock::time_point t0 = Clock::now();

  // Phase 1: bring both inputs into (F, Ts) order. An input carrying the
  // sortedness witness is swept in place — zero copy, zero sort; the rest
  // are copied and chunk-sorted on the pool jointly, so one array's merge
  // tail (few wide tasks) overlaps the other's fully-parallel chunks.
  std::vector<TpTuple> rs, ss;
  const TpTuple* rdata = r.tuples().data();
  std::size_t rn = r.tuples().size();
  const TpTuple* sdata = s.tuples().data();
  std::size_t sn = s.tuples().size();
  {
    std::vector<TpTuple>* arrays[2];
    std::size_t to_sort = 0;
    if (r.known_sorted()) {
      ++sort_skipped;
    } else {
      rs = r.tuples();
      arrays[to_sort++] = &rs;
    }
    if (s.known_sorted()) {
      ++sort_skipped;
    } else {
      ss = s.tuples();
      arrays[to_sort++] = &ss;
    }
    if (to_sort > 0) ParallelSortBatch(arrays, to_sort, sort_mode_, p);
    if (!r.known_sorted()) {
      rdata = rs.data();
      rn = rs.size();
    }
    if (!s.known_sorted()) {
      sdata = ss.data();
      sn = ss.size();
    }
  }
  double sort_ms = MsSince(t0);
  t0 = Clock::now();

  // Phase 2: cut at fact boundaries, oversubscribed for balance, then
  // refine into morsels — facts heavier than the morsel budget are split at
  // clean time boundaries (scheduler.h), so a one-hot-fact input no longer
  // pins a single worker. Staged mode also fixes the frozen arena snapshot
  // here: one linear scan for the largest input lineage id — every id the
  // staged cells may reference — without touching the (possibly
  // concurrently growing) arena itself.
  const std::vector<FactPartition> parts = PartitionByFactRange(
      rdata, rn, sdata, sn, num_threads_ * partitions_per_thread_);
  const MorselPlan plan = BuildMorsels(
      rdata, sdata, parts,
      morsel_budget_ != 0
          ? morsel_budget_
          : MorselAutoBudget(rn + sn, num_threads_, partitions_per_thread_));
  const std::size_t n_morsels = plan.morsels.size();
  const bool staged = apply_mode_ == ApplyMode::kStaged;
  LineageId frozen = 2;  // constants stay below the snapshot
  if (staged) {
    for (std::size_t i = 0; i < rn; ++i) {
      if (rdata[i].lineage != kNullLineage && rdata[i].lineage >= frozen) {
        frozen = rdata[i].lineage + 1;
      }
    }
    for (std::size_t i = 0; i < sn; ++i) {
      if (sdata[i].lineage != kNullLineage && sdata[i].lineage >= frozen) {
        frozen = sdata[i].lineage + 1;
      }
    }
    assert(frozen != kNullLineage && "lineage id space exhausted");
  }
  const bool hash_consing = r.context()->lineage().hash_consing();
  double split_ms = MsSince(t0);
  t0 = Clock::now();

  // Sweep-kernel resolution (once per operation, on the combined input
  // size). Under kColumnar, morsels sweep column sub-spans of one
  // per-operation projection of each input (not the relation's cache, for
  // the reason LawaSetOp gives); the builds count into advance_ms — they
  // are work the columnar kernel needs. The views outlive every morsel
  // sweep (WaitMorsel below completes before they leave scope).
  const SweepKernel resolved = ResolveSweepKernel(SweepKernel::kAuto, rn + sn);
  SweepInputs in{rdata, sdata, resolved == SweepKernel::kColumnar, {}, {}};
  ColumnarView rview, sview;
  if (in.columnar) {
    rview.Build(rdata, rn);
    sview.Build(sdata, sn);
    in.rcols = rview.Columns();
    in.scols = sview.Columns();
  }

  // Phase 3: sweep morsels on the work-stealing batch; each result is built
  // locally and moved into its own slot, so the apply below can consume
  // them strictly in morsel index order regardless of which worker ran
  // what. In staged mode the sweeps also intern their concatenations
  // thread-locally and build morsel-local output tuples.
  std::vector<PartitionSweep> results;
  std::vector<StagedSweep> staged_results;
  std::function<void(std::size_t)> body;
  if (staged) {
    staged_results.resize(n_morsels);
    body = [op, &in, frozen, hash_consing, &plan,
            &staged_results](std::size_t i) {
      StagedSweep sweep{StagingArena(frozen, hash_consing), {}, 0};
      sweep.windows_produced =
          SweepMorsel(op, in, plan.morsels[i], [&](const LineageAwareWindow& w) {
            sweep.tuples.push_back(
                {w.fact, w.t, ConcatLineage(op, sweep.arena, w.lr, w.ls)});
          });
      staged_results[i] = std::move(sweep);
    };
  } else {
    results.resize(n_morsels);
    body = [op, &in, &plan, &results](std::size_t i) {
      PartitionSweep sweep;
      sweep.windows_produced =
          SweepMorsel(op, in, plan.morsels[i], [&](const LineageAwareWindow& w) {
            sweep.windows.push_back({w.fact, w.t, w.lr, w.ls});
          });
      results[i] = std::move(sweep);
    };
  }
  MorselBatch batch(p, n_morsels, std::move(body));

  // Phase 4: the sequential arena-mutating tail, gated when subtrees race.
  // kBitIdentical replays every deferred concatenation; kStaged only
  // splices pre-interned cells and bulk-appends tuples. The apply overlaps
  // the sweeps: morsel i is applied as soon as morsels <= i finished, while
  // later morsels are still advancing — apply order (and therefore the
  // output) is that of a barrier-then-apply run.
  LineageManager& mgr = r.context()->lineage();
  std::size_t total_windows = 0;
  std::vector<LineageId> remap;
  auto apply_morsel = [&](std::size_t i) {
    if (staged) {
      const StagedSweep& sweep = staged_results[i];
      total_windows += sweep.windows_produced;
      mgr.SpliceStaged(sweep.arena, &remap);
      std::vector<TpTuple>& out_tuples = out.mutable_tuples();
      const std::size_t base = out_tuples.size();
      out_tuples.insert(out_tuples.end(), sweep.tuples.begin(),
                        sweep.tuples.end());
      for (std::size_t j = base; j < out_tuples.size(); ++j) {
        LineageId& lin = out_tuples[j].lineage;
        if (lin >= frozen) lin = remap[lin - frozen];
      }
    } else {
      const PartitionSweep& sweep = results[i];
      total_windows += sweep.windows_produced;
      for (const PendingWindow& w : sweep.windows) {
        out.AddDerived(w.fact, w.t, ConcatLineage(op, mgr, w.lr, w.ls));
      }
    }
  };

  turn.Wait();
  double apply_ms = 0.0;
  for (std::size_t i = 0; i < n_morsels; ++i) {
    batch.WaitMorsel(i);
    Clock::time_point a0 = Clock::now();
    apply_morsel(i);
    apply_ms += MsSince(a0);
  }
  // Overlapped phases: report the splice work as apply and the rest of the
  // combined span (sweeps + waits) as advance, so the sum still
  // approximates the phase-3+4 wall time.
  const double advance_ms = MsSince(t0) - apply_ms;
  // Windows come out in fact order with increasing starts per fact.
  out.MarkSortedUnchecked();
  turn.Release();

  LawaStats local_stats;
  local_stats.windows_produced = total_windows;
  local_stats.output_tuples = out.size();
  local_stats.sort_skipped = sort_skipped;
  local_stats.morsels_run = batch.morsels_run();
  local_stats.morsels_stolen = batch.morsels_stolen();
  local_stats.facts_split = plan.facts_split;
  NoteSweepKernels(resolved, n_morsels, &local_stats);
  if (stats != nullptr) *stats = local_stats;
  if (span != nullptr) {
    span->AddChild("sort")->wall_ms = sort_ms;
    span->AddChild("split")->wall_ms = split_ms;
    span->AddChild("advance")->wall_ms = advance_ms;
    span->AddChild("apply")->wall_ms = apply_ms;
    span->AttachStats(local_stats);
    span->SetAttr("out", out.size());
    span->SetAttr("morsels", batch.morsels_run());
    span->SetAttr("kernel", std::string(SweepKernelName(resolved)));
  }
  return out;
}

}  // namespace tpset
