#include "parallel/parallel_set_op.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "lawa/columnar_advancer.h"
#include "obs/metrics.h"
#include "parallel/scheduler.h"
#include "relation/validate.h"

namespace tpset {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// A window that passed the per-operation λ-filter but whose lineage
// concatenation is deferred to the apply phase.
struct PendingWindow {
  FactId fact;
  Interval t;
  LineagePair lineage;
};

// Pending windows per task below which copying them uses fewer tasks than
// workers.
constexpr std::size_t kMinCopyPerTask = 8192;

// One morsel's phase-3 result: its deferred concatenations, in window
// order.
struct PartitionSweep {
  std::vector<PendingWindow> windows;
  std::size_t windows_produced = 0;
};

// Phase 3: one morsel — the sub-spans of the sorted inputs its fact range
// covers — swept by the fused kernel, handing every window that passes the
// per-operation λ-filter to `emit`, which defers it. LawaSetOp sweeps with
// the same kernel, so bit-identity rests on the morsel cuts stitching back
// into the sequential stream (scheduler.h); the cross-check is the
// parallel_set_op_test property suite. The sweep drains early only at an
// input that ends in the morsel, as the sequential sweep does, so the
// morsels' candidate windows sum to its count. Reads shared data only;
// returns the candidate windows.
template <typename Emit>
std::size_t SweepMorsel(SetOpKind op, TupleSpan r, TupleSpan s,
                        const FactPartition& part, Emit&& emit) {
  ColumnarAdvancer adv(r.Slice(part.r_begin, part.r_end),
                       s.Slice(part.s_begin, part.s_end));
  adv.SweepSlice(op, part.r_end == r.size, part.s_end == s.size, emit);
  return adv.windows_produced();
}

}  // namespace

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
                                               std::size_t morsel_budget)
    : num_threads_(num_threads),
      sort_mode_(sort_mode),
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

TpRelation ParallelSetOpAlgorithm::ComputeSequenced(SetOpKind op,
                                                    const TpRelation& r,
                                                    const TpRelation& s,
                                                    ApplySequencer* seq,
                                                    std::size_t ticket,
                                                    LawaStats* stats,
                                                    obs::Span* span) const {
  obs::SpanTimer span_timer(span);
  if (num_threads_ <= 1) {
    // Degenerate pool: the sequential algorithm *is* the morsel sweep.
    // LawaSetOp interns every block as it fills, so the whole call is the
    // turn; its wall is reported as "advance", with the blocks' summed
    // sweep, intern and materialize walls as that span's children.
    TurnGuard turn(seq, ticket);
    turn.Wait();
    Clock::time_point t0 = Clock::now();
    LawaStats local_stats;
    obs::Span* advance = span == nullptr ? nullptr : span->AddChild("advance");
    TpRelation out = LawaSetOp(op, r, s, sort_mode_, &local_stats, advance);
    if (span != nullptr) {
      advance->wall_ms = MsSince(t0);
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

  // Phase 2: plan morsels straight from the sorted inputs — cut at fact
  // boundaries, and facts heavier than the morsel budget at clean time
  // boundaries (scheduler.h), so a one-hot-fact input does not pin a single
  // worker.
  const TupleSpan rspan{rdata, rn};
  const TupleSpan sspan{sdata, sn};
  const MorselPlan plan = BuildMorsels(
      rspan, sspan,
      morsel_budget_ != 0 ? morsel_budget_
                          : MorselAutoBudget(rn + sn, num_threads_));
  const std::size_t n_morsels = plan.morsels.size();
  double split_ms = MsSince(t0);
  t0 = Clock::now();

  // Phase 3: sweep morsels on the work-stealing batch; each result is built
  // locally and moved into its own slot, so the block below lists the
  // windows in morsel index order regardless of which worker ran what.
  std::vector<PartitionSweep> results(n_morsels);
  MorselBatch batch(p, n_morsels, [op, rspan, sspan, &plan,
                                   &results](std::size_t i) {
    PartitionSweep sweep;
    sweep.windows_produced =
        SweepMorsel(op, rspan, sspan, plan.morsels[i],
                    [&](const LineageAwareWindow& w) {
                      sweep.windows.push_back({w.fact, w.t, {w.lr, w.ls}});
                    });
    results[i] = std::move(sweep);
  });
  batch.WaitAll();

  // The block: every morsel's windows at its offset, gathered on the pool
  // before the turn, since it reads no arena state.
  std::vector<std::size_t> offset(n_morsels + 1, 0);
  std::size_t total_windows = 0;
  for (std::size_t i = 0; i < n_morsels; ++i) {
    offset[i + 1] = offset[i] + results[i].windows.size();
    total_windows += results[i].windows_produced;
  }
  const std::size_t n_out = offset[n_morsels];
  // Left uninitialized: the gather and ConcatBlock write every slot, on the
  // pool, so their pages are first touched in parallel too.
  std::unique_ptr<LineagePair[]> block(new LineagePair[n_out]);
  std::unique_ptr<LineageId[]> ids(new LineageId[n_out]);
  std::vector<TpTuple>& out_tuples = out.mutable_tuples();
  out_tuples.resize(n_out);
  // body(window, at) for every pending window, split evenly by offset.
  const std::size_t copy_tasks =
      std::clamp<std::size_t>(n_out / kMinCopyPerTask, 1, p->size());
  auto for_windows = [&](auto&& body) {
    RunTasks(p, copy_tasks, [&](std::size_t t) {
      std::size_t at = n_out * t / copy_tasks;
      const std::size_t hi = n_out * (t + 1) / copy_tasks;
      std::size_t m = static_cast<std::size_t>(
          std::upper_bound(offset.begin(), offset.end(), at) - offset.begin() -
          1);
      for (; at < hi; ++m) {
        const std::vector<PendingWindow>& windows = results[m].windows;
        for (const std::size_t end = std::min(hi, offset[m + 1]); at < end;
             ++at) {
          body(windows[at - offset[m]], at);
        }
      }
    });
  };
  for_windows([&](const PendingWindow& w, std::size_t at) {
    block[at] = w.lineage;
  });

  // Phase 4: the arena-mutating intern, in the operation's turn; the output
  // fill after it reads only the block's ids.
  turn.Wait();
  Clock::time_point a0 = Clock::now();
  r.context()->lineage().ConcatBlock(op, {block.get(), n_out}, p,
                                     {ids.get(), n_out});
  NoteConcatUsec(obs::ElapsedUsec(a0));
  turn.Release();
  for_windows([&](const PendingWindow& w, std::size_t at) {
    out_tuples[at] = {w.fact, w.t, ids[at]};
  });
  const double apply_ms = MsSince(a0);
  const double advance_ms = MsSince(t0) - apply_ms;
  // Windows come out in fact order with increasing starts per fact.
  out.MarkSortedUnchecked();

  LawaStats local_stats;
  local_stats.windows_produced = total_windows;
  local_stats.output_tuples = out.size();
  local_stats.sort_skipped = sort_skipped;
  local_stats.morsels_run = batch.morsels_run();
  local_stats.morsels_stolen = batch.morsels_stolen();
  local_stats.facts_split = plan.facts_split;
  if (stats != nullptr) *stats = local_stats;
  if (span != nullptr) {
    span->AddChild("sort")->wall_ms = sort_ms;
    span->AddChild("split")->wall_ms = split_ms;
    span->AddChild("advance")->wall_ms = advance_ms;
    span->AddChild("apply")->wall_ms = apply_ms;
    span->AttachStats(local_stats);
    span->SetAttr("out", out.size());
    span->SetAttr("morsels", batch.morsels_run());
  }
  return out;
}

}  // namespace tpset
