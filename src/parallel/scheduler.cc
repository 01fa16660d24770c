#include "parallel/scheduler.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <utility>

#include "obs/metrics.h"

namespace tpset {

namespace {

// Scheduler metrics, process-wide across every MorselBatch. The recording
// sits outside the sweep kernels (once per morsel, not per tuple), so the
// observer cost is two clock reads against a multi-thousand-tuple sweep.
obs::Counter& MorselsRunCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_sched_morsels_run_total", "morsels executed by all batches");
  return c;
}

obs::Counter& MorselsStolenCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_sched_morsels_stolen_total",
      "morsels a worker took from another worker's deque");
  return c;
}

obs::Counter& FactsSplitCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_sched_facts_split_total",
      "facts heavier than the morsel budget split at clean time boundaries");
  return c;
}

obs::Histogram& MorselLatencyHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tpset_sched_morsel_latency_usec",
      "wall microseconds per morsel body (sweep + staging)");
  return h;
}

// First index in tuples[begin..end) whose fact differs from `fact`.
std::size_t FactUpperBound(const TpTuple* tuples, std::size_t begin,
                           std::size_t end, FactId fact) {
  auto it = std::upper_bound(
      tuples + begin, tuples + end, fact,
      [](FactId f, const TpTuple& t) { return f < t.fact; });
  return static_cast<std::size_t>(it - tuples);
}

}  // namespace

std::vector<FactPartition> SplitFactAtTimeBoundaries(const TpTuple* r,
                                                     const TpTuple* s,
                                                     const FactPartition& part,
                                                     std::size_t budget) {
  if (budget == 0) budget = 1;
  std::vector<FactPartition> out;
  std::size_t ri = part.r_begin;
  std::size_t si = part.s_begin;
  std::size_t span_r = ri, span_s = si;  // start of the current sub-span
  std::size_t count = 0;                 // tuples consumed since the last cut
  TimePoint max_end = std::numeric_limits<TimePoint>::min();

  // Merged walk over both sides in start order. Before consuming a tuple
  // starting at T, a cut right here is clean iff every tuple already
  // consumed since the last cut ends at or before T (tuples before the
  // previous cut end at or before that cut's time <= T by induction) — then
  // no tuple, and therefore no window, spans the boundary.
  while (ri < part.r_end || si < part.s_end) {
    const bool take_r =
        si >= part.s_end ||
        (ri < part.r_end && r[ri].t.start <= s[si].t.start);
    const TpTuple& next = take_r ? r[ri] : s[si];
    if (count >= budget && max_end <= next.t.start) {
      out.push_back({span_r, ri, span_s, si});
      span_r = ri;
      span_s = si;
      count = 0;
    }
    max_end = std::max(max_end, next.t.end);
    ++count;
    if (take_r) {
      ++ri;
    } else {
      ++si;
    }
  }
  out.push_back({span_r, part.r_end, span_s, part.s_end});
  return out;
}

MorselPlan BuildMorsels(const TpTuple* r, const TpTuple* s,
                        const std::vector<FactPartition>& parts,
                        std::size_t budget) {
  if (budget == 0) budget = 1;
  MorselPlan plan;
  plan.morsels.reserve(parts.size());
  for (const FactPartition& part : parts) {
    if (part.size() <= budget) {
      plan.morsels.push_back(part);
      continue;
    }
    // Re-cut the partition fact by fact: light facts accumulate into a
    // pending morsel flushed at the budget; a heavy fact flushes the pending
    // morsel and is time-split on its own, keeping morsels in (fact, time)
    // order.
    FactPartition pending{part.r_begin, part.r_begin, part.s_begin,
                          part.s_begin};
    std::size_t ri = part.r_begin, si = part.s_begin;
    while (ri < part.r_end || si < part.s_end) {
      FactId fact;
      if (ri < part.r_end && si < part.s_end) {
        fact = std::min(r[ri].fact, s[si].fact);
      } else if (ri < part.r_end) {
        fact = r[ri].fact;
      } else {
        fact = s[si].fact;
      }
      const std::size_t rj = FactUpperBound(r, ri, part.r_end, fact);
      const std::size_t sj = FactUpperBound(s, si, part.s_end, fact);
      const std::size_t weight = (rj - ri) + (sj - si);
      if (weight > budget) {
        if (pending.size() > 0) plan.morsels.push_back(pending);
        std::vector<FactPartition> sub =
            SplitFactAtTimeBoundaries(r, s, {ri, rj, si, sj}, budget);
        if (sub.size() > 1) ++plan.facts_split;
        plan.morsels.insert(plan.morsels.end(), sub.begin(), sub.end());
        pending = {rj, rj, sj, sj};
      } else if (pending.size() + weight > budget) {
        if (pending.size() > 0) plan.morsels.push_back(pending);
        pending = {ri, rj, si, sj};
      } else {
        pending.r_end = rj;
        pending.s_end = sj;
      }
      ri = rj;
      si = sj;
    }
    if (pending.size() > 0) plan.morsels.push_back(pending);
  }
  if (plan.facts_split > 0) FactsSplitCounter().Increment(plan.facts_split);
  return plan;
}

// Shared between the batch handle and the worker tasks; workers hold a
// shared_ptr so the handle may be destroyed while stragglers finish.
struct MorselBatch::State {
  // One worker's slice of the index space. `items` is filled once before
  // the workers start and never grows; `head`/`tail` delimit the live
  // window. The owner pops at head (lowest morsel indices first), thieves
  // pop at tail — both under the deque mutex; the deques are small and cold
  // enough that a mutex beats a lock-free structure on clarity.
  struct Deque {
    std::mutex mu;
    std::vector<std::size_t> items;
    std::size_t head = 0;
    std::size_t tail = 0;  // one past the last live item
  };

  std::function<void(std::size_t)> body;
  std::vector<std::unique_ptr<Deque>> deques;  // unique_ptr: mutex pins them

  // Completion plane. `done` flips under `mu` after the body ran, so a
  // waiter that observed done[i] also observes every write the body made
  // (the splice-readiness handoff the overlapped splice relies on).
  std::mutex mu;
  std::condition_variable cv;
  std::vector<char> done;
  std::size_t done_count = 0;
  std::size_t stolen = 0;
  std::exception_ptr error;
};

MorselBatch::MorselBatch(ThreadPool* pool, std::size_t count,
                         std::function<void(std::size_t)> body)
    : state_(std::make_shared<State>()) {
  // Register the whole scheduler metric family up front. Steals and splits
  // may legitimately never happen in a run, but a scrape should still see
  // their counters at 0 rather than absent (absence reads as "renamed or
  // dropped" to the schema validator and to Prometheus rate() queries).
  MorselsRunCounter();
  MorselsStolenCounter();
  FactsSplitCounter();
  MorselLatencyHistogram();
  state_->body = std::move(body);
  state_->done.assign(count, 0);
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(pool == nullptr ? 1 : pool->size(), count));
  state_->deques.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    state_->deques.push_back(std::make_unique<State::Deque>());
  }
  for (std::size_t w = 0; w < workers; ++w) {
    // Round-robin assignment: every deque holds a spread of low-to-high
    // indices, so the fronts collectively track the splice frontier.
    State::Deque& d = *state_->deques[w];
    d.items.reserve(count / workers + 1);
    for (std::size_t i = w; i < count; i += workers) d.items.push_back(i);
    d.tail = d.items.size();
  }
  if (count == 0) return;
  if (pool == nullptr) {
    RunWorker(state_, 0);
    return;
  }
  for (std::size_t w = 0; w < workers; ++w) {
    std::shared_ptr<State> st = state_;
    // Fire-and-forget: completion is tracked through State, not futures.
    pool->Submit([st, w]() { RunWorker(st, w); });
  }
}

void MorselBatch::RunWorker(const std::shared_ptr<State>& st,
                            std::size_t worker) {
  const std::size_t workers = st->deques.size();
  for (;;) {
    std::size_t index = 0;
    bool found = false;
    bool was_steal = false;
    {
      State::Deque& own = *st->deques[worker];
      std::lock_guard<std::mutex> lock(own.mu);
      if (own.head < own.tail) {
        index = own.items[own.head++];
        found = true;
      }
    }
    if (!found) {
      for (std::size_t off = 1; off < workers && !found; ++off) {
        State::Deque& victim = *st->deques[(worker + off) % workers];
        std::lock_guard<std::mutex> lock(victim.mu);
        if (victim.head < victim.tail) {
          index = victim.items[--victim.tail];
          found = true;
          was_steal = true;
        }
      }
    }
    if (!found) return;
    std::exception_ptr error;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      st->body(index);
    } catch (...) {
      error = std::current_exception();
    }
    MorselLatencyHistogram().Observe(obs::ElapsedUsec(t0));
    MorselsRunCounter().Increment();
    if (was_steal) MorselsStolenCounter().Increment();
    {
      std::lock_guard<std::mutex> lock(st->mu);
      st->done[index] = 1;
      ++st->done_count;
      if (was_steal) ++st->stolen;
      if (error && !st->error) st->error = error;
    }
    st->cv.notify_all();
  }
}

MorselBatch::~MorselBatch() {
  // Swallow any pending error: the caller chose not to consume it (e.g. is
  // already unwinding). Waiting keeps the caller-owned result slots alive.
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock,
                  [&]() { return state_->done_count == state_->done.size(); });
}

void MorselBatch::WaitMorsel(std::size_t index) {
  assert(index < state_->done.size());
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&]() { return state_->done[index] != 0; });
  if (state_->error) {
    // Don't rethrow twice, and only after every worker settled so the
    // caller's slots stay valid during unwind.
    state_->cv.wait(
        lock, [&]() { return state_->done_count == state_->done.size(); });
    std::exception_ptr error = state_->error;
    state_->error = nullptr;
    std::rethrow_exception(error);
  }
}

void MorselBatch::WaitAll() {
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock,
                  [&]() { return state_->done_count == state_->done.size(); });
  if (state_->error) {
    std::exception_ptr error = state_->error;
    state_->error = nullptr;
    std::rethrow_exception(error);
  }
}

std::size_t MorselBatch::morsels_run() const { return state_->done.size(); }

std::size_t MorselBatch::morsels_stolen() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stolen;
}

}  // namespace tpset
