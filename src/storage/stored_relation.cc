#include "storage/stored_relation.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <future>
#include <limits>
#include <string>

#include "common/interval.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "parallel/partition.h"
#include "parallel/thread_pool.h"

namespace tpset {

namespace {

// Storage metrics, process-wide across every StoredRelation. Latencies are
// recorded per mutation (not per tuple); the resident/runs gauges track live
// relations via deltas — the destructor subtracts what is left, so dead
// relations do not pin the gauges.
obs::Histogram& AppendLatencyHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tpset_storage_append_usec",
      "wall microseconds per accepted AppendRun batch");
  return h;
}

obs::Histogram& CompactLatencyHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tpset_storage_compact_usec",
      "wall microseconds per compaction pass / fold of tail runs");
  return h;
}

obs::Counter& TailLookupsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_storage_tail_lookups_total",
      "FactTail lookups served from the O(1) fact-tail map");
  return c;
}

obs::Counter& TailHitsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_storage_tail_hits_total",
      "FactTail lookups that found the fact (hit rate vs ..._lookups_total)");
  return c;
}

obs::Counter& TuplesRetiredCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_storage_tuples_retired_total",
      "tuples dropped below the retention watermark by compactions");
  return c;
}

obs::Counter& RunsMergedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_storage_runs_merged_total",
      "physical runs folded together by compactions and roll merges");
  return c;
}

obs::Counter& CompactStepsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_storage_compact_steps_total",
      "budgeted compaction passes that claimed runs or applied retention");
  return c;
}

obs::Gauge& RunsGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tpset_storage_runs", "pending tail runs across live StoredRelations");
  return g;
}

obs::Gauge& ResidentTuplesGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tpset_storage_resident_tuples",
      "logical tuples (base + tails) across live StoredRelations");
  return g;
}

obs::Gauge& GenerationsGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tpset_storage_generations",
      "live StorageGenerations (published + pinned by snapshots)");
  return g;
}

/// Merges `spans` into `*out` honoring the watermark; with `pool`, fact-range
/// partitions merge concurrently (PartitionRunsByFact) and concatenate in
/// order. Returns the number of tuples retired.
std::size_t MergeSpansMaybeParallel(const std::vector<TupleSpan>& spans,
                                    TimePoint watermark, ThreadPool* pool,
                                    std::vector<TpTuple>* out) {
  if (pool == nullptr || spans.size() <= 1) {
    return MergeRuns(spans, watermark, out);
  }
  // Fact-range parallel merge: each partition k-way-merges its slices of
  // every span independently; outputs concatenate in fact order.
  std::vector<std::pair<const TpTuple*, std::size_t>> run_args;
  run_args.reserve(spans.size());
  for (const TupleSpan& s : spans) run_args.emplace_back(s.data, s.size);
  const std::vector<RunPartition> parts =
      PartitionRunsByFact(run_args, pool->size() * 2);

  struct PartResult {
    std::vector<TpTuple> tuples;
    std::size_t dropped = 0;
  };
  std::vector<std::future<PartResult>> futures;
  futures.reserve(parts.size());
  for (const RunPartition& part : parts) {
    futures.push_back(pool->Submit([&spans, &part, watermark]() {
      std::vector<TupleSpan> slices;
      slices.reserve(part.slices.size());
      for (std::size_t r = 0; r < part.slices.size(); ++r) {
        const auto& [begin, end] = part.slices[r];
        if (begin < end) slices.push_back({spans[r].data + begin, end - begin});
      }
      PartResult res;
      res.dropped = MergeRuns(slices, watermark, &res.tuples);
      return res;
    }));
  }
  std::size_t total = 0;
  for (const TupleSpan& s : spans) total += s.size;
  out->reserve(out->size() + total);
  std::size_t dropped = 0;
  for (std::future<PartResult>& fut : futures) {
    PartResult res = fut.get();
    out->insert(out->end(), res.tuples.begin(), res.tuples.end());
    dropped += res.dropped;
  }
  return dropped;
}

}  // namespace

StorageGeneration::StorageGeneration() { GenerationsGauge().Add(1); }

StorageGeneration::~StorageGeneration() { GenerationsGauge().Add(-1); }

std::vector<TupleSpan> StorageSnapshot::spans() const {
  std::vector<TupleSpan> out;
  if (gen_ == nullptr) return out;
  out.reserve(1 + gen_->tail.run_count());
  if (!gen_->base->empty()) {
    out.push_back({gen_->base->tuples().data(), gen_->base->size()});
  }
  std::vector<TupleSpan> tail_spans = gen_->tail.spans();
  out.insert(out.end(), tail_spans.begin(), tail_spans.end());
  return out;
}

TpRelation StorageSnapshot::Materialize() const {
  if (gen_ == nullptr) return TpRelation();
  TpRelation out(gen_->base->context(), gen_->base->schema(),
                 gen_->base->name());
  MergeRuns(spans(), kNoWatermark, &out.mutable_tuples());
  out.MarkSortedUnchecked();
  return out;
}

StoredRelation::StoredRelation() : StoredRelation(TpRelation()) {}

StoredRelation::StoredRelation(TpRelation base) {
  assert(base.known_sorted() &&
         "the base level must carry the sortedness witness");
  proto_ = TpRelation(base.context(), base.schema(), base.name());
  for (const TpTuple& t : base.tuples()) {
    // (fact, start, end) order makes the last tuple of a fact's run the one
    // with the maximal end, so plain assignment leaves the tail map right.
    fact_tails_[t.fact] = t.t.end;
    max_interval_end_ = std::max(max_interval_end_, t.t.end);
  }
  ResidentTuplesGauge().Add(static_cast<std::int64_t>(base.size()));
  auto gen = std::make_shared<StorageGeneration>();
  gen->base = std::make_shared<const TpRelation>(std::move(base));
  gen->id = next_gen_id_++;
  gen_ = std::move(gen);
}

StoredRelation::~StoredRelation() {
  ResidentTuplesGauge().Add(
      -static_cast<std::int64_t>(gen_->base->size() + gen_->tail.size()));
  RunsGauge().Add(-static_cast<std::int64_t>(gen_->tail.run_count()));
}

std::shared_ptr<StorageGeneration> StoredRelation::NewGenerationLocked() const {
  auto next = std::make_shared<StorageGeneration>();
  next->watermark = watermark_;
  next->id = next_gen_id_++;
  return next;
}

void StoredRelation::PublishLocked(
    std::shared_ptr<StorageGeneration> next) const {
  gen_ = std::move(next);
}

std::size_t StoredRelation::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gen_->base->size() + gen_->tail.size();
}

StorageSnapshot StoredRelation::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StorageSnapshot(gen_);
}

Status StoredRelation::AppendRun(std::vector<TpTuple> batch, EpochId epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(std::is_sorted(batch.begin(), batch.end(), FactTimeOrder()));
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t batch_size = batch.size();
  const std::size_t runs_before = gen_->tail.run_count();
  // Validate the whole batch against a scratch copy of the affected tails
  // before mutating anything (all-or-nothing, like AppendLog).
  // (These internal defense-in-depth lookups are not counted as tail_hits —
  // that counter tracks lookups *served* to callers, i.e. FactTail.)
  std::unordered_map<FactId, TimePoint> new_tails;
  for (const TpTuple& t : batch) {
    auto scratch = new_tails.find(t.fact);
    TimePoint tail = 0;
    bool have_tail = false;
    if (scratch != new_tails.end()) {
      tail = scratch->second;
      have_tail = true;
    } else {
      auto stored = fact_tails_.find(t.fact);
      if (stored != fact_tails_.end()) {
        tail = stored->second;
        have_tail = true;
      }
    }
    if (have_tail && t.t.start < tail) {
      return Status::InvalidArgument(
          "append violates fact-time order: " + ToString(t.t) +
          " starts before the fact's tail (t=" + std::to_string(tail) + ")");
    }
    new_tails[t.fact] = t.t.end;
  }
  // Build the successor: shares the base and every untouched run with the
  // published generation. Rolls are frozen while a compaction claim is
  // outstanding so the claimed run prefix stays positionally stable.
  RunIndex tail = gen_->tail;
  TPSET_RETURN_NOT_OK(
      tail.Append(std::move(batch), epoch, &stats_, /*allow_roll=*/!compacting_));
  std::shared_ptr<StorageGeneration> next = NewGenerationLocked();
  next->base = gen_->base;
  next->base_watermark = gen_->base_watermark;
  next->tail = std::move(tail);
  const std::size_t runs_after = next->tail.run_count();
  PublishLocked(std::move(next));
  for (const auto& [fact, end] : new_tails) {
    fact_tails_[fact] = end;
    max_interval_end_ = std::max(max_interval_end_, end);
  }
  ++stats_.appends;
  AppendLatencyHistogram().Observe(obs::ElapsedUsec(t0));
  ResidentTuplesGauge().Add(static_cast<std::int64_t>(batch_size));
  RunsGauge().Add(static_cast<std::int64_t>(runs_after) -
                  static_cast<std::int64_t>(runs_before));
  return Status::OK();
}

std::pair<bool, TimePoint> StoredRelation::FactTail(FactId fact) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.tail_hits;
  TailLookupsCounter().Increment();
  auto it = fact_tails_.find(fact);
  if (it == fact_tails_.end()) return {false, 0};
  TailHitsCounter().Increment();
  return {true, it->second};
}

TimePoint StoredRelation::max_interval_end() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_interval_end_;
}

Status StoredRelation::SetWatermark(TimePoint watermark) {
  std::lock_guard<std::mutex> lock(mu_);
  if (watermark_ != kNoWatermark && watermark < watermark_) {
    return Status::InvalidArgument(
        "retention watermark must be monotone: " + std::to_string(watermark) +
        " < " + std::to_string(watermark_));
  }
  watermark_ = watermark;
  return Status::OK();
}

TimePoint StoredRelation::watermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return watermark_;
}

void StoredRelation::Compact(ThreadPool* pool) {
  CompactStep(std::numeric_limits<std::size_t>::max(), pool);
}

std::size_t StoredRelation::CompactStep(std::size_t max_runs,
                                        ThreadPool* pool) {
  // One compactor at a time: the claim → off-lock merge → publish sequence
  // assumes no other pass rewrites the claimed prefix meanwhile. Appends and
  // reads proceed concurrently — mu_ is only held for the O(1) endpoints.
  std::lock_guard<std::mutex> serial(compact_mu_);
  std::shared_ptr<const StorageGeneration> gen;
  TimePoint wm;
  std::size_t claim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    gen = gen_;
    wm = watermark_;
    // Skip the O(n) re-merge when it cannot change anything: no pending
    // runs and the watermark already applied to the base. A fold publishes
    // base_watermark = kNoWatermark, so folded-in tuples can never make a
    // retention pass skip (the old `base_unretained_` flag, structurally).
    if (gen->tail.run_count() == 0 && gen->base_watermark == wm) return 0;
    claim = std::min(max_runs, gen->tail.run_count());
    compacting_ = true;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::shared_ptr<const SortedRun>>& runs = gen->tail.runs();
  std::vector<TupleSpan> spans;
  spans.reserve(1 + claim);
  if (!gen->base->empty()) {
    spans.push_back({gen->base->tuples().data(), gen->base->size()});
  }
  for (std::size_t i = 0; i < claim; ++i) {
    if (!runs[i]->tuples.empty()) {
      spans.push_back({runs[i]->tuples.data(), runs[i]->tuples.size()});
    }
  }
  auto folded = std::make_shared<TpRelation>(proto_.context(), proto_.schema(),
                                             proto_.name());
  const std::size_t dropped =
      MergeSpansMaybeParallel(spans, wm, pool, &folded->mutable_tuples());
  folded->MarkSortedUnchecked();
  CompactLatencyHistogram().Observe(obs::ElapsedUsec(t0));

  std::size_t debt;
  {
    std::lock_guard<std::mutex> lock(mu_);
    assert(gen_->tail.run_count() >= claim &&
           "appends only push runs while a claim is outstanding");
    std::shared_ptr<StorageGeneration> next = NewGenerationLocked();
    next->base = std::move(folded);
    next->base_watermark = wm;
    // Rolls were frozen, so the current tail's oldest `claim` runs are
    // exactly the ones merged; the suffix is whatever appended since.
    next->tail = gen_->tail.WithoutPrefix(claim);
    debt = next->tail.run_count() + (next->base_watermark != watermark_);
    PublishLocked(std::move(next));
    compacting_ = false;
    if (spans.size() > 1) {
      stats_.runs_merged += spans.size();
      RunsMergedCounter().Increment(spans.size());
    }
    stats_.tuples_retired += dropped;
    ++stats_.compactions;
    ResidentTuplesGauge().Add(-static_cast<std::int64_t>(dropped));
    RunsGauge().Add(-static_cast<std::int64_t>(claim));
  }
  CompactStepsCounter().Increment();
  if (dropped > 0) TuplesRetiredCounter().Increment(dropped);
  obs::EmitEvent(obs::Severity::kInfo, "storage",
                 "compaction relation=%.32s runs=%zu retired=%zu debt=%zu",
                 proto_.name().c_str(), claim, dropped, debt);
  return debt;
}

std::size_t StoredRelation::compaction_debt() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gen_->tail.run_count() +
         static_cast<std::size_t>(gen_->base_watermark != watermark_);
}

std::shared_ptr<const TpRelation> StoredRelation::FoldedView() const {
  // Try to claim the fold like a compaction pass: with compact_mu_ held and
  // rolls frozen, the folded runs stay a positionally stable prefix of the
  // live tail, so the fold can publish even when appends land during the
  // merge — without the claim, a sustained writer would preempt every
  // publish and readers would re-fold the same runs forever.
  std::unique_lock<std::mutex> claim_lock(compact_mu_, std::try_to_lock);
  std::shared_ptr<const StorageGeneration> gen;
  std::size_t claimed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    gen = gen_;
    if (claim_lock.owns_lock() && gen->tail.run_count() > 0) {
      compacting_ = true;
      claimed = gen->tail.run_count();
    }
  }
  if (gen->tail.run_count() == 0) return gen->base;

  // Fold tails without retention — a read must not change logical content
  // (retiring below the watermark is the compactor's explicit job). The
  // merge runs off-lock on the pinned generation: this is the swap that
  // retires the old reader-thread in-lock fold.
  const auto t0 = std::chrono::steady_clock::now();
  auto folded = std::make_shared<TpRelation>(proto_.context(), proto_.schema(),
                                             proto_.name());
  std::vector<TupleSpan> spans;
  spans.reserve(1 + gen->tail.run_count());
  if (!gen->base->empty()) {
    spans.push_back({gen->base->tuples().data(), gen->base->size()});
  }
  std::vector<TupleSpan> tail_spans = gen->tail.spans();
  spans.insert(spans.end(), tail_spans.begin(), tail_spans.end());
  MergeRuns(spans, kNoWatermark, &folded->mutable_tuples());
  folded->MarkSortedUnchecked();
  CompactLatencyHistogram().Observe(obs::ElapsedUsec(t0));

  std::lock_guard<std::mutex> lock(mu_);
  if (claimed > 0) {
    // Claimed fold: rolls were frozen, so the folded runs are exactly the
    // first `claimed` runs of the live tail. Publish the fold as the new
    // base plus whatever suffix appends landed during the merge.
    std::shared_ptr<StorageGeneration> next = NewGenerationLocked();
    next->base = folded;
    // Folded-in run tuples bypassed retention: conservatively mark the new
    // base unretained so the next retention pass cannot skip it.
    next->base_watermark = kNoWatermark;
    next->tail = gen_->tail.WithoutPrefix(claimed);
    if (spans.size() > 1) {
      stats_.runs_merged += spans.size();
      RunsMergedCounter().Increment(spans.size());
    }
    ++stats_.compactions;
    RunsGauge().Add(-static_cast<std::int64_t>(claimed));
    compacting_ = false;
    PublishLocked(std::move(next));
  } else if (gen_ == gen && !compacting_) {
    // Unclaimed fold (a compaction pass held compact_mu_): publish only if
    // nothing raced past. The fold is correct for its snapshot either way.
    std::shared_ptr<StorageGeneration> next = NewGenerationLocked();
    next->base = folded;
    next->base_watermark = kNoWatermark;
    next->tail = gen->tail.WithoutPrefix(gen->tail.run_count());
    if (spans.size() > 1) {
      stats_.runs_merged += spans.size();
      RunsMergedCounter().Increment(spans.size());
    }
    ++stats_.compactions;
    RunsGauge().Add(-static_cast<std::int64_t>(gen->tail.run_count()));
    PublishLocked(std::move(next));
  }
  return folded;
}

std::size_t StoredRelation::run_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gen_->tail.run_count();
}

EpochId StoredRelation::last_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gen_->tail.last_epoch();
}

std::uint64_t StoredRelation::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gen_->id;
}

StorageStats StoredRelation::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tpset
