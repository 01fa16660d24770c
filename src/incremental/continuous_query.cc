#include "incremental/continuous_query.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "common/setop.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace tpset {

namespace {

// Deep copy of a query tree (ContinuousQuery keeps its own).
QueryPtr CloneQuery(const QueryNode& q) {
  if (q.kind == QueryNode::Kind::kRelation) {
    return QueryNode::Relation(q.relation_name);
  }
  return QueryNode::SetOp(q.op, CloneQuery(*q.left), CloneQuery(*q.right));
}

// Incremental-maintenance metrics, process-wide across continuous queries.
obs::Histogram& EpochLatencyHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tpset_incr_epoch_usec",
      "wall microseconds per epoch delta propagation (ApplyAppend)");
  return h;
}

obs::Counter& EpochsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_incr_epochs_total",
      "append epochs propagated through continuous-query DAGs");
  return c;
}

obs::Counter& FactsResumedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_incr_facts_resumed_total",
      "fact sweeps resumed from a persisted checkpoint");
  return c;
}

obs::Counter& FactsResweptCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_incr_facts_reswept_total",
      "fact sweeps restarted from scratch (frontier straddled / retraction)");
  return c;
}

obs::Counter& RetractionsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_incr_retractions_total",
      "tuples retracted from continuous-query root deltas");
  return c;
}

// Streaming telemetry (flight recorder, PR 8). The epoch end-to-end
// histogram spans the executor's write fence to delta delivery; the lag and
// watermark gauges track the most recently updated DAG (their per-query
// values live on SubscriberInfos/LowWatermark and in ExplainContinuous).
obs::Histogram& EpochE2eHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tpset_incr_epoch_e2e_usec",
      "wall microseconds from append fence entry to delta delivered");
  return h;
}

obs::Gauge& SubscriberLagGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tpset_incr_subscriber_lag",
      "max (log epoch - last delivered epoch) over the last-touched query's "
      "subscriptions");
  return g;
}

obs::Gauge& LowWatermarkGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tpset_incr_low_watermark",
      "event-time low watermark of the last-applied continuous DAG");
  return g;
}

// Per-epoch delta of the cumulative per-operator counters.
LawaStats DiffStats(const LawaStats& after, const LawaStats& before) {
  LawaStats d;
  d.windows_produced = after.windows_produced - before.windows_produced;
  d.output_tuples = after.output_tuples - before.output_tuples;
  d.sort_skipped = after.sort_skipped - before.sort_skipped;
  d.morsels_run = after.morsels_run - before.morsels_run;
  d.morsels_stolen = after.morsels_stolen - before.morsels_stolen;
  d.facts_split = after.facts_split - before.facts_split;
  d.facts_resumed = after.facts_resumed - before.facts_resumed;
  d.facts_reswept = after.facts_reswept - before.facts_reswept;
  d.epochs_applied = after.epochs_applied - before.epochs_applied;
  d.runs_merged = after.runs_merged - before.runs_merged;
  d.tuples_retired = after.tuples_retired - before.tuples_retired;
  d.tail_hits = after.tail_hits - before.tail_hits;
  d.sweeps_scalar = after.sweeps_scalar - before.sweeps_scalar;
  d.sweeps_columnar = after.sweeps_columnar - before.sweeps_columnar;
  return d;
}

}  // namespace

Result<std::unique_ptr<ContinuousQuery>> ContinuousQuery::Compile(
    std::string name, const QueryNode& query,
    const std::function<Result<const StoredRelation*>(const std::string&)>&
        resolve,
    std::shared_ptr<TpContext> ctx, const ContinuousOptions& options,
    ThreadPool* pool) {
  std::unique_ptr<ContinuousQuery> cq(new ContinuousQuery());
  cq->name_ = std::move(name);
  cq->query_ = CloneQuery(query);
  cq->ctx_ = std::move(ctx);
  cq->options_ = options;
  cq->pool_ = pool;
  if (cq->options_.num_threads == 0) cq->options_.num_threads = 1;
  if (cq->options_.partitions_per_thread == 0) {
    cq->options_.partitions_per_thread = 1;
  }
  assert((cq->options_.num_threads <= 1 || pool != nullptr) &&
         "parallel continuous queries need the shared pool");

  std::map<std::string, int> memo;
  Status status = Status::OK();
  int root = cq->CompileNode(*cq->query_, resolve, &memo, &status);
  TPSET_RETURN_NOT_OK(status);
  assert(root == static_cast<int>(cq->nodes_.size()) - 1 && "root is last");
  (void)root;

  // Schema of the leftmost leaf (set operations preserve it).
  {
    const PlanNode* n = &cq->nodes_.back();
    while (!n->leaf) n = &cq->nodes_[static_cast<std::size_t>(n->left)];
    cq->schema_ = n->relation->schema();
  }

  // Initial full computation: every leaf's current content as one
  // insert-only delta, streamed through the run-merge iterator (no view
  // materialization — the leaf may carry pending tail runs). Per fact this
  // is an in-order append onto empty state, so each operator does one fresh
  // per-fact sweep — the same work a one-shot Execute would do.
  std::map<std::string, DeltaMap> owned;
  std::map<std::string, const DeltaMap*> leaf_deltas;
  for (const PlanNode& n : cq->nodes_) {
    if (n.leaf && !n.relation->empty()) {
      auto [it, fresh] = owned.try_emplace(n.relation_name);
      if (fresh) {
        DeltaMap& map = it->second;
        n.relation->ForEachTuple(
            [&map](const TpTuple& t) { map[t.fact].inserted.push_back(t); });
        leaf_deltas.emplace(n.relation_name, &map);
      }
    }
  }
  if (!leaf_deltas.empty()) cq->Propagate(leaf_deltas);
  return cq;
}

int ContinuousQuery::CompileNode(
    const QueryNode& q,
    const std::function<Result<const StoredRelation*>(const std::string&)>&
        resolve,
    std::map<std::string, int>* memo, Status* status) {
  if (!status->ok()) return -1;
  // Common subtrees collapse onto one operator node: the plan is a DAG and
  // each distinct subexpression absorbs a delta exactly once per epoch.
  const std::string key = QueryToString(q);
  auto it = memo->find(key);
  if (it != memo->end()) return it->second;

  PlanNode node;
  if (q.kind == QueryNode::Kind::kRelation) {
    Result<const StoredRelation*> rel = resolve(q.relation_name);
    if (!rel.ok()) {
      *status = rel.status();
      return -1;
    }
    node.leaf = true;
    node.relation_name = q.relation_name;
    node.relation = *rel;
    leaves_.insert(q.relation_name);
  } else {
    node.left = CompileNode(*q.left, resolve, memo, status);
    node.right = CompileNode(*q.right, resolve, memo, status);
    if (!status->ok()) return -1;
    node.op = q.op;
    node.state = std::make_unique<IncrementalSetOp>(q.op);
  }
  const int index = static_cast<int>(nodes_.size());
  nodes_.push_back(std::move(node));
  memo->emplace(key, index);
  return index;
}

TupleDelta ContinuousQuery::Propagate(
    const std::map<std::string, const DeltaMap*>& leaf_deltas,
    obs::Span* span) {
  ThreadPool* pool = options_.num_threads > 1 ? pool_ : nullptr;
  const std::size_t max_groups =
      pool != nullptr ? options_.num_threads * options_.partitions_per_thread
                      : 0;

  // Interior deltas are owned; leaf slots alias the caller's (shared) maps.
  static const DeltaMap kEmpty;
  std::vector<DeltaMap> owned(nodes_.size());
  std::vector<const DeltaMap*> node_deltas(nodes_.size(), &kEmpty);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const PlanNode& n = nodes_[i];
    if (n.leaf) {
      auto it = leaf_deltas.find(n.relation_name);
      if (it != leaf_deltas.end()) node_deltas[i] = it->second;
    } else {
      const DeltaMap& left = *node_deltas[static_cast<std::size_t>(n.left)];
      const DeltaMap& right = *node_deltas[static_cast<std::size_t>(n.right)];
      obs::Span* child =
          span == nullptr ? nullptr : span->AddChild(SetOpName(n.op));
      const LawaStats before =
          child == nullptr ? LawaStats{} : n.state->stats();
      {
        obs::SpanTimer timer(child);
        owned[i] =
            n.state->Apply(left, right, ctx_->lineage(), pool, max_groups);
      }
      if (child != nullptr) {
        child->AttachStats(DiffStats(n.state->stats(), before));
        child->SetAttr("facts", owned[i].size());
      }
      node_deltas[i] = &owned[i];
    }
  }

  TupleDelta root;
  for (const auto& [fact, d] : *node_deltas.back()) {
    (void)fact;
    root.inserted.insert(root.inserted.end(), d.inserted.begin(),
                         d.inserted.end());
    root.retracted.insert(root.retracted.end(), d.retracted.begin(),
                          d.retracted.end());
  }
  return root;
}

void ContinuousQuery::ApplyAppend(EpochId epoch,
                                  const std::string& relation_name,
                                  const DeltaMap& delta,
                                  std::chrono::steady_clock::time_point fence_t0) {
  assert(Reads(relation_name));
  ++epochs_applied_;
  std::map<std::string, const DeltaMap*> leaf_deltas;
  leaf_deltas.emplace(relation_name, &delta);
  EpochDelta ed;
  ed.epoch = epoch;
  const auto t0 = std::chrono::steady_clock::now();
  profile_.Reset("epoch");
  obs::Span& root = profile_.root();
  {
    obs::SpanTimer timer(&root);
    ed.delta = Propagate(leaf_deltas, &root);
  }
  root.SetAttr("epoch", static_cast<std::size_t>(epoch));
  root.SetAttr("relation", relation_name);
  root.SetAttr("inserted", ed.delta.inserted.size());
  root.SetAttr("retracted", ed.delta.retracted.size());
  const std::uint64_t propagate_usec = obs::ElapsedUsec(t0);
  EpochLatencyHistogram().Observe(propagate_usec);
  EpochsCounter().Increment();
  if (!ed.delta.retracted.empty()) {
    RetractionsCounter().Increment(ed.delta.retracted.size());
  }
  // The per-epoch resumed/reswept deltas are already on the child spans;
  // fold them into the process-wide counters from there.
  for (const auto& child : root.children) {
    if (!child->has_stats) continue;
    if (child->stats.facts_resumed > 0) {
      FactsResumedCounter().Increment(child->stats.facts_resumed);
    }
    if (child->stats.facts_reswept > 0) {
      FactsResweptCounter().Increment(child->stats.facts_reswept);
    }
  }
  last_epoch_ = epoch;
  if (epoch > log_epoch_) log_epoch_ = epoch;
  // Snapshot the list: a callback may (un)subscribe on this query, which
  // would otherwise mutate the vector mid-iteration.
  std::vector<SubscriptionId> delivered;
  delivered.reserve(subscribers_.size());
  {
    std::vector<Subscriber> subs = subscribers_;
    for (const Subscriber& s : subs) {
      s.cb(ed);
      delivered.push_back(s.id);
    }
  }
  for (SubscriptionId id : delivered) {
    for (Subscriber& s : subscribers_) {
      if (s.id == id) s.last_delivered = epoch;
    }
  }
  // End-to-end latency closes only after the last subscriber has the delta.
  EpochE2eHistogram().Observe(obs::ElapsedUsec(fence_t0));
  SubscriberLagGauge().Set(0);
  const TimePoint low = LowWatermark();
  if (low != kNoWatermark) LowWatermarkGauge().Set(low);
  obs::EmitEvent(obs::Severity::kInfo, "incr",
                 "epoch applied epoch=%llu query=%.32s +%zu -%zu",
                 static_cast<unsigned long long>(epoch), name_.c_str(),
                 ed.delta.inserted.size(), ed.delta.retracted.size());
  // Slow epochs retain their span tree as an exemplar (threshold is the
  // larger of the configured floor and the ring-derived p99).
  obs::Recorder::Global().RecordExecution(
      "epoch", name_, static_cast<double>(propagate_usec) / 1000.0, &profile_);
}

void ContinuousQuery::NoteLogEpoch(EpochId epoch) {
  if (epoch > log_epoch_) log_epoch_ = epoch;
  std::uint64_t max_lag = 0;
  for (const Subscriber& s : subscribers_) {
    const std::uint64_t lag =
        log_epoch_ > s.last_delivered ? log_epoch_ - s.last_delivered : 0;
    max_lag = std::max(max_lag, lag);
  }
  SubscriberLagGauge().Set(static_cast<std::int64_t>(max_lag));
}

TimePoint ContinuousQuery::LowWatermark() const {
  TimePoint low = kNoWatermark;
  bool first = true;
  for (const PlanNode& n : nodes_) {
    if (!n.leaf) continue;
    const TimePoint leaf_max = n.relation->max_interval_end();
    if (leaf_max == kNoWatermark) return kNoWatermark;  // empty leaf: unknown
    low = first ? leaf_max : std::min(low, leaf_max);
    first = false;
  }
  return low;
}

std::vector<ContinuousQuery::SubscriberInfo> ContinuousQuery::SubscriberInfos()
    const {
  std::vector<SubscriberInfo> out;
  out.reserve(subscribers_.size());
  for (const Subscriber& s : subscribers_) {
    SubscriberInfo info;
    info.id = s.id;
    info.last_delivered = s.last_delivered;
    info.lag =
        log_epoch_ > s.last_delivered ? log_epoch_ - s.last_delivered : 0;
    out.push_back(info);
  }
  return out;
}

ContinuousQuery::SubscriptionId ContinuousQuery::Subscribe(Callback cb) {
  const SubscriptionId id = next_subscription_++;
  Subscriber s;
  s.id = id;
  s.cb = std::move(cb);
  // A fresh subscription has seen nothing yet, but it is not "lagging"
  // behind epochs that predate it: treat everything up to the current log
  // epoch as delivered.
  s.last_delivered = log_epoch_;
  subscribers_.push_back(std::move(s));
  return id;
}

void ContinuousQuery::Unsubscribe(SubscriptionId id) {
  subscribers_.erase(
      std::remove_if(subscribers_.begin(), subscribers_.end(),
                     [id](const auto& s) { return s.id == id; }),
      subscribers_.end());
}

std::string ContinuousQuery::text() const { return QueryToString(*query_); }

std::size_t ContinuousQuery::size() const {
  const PlanNode& root = nodes_.back();
  return root.leaf ? root.relation->size() : root.state->accumulated_size();
}

TpRelation ContinuousQuery::Current() const {
  const PlanNode& root = nodes_.back();
  if (root.leaf) {
    TpRelation copy = root.relation->Materialize();
    copy.set_name(text());
    return copy;
  }
  TpRelation out(ctx_, schema_, text());
  root.state->AppendAccumulated(&out);
  return out;
}

std::size_t ContinuousQuery::Rebase() {
  TimePoint w = kNoWatermark;
  bool first = true;
  for (const PlanNode& n : nodes_) {
    if (!n.leaf) continue;
    const TimePoint leaf_w =
        n.relation->has_watermark() ? n.relation->watermark() : kNoWatermark;
    w = first ? leaf_w : std::min(w, leaf_w);
    first = false;
  }
  if (w == kNoWatermark || w <= rebased_watermark_) return 0;
  rebased_watermark_ = w;
  std::size_t retired = 0;
  for (const PlanNode& n : nodes_) {
    if (!n.leaf) retired += n.state->Rebase(w);
  }
  obs::EmitEvent(obs::Severity::kInfo, "incr",
                 "retention rebased query=%.32s watermark=%lld retired=%zu",
                 name_.c_str(), static_cast<long long>(w), retired);
  return retired;
}

void ContinuousQuery::DescribeNode(int index, int depth, std::set<int>* visited,
                                   std::string* out) const {
  const PlanNode& n = nodes_[static_cast<std::size_t>(index)];
  out->append(static_cast<std::size_t>(depth) * 2, ' ');
  if (n.leaf) {
    const StorageStats& ss = n.relation->stats();
    *out += "relation " + n.relation_name + "  [" +
            std::to_string(n.relation->size()) + " tuples, runs=" +
            std::to_string(n.relation->run_count()) + ", tail_hits=" +
            std::to_string(ss.tail_hits) + ", runs_merged=" +
            std::to_string(ss.runs_merged) + ", tuples_retired=" +
            std::to_string(ss.tuples_retired);
    if (n.relation->has_watermark()) {
      *out += ", watermark=" + std::to_string(n.relation->watermark());
    }
    *out += "]\n";
    return;
  }
  if (!visited->insert(index).second) {
    // Deduplicated common subexpression: applied once per epoch, rendered
    // once; later references point back.
    *out += std::string(SetOpName(n.op)) + "  [shared node #" +
            std::to_string(index) + ", see above]\n";
    return;
  }
  const LawaStats& st = n.state->stats();
  *out += std::string(SetOpName(n.op)) + "  [acc=" +
          std::to_string(n.state->accumulated_size()) +
          ", epochs_applied=" + std::to_string(st.epochs_applied) +
          ", facts_resumed=" + std::to_string(st.facts_resumed) +
          ", facts_reswept=" + std::to_string(st.facts_reswept) +
          ", windows=" + std::to_string(st.windows_produced);
  if (st.tuples_retired > 0) {
    *out += ", tuples_retired=" + std::to_string(st.tuples_retired);
  }
  if (st.morsels_run > 0) {
    // Parallel staged delta applies ran on the morsel scheduler.
    *out += ", morsels=" + std::to_string(st.morsels_run) +
            ", stolen=" + std::to_string(st.morsels_stolen);
  }
  *out += "]\n";
  DescribeNode(n.left, depth + 1, visited, out);
  DescribeNode(n.right, depth + 1, visited, out);
}

std::string ContinuousQuery::Describe() const {
  std::string out = "continuous query " + name_ + ": " + text() + "\n";
  out += "epoch: " + std::to_string(last_epoch_) +
         ", log_epoch: " + std::to_string(log_epoch_) +
         ", size: " + std::to_string(size()) +
         ", threads: " + std::to_string(options_.num_threads) +
         ", subscribers: " + std::to_string(subscriber_count());
  if (rebased_watermark_ != kNoWatermark) {
    out += ", watermark: " + std::to_string(rebased_watermark_);
  }
  const TimePoint low = LowWatermark();
  if (low != kNoWatermark) {
    out += ", low_watermark: " + std::to_string(low);
  }
  out += "\n";
  for (const SubscriberInfo& s : SubscriberInfos()) {
    out += "  subscription " + std::to_string(s.id) +
           ": delivered=" + std::to_string(s.last_delivered) +
           ", lag=" + std::to_string(s.lag) + "\n";
  }
  std::set<int> visited;
  DescribeNode(static_cast<int>(nodes_.size()) - 1, 1, &visited, &out);
  return out;
}

}  // namespace tpset
