#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "lineage/lineage.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "parallel/parallel_set_op.h"
#include "parallel/sequencer.h"
#include "parallel/thread_pool.h"
#include "query/parser.h"
#include "relation/validate.h"

namespace tpset {

namespace {

// Executor metrics, process-wide: one sample per top-level Execute call
// (subtree recursion is not counted). The admission timestamp of a profiled
// execution lives on its QueryProfile root (start_unix_us).
obs::Histogram& QueryLatencyHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tpset_exec_query_usec", "wall microseconds per executed query");
  return h;
}

obs::Counter& QueriesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_exec_queries_total", "queries executed (top-level Execute calls)");
  return c;
}

void RecordQuery(std::chrono::steady_clock::time_point t0,
                 const QueryNode& query,
                 const obs::QueryProfile* profile = nullptr) {
  const std::uint64_t usec = obs::ElapsedUsec(t0);
  QueryLatencyHistogram().Observe(usec);
  QueriesCounter().Increment();
  // Slow executions retain their span tree (when profiled) as an exemplar.
  obs::Recorder& recorder = obs::Recorder::Global();
  if (static_cast<double>(usec) / 1000.0 >=
      recorder.SlowThresholdMs("query")) {
    recorder.RecordExecution("query", QueryToString(query),
                             static_cast<double>(usec) / 1000.0, profile);
  }
}

// Lineage-arena metrics, published by the arena's writer right after it
// wrote: an Execute that ran a set operation, and every Append epoch (under
// the fence). The intern counts are plain fields, so a reader that is not
// the writer must not touch them — which is why a bare-relation Execute,
// legal beside an Append, publishes nothing.
void PublishLineage(LineageManager& lineage) {
  static obs::Gauge& nodes = obs::MetricsRegistry::Global().GetGauge(
      "tpset_lineage_nodes",
      "nodes in the lineage arena at its last publish (constants included)");
  static obs::Gauge& index_bytes = obs::MetricsRegistry::Global().GetGauge(
      "tpset_lineage_index_bytes",
      "bytes of the lineage arena's hash-consing slot table and leaf table");
  static obs::Gauge& node_bytes = obs::MetricsRegistry::Global().GetGauge(
      "tpset_lineage_node_bytes",
      "bytes of the lineage arena's node array (its capacity)");
  static obs::Counter& lookups = obs::MetricsRegistry::Global().GetCounter(
      "tpset_lineage_intern_lookups_total",
      "hash-consing lookups (one per MakeVar and per and/or/not node "
      "construction that interns)");
  static obs::Counter& hits = obs::MetricsRegistry::Global().GetCounter(
      "tpset_lineage_intern_hits_total",
      "lookups that found an existing node (dedup rate vs ..._lookups_total)");
  nodes.Set(static_cast<std::int64_t>(lineage.size()));
  index_bytes.Set(static_cast<std::int64_t>(lineage.index_bytes()));
  node_bytes.Set(static_cast<std::int64_t>(lineage.node_bytes()));
  const LineageManager::InternCounts counts = lineage.TakeInternCounts();
  lookups.Increment(counts.lookups);
  hits.Increment(counts.hits);
}

}  // namespace

Status QueryExecutor::Register(const TpRelation& rel) {
  // Registration is cold-path; the fence keeps catalog_ mutation serialized
  // with concurrent appends and introspection reads.
  if (rel.name().empty()) {
    return Status::InvalidArgument("relations must be named to be registered");
  }
  if (rel.context() != ctx_) {
    return Status::InvalidArgument("relation '" + rel.name() +
                                   "' belongs to a different context");
  }
  TPSET_RETURN_NOT_OK(ValidateWellFormed(rel));
  TPSET_RETURN_NOT_OK(ValidateDuplicateFree(rel));
  TPSET_RETURN_NOT_OK(ValidateSortedFactTime(rel));
  // ValidateSortedFactTime just proved the order, so the catalog copy gets
  // the sortedness witness — every query leaf then takes the zero-sort
  // fast path. Armed here, on the copy we own, rather than memoized
  // through the caller's const reference (which could race). The copy
  // becomes the base level of the relation's run-indexed storage.
  TpRelation copy = rel;
  copy.MarkSortedUnchecked();
  // The catalog entry — the moved relation plus the StoredRelation's O(n)
  // fact-tail scan — is built into a detached map node *before* taking the
  // write fence, so the fence (which appends and introspection wait on) is
  // held only for the map splice.
  std::map<std::string, StoredRelation> staging;
  staging.emplace(std::piecewise_construct, std::forward_as_tuple(rel.name()),
                  std::forward_as_tuple(std::move(copy)));
  auto node = staging.extract(staging.begin());
  std::lock_guard<std::mutex> fence(write_fence_);
  if (catalog_.count(rel.name()) > 0) {
    return Status::InvalidArgument("relation '" + rel.name() +
                                   "' is already registered");
  }
  std::unique_lock<std::shared_mutex> insert(catalog_mu_);
  catalog_.insert(std::move(node));
  return Status::OK();
}

Result<std::shared_ptr<const TpRelation>> QueryExecutor::Find(
    const std::string& name) const {
  Result<const StoredRelation*> stored = FindStored(name);
  if (!stored.ok()) return stored.status();
  return (*stored)->FoldedView();
}

Result<const StoredRelation*> QueryExecutor::FindStored(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lookup(catalog_mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation named '" + name + "' is registered");
  }
  return &it->second;
}

Result<StorageSnapshot> QueryExecutor::SnapshotRelation(
    const std::string& name) const {
  Result<const StoredRelation*> stored = FindStored(name);
  if (!stored.ok()) return stored.status();
  return (*stored)->Snapshot();
}

Result<EpochId> QueryExecutor::Append(const std::string& relation,
                                      const DeltaBatch& batch) {
  std::lock_guard<std::mutex> fence(write_fence_);
  // First epoch starts the flight recorder's collector: once a process
  // appends, it is a streaming engine worth recording.
  obs::Recorder::Global().EnsureStarted();
  const auto fence_t0 = std::chrono::steady_clock::now();
  auto it = catalog_.find(relation);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation named '" + relation +
                            "' is registered");
  }
  // The applied tuples and their per-fact grouping feed only the queries
  // that read the relation; with none, the log skips the copy.
  const bool read = std::any_of(
      continuous_.begin(), continuous_.end(),
      [&](const auto& entry) { return entry.second->Reads(relation); });
  std::vector<TpTuple> applied;
  Result<EpochId> epoch =
      append_log_.Append(&it->second, batch, read ? &applied : nullptr);
  if (!epoch.ok()) {
    obs::EmitEvent(obs::Severity::kWarn, "storage",
                   "append rejected relation=%.32s tuples=%zu: %.40s",
                   relation.c_str(), batch.rows.size(),
                   epoch.status().message().c_str());
    return epoch;
  }
  // Shared across the readers, not copied.
  const DeltaMap grouped = read ? GroupInsertsByFact(applied) : DeltaMap();
  for (auto& [name, cq] : continuous_) {
    (void)name;
    // Every query observes the log advancing (lag accounting); readers then
    // absorb the delta, which zeroes their subscribers' lag.
    cq->NoteLogEpoch(*epoch);
    if (cq->Reads(relation)) {
      cq->ApplyAppend(*epoch, relation, grouped, fence_t0);
    }
  }
  PublishLineage(ctx_->lineage());
  // The append itself never merges: once run debt piles up, a budgeted
  // background step claims it off the writer's (and every reader's) path.
  ScheduleCompaction(it->second);
  return epoch;
}

void QueryExecutor::ScheduleCompaction(StoredRelation& stored) {
  if (stored.compaction_debt() < kCompactDebtThreshold) return;
  std::lock_guard<std::mutex> lock(bg_mu_);
  if (!bg_scheduled_.insert(&stored).second) return;  // step already in flight
  if (bg_pool_ == nullptr) bg_pool_ = std::make_unique<ThreadPool>(1);
  StoredRelation* rel = &stored;
  bg_pool_->Submit([this, rel]() {
    const std::size_t debt = rel->CompactStep(kCompactBudgetRuns);
    {
      std::lock_guard<std::mutex> lock(bg_mu_);
      bg_scheduled_.erase(rel);
    }
    // Reschedule while debt remains: each step claims a prefix, so the
    // chain terminates once appends quiesce (ThreadPool runs tasks queued
    // during shutdown to completion, and each one strictly shrinks debt).
    if (debt >= kCompactDebtThreshold) ScheduleCompaction(*rel);
  });
}

Result<std::size_t> QueryExecutor::Retain(const std::string& relation,
                                          TimePoint watermark) {
  std::lock_guard<std::mutex> fence(write_fence_);
  auto it = catalog_.find(relation);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation named '" + relation +
                            "' is registered");
  }
  StoredRelation& stored = it->second;
  TPSET_RETURN_NOT_OK(stored.SetWatermark(watermark));
  const std::size_t retired_before = stored.stats().tuples_retired;
  stored.Compact(CompactionPool());
  for (auto& [name, cq] : continuous_) {
    (void)name;
    if (cq->Reads(relation)) cq->Rebase();
  }
  const std::size_t retired = stored.stats().tuples_retired - retired_before;
  obs::EmitEvent(obs::Severity::kInfo, "storage",
                 "retention relation=%.32s watermark=%lld retired=%zu",
                 relation.c_str(), static_cast<long long>(watermark), retired);
  return retired;
}

Status QueryExecutor::Compact(const std::string& relation) {
  std::lock_guard<std::mutex> fence(write_fence_);
  auto it = catalog_.find(relation);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation named '" + relation +
                            "' is registered");
  }
  it->second.Compact(CompactionPool());
  return Status::OK();
}

ThreadPool* QueryExecutor::CompactionPool() const {
  // Compactions run under the write fence, so no continuous query is
  // propagating and its pool is idle — reuse the widest one for the
  // fact-range-parallel merge instead of compacting sequentially.
  return continuous_pools_.empty() ? nullptr
                                   : continuous_pools_.rbegin()->second.get();
}

Result<ContinuousQuery*> QueryExecutor::RegisterContinuous(
    const std::string& name, const std::string& query,
    const ContinuousOptions& options) {
  Result<QueryPtr> parsed = ParseQuery(query);
  if (!parsed.ok()) return parsed.status();
  return RegisterContinuous(name, **parsed, options);
}

Result<ContinuousQuery*> QueryExecutor::RegisterContinuous(
    const std::string& name, const QueryNode& query,
    const ContinuousOptions& options) {
  std::lock_guard<std::mutex> fence(write_fence_);
  if (name.empty()) {
    return Status::InvalidArgument("continuous queries must be named");
  }
  if (continuous_.count(name) > 0) {
    return Status::InvalidArgument("continuous query '" + name +
                                   "' is already registered");
  }
  ThreadPool* pool = nullptr;
  if (options.num_threads > 1) {
    std::unique_ptr<ThreadPool>& slot = continuous_pools_[options.num_threads];
    if (slot == nullptr) slot = std::make_unique<ThreadPool>(options.num_threads);
    pool = slot.get();
  }
  Result<std::unique_ptr<ContinuousQuery>> cq = ContinuousQuery::Compile(
      name, query, [this](const std::string& rel) { return FindStored(rel); },
      ctx_, options, pool);
  if (!cq.ok()) return cq.status();
  ContinuousQuery* ptr = cq->get();
  std::unique_lock<std::shared_mutex> insert(catalog_mu_);
  continuous_.emplace(name, std::move(*cq));
  return ptr;
}

std::vector<RelationIntrospection> QueryExecutor::IntrospectRelations() const {
  std::lock_guard<std::mutex> fence(write_fence_);
  std::vector<RelationIntrospection> out;
  out.reserve(catalog_.size());
  for (const auto& [name, stored] : catalog_) {
    const StorageSnapshot snap = stored.Snapshot();
    RelationIntrospection r;
    r.name = name;
    r.tuples = snap.size();
    r.runs = snap.run_count() + 1;  // base level + pending tail runs
    r.has_watermark = stored.has_watermark();
    r.watermark = stored.watermark();
    r.generation = snap.generation();
    r.compaction_debt = stored.compaction_debt();
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ContinuousIntrospection> QueryExecutor::IntrospectContinuous()
    const {
  std::lock_guard<std::mutex> fence(write_fence_);
  std::vector<ContinuousIntrospection> out;
  out.reserve(continuous_.size());
  for (const auto& [name, cq] : continuous_) {
    ContinuousIntrospection c;
    c.name = name;
    c.text = cq->text();
    c.last_epoch = cq->last_epoch();
    c.log_epoch = cq->log_epoch();
    c.epochs_applied = cq->epochs_applied();
    c.result_tuples = cq->size();
    const TimePoint low = cq->LowWatermark();
    c.has_low_watermark = low != kNoWatermark;
    c.low_watermark = low;
    const TimePoint effective = cq->effective_watermark();
    c.has_effective_watermark = effective != kNoWatermark;
    c.effective_watermark = effective;
    c.subscribers = cq->SubscriberInfos();
    out.push_back(std::move(c));
  }
  return out;
}

Result<ContinuousQuery*> QueryExecutor::FindContinuous(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lookup(catalog_mu_);
  auto it = continuous_.find(name);
  if (it == continuous_.end()) {
    return Status::NotFound("no continuous query named '" + name +
                            "' is registered");
  }
  return it->second.get();
}

Result<TpRelation> QueryExecutor::Execute(const std::string& query,
                                          const SetOpAlgorithm* algorithm) const {
  return Execute(query, ExecOptions{}, algorithm);
}

Result<TpRelation> QueryExecutor::Execute(const QueryNode& query,
                                          const SetOpAlgorithm* algorithm) const {
  return Execute(query, ExecOptions{}, algorithm);
}

Result<TpRelation> QueryExecutor::Execute(const std::string& query,
                                          const ExecOptions& options,
                                          const SetOpAlgorithm* algorithm) const {
  Result<QueryPtr> parsed = [&]() {
    obs::SpanTimer timer(options.profile == nullptr
                             ? nullptr
                             : options.profile->root().AddChild("parse"));
    return ParseQuery(query);
  }();
  if (!parsed.ok()) return parsed.status();
  return Execute(**parsed, options, algorithm);
}

const ParallelSetOpAlgorithm* QueryExecutor::ParallelAlgoFor(
    const ExecOptions& options) const {
  std::lock_guard<std::mutex> lock(parallel_mu_);
  std::unique_ptr<ParallelSetOpAlgorithm>& slot =
      parallel_algos_[options.num_threads];
  if (slot == nullptr) {
    slot = std::make_unique<ParallelSetOpAlgorithm>(options.num_threads);
  }
  return slot.get();
}

namespace {

// First operator of the tree (post-order) that `algorithm` cannot compute;
// OK when the whole tree is supported.
Status CheckSupported(const QueryNode& q, const SetOpAlgorithm& algorithm) {
  if (q.kind == QueryNode::Kind::kRelation) return Status::OK();
  TPSET_RETURN_NOT_OK(CheckSupported(*q.left, algorithm));
  TPSET_RETURN_NOT_OK(CheckSupported(*q.right, algorithm));
  if (!algorithm.Supports(q.op)) {
    return Status::NotSupported("algorithm " + algorithm.name() +
                                " does not support TP set " + SetOpName(q.op) +
                                " (Table II)");
  }
  return Status::OK();
}

// Every leaf's storage, in evaluation (left-to-right) order.
Status ResolveLeaves(const QueryExecutor& exec, const QueryNode& q,
                     std::vector<const StoredRelation*>* leaves) {
  if (q.kind == QueryNode::Kind::kRelation) {
    Result<const StoredRelation*> stored = exec.FindStored(q.relation_name);
    if (!stored.ok()) return stored.status();
    leaves->push_back(*stored);
    return Status::OK();
  }
  TPSET_RETURN_NOT_OK(ResolveLeaves(exec, *q.left, leaves));
  return ResolveLeaves(exec, *q.right, leaves);
}

// Proposition 1's bound on the candidate windows LAWA produces for r op s:
// 2|r| + 2|s| - |distinct facts of r ∪ s|. Consecutive equal facts collapse
// while collecting, so (fact, start)-sorted inputs — every catalog relation
// and LAWA output — sort only their distinct facts.
std::size_t WindowBound(const TpRelation& r, const TpRelation& s) {
  std::vector<FactId> facts;
  for (const TpRelation* rel : {&r, &s}) {
    for (const TpTuple& t : rel->tuples()) {
      if (facts.empty() || facts.back() != t.fact) facts.push_back(t.fact);
    }
  }
  std::sort(facts.begin(), facts.end());
  const std::size_t distinct = static_cast<std::size_t>(
      std::unique(facts.begin(), facts.end()) - facts.begin());
  return 2 * r.size() + 2 * s.size() - distinct;
}

// A plan node's value: a borrowed leaf, or an operator's output — ready
// (computed inline) or in flight on the operator's own task.
struct Operand {
  std::shared_ptr<const TpRelation> leaf;
  std::shared_ptr<TpRelation> out;
  std::shared_future<std::shared_ptr<TpRelation>> pending;

  // Blocks until the value exists; rethrows the producing task's exception.
  const TpRelation& Get() const {
    if (leaf != nullptr) return *leaf;
    return pending.valid() ? *pending.get() : *out;
  }
};

// One query's bottom-up evaluation. Every operator takes a post-order
// ticket and runs its arena-mutating phase in ticket order on one
// ApplySequencer, so the arena sees the mutation sequence of a sequential
// post-order evaluation in every mode. Sequentially, each operator runs
// inline on the calling thread as soon as its operands are ready (its
// ticket is then always next, so turns never wait). Concurrently, each
// operator runs on its own std::async task, so sibling subtrees overlap;
// the span tree is pre-built on the calling thread during the descent and
// each task writes only its own operator's span (the same disjoint-slot
// discipline as the morsel result vectors). Pool tasks never block on other
// pool tasks: all blocking — operand futures, sequencer turns — happens on
// the per-operator threads.
class Evaluation {
 public:
  // `leaves` holds the query's resolved leaves in evaluation order. A
  // non-null `parallel` (== `algorithm`) defers its arena writes to its
  // turn; any other algorithm's whole Compute is its turn.
  Evaluation(const SetOpAlgorithm& algorithm,
             const ParallelSetOpAlgorithm* parallel, bool concurrent,
             std::vector<const StoredRelation*> leaves)
      : algorithm_(algorithm),
        parallel_(parallel),
        concurrent_(concurrent),
        leaves_(std::move(leaves)) {}
  // Operator tasks hold `this`.
  Evaluation(const Evaluation&) = delete;
  Evaluation& operator=(const Evaluation&) = delete;

  // The query's answer. An operator's output is moved out — nothing else
  // references it once evaluation ends; a bare-relation query copies its
  // leaf, the one copy left on the read path.
  TpRelation Run(const QueryNode& query, obs::Span* root) {
    Operand answer = Eval(query, root);
    if (answer.leaf != nullptr) return *answer.leaf;
    return std::move(answer.pending.valid() ? *answer.pending.get()
                                            : *answer.out);
  }

 private:
  Operand Eval(const QueryNode& node, obs::Span* parent) {
    if (node.kind == QueryNode::Kind::kRelation) {
      // Leaves read a refcounted fold of the relation's current generation:
      // no reference into the catalog entry survives the call, so
      // concurrent Execute / append / compaction cannot invalidate it.
      obs::Span* span =
          parent == nullptr ? nullptr
                            : parent->AddChild("relation " + node.relation_name);
      obs::SpanTimer timer(span);
      Operand leaf;
      leaf.leaf = leaves_[next_leaf_++]->FoldedView();
      timer.Stop();
      if (span != nullptr) {
        span->SetAttr("kind", "relation");
        span->SetAttr("tuples", leaf.leaf->size());
      }
      return leaf;
    }
    // The operator's span holds both its input subtrees and (from Apply)
    // its phase children; its own wall covers only the compute.
    obs::Span* span =
        parent == nullptr ? nullptr : parent->AddChild(SetOpName(node.op));
    if (span != nullptr) span->SetAttr("kind", "setop");
    Operand left = Eval(*node.left, span);
    Operand right = Eval(*node.right, span);
    const std::size_t ticket = next_ticket_++;  // post-order: children first
    Operand result;
    if (concurrent_) {
      result.pending =
          std::async(std::launch::async,
                     [this, op = node.op, left = std::move(left),
                      right = std::move(right), ticket, span]() mutable {
                       return Apply(op, std::move(left), std::move(right),
                                    ticket, span);
                     })
              .share();
    } else {
      result.out = Apply(node.op, std::move(left), std::move(right), ticket,
                         span);
    }
    return result;
  }

  // One operator. Takes its operands by value so each input is released as
  // soon as its consumer has computed.
  std::shared_ptr<TpRelation> Apply(SetOpKind op, Operand left, Operand right,
                                    std::size_t ticket, obs::Span* span) {
    // The guard keeps the ticket sequence alive on every exit, including an
    // operand task's exception rethrown by Get() — an unreleased ticket
    // would hang all later turns.
    TurnGuard turn(&sequencer_, ticket);
    const TpRelation& l = left.Get();
    const TpRelation& r = right.Get();
    if (span != nullptr) span->SetAttr("bound", WindowBound(l, r));
    if (parallel_ != nullptr) {
      turn.Disarm();  // ComputeSequenced owns the ticket
      return std::make_shared<TpRelation>(parallel_->ComputeSequenced(
          op, l, r, &sequencer_, ticket, /*stats=*/nullptr, span));
    }
    turn.Wait();
    obs::SpanTimer timer(span);
    auto out = std::make_shared<TpRelation>(algorithm_.Compute(op, l, r));
    timer.Stop();
    if (span != nullptr) span->SetAttr("out", out->size());
    return out;
  }

  const SetOpAlgorithm& algorithm_;
  const ParallelSetOpAlgorithm* parallel_;
  const bool concurrent_;
  const std::vector<const StoredRelation*> leaves_;
  std::size_t next_leaf_ = 0;
  std::size_t next_ticket_ = 0;
  ApplySequencer sequencer_;
};

}  // namespace

Result<TpRelation> QueryExecutor::Execute(const QueryNode& query,
                                          const ExecOptions& options,
                                          const SetOpAlgorithm* algorithm) const {
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span* root =
      options.profile == nullptr ? nullptr : &options.profile->root();
  obs::SpanTimer timer(root);
  if (algorithm == nullptr) algorithm = FindAlgorithm("LAWA");
  // Plain LAWA runs as the executor's partitioned algorithm — at
  // num_threads <= 1 its degenerate instance *is* sequential LawaSetOp — so
  // every mode records the same phase spans and defers arena writes to the
  // operator's turn. An explicit ParallelSetOpAlgorithm keeps its own
  // configuration; any other algorithm is serialized per operator.
  const auto* parallel = dynamic_cast<const ParallelSetOpAlgorithm*>(algorithm);
  if (parallel == nullptr && algorithm->name() == "LAWA") {
    parallel = ParallelAlgoFor(options);
    algorithm = parallel;
  }
  std::vector<const StoredRelation*> leaves;
  const Status analyzed = [&]() {
    obs::SpanTimer analyze(root == nullptr ? nullptr
                                           : root->AddChild("analyze"));
    TPSET_RETURN_NOT_OK(CheckSupported(query, *algorithm));
    return ResolveLeaves(*this, query, &leaves);
  }();
  Result<TpRelation> out =
      analyzed.ok()
          ? Result<TpRelation>(Evaluation(*algorithm, parallel,
                                          options.num_threads > 1,
                                          std::move(leaves))
                                   .Run(query, root))
          : Result<TpRelation>(analyzed);
  if (root != nullptr && out.ok()) root->SetAttr("out", out->size());
  if (analyzed.ok() && query.kind != QueryNode::Kind::kRelation) {
    PublishLineage(ctx_->lineage());
  }
  timer.Stop();
  RecordQuery(t0, query, options.profile);
  return out;
}

}  // namespace tpset
