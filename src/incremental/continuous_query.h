// A continuously-maintained TP set query: a DAG of incremental operators.
//
// RegisterContinuous compiles a query tree into a plan whose leaves are
// registered catalog relations and whose interior nodes are IncrementalSetOp
// states. Common subtrees are deduplicated (two occurrences of `a | b`
// share one node), so the plan is a DAG and a delta is applied once per
// distinct operator. When an epoch appends to a relation, the leaf delta
// propagates bottom-up: each operator turns its input deltas into an output
// delta (per-fact resume or resweep, see incremental_set_op.h), interior
// nodes consume their children's deltas — including retractions — and the
// root's delta is delivered to every Subscription as an EpochDelta.
//
// The accumulated result (Current(), or a subscriber folding the delta
// stream) always equals a from-scratch Execute of the same query over the
// appended-to relations — tuples, intervals, and probability-equal lineage.
#ifndef TPSET_INCREMENTAL_CONTINUOUS_QUERY_H_
#define TPSET_INCREMENTAL_CONTINUOUS_QUERY_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "incremental/delta.h"
#include "incremental/incremental_set_op.h"
#include "obs/profile.h"
#include "parallel/thread_pool.h"
#include "query/ast.h"
#include "relation/relation.h"
#include "storage/stored_relation.h"

namespace tpset {

/// Execution knobs of one continuous query.
struct ContinuousOptions {
  /// 1 applies deltas sequentially. Above 1, each operator partitions the
  /// facts touched by a delta batch into fact ranges, applies them on a
  /// shared pool with per-range lineage staging, and splices the staged
  /// cells in fact order (deterministic; same tuples, probability-equal
  /// lineage — the staged-apply contract, see DESIGN.md).
  std::size_t num_threads = 1;

  /// Fact-range oversubscription per thread, so straggler facts even out.
  std::size_t partitions_per_thread = 2;
};

/// A registered continuous query. Created by QueryExecutor::RegisterContinuous;
/// epochs are driven by QueryExecutor::Append. Not thread-safe (single-writer,
/// like all context mutation).
class ContinuousQuery {
 public:
  using Callback = std::function<void(const EpochDelta&)>;
  using SubscriptionId = std::size_t;

  /// Compiles `query` over the catalog. `resolve` maps a relation name to
  /// the executor's stored catalog entry (whose address must stay stable,
  /// which the executor's node-based map guarantees). `pool` is the shared
  /// worker pool for the parallel staged apply (required when
  /// options.num_threads > 1, must outlive the query; the executor shares
  /// one pool per thread count across its continuous queries). Runs the
  /// initial full computation — every leaf's current content, read through
  /// the run-merge iterator, applied as one insert-only delta — so the
  /// query is ready to absorb appends.
  static Result<std::unique_ptr<ContinuousQuery>> Compile(
      std::string name, const QueryNode& query,
      const std::function<Result<const StoredRelation*>(const std::string&)>&
          resolve,
      std::shared_ptr<TpContext> ctx, const ContinuousOptions& options,
      ThreadPool* pool);

  /// Registers a per-epoch delta callback; fires for every epoch that
  /// appends to a relation this query reads (even if the output delta is
  /// empty — subscribers can track epoch progression).
  SubscriptionId Subscribe(Callback cb);
  void Unsubscribe(SubscriptionId id);
  std::size_t subscriber_count() const { return subscribers_.size(); }

  /// Streaming-telemetry view of one subscription.
  struct SubscriberInfo {
    SubscriptionId id = 0;
    EpochId last_delivered = 0;  ///< last epoch whose delta reached the callback
    std::uint64_t lag = 0;       ///< log_epoch() - last_delivered
  };
  std::vector<SubscriberInfo> SubscriberInfos() const;

  /// Applies one epoch: `delta` is the leaf insert delta (the batch's
  /// tuples grouped per fact, GroupInsertsByFact) for relation
  /// `relation_name`. Called by the executor's Append for every query that
  /// reads the relation; the map is shared across queries, not copied.
  /// `fence_t0` is when the epoch entered the executor's write fence — the
  /// end-to-end latency histogram (tpset_incr_epoch_e2e_usec) measures fence
  /// to delta-delivered, so it includes storage append and queueing, not
  /// just propagation.
  void ApplyAppend(EpochId epoch, const std::string& relation_name,
                   const DeltaMap& delta,
                   std::chrono::steady_clock::time_point fence_t0 =
                       std::chrono::steady_clock::now());

  /// Records that the append log advanced to `epoch` (whether or not this
  /// query reads the appended relation) and refreshes the subscriber-lag
  /// gauge. Called by the executor for every registered query on every
  /// Append; ApplyAppend follows for readers, zeroing their lag.
  void NoteLogEpoch(EpochId epoch);

  /// Latest log epoch observed via NoteLogEpoch/ApplyAppend (0 if none).
  EpochId log_epoch() const { return log_epoch_; }

  /// Event-time low watermark of the DAG: the minimum over the leaves of
  /// the maximum interval end each leaf has stored — no future delta can
  /// carry an interval ending at or before it (appends extend fact
  /// timelines monotonically). kNoWatermark while any leaf is empty.
  TimePoint LowWatermark() const;

  /// True iff the query reads `relation_name`.
  bool Reads(const std::string& relation_name) const {
    return leaves_.count(relation_name) > 0;
  }

  /// Retention rebase: recomputes the query's *effective watermark* — the
  /// minimum of its leaves' storage watermarks (a query only forgets what
  /// every input has forgotten; a single unretained leaf pins it at
  /// "nothing") — and, when it advanced, drops every interior node's state
  /// at or below it (IncrementalSetOp::Rebase). Called by
  /// QueryExecutor::Retain after compacting a leaf's storage; no deltas are
  /// emitted (retention forgets, it does not retract). Returns the output
  /// windows retired across the DAG.
  std::size_t Rebase();

  /// The watermark the operator states were last rebased to (kNoWatermark
  /// before any retention reached this query).
  TimePoint effective_watermark() const { return rebased_watermark_; }

  const std::string& name() const { return name_; }
  std::string text() const;
  const ContinuousOptions& options() const { return options_; }
  /// Last epoch applied to this query (0 if none since registration).
  EpochId last_epoch() const { return last_epoch_; }
  /// Total ApplyAppend epochs that touched this query (epochs appending to
  /// relations it does not read advance log_epoch() but not this count).
  std::uint64_t epochs_applied() const { return epochs_applied_; }
  /// Current accumulated result size.
  std::size_t size() const;

  /// Materializes the accumulated result as a relation (named after the
  /// query text, sorted, witness armed).
  TpRelation Current() const;

  /// Indented plan description with the per-node maintenance counters
  /// (epochs_applied / facts_resumed / facts_reswept, accumulated size,
  /// cumulative advancer windows) — the continuous-plan EXPLAIN body.
  std::string Describe() const;

  /// Span tree of the most recent ApplyAppend epoch: root "epoch" (attrs
  /// epoch/relation/inserted/retracted) with one child per interior operator
  /// apply, per-epoch LawaStats deltas attached. Before the first epoch it
  /// holds only the (untimed) root.
  const obs::QueryProfile& last_profile() const { return profile_; }

 private:
  struct PlanNode {
    bool leaf = false;
    std::string relation_name;                  // leaf
    const StoredRelation* relation = nullptr;   // leaf
    SetOpKind op = SetOpKind::kUnion;           // interior
    int left = -1, right = -1;                  // interior: child plan indices
    std::unique_ptr<IncrementalSetOp> state;    // interior
  };

  ContinuousQuery() = default;

  int CompileNode(
      const QueryNode& q,
      const std::function<Result<const StoredRelation*>(const std::string&)>&
          resolve,
      std::map<std::string, int>* memo, Status* status);

  /// Propagates leaf deltas bottom-up; returns the root's output delta.
  /// When `span` is non-null, each interior apply records a child span with
  /// its per-epoch LawaStats delta attached.
  TupleDelta Propagate(const std::map<std::string, const DeltaMap*>& leaf_deltas,
                       obs::Span* span = nullptr);

  void DescribeNode(int index, int depth, std::set<int>* visited,
                    std::string* out) const;

  struct Subscriber {
    SubscriptionId id = 0;
    Callback cb;
    EpochId last_delivered = 0;
  };

  std::string name_;
  QueryPtr query_;
  std::shared_ptr<TpContext> ctx_;
  ContinuousOptions options_;
  std::vector<PlanNode> nodes_;  // post-order; root last
  std::set<std::string> leaves_;
  Schema schema_;
  EpochId last_epoch_ = 0;
  EpochId log_epoch_ = 0;
  std::uint64_t epochs_applied_ = 0;
  TimePoint rebased_watermark_ = kNoWatermark;
  std::vector<Subscriber> subscribers_;
  SubscriptionId next_subscription_ = 1;
  ThreadPool* pool_ = nullptr;  // shared, executor-owned; null = sequential
  obs::QueryProfile profile_{"epoch"};  // last-epoch span tree (reused)
};

}  // namespace tpset

#endif  // TPSET_INCREMENTAL_CONTINUOUS_QUERY_H_
