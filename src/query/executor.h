// Execution of TP set queries over a named catalog of relations.
#ifndef TPSET_QUERY_EXECUTOR_H_
#define TPSET_QUERY_EXECUTOR_H_

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "baselines/algorithm.h"
#include "common/status.h"
#include "incremental/append_log.h"
#include "incremental/continuous_query.h"
#include "obs/profile.h"
#include "parallel/parallel_set_op.h"
#include "query/ast.h"
#include "relation/relation.h"
#include "storage/stored_relation.h"

namespace tpset {

/// Execution knobs for one query.
struct ExecOptions {
  /// 1 evaluates sequentially (the seed behavior). Above 1, leaf set
  /// operations run the partitioned parallel algorithm on this many pool
  /// threads — sweeps and lineage interning alike — AND independent query
  /// subtrees are evaluated concurrently. Results (tuples and lineage ids)
  /// are bit-identical to sequential execution either way (see DESIGN.md,
  /// "Partitioned parallel execution" and "Determinism").
  ///
  /// Applies when the algorithm is defaulted or is plain "LAWA". An
  /// explicitly passed ParallelSetOpAlgorithm keeps its own thread count
  /// (the instance was configured deliberately); any other explicit
  /// algorithm gets subtree concurrency only, serialized per node.
  std::size_t num_threads = 1;

  /// When non-null, the execution records its span tree here: root (whole
  /// query; admission timestamp on start_unix_us) → "parse"/"analyze" →
  /// one span per plan node ("relation <name>" leaves, operator nodes with
  /// sort/split/advance/apply phase children and LawaStats attached; plan
  /// nodes carry the kind/tuples/out/bound attrs EXPLAIN renders).
  /// Results are unaffected; the caller owns the profile and must keep it
  /// alive for the call. Not part of the algorithm cache key.
  obs::QueryProfile* profile = nullptr;
};

/// Point-in-time description of one stored relation, for introspection
/// surfaces (the HTTP /queries and /statusz endpoints, obs/http_endpoints).
/// Plain values copied under the write fence — safe to format after the
/// fence is released, while appends continue.
struct RelationIntrospection {
  std::string name;
  std::size_t tuples = 0;      ///< resident stored tuples across all runs
  std::size_t runs = 0;        ///< physical runs (base + pending appends)
  bool has_watermark = false;
  TimePoint watermark = 0;     ///< meaningful when has_watermark
  std::uint64_t generation = 0;      ///< published generation id (monotone)
  std::size_t compaction_debt = 0;   ///< pending background compaction work
};

/// Point-in-time description of one continuous query (same contract).
struct ContinuousIntrospection {
  std::string name;
  std::string text;            ///< query text as registered
  EpochId last_epoch = 0;      ///< last epoch folded into the result
  EpochId log_epoch = 0;       ///< last epoch observed in the append log
  std::uint64_t epochs_applied = 0;  ///< ApplyAppend calls that touched it
  std::size_t result_tuples = 0;
  bool has_low_watermark = false;
  TimePoint low_watermark = 0;
  bool has_effective_watermark = false;
  TimePoint effective_watermark = 0;
  std::vector<ContinuousQuery::SubscriberInfo> subscribers;  ///< per-sub lag
};

/// Evaluates TP set queries bottom-up with a pluggable set-operation
/// algorithm (LAWA by default; any Table II approach that supports every
/// operator in the query can be chosen for comparison).
class QueryExecutor {
 public:
  /// All registered relations must share this context.
  explicit QueryExecutor(std::shared_ptr<TpContext> ctx) : ctx_(std::move(ctx)) {}

  /// Registers a relation under `rel.name()` (must be non-empty, unique,
  /// same context, duplicate-free).
  Status Register(const TpRelation& rel);

  /// Parses and executes a textual query ("c - (a | b)").
  Result<TpRelation> Execute(const std::string& query,
                             const SetOpAlgorithm* algorithm = nullptr) const;

  /// Executes a query tree.
  Result<TpRelation> Execute(const QueryNode& query,
                             const SetOpAlgorithm* algorithm = nullptr) const;

  /// Parses and executes with explicit execution options.
  Result<TpRelation> Execute(const std::string& query, const ExecOptions& options,
                             const SetOpAlgorithm* algorithm = nullptr) const;

  /// Executes a query tree with explicit execution options — the one
  /// evaluator behind every Execute overload and EXPLAIN. Its analyze step
  /// checks every operator against `algorithm` and resolves every leaf
  /// before any work, so a query that cannot run fails without touching
  /// the lineage arena. With options.num_threads > 1, sibling subtrees are
  /// evaluated concurrently and leaf set operations are partition-parallel;
  /// the shared lineage arena is mutated in post-order turns, so the result
  /// (tuples and lineage ids) equals sequential execution exactly. Leaves
  /// are read in place; a bare-relation query returns a copy. Every call
  /// that gets past parsing counts once into tpset_exec_queries_total,
  /// failed ones included; a call that ran a set operation also publishes
  /// the lineage-arena metrics (tpset_lineage_*).
  Result<TpRelation> Execute(const QueryNode& query, const ExecOptions& options,
                             const SetOpAlgorithm* algorithm = nullptr) const;

  /// Looks up a registered relation as its one logical sorted view
  /// (StoredRelation::FoldedView — pending append runs are folded off-lock
  /// and published as a new generation, so the returned relation is
  /// (fact, start)-sorted and witness-armed regardless of the physical run
  /// count). Safe from any thread; the relation is refcounted, so it stays
  /// valid and unchanged for as long as the caller holds it, whatever
  /// appends, folds or compactions publish meanwhile.
  Result<std::shared_ptr<const TpRelation>> Find(const std::string& name) const;

  /// O(1) epoch-pinned read view of a registered relation: the generation
  /// current at the call, refcounted. Safe from any thread, at any time —
  /// appends and compactions publish successors without disturbing it.
  Result<StorageSnapshot> SnapshotRelation(const std::string& name) const;

  /// Looks up a relation's storage engine (run counts, watermark, storage
  /// stats) without folding anything. Safe from any thread, at any time,
  /// Register included; the pointer stays valid for the executor's life.
  Result<const StoredRelation*> FindStored(const std::string& name) const;

  // ---- Incremental continuous queries (src/incremental/, src/storage/) --

  /// Appends a validated delta batch to a registered relation: one epoch,
  /// O(batch) amortized into the relation's run index (no O(n) merge — the
  /// one logical sorted view is re-folded lazily by the next Find). The
  /// delta propagates through every registered continuous query that reads
  /// the relation, delivering an EpochDelta to its subscribers. Returns the
  /// assigned monotone epoch id, after publishing the lineage-arena
  /// metrics (tpset_lineage_*). Thread-safe: concurrent Append calls
  /// serialize on the epoch fence (distinct gapless epochs, propagation in
  /// epoch order); appends still must not race with Execute. Subscriber
  /// callbacks fire inside the fence — they must not call back into
  /// Append/Retain/Compact on this executor.
  Result<EpochId> Append(const std::string& relation, const DeltaBatch& batch);

  /// Retention: advances the relation's watermark (monotone), compacts its
  /// storage — retiring every tuple whose interval ends at or below the
  /// watermark — and rebases the state of every continuous query that reads
  /// the relation (IncrementalSetOp::Rebase; a query forgets only below the
  /// minimum watermark across all its leaves). Subscribers receive no
  /// deltas: retention forgets, it does not retract — above the watermark
  /// the accumulated state still folds to a from-scratch Execute (the
  /// clip-equivalence pinned by tests/retention_test.cc). Returns the
  /// number of stored tuples retired by the compaction.
  Result<std::size_t> Retain(const std::string& relation, TimePoint watermark);

  /// Explicitly compacts a relation's storage: folds all pending append
  /// runs into the base level, applying the current watermark (if any).
  Status Compact(const std::string& relation);

  /// Compiles `query` into a DAG of incremental operators over the catalog,
  /// runs the initial full computation, and registers it under `name`
  /// (unique among continuous queries). Subsequent Append calls maintain it
  /// incrementally; subscribe on the returned query to receive per-epoch
  /// (inserted, retracted) deltas.
  Result<ContinuousQuery*> RegisterContinuous(
      const std::string& name, const std::string& query,
      const ContinuousOptions& options = {});
  Result<ContinuousQuery*> RegisterContinuous(
      const std::string& name, const QueryNode& query,
      const ContinuousOptions& options = {});

  /// Looks up a registered continuous query. Safe beside
  /// RegisterContinuous; the pointer stays valid for the executor's life.
  Result<ContinuousQuery*> FindContinuous(const std::string& name) const;

  /// All registered continuous queries, by name.
  const std::map<std::string, std::unique_ptr<ContinuousQuery>>& continuous()
      const {
    return continuous_;
  }

  /// The most recently assigned append epoch (0 before any append).
  EpochId last_epoch() const { return append_log_.last_epoch(); }

  // ---- Introspection (obs/http_endpoints.cc, REPL \status) --------------

  /// Copies a point-in-time description of every stored relation /
  /// continuous query out from under the write fence. Safe to call from any
  /// thread concurrently with Append/Retain/Compact — the copy serializes
  /// with writers on the fence, then formatting happens outside it. Must
  /// NOT be called from a continuous-query subscriber callback (those fire
  /// inside the fence; re-entering would deadlock).
  std::vector<RelationIntrospection> IntrospectRelations() const;
  std::vector<ContinuousIntrospection> IntrospectContinuous() const;

  const std::shared_ptr<TpContext>& context() const { return ctx_; }

 private:
  /// The executor-owned parallel algorithm for a thread count: lazily
  /// built, cached for the executor's lifetime (a handful of distinct
  /// counts in practice; each retains its pool threads once first used, so
  /// repeated queries pay no thread startup).
  const ParallelSetOpAlgorithm* ParallelAlgoFor(const ExecOptions& options) const;

  /// The widest idle continuous-query pool for parallel compaction (null
  /// when no parallel continuous query ever registered — compact
  /// sequentially then).
  ThreadPool* CompactionPool() const;

  /// Queues one budgeted background compaction step for `stored` when its
  /// debt crossed kCompactDebtThreshold (deduplicated per relation; the step
  /// reschedules itself while debt remains). Called by Append after the
  /// epoch lands, so appends never pay the merge themselves.
  void ScheduleCompaction(StoredRelation& stored);

  /// Budget: tail runs one background compaction step may claim.
  static constexpr std::size_t kCompactBudgetRuns = 8;
  /// Debt at or above which Append schedules a background step.
  static constexpr std::size_t kCompactDebtThreshold = 4;

  std::shared_ptr<TpContext> ctx_;
  // Guards the two maps below against lookups racing an insert. Lookups
  // (Find, FindStored, SnapshotRelation, FindContinuous) take it shared;
  // Register and RegisterContinuous insert under it exclusively, inside the
  // write fence (lock order: fence, then this). Fence holders read the maps
  // without it, since every insert holds the fence too. Entries are never
  // erased, so a pointer a lookup returns stays valid after the lock drops.
  mutable std::shared_mutex catalog_mu_;
  // Node-based map: StoredRelation addresses stay stable across Register
  // and Append, which is what lets continuous-query leaves hold plain
  // pointers.
  std::map<std::string, StoredRelation> catalog_;
  AppendLog append_log_;
  // Serializes Append/Retain/Compact (and, cold-path, Register /
  // RegisterContinuous / the Introspect* readers): epoch assignment,
  // storage mutation and continuous-query propagation happen atomically per
  // epoch, so concurrent writers observe a total epoch order end to end.
  // Mutable so const introspection can take the fence.
  mutable std::mutex write_fence_;
  std::map<std::string, std::unique_ptr<ContinuousQuery>> continuous_;
  // Continuous queries with the same thread count share one worker pool
  // (Append applies them one at a time, so at most one pool is ever busy).
  std::map<std::size_t, std::unique_ptr<ThreadPool>> continuous_pools_;
  mutable std::mutex parallel_mu_;
  mutable std::map<std::size_t, std::unique_ptr<ParallelSetOpAlgorithm>>
      parallel_algos_;
  // Background compaction: a lazily created single worker draining budgeted
  // CompactStep tasks; bg_scheduled_ deduplicates one in-flight step per
  // relation. Declared after catalog_ so destruction joins (and runs) any
  // pending steps while the relations they reference are still alive.
  mutable std::mutex bg_mu_;
  std::set<StoredRelation*> bg_scheduled_;
  std::unique_ptr<ThreadPool> bg_pool_;
};

}  // namespace tpset

#endif  // TPSET_QUERY_EXECUTOR_H_
