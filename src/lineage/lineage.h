// Lineage expressions: hash-consed Boolean-formula DAG over tuple variables.
//
// A lineage expression λ (paper §III) is a Boolean formula over base-tuple
// identifiers (independent Boolean random variables) built with ¬, ∧, ∨.
// We store formulas as nodes in an arena owned by LineageManager; a formula
// is referenced by a 32-bit LineageId. With hash-consing enabled (the
// default), structurally identical formulas share one id, so the *syntactic*
// lineage-equivalence check used for change preservation (paper §V,
// footnote 1) is a single integer comparison.
//
// kNullLineage represents the paper's "λ = null" (no tuple with the fact is
// valid at the time point). It is distinct from the Boolean constant False:
// the Table I concatenation functions are defined over null, not False.
#ifndef TPSET_LINEAGE_LINEAGE_H_
#define TPSET_LINEAGE_LINEAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "lineage/cons_index.h"

namespace tpset {

class StagingArena;

/// Node discriminator. kTrue/kFalse arise only from restriction (Shannon
/// cofactors); the set-operation algebra itself never creates constants.
enum class LineageKind : std::uint8_t { kFalse = 0, kTrue, kVar, kNot, kAnd, kOr };

/// One formula node. For kVar, `var` holds the variable; for kNot only
/// `left` is used; for kAnd/kOr both children are used.
struct LineageNode {
  LineageKind kind;
  VarId var;
  LineageId left;
  LineageId right;
};

/// Probabilities and (optional) names of the Boolean random variables.
///
/// Each base tuple of a TP database is one variable; variables are assumed
/// independent (paper §III). Names ("a1", "c2") are kept only when provided,
/// so bulk workloads with millions of tuples pay 8 bytes/var.
class VarTable {
 public:
  VarTable() = default;
  VarTable(const VarTable&) = delete;
  VarTable& operator=(const VarTable&) = delete;

  /// Adds an anonymous variable with marginal probability p in (0, 1].
  VarId Add(double p);

  /// Adds a named variable; the name must be unique.
  Result<VarId> AddNamed(const std::string& name, double p);

  /// Finds a named variable.
  Result<VarId> Find(const std::string& name) const;

  double probability(VarId v) const { return prob_[v]; }
  void set_probability(VarId v, double p) { prob_[v] = p; }

  /// Stored name, or a synthesized "x<id>" for anonymous variables.
  std::string name(VarId v) const;

  std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::unordered_map<VarId, std::string> names_;
  std::unordered_map<std::string, VarId> by_name_;
};

/// Arena + constructors for lineage formulas.
///
/// All constructors apply constant folding (And(True,x)=x, Not(False)=True,
/// ...) so restriction produces simplified cofactors. With hash-consing
/// enabled, construction deduplicates nodes through a flat open-addressed
/// index (lineage/cons_index.h), so equal formulas share one id; an intern
/// costs one hash and a short linear probe of 8-byte slots. Disable it only
/// where lineages are never compared (the paper-figure benches do): every
/// construction then appends without a probe, at the price of duplicate
/// nodes and of the id-equality check.
class LineageManager {
 public:
  /// Ids of the Boolean constants; reserved by the constructor, stable for
  /// the lifetime of every arena (StagingArena relies on the values).
  static constexpr LineageId kFalseId = 0;
  static constexpr LineageId kTrueId = 1;

  explicit LineageManager(bool hash_consing = true);
  LineageManager(const LineageManager&) = delete;
  LineageManager& operator=(const LineageManager&) = delete;

  /// The Boolean constants (always present).
  LineageId False() const { return kFalseId; }
  LineageId True() const { return kTrueId; }

  /// Leaf formula consisting of a single tuple variable.
  LineageId MakeVar(VarId v);

  /// ¬a. `a` must not be kNullLineage.
  LineageId MakeNot(LineageId a);

  /// a ∧ b. Neither side may be kNullLineage.
  LineageId MakeAnd(LineageId a, LineageId b);

  /// a ∨ b. Neither side may be kNullLineage.
  LineageId MakeOr(LineageId a, LineageId b);

  // ---- Table I lineage-concatenation functions (null-aware) ----

  /// and(λ1, λ2) = (λ1) ∧ (λ2). Both inputs must be non-null (the ∩Tp filter
  /// guarantees this).
  LineageId ConcatAnd(LineageId l1, LineageId l2) { return MakeAnd(l1, l2); }

  /// andNot(λ1, λ2) = λ1 if λ2 = null, else (λ1) ∧ ¬(λ2). λ1 must be
  /// non-null (the −Tp filter guarantees this).
  LineageId ConcatAndNot(LineageId l1, LineageId l2);

  /// or(λ1, λ2) = the non-null side if one is null, else (λ1) ∨ (λ2).
  /// At least one input must be non-null (the ∪Tp filter guarantees this).
  LineageId ConcatOr(LineageId l1, LineageId l2);

  const LineageNode& node(LineageId id) const { return nodes_[id]; }
  LineageKind kind(LineageId id) const { return nodes_[id].kind; }

  /// Number of nodes in the arena (including the two constants).
  std::size_t size() const { return nodes_.size(); }

  bool hash_consing() const { return hash_consing_; }

  /// Bytes held by the consing index's slot table.
  std::size_t index_bytes() const { return index_.bytes(); }

  /// Intern-path counts: lookups probe the consing index (hash-consing
  /// only), hits find an existing node. Plain single-writer fields — the
  /// intern path carries no atomic — so only the arena's writer may read
  /// them.
  struct InternCounts {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
  };

  /// The counts accumulated since the previous call; starts a new period,
  /// so each lookup is handed out once however many publishers share the
  /// arena.
  InternCounts TakeInternCounts() { return std::exchange(counts_, {}); }

  /// Appends every distinct variable of the formula to *out (deduplicated,
  /// ascending). kNullLineage yields nothing.
  void CollectVars(LineageId id, std::vector<VarId>* out) const;

  /// True iff the formula is read-once (1OF): no variable occurs more than
  /// once. Shared DAG nodes are expanded, matching the paper's syntactic
  /// notion over formulas. kNullLineage is vacuously 1OF.
  bool IsReadOnce(LineageId id) const;

  /// Total number of variable occurrences (with multiplicity).
  std::size_t CountVarOccurrences(LineageId id) const;

  /// Renders the formula in the paper's style: "c1∧¬(a1∨b1)". Unicode
  /// connectives by default; ascii=true yields "c1&!(a1|b1)". Names come
  /// from `vars`.
  std::string ToString(LineageId id, const VarTable& vars,
                       bool ascii = false) const;

  /// Order-insensitive canonical key: operands of ∧/∨ chains are flattened
  /// and sorted, so formulas equal up to commutativity/associativity map to
  /// the same key. Used by tests to compare outputs of different algorithms.
  std::string CanonicalKey(LineageId id) const;

  /// Splices the cells of a staging arena (see lineage/staging.h) into this
  /// arena: a pure remap-and-append (affine id shift, no hashing) — the
  /// whole point of staging is that the serialized merge does O(cells)
  /// memcpy-like work, not per-node intern work. On return, (*remap)[i] is
  /// the final id of staged cell `staged.frozen_size() + i`. Spliced cells
  /// are NOT entered into the hash-consing index: a cell structurally equal
  /// to an existing node becomes a duplicate arena node, which valuation
  /// and CanonicalKey see through (deduplication remains local to each
  /// staging arena). Since the index's growth never walks the arena, a
  /// spliced cell stays unindexed for good: interning its structure later
  /// appends a fresh node. The caller must hold exclusive access to this
  /// manager (the sequencer turn). Defined in staging.cc.
  void SpliceStaged(const StagingArena& staged, std::vector<LineageId>* remap);

 private:
  LineageId Intern(LineageKind kind, VarId var, LineageId left, LineageId right);

  void AppendString(LineageId id, const VarTable& vars, bool ascii, int parent_prec,
                    std::string* out) const;
  void FlattenCanonical(LineageId id, LineageKind op,
                        std::vector<std::string>* parts) const;

  bool hash_consing_;
  std::vector<LineageNode> nodes_;
  ConsIndex index_;
  InternCounts counts_;
};

}  // namespace tpset

#endif  // TPSET_LINEAGE_LINEAGE_H_
