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
// Table I's andNot(λ1, λ2) = λ1 ∧ ¬λ2 is one node, kAndNot, rather than an
// ∧ over a ¬ — the way BDD packages keep negation out of the node table
// with complement edges (Brace, Rudell and Bryant, DAC 1990). The
// constructors keep one form per formula: an ∧ whose right side is a ¬ is
// built as the kAndNot, so no kAnd node has a kNot right child, and a
// formula gets one id whichever path builds it. Every reader treats a
// kAndNot as the ∧ over a ¬ it stands for.
//
// kNullLineage represents the paper's "λ = null" (no tuple with the fact is
// valid at the time point). It is distinct from the Boolean constant False:
// the Table I concatenation functions are defined over null, not False.
#ifndef TPSET_LINEAGE_LINEAGE_H_
#define TPSET_LINEAGE_LINEAGE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/setop.h"
#include "common/status.h"
#include "common/types.h"
#include "lineage/cons_index.h"
#include "lineage/node_arena.h"

namespace tpset {

class ThreadPool;

/// One window's input lineages for a Table I concatenation: λr from the
/// left input, λs from the right; either may be kNullLineage where the
/// operation allows it.
struct LineagePair {
  LineageId lr;
  LineageId ls;
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
/// enabled, construction deduplicates nodes, so equal formulas share one id.
/// A ∧/∨/¬/andNot node costs one hash and a short linear probe of 8-byte
/// slots in a sharded open-addressed index (lineage/cons_index.h); a
/// variable leaf costs one read of a dense table indexed by VarId. Every
/// constructor interns at most one node. Two kinds of node never enter the
/// index: variable leaves, and every node of a manager without
/// hash-consing. Disable it only where lineages are never compared
/// (the paper-figure benches do): every construction then appends without
/// a lookup, at the price of duplicate nodes and of the id-equality check.
///
/// Nodes live in a NodeArena (lineage/node_arena.h), an address range that
/// never moves: a reference returned by node(id) stays valid for the
/// manager's lifetime, however many nodes are added after it.
class LineageManager {
 public:
  /// Ids of the Boolean constants; reserved by the constructor, stable for
  /// the lifetime of every arena (ConsIndex and the leaf table use id 0 as
  /// their empty mark).
  static constexpr LineageId kFalseId = 0;
  static constexpr LineageId kTrueId = 1;

  /// Windows per task below which ConcatBlock uses fewer tasks than
  /// workers: a phase barrier costs about as much as interning a few
  /// hundred windows. A block that gets one task runs the plain loop.
  static constexpr std::size_t kMinWindowsPerTask = 512;

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

  /// a ∧ b. Neither side may be kNullLineage. When b, after the constant
  /// folds, is a ¬x node, this is MakeAndNot(a, x).
  LineageId MakeAnd(LineageId a, LineageId b);

  /// a ∧ ¬b as one kAndNot node, with the folds of MakeAnd(a, MakeNot(b))
  /// in this order: b = False gives a; b = True or a = False gives False;
  /// b = ¬x gives MakeAnd(a, x); a = True gives MakeNot(b); a = ¬b gives
  /// a. Neither side may be kNullLineage.
  LineageId MakeAndNot(LineageId a, LineageId b);

  /// a ∨ b. Neither side may be kNullLineage.
  LineageId MakeOr(LineageId a, LineageId b);

  // ---- Table I lineage-concatenation functions (null-aware) ----

  /// and(λ1, λ2) = (λ1) ∧ (λ2). Both inputs must be non-null (the ∩Tp filter
  /// guarantees this).
  LineageId ConcatAnd(LineageId l1, LineageId l2) { return MakeAnd(l1, l2); }

  /// andNot(λ1, λ2) = λ1 if λ2 = null, else (λ1) ∧ ¬(λ2) — one
  /// MakeAndNot, so at most one new node. λ1 must be non-null (the −Tp
  /// filter guarantees this).
  LineageId ConcatAndNot(LineageId l1, LineageId l2);

  /// or(λ1, λ2) = the non-null side if one is null, else (λ1) ∨ (λ2).
  /// At least one input must be non-null (the ∪Tp filter guarantees this).
  LineageId ConcatOr(LineageId l1, LineageId l2);

  /// The Table I concatenation `op` over a block of windows, on `pool`:
  /// out[i] is the id ConcatLineage(op, *this, block[i].lr, block[i].ls)
  /// would return if called for i = 0, 1, ... in order, and the node array,
  /// the consing index's contents, index_bytes(), node_bytes() and the
  /// intern counts end exactly as that loop leaves them. Every input id
  /// must already be in the arena. Each window makes at most one
  /// construction, so a new node's id is size() at the call plus the
  /// number of first occurrences at earlier windows, which is the order the
  /// loop appends in. The work runs as phases over up to pool->size()
  /// tasks, one per kMinWindowsPerTask windows (the calling thread runs
  /// one; it must not be a pool task), the index's shards each owned by
  /// one task. A block that gets one task — a null or one-worker `pool`,
  /// or under 2 * kMinWindowsPerTask windows — runs that loop itself on
  /// the calling thread. The caller holds
  /// exclusive access to this manager, as for any construction; only the
  /// calling thread writes the intern counts. `out` has block.size() slots.
  /// Defined in concat_block.cc.
  void ConcatBlock(SetOpKind op, std::span<const LineagePair> block,
                   ThreadPool* pool, std::span<LineageId> out);

  /// The node behind `id`. Nodes never move, so the reference stays valid
  /// for the manager's lifetime.
  const LineageNode& node(LineageId id) const { return nodes_[id]; }
  LineageKind kind(LineageId id) const { return nodes_[id].kind; }

  /// Number of nodes in the arena (including the two constants).
  std::size_t size() const { return nodes_.size(); }

  bool hash_consing() const { return hash_consing_; }

  /// Bytes spent on dedup: the consing index's slot table plus the leaf
  /// table.
  std::size_t index_bytes() const {
    return index_.bytes() + leaves_.capacity() * sizeof(LineageId);
  }

  /// Bytes of the node array committed so far (its reserved addresses
  /// cost no memory).
  std::size_t node_bytes() const { return nodes_.committed_bytes(); }

  /// Intern-path counts (hash-consing only): a lookup is one MakeVar (a
  /// leaf-table read) or one ∧/∨/¬/andNot construction that probes the
  /// consing index; a hit finds an existing node. Plain single-writer
  /// fields — the intern path carries no atomic — so only the arena's
  /// writer may read them.
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
  /// from `vars`. A kAndNot prints as λ1∧¬λ2, the way its ∧ over a ¬
  /// would.
  std::string ToString(LineageId id, const VarTable& vars,
                       bool ascii = false) const;

  /// Order-insensitive canonical key: operands of ∧/∨ chains are flattened
  /// and sorted, so formulas equal up to commutativity/associativity map to
  /// the same key; a kAndNot joins its ∧-chain as λ1's operands and a
  /// "!(λ2)" one. Used by tests to compare outputs of different algorithms.
  std::string CanonicalKey(LineageId id) const;

 private:
  /// A leaf-table entry for a variable with no leaf yet. Id 0 is the
  /// constant False, which is never a leaf.
  static constexpr LineageId kNoLeaf = kFalseId;

  friend class BlockIntern;  // ConcatBlock's phases (concat_block.cc)

  /// The one node a construction interns once its folds are applied.
  struct Key {
    LineageKind kind;
    LineageId left;
    LineageId right;
  };

  LineageId Intern(const Key& key);

  // The folds of MakeAnd / MakeAndNot / MakeOr / MakeNot, shared with
  // ConcatBlock: true, with *out set, when the construction needs no node.
  // FoldAnd and FoldAndNot otherwise set *key, which may be of the other
  // kind: an ∧ over ¬x is the andNot of x, and an andNot of ¬x the ∧ of x.
  bool FoldAnd(LineageId a, LineageId b, LineageId* out, Key* key) const;
  bool FoldAndNot(LineageId a, LineageId b, LineageId* out, Key* key) const;
  static bool FoldOr(LineageId a, LineageId b, LineageId* out) {
    if (a == kTrueId || b == kTrueId) {
      *out = kTrueId;
    } else if (a == kFalseId || a == b) {
      *out = b;
    } else if (b == kFalseId) {
      *out = a;
    } else {
      return false;
    }
    return true;
  }
  /// ¬False = True, ¬True = False, ¬¬x = x (keeps restriction results
  /// small).
  bool FoldNot(LineageId a, LineageId* out) const {
    if (a == kFalseId) {
      *out = kTrueId;
    } else if (a == kTrueId) {
      *out = kFalseId;
    } else if (nodes_[a].kind == LineageKind::kNot) {
      *out = nodes_[a].left;
    } else {
      return false;
    }
    return true;
  }

  void AppendString(LineageId id, const VarTable& vars, bool ascii, int parent_prec,
                    std::string* out) const;
  void FlattenCanonical(LineageId id, LineageKind op,
                        std::vector<std::string>* parts) const;

  bool hash_consing_;
  NodeArena nodes_;
  /// Hash-consing only: leaves_[v] is the id of variable v's leaf, or
  /// kNoLeaf. VarIds are dense (one per base tuple), so the table needs no
  /// hash and costs 4 bytes per variable.
  std::vector<LineageId> leaves_;
  /// Hash-consing only: the ∧/∨/¬/andNot nodes.
  ConsIndex index_;
  InternCounts counts_;
};

inline bool LineageManager::FoldAnd(LineageId a, LineageId b,
                                    LineageId* out, Key* key) const {
  if (a == kFalseId || b == kFalseId) {
    *out = kFalseId;
  } else if (a == kTrueId || a == b) {
    *out = b;
  } else if (b == kTrueId) {
    *out = a;
  } else if (nodes_[b].kind == LineageKind::kNot) {
    return FoldAndNot(a, nodes_[b].left, out, key);
  } else {
    *key = {LineageKind::kAnd, a, b};
    return false;
  }
  return true;
}

inline bool LineageManager::FoldAndNot(LineageId a, LineageId b,
                                       LineageId* out, Key* key) const {
  if (b == kFalseId) {
    *out = a;
  } else if (b == kTrueId || a == kFalseId) {
    *out = kFalseId;
  } else if (nodes_[b].kind == LineageKind::kNot) {
    return FoldAnd(a, nodes_[b].left, out, key);
  } else if (a == kTrueId) {
    *key = {LineageKind::kNot, b, kNullLineage};
    return false;
  } else if (nodes_[a].kind == LineageKind::kNot && nodes_[a].left == b) {
    // ¬b ∧ ¬b: without this fold, read-once valuation would square 1 − p.
    *out = a;
  } else {
    *key = {LineageKind::kAndNot, a, b};
    return false;
  }
  return true;
}

}  // namespace tpset

#endif  // TPSET_LINEAGE_LINEAGE_H_
