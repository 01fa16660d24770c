#include "lineage/simplify.h"

#include <cassert>
#include <unordered_map>

namespace tpset {

namespace {

// ¬a as a syntactic query: the id of Not(a) if it would fold, else match.
bool AreComplements(const LineageManager& mgr, LineageId a, LineageId b) {
  const LineageNode& na = mgr.node(a);
  const LineageNode& nb = mgr.node(b);
  return (na.kind == LineageKind::kNot && na.left == b) ||
         (nb.kind == LineageKind::kNot && nb.left == a);
}

// Whether a node of kind `kind` continues an `op`-chain: an andNot is an ∧
// whose right operand is a ¬.
bool InChain(LineageKind kind, LineageKind op) {
  return kind == op || (op == LineageKind::kAnd && kind == LineageKind::kAndNot);
}

// Whether `part` occurs as a direct operand of the (flattened) `op`-chain
// rooted at `id`.
bool ChainContains(const LineageManager& mgr, LineageId id, LineageKind op,
                   LineageId part) {
  if (id == part) return true;
  const LineageNode& n = mgr.node(id);
  if (!InChain(n.kind, op)) return false;
  if (n.kind == LineageKind::kAndNot) {
    const LineageNode& p = mgr.node(part);
    return (p.kind == LineageKind::kNot && p.left == n.right) ||
           ChainContains(mgr, n.left, op, part);
  }
  return ChainContains(mgr, n.left, op, part) ||
         ChainContains(mgr, n.right, op, part);
}

LineageId Go(LineageManager& mgr, LineageId id,
             std::unordered_map<LineageId, LineageId>* memo) {
  const LineageNode n = mgr.node(id);  // copy: arena may grow below
  switch (n.kind) {
    case LineageKind::kFalse:
    case LineageKind::kTrue:
    case LineageKind::kVar:
      return id;
    default:
      break;
  }
  auto it = memo->find(id);
  if (it != memo->end()) return it->second;

  LineageId result;
  if (n.kind == LineageKind::kNot) {
    result = mgr.MakeNot(Go(mgr, n.left, memo));
  } else {
    // An andNot is the ∧ over the ¬ of its simplified right operand.
    LineageId a = Go(mgr, n.left, memo);
    LineageId b = Go(mgr, n.right, memo);
    if (n.kind == LineageKind::kAndNot) b = mgr.MakeNot(b);
    const bool is_and = n.kind != LineageKind::kOr;
    const LineageKind op = is_and ? LineageKind::kAnd : LineageKind::kOr;
    const LineageKind dual = is_and ? LineageKind::kOr : LineageKind::kAnd;
    if (AreComplements(mgr, a, b)) {
      // x ∧ ¬x → ⊥;  x ∨ ¬x → ⊤.
      result = is_and ? mgr.False() : mgr.True();
    } else if (InChain(mgr.kind(b), dual) && ChainContains(mgr, b, dual, a)) {
      // x ∧ (… x …∨) → x;  x ∨ (… x …∧) → x.
      result = a;
    } else if (InChain(mgr.kind(a), dual) && ChainContains(mgr, a, dual, b)) {
      result = b;
    } else if (InChain(mgr.kind(b), op) && ChainContains(mgr, b, op, a)) {
      // x ∧ (x ∧ y) → x ∧ y (chain dedup), dito for ∨.
      result = b;
    } else if (InChain(mgr.kind(a), op) && ChainContains(mgr, a, op, b)) {
      result = a;
    } else {
      result = is_and ? mgr.MakeAnd(a, b) : mgr.MakeOr(a, b);
    }
  }
  memo->emplace(id, result);
  return result;
}

}  // namespace

LineageId Simplify(LineageManager& mgr, LineageId id) {
  if (id == kNullLineage) return id;
  assert(mgr.hash_consing() && "simplification requires hash-consing");
  std::unordered_map<LineageId, LineageId> memo;
  return Go(mgr, id, &memo);
}

}  // namespace tpset
