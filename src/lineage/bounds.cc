#include "lineage/bounds.h"

#include <cassert>
#include <unordered_map>

namespace tpset {

namespace {

using RestrictCache = std::unordered_map<LineageId, LineageId>;

// Same restriction as in eval.cc, local to keep the two files independent.
LineageId Restrict(LineageManager& mgr, LineageId id, VarId v, bool value,
                   RestrictCache* cache) {
  const LineageNode n = mgr.node(id);  // copy: arena may grow below
  switch (n.kind) {
    case LineageKind::kFalse:
    case LineageKind::kTrue:
      return id;
    case LineageKind::kVar:
      if (n.var == v) return value ? mgr.True() : mgr.False();
      return id;
    default:
      break;
  }
  auto it = cache->find(id);
  if (it != cache->end()) return it->second;
  LineageId result = id;
  switch (n.kind) {
    case LineageKind::kNot:
      result = mgr.MakeNot(Restrict(mgr, n.left, v, value, cache));
      break;
    case LineageKind::kAnd:
      result = mgr.MakeAnd(Restrict(mgr, n.left, v, value, cache),
                           Restrict(mgr, n.right, v, value, cache));
      break;
    case LineageKind::kOr:
      result = mgr.MakeOr(Restrict(mgr, n.left, v, value, cache),
                          Restrict(mgr, n.right, v, value, cache));
      break;
    case LineageKind::kAndNot:
      result = mgr.MakeAndNot(Restrict(mgr, n.left, v, value, cache),
                              Restrict(mgr, n.right, v, value, cache));
      break;
    default:
      break;
  }
  cache->emplace(id, result);
  return result;
}

VarId SmallestVar(const LineageManager& mgr, LineageId id) {
  const LineageNode& n = mgr.node(id);
  switch (n.kind) {
    case LineageKind::kFalse:
    case LineageKind::kTrue:
      return kInvalidVar;
    case LineageKind::kVar:
      return n.var;
    case LineageKind::kNot:
      return SmallestVar(mgr, n.left);
    case LineageKind::kAnd:
    case LineageKind::kOr:
    case LineageKind::kAndNot: {
      VarId a = SmallestVar(mgr, n.left);
      VarId b = SmallestVar(mgr, n.right);
      return a < b ? a : b;
    }
  }
  return kInvalidVar;
}

ProbabilityInterval Go(LineageManager& mgr, LineageId id, const VarTable& vars,
                       std::size_t* budget) {
  const LineageNode& n = mgr.node(id);
  if (n.kind == LineageKind::kFalse) return {0.0, 0.0};
  if (n.kind == LineageKind::kTrue) return {1.0, 1.0};
  if (n.kind == LineageKind::kVar) {
    double p = vars.probability(n.var);
    return {p, p};
  }
  if (*budget == 0) return {0.0, 1.0};
  --*budget;
  VarId v = SmallestVar(mgr, id);
  assert(v != kInvalidVar);
  RestrictCache hi_cache, lo_cache;
  LineageId hi = Restrict(mgr, id, v, true, &hi_cache);
  LineageId lo = Restrict(mgr, id, v, false, &lo_cache);
  double pv = vars.probability(v);
  ProbabilityInterval hi_iv = Go(mgr, hi, vars, budget);
  ProbabilityInterval lo_iv = Go(mgr, lo, vars, budget);
  return {pv * hi_iv.lower + (1.0 - pv) * lo_iv.lower,
          pv * hi_iv.upper + (1.0 - pv) * lo_iv.upper};
}

}  // namespace

ProbabilityInterval ProbabilityAnytime(LineageManager& mgr, LineageId id,
                                       const VarTable& vars,
                                       std::size_t max_expansions) {
  assert(id != kNullLineage);
  assert(mgr.hash_consing());
  std::size_t budget = max_expansions;
  return Go(mgr, id, vars, &budget);
}

}  // namespace tpset
