#include "lineage/eval.h"

#include <cassert>
#include <unordered_map>

namespace tpset {

bool EvaluateAssignment(const LineageManager& mgr, LineageId id,
                        const std::vector<bool>& assignment) {
  assert(id != kNullLineage && "cannot evaluate a null lineage");
  const LineageNode& n = mgr.node(id);
  switch (n.kind) {
    case LineageKind::kFalse:
      return false;
    case LineageKind::kTrue:
      return true;
    case LineageKind::kVar:
      return n.var < assignment.size() && assignment[n.var];
    case LineageKind::kNot:
      return !EvaluateAssignment(mgr, n.left, assignment);
    case LineageKind::kAnd:
      return EvaluateAssignment(mgr, n.left, assignment) &&
             EvaluateAssignment(mgr, n.right, assignment);
    case LineageKind::kOr:
      return EvaluateAssignment(mgr, n.left, assignment) ||
             EvaluateAssignment(mgr, n.right, assignment);
    case LineageKind::kAndNot:
      return EvaluateAssignment(mgr, n.left, assignment) &&
             !EvaluateAssignment(mgr, n.right, assignment);
  }
  return false;
}

double ProbabilityReadOnce(const LineageManager& mgr, LineageId id,
                           const VarTable& vars) {
  assert(id != kNullLineage && "cannot evaluate a null lineage");
  const LineageNode& n = mgr.node(id);
  switch (n.kind) {
    case LineageKind::kFalse:
      return 0.0;
    case LineageKind::kTrue:
      return 1.0;
    case LineageKind::kVar:
      return vars.probability(n.var);
    case LineageKind::kNot:
      return 1.0 - ProbabilityReadOnce(mgr, n.left, vars);
    case LineageKind::kAnd:
      return ProbabilityReadOnce(mgr, n.left, vars) *
             ProbabilityReadOnce(mgr, n.right, vars);
    case LineageKind::kOr: {
      double pl = ProbabilityReadOnce(mgr, n.left, vars);
      double pr = ProbabilityReadOnce(mgr, n.right, vars);
      return pl + pr - pl * pr;
    }
    case LineageKind::kAndNot:
      // The ∧ over a ¬'s operations in the same order: bit-identical.
      return ProbabilityReadOnce(mgr, n.left, vars) *
             (1.0 - ProbabilityReadOnce(mgr, n.right, vars));
  }
  return 0.0;
}

namespace {

// Restriction cache for one (variable, value) pair: node id -> cofactor id.
using RestrictCache = std::unordered_map<LineageId, LineageId>;

LineageId Restrict(LineageManager& mgr, LineageId id, VarId v, bool value,
                   RestrictCache* cache) {
  const LineageNode& n = mgr.node(id);
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
  LineageId result;
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
      result = id;
      break;
  }
  cache->emplace(id, result);
  return result;
}

// Smallest variable in the formula, or kInvalidVar for constants.
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

double ShannonProb(LineageManager& mgr, LineageId id, const VarTable& vars,
                   std::unordered_map<LineageId, double>* memo) {
  const LineageNode& n = mgr.node(id);
  if (n.kind == LineageKind::kFalse) return 0.0;
  if (n.kind == LineageKind::kTrue) return 1.0;
  if (n.kind == LineageKind::kVar) return vars.probability(n.var);
  auto it = memo->find(id);
  if (it != memo->end()) return it->second;

  VarId v = SmallestVar(mgr, id);
  assert(v != kInvalidVar);
  RestrictCache hi_cache, lo_cache;
  LineageId hi = Restrict(mgr, id, v, true, &hi_cache);
  LineageId lo = Restrict(mgr, id, v, false, &lo_cache);
  double pv = vars.probability(v);
  double p = pv * ShannonProb(mgr, hi, vars, memo) +
             (1.0 - pv) * ShannonProb(mgr, lo, vars, memo);
  memo->emplace(id, p);
  return p;
}

}  // namespace

double ProbabilityExact(LineageManager& mgr, LineageId id, const VarTable& vars) {
  assert(id != kNullLineage && "cannot evaluate a null lineage");
  assert(mgr.hash_consing() &&
         "exact (Shannon) evaluation requires a hash-consing manager");
  std::unordered_map<LineageId, double> memo;
  return ShannonProb(mgr, id, vars, &memo);
}

double ProbabilityMonteCarlo(const LineageManager& mgr, LineageId id,
                             const VarTable& vars, std::size_t samples, Rng* rng) {
  assert(id != kNullLineage && "cannot evaluate a null lineage");
  assert(samples > 0);
  std::vector<VarId> formula_vars;
  mgr.CollectVars(id, &formula_vars);
  VarId max_var = 0;
  for (VarId v : formula_vars) max_var = std::max(max_var, v);
  std::vector<bool> assignment(formula_vars.empty() ? 0 : max_var + 1, false);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    for (VarId v : formula_vars) assignment[v] = rng->Bernoulli(vars.probability(v));
    if (EvaluateAssignment(mgr, id, assignment)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace tpset
