#include "lineage/lineage.h"

#include <algorithm>
#include <cassert>

namespace tpset {

VarId VarTable::Add(double p) {
  assert(p > 0.0 && p <= 1.0 && "probability must be in (0,1]");
  VarId id = static_cast<VarId>(prob_.size());
  prob_.push_back(p);
  return id;
}

Result<VarId> VarTable::AddNamed(const std::string& name, double p) {
  if (by_name_.count(name) > 0) {
    return Status::InvalidArgument("variable name '" + name + "' already in use");
  }
  if (!(p > 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("probability of '" + name +
                                   "' must be in (0,1]");
  }
  VarId id = Add(p);
  names_.emplace(id, name);
  by_name_.emplace(name, id);
  return id;
}

Result<VarId> VarTable::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no variable named '" + name + "'");
  }
  return it->second;
}

std::string VarTable::name(VarId v) const {
  auto it = names_.find(v);
  if (it != names_.end()) return it->second;
  return "x" + std::to_string(v);
}

LineageManager::LineageManager(bool hash_consing) : hash_consing_(hash_consing) {
  // Reserve ids 0 and 1 for the constants.
  nodes_.push_back({LineageKind::kFalse, kInvalidVar, kNullLineage, kNullLineage});
  nodes_.push_back({LineageKind::kTrue, kInvalidVar, kNullLineage, kNullLineage});
}

LineageId LineageManager::Intern(const Key& key) {
  const LineageId fresh = static_cast<LineageId>(nodes_.size());
  if (hash_consing_) {
    ++counts_.lookups;
    const LineageId id = index_.FindOrAdd(
        ConsIndex::Hash(key.kind, key.left, key.right), fresh,
        [&](LineageId cand) {
          const LineageNode& n = nodes_[cand];
          return n.kind == key.kind && n.left == key.left &&
                 n.right == key.right;
        });
    if (id != fresh) {
      ++counts_.hits;
      return id;
    }
  }
  nodes_.push_back({key.kind, kInvalidVar, key.left, key.right});
  return fresh;
}

LineageId LineageManager::MakeVar(VarId v) {
  assert(v != kInvalidVar);
  const LineageId fresh = static_cast<LineageId>(nodes_.size());
  if (hash_consing_) {
    ++counts_.lookups;
    if (v >= leaves_.size()) leaves_.resize(std::size_t{v} + 1, kNoLeaf);
    if (leaves_[v] != kNoLeaf) {
      ++counts_.hits;
      return leaves_[v];
    }
    leaves_[v] = fresh;
  }
  nodes_.push_back({LineageKind::kVar, v, kNullLineage, kNullLineage});
  return fresh;
}

LineageId LineageManager::MakeNot(LineageId a) {
  assert(a != kNullLineage && "MakeNot over null lineage");
  LineageId folded = kNullLineage;
  if (FoldNot(a, &folded)) return folded;
  return Intern({LineageKind::kNot, a, kNullLineage});
}

LineageId LineageManager::MakeAnd(LineageId a, LineageId b) {
  assert(a != kNullLineage && b != kNullLineage && "MakeAnd over null lineage");
  LineageId folded = kNullLineage;
  Key key{};
  if (FoldAnd(a, b, &folded, &key)) return folded;
  return Intern(key);
}

LineageId LineageManager::MakeAndNot(LineageId a, LineageId b) {
  assert(a != kNullLineage && b != kNullLineage &&
         "MakeAndNot over null lineage");
  LineageId folded = kNullLineage;
  Key key{};
  if (FoldAndNot(a, b, &folded, &key)) return folded;
  return Intern(key);
}

LineageId LineageManager::MakeOr(LineageId a, LineageId b) {
  assert(a != kNullLineage && b != kNullLineage && "MakeOr over null lineage");
  LineageId folded = kNullLineage;
  if (FoldOr(a, b, &folded)) return folded;
  return Intern({LineageKind::kOr, a, b});
}

LineageId LineageManager::ConcatAndNot(LineageId l1, LineageId l2) {
  assert(l1 != kNullLineage && "andNot requires non-null left lineage");
  if (l2 == kNullLineage) return l1;
  return MakeAndNot(l1, l2);
}

LineageId LineageManager::ConcatOr(LineageId l1, LineageId l2) {
  assert((l1 != kNullLineage || l2 != kNullLineage) &&
         "or requires at least one non-null lineage");
  if (l1 == kNullLineage) return l2;
  if (l2 == kNullLineage) return l1;
  return MakeOr(l1, l2);
}

void LineageManager::CollectVars(LineageId id, std::vector<VarId>* out) const {
  if (id == kNullLineage) return;
  std::size_t first = out->size();
  // Iterative DFS; shared nodes may be visited repeatedly, duplicates are
  // removed below (formulas produced by set operations are trees).
  std::vector<LineageId> stack{id};
  while (!stack.empty()) {
    LineageId cur = stack.back();
    stack.pop_back();
    const LineageNode& n = nodes_[cur];
    switch (n.kind) {
      case LineageKind::kFalse:
      case LineageKind::kTrue:
        break;
      case LineageKind::kVar:
        out->push_back(n.var);
        break;
      case LineageKind::kNot:
        stack.push_back(n.left);
        break;
      case LineageKind::kAnd:
      case LineageKind::kOr:
      case LineageKind::kAndNot:
        stack.push_back(n.left);
        stack.push_back(n.right);
        break;
    }
  }
  std::sort(out->begin() + first, out->end());
  out->erase(std::unique(out->begin() + first, out->end()), out->end());
}

std::size_t LineageManager::CountVarOccurrences(LineageId id) const {
  if (id == kNullLineage) return 0;
  std::size_t count = 0;
  std::vector<LineageId> stack{id};
  while (!stack.empty()) {
    LineageId cur = stack.back();
    stack.pop_back();
    const LineageNode& n = nodes_[cur];
    switch (n.kind) {
      case LineageKind::kFalse:
      case LineageKind::kTrue:
        break;
      case LineageKind::kVar:
        ++count;
        break;
      case LineageKind::kNot:
        stack.push_back(n.left);
        break;
      case LineageKind::kAnd:
      case LineageKind::kOr:
      case LineageKind::kAndNot:
        stack.push_back(n.left);
        stack.push_back(n.right);
        break;
    }
  }
  return count;
}

bool LineageManager::IsReadOnce(LineageId id) const {
  if (id == kNullLineage) return true;
  std::vector<VarId> vars;
  CollectVars(id, &vars);
  return vars.size() == CountVarOccurrences(id);
}

namespace {
// Precedence levels for printing: Or < And (andNot's ∧ included) <
// Not/Var.
int Precedence(LineageKind k) {
  switch (k) {
    case LineageKind::kOr: return 1;
    case LineageKind::kAnd:
    case LineageKind::kAndNot: return 2;
    default: return 3;
  }
}
}  // namespace

void LineageManager::AppendString(LineageId id, const VarTable& vars, bool ascii,
                                  int parent_prec, std::string* out) const {
  const LineageNode& n = nodes_[id];
  int prec = Precedence(n.kind);
  bool parens = prec < parent_prec;
  if (parens) out->push_back('(');
  switch (n.kind) {
    case LineageKind::kFalse:
      *out += ascii ? "false" : "⊥";
      break;
    case LineageKind::kTrue:
      *out += ascii ? "true" : "⊤";
      break;
    case LineageKind::kVar:
      *out += vars.name(n.var);
      break;
    case LineageKind::kNot:
      *out += ascii ? "!" : "¬";
      // Parenthesize compound arguments (∧/∨); atoms print bare: ¬a1.
      AppendString(n.left, vars, ascii, Precedence(LineageKind::kNot), out);
      break;
    case LineageKind::kAnd:
      AppendString(n.left, vars, ascii, prec, out);
      *out += ascii ? "&" : "∧";
      AppendString(n.right, vars, ascii, prec, out);
      break;
    case LineageKind::kAndNot:
      // λ1∧¬λ2, the right operand at ¬ precedence, as its ∧ over a ¬
      // would print.
      AppendString(n.left, vars, ascii, prec, out);
      *out += ascii ? "&!" : "∧¬";
      AppendString(n.right, vars, ascii, Precedence(LineageKind::kNot), out);
      break;
    case LineageKind::kOr:
      AppendString(n.left, vars, ascii, prec, out);
      *out += ascii ? "|" : "∨";
      AppendString(n.right, vars, ascii, prec, out);
      break;
  }
  if (parens) out->push_back(')');
}

std::string LineageManager::ToString(LineageId id, const VarTable& vars,
                                     bool ascii) const {
  if (id == kNullLineage) return "null";
  std::string out;
  AppendString(id, vars, ascii, 0, &out);
  return out;
}

void LineageManager::FlattenCanonical(LineageId id, LineageKind op,
                                      std::vector<std::string>* parts) const {
  const LineageNode& n = nodes_[id];
  if (n.kind == op) {
    FlattenCanonical(n.left, op, parts);
    FlattenCanonical(n.right, op, parts);
  } else if (n.kind == LineageKind::kAndNot && op == LineageKind::kAnd) {
    FlattenCanonical(n.left, op, parts);
    parts->push_back("!(" + CanonicalKey(n.right) + ")");
  } else {
    parts->push_back(CanonicalKey(id));
  }
}

std::string LineageManager::CanonicalKey(LineageId id) const {
  if (id == kNullLineage) return "null";
  const LineageNode& n = nodes_[id];
  switch (n.kind) {
    case LineageKind::kFalse:
      return "F";
    case LineageKind::kTrue:
      return "T";
    case LineageKind::kVar:
      return "v" + std::to_string(n.var);
    case LineageKind::kNot:
      return "!(" + CanonicalKey(n.left) + ")";
    case LineageKind::kAnd:
    case LineageKind::kOr:
    case LineageKind::kAndNot: {
      const LineageKind op =
          n.kind == LineageKind::kOr ? LineageKind::kOr : LineageKind::kAnd;
      std::vector<std::string> parts;
      FlattenCanonical(id, op, &parts);
      std::sort(parts.begin(), parts.end());
      std::string out = op == LineageKind::kAnd ? "&(" : "|(";
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += parts[i];
      }
      out.push_back(')');
      return out;
    }
  }
  return "?";
}

}  // namespace tpset
