// Property: Table I's andNot, stored as one kAndNot node, is the formula
// λ1 ∧ ¬λ2 it stands for. Random formulas over at most 8 variables are built
// through every construction path — MakeAnd over MakeNot, ConcatAndNot,
// MakeAndNot, the parser and restriction — and must get one id; no ∧ node
// may have a ¬ right child; and every reader must agree with a test-local
// model of the formula in which each kAndNot is expanded into the ∧ over a
// ¬ that it replaces.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lineage/bounds.h"
#include "lineage/eval.h"
#include "lineage/lineage.h"
#include "lineage/parse.h"
#include "lineage/simplify.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

// A formula in the two-node expansion: never kAndNot, andNot is a kAnd
// whose right child is a kNot.
struct Tree;
using TreePtr = std::shared_ptr<const Tree>;
struct Tree {
  LineageKind kind;
  VarId var = kInvalidVar;
  TreePtr left, right;
};

TreePtr Leaf(LineageKind kind, VarId var = kInvalidVar) {
  return std::make_shared<const Tree>(Tree{kind, var, nullptr, nullptr});
}
TreePtr Node(LineageKind kind, TreePtr left, TreePtr right = nullptr) {
  return std::make_shared<const Tree>(
      Tree{kind, kInvalidVar, std::move(left), std::move(right)});
}
TreePtr AndNot(TreePtr left, TreePtr right) {
  return Node(LineageKind::kAnd, std::move(left),
              Node(LineageKind::kNot, std::move(right)));
}
bool IsAndNot(const Tree& t) {
  return t.kind == LineageKind::kAnd && t.right->kind == LineageKind::kNot;
}

// A random formula of depth at most `depth` over variables [0, vars), with
// rare constants and andNots as often as ∧, ∨ and ¬.
TreePtr RandomTree(Rng* rng, int depth, VarId vars) {
  const std::uint64_t pick = depth == 0 ? 0 : rng->Below(11);
  if (pick < 3) {
    if (rng->Below(16) == 0) {
      return Leaf(rng->Below(2) == 0 ? LineageKind::kTrue : LineageKind::kFalse);
    }
    return Leaf(LineageKind::kVar, static_cast<VarId>(rng->Below(vars)));
  }
  TreePtr left = RandomTree(rng, depth - 1, vars);
  switch (pick % 4) {
    case 0:
      return Node(LineageKind::kNot, std::move(left));
    case 1:
      return Node(LineageKind::kAnd, std::move(left),
                  RandomTree(rng, depth - 1, vars));
    case 2:
      return Node(LineageKind::kOr, std::move(left),
                  RandomTree(rng, depth - 1, vars));
    default:
      return AndNot(std::move(left), RandomTree(rng, depth - 1, vars));
  }
}

// `t` with variable v replaced by the constant `value`.
TreePtr Substitute(const TreePtr& t, VarId v, bool value) {
  switch (t->kind) {
    case LineageKind::kVar:
      if (t->var != v) return t;
      return Leaf(value ? LineageKind::kTrue : LineageKind::kFalse);
    case LineageKind::kNot:
      return Node(t->kind, Substitute(t->left, v, value));
    case LineageKind::kAnd:
    case LineageKind::kOr:
      return Node(t->kind, Substitute(t->left, v, value),
                  Substitute(t->right, v, value));
    default:
      return t;
  }
}

// Construction paths. `leaves[v]` is variable v's leaf. Fused: each ∧ over
// a ¬ through ConcatAndNot. Two-node: MakeAnd over MakeNot, the way the
// parser builds it.
LineageId Build(LineageManager& mgr, const std::vector<LineageId>& leaves,
                const Tree& t, bool fused) {
  switch (t.kind) {
    case LineageKind::kFalse:
      return mgr.False();
    case LineageKind::kTrue:
      return mgr.True();
    case LineageKind::kVar:
      return leaves[t.var];
    case LineageKind::kNot:
      return mgr.MakeNot(Build(mgr, leaves, *t.left, fused));
    case LineageKind::kOr:
      return mgr.MakeOr(Build(mgr, leaves, *t.left, fused),
                        Build(mgr, leaves, *t.right, fused));
    default:
      break;
  }
  const LineageId a = Build(mgr, leaves, *t.left, fused);
  if (fused && IsAndNot(t)) {
    return mgr.ConcatAndNot(a, Build(mgr, leaves, *t.right->left, fused));
  }
  return mgr.MakeAnd(a, Build(mgr, leaves, *t.right, fused));
}

// The arena's formula behind `id`, each kAndNot expanded.
TreePtr Expand(const LineageManager& mgr, LineageId id) {
  const LineageNode& n = mgr.node(id);
  switch (n.kind) {
    case LineageKind::kFalse:
    case LineageKind::kTrue:
      return Leaf(n.kind);
    case LineageKind::kVar:
      return Leaf(n.kind, n.var);
    case LineageKind::kNot:
      return Node(n.kind, Expand(mgr, n.left));
    case LineageKind::kAnd:
    case LineageKind::kOr:
      return Node(n.kind, Expand(mgr, n.left), Expand(mgr, n.right));
    case LineageKind::kAndNot:
      return AndNot(Expand(mgr, n.left), Expand(mgr, n.right));
  }
  return nullptr;
}

// ---- The model's readers, over the two-node expansion ----

bool Eval(const Tree& t, const std::vector<bool>& assignment) {
  switch (t.kind) {
    case LineageKind::kFalse:
      return false;
    case LineageKind::kTrue:
      return true;
    case LineageKind::kVar:
      return assignment[t.var];
    case LineageKind::kNot:
      return !Eval(*t.left, assignment);
    case LineageKind::kAnd:
      return Eval(*t.left, assignment) && Eval(*t.right, assignment);
    default:
      return Eval(*t.left, assignment) || Eval(*t.right, assignment);
  }
}

double ReadOnceP(const Tree& t, const VarTable& vars) {
  switch (t.kind) {
    case LineageKind::kFalse:
      return 0.0;
    case LineageKind::kTrue:
      return 1.0;
    case LineageKind::kVar:
      return vars.probability(t.var);
    case LineageKind::kNot:
      return 1.0 - ReadOnceP(*t.left, vars);
    case LineageKind::kAnd:
      return ReadOnceP(*t.left, vars) * ReadOnceP(*t.right, vars);
    default: {
      const double pl = ReadOnceP(*t.left, vars);
      const double pr = ReadOnceP(*t.right, vars);
      return pl + pr - pl * pr;
    }
  }
}

// The paper-style rendering: ∨ binds weaker than ∧, ¬ binds tightest.
int Prec(LineageKind k) {
  return k == LineageKind::kOr ? 1 : k == LineageKind::kAnd ? 2 : 3;
}
void Text(const Tree& t, const VarTable& vars, bool ascii, int parent,
          std::string* out) {
  const bool parens = Prec(t.kind) < parent;
  if (parens) out->push_back('(');
  switch (t.kind) {
    case LineageKind::kFalse:
      *out += ascii ? "false" : "⊥";
      break;
    case LineageKind::kTrue:
      *out += ascii ? "true" : "⊤";
      break;
    case LineageKind::kVar:
      *out += vars.name(t.var);
      break;
    case LineageKind::kNot:
      *out += ascii ? "!" : "¬";
      Text(*t.left, vars, ascii, 3, out);
      break;
    default:
      Text(*t.left, vars, ascii, Prec(t.kind), out);
      *out += t.kind == LineageKind::kAnd ? (ascii ? "&" : "∧")
                                          : (ascii ? "|" : "∨");
      Text(*t.right, vars, ascii, Prec(t.kind), out);
      break;
  }
  if (parens) out->push_back(')');
}
std::string Text(const Tree& t, const VarTable& vars, bool ascii) {
  std::string out;
  Text(t, vars, ascii, 0, &out);
  return out;
}

// Every binary node in parentheses, so parsing rebuilds the same shape.
std::string Parenthesized(const Tree& t, const VarTable& vars) {
  switch (t.kind) {
    case LineageKind::kFalse:
      return "false";
    case LineageKind::kTrue:
      return "true";
    case LineageKind::kVar:
      return vars.name(t.var);
    case LineageKind::kNot:
      return "!" + Parenthesized(*t.left, vars);
    default:
      return "(" + Parenthesized(*t.left, vars) +
             (t.kind == LineageKind::kAnd ? "&" : "|") +
             Parenthesized(*t.right, vars) + ")";
  }
}

std::string Key(const Tree& t);
void Flatten(const Tree& t, LineageKind op, std::vector<std::string>* parts) {
  if (t.kind == op) {
    Flatten(*t.left, op, parts);
    Flatten(*t.right, op, parts);
  } else {
    parts->push_back(Key(t));
  }
}
std::string Key(const Tree& t) {
  switch (t.kind) {
    case LineageKind::kFalse:
      return "F";
    case LineageKind::kTrue:
      return "T";
    case LineageKind::kVar:
      return "v" + std::to_string(t.var);
    case LineageKind::kNot:
      return "!(" + Key(*t.left) + ")";
    default: {
      std::vector<std::string> parts;
      Flatten(t, t.kind, &parts);
      std::sort(parts.begin(), parts.end());
      std::string out = t.kind == LineageKind::kAnd ? "&(" : "|(";
      for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += parts[i];
      }
      return out + ")";
    }
  }
}

void Occurrences(const Tree& t, std::vector<VarId>* out) {
  if (t.kind == LineageKind::kVar) out->push_back(t.var);
  if (t.left != nullptr) Occurrences(*t.left, out);
  if (t.right != nullptr) Occurrences(*t.right, out);
}

// The exact probability by enumerating every assignment of `n` variables.
double Enumerate(const Tree& t, const VarTable& vars, VarId n) {
  double p = 0.0;
  std::vector<bool> assignment(n);
  for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
    double weight = 1.0;
    for (VarId v = 0; v < n; ++v) {
      assignment[v] = (bits >> v & 1) != 0;
      weight *= assignment[v] ? vars.probability(v) : 1.0 - vars.probability(v);
    }
    if (Eval(t, assignment)) p += weight;
  }
  return p;
}

// Every cofactor that Shannon expansion of `id` reaches, built through the
// constructors from the substituted formula: restriction must have built
// exactly these nodes.
void BuildCofactors(LineageManager& mgr, const std::vector<LineageId>& leaves,
                    LineageId id) {
  const LineageKind k = mgr.kind(id);
  if (k == LineageKind::kFalse || k == LineageKind::kTrue ||
      k == LineageKind::kVar) {
    return;
  }
  std::vector<VarId> vs;
  mgr.CollectVars(id, &vs);
  const TreePtr e = Expand(mgr, id);
  for (bool value : {true, false}) {
    BuildCofactors(
        mgr, leaves,
        Build(mgr, leaves, *Substitute(e, vs.front(), value), /*fused=*/true));
  }
}

struct Fixture {
  VarTable vars;
  LineageManager mgr;
  std::vector<LineageId> leaves;

  Fixture(VarId n, Rng* rng) {
    for (VarId v = 0; v < n; ++v) {
      vars.AddNamed("x" + std::to_string(v), 0.05 + 0.9 * rng->NextDouble())
          .value();
      leaves.push_back(mgr.MakeVar(v));
    }
  }

  LineageId Parse(const std::string& text) {
    Result<LineageId> id = ParseLineage(text, &mgr, vars);
    EXPECT_TRUE(id.ok()) << text << ": " << id.status().ToString();
    return id.ok() ? *id : kNullLineage;
  }
};

// Every reader of `id` against the model; `t` is the formula it was built
// from (before the constructors' folds).
void CheckReaders(Fixture& f, LineageId id, const Tree& t, std::uint64_t seed) {
  LineageManager& mgr = f.mgr;
  const VarId n = static_cast<VarId>(f.leaves.size());
  const TreePtr e = Expand(mgr, id);

  std::vector<bool> assignment(n);
  for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
    for (VarId v = 0; v < n; ++v) assignment[v] = (bits >> v & 1) != 0;
    const bool want = Eval(t, assignment);
    ASSERT_EQ(Eval(*e, assignment), want) << "assignment " << bits;
    ASSERT_EQ(EvaluateAssignment(mgr, id, assignment), want)
        << "assignment " << bits;
  }

  EXPECT_EQ(mgr.ToString(id, f.vars), Text(*e, f.vars, false));
  EXPECT_EQ(mgr.ToString(id, f.vars, /*ascii=*/true), Text(*e, f.vars, true));
  EXPECT_EQ(mgr.CanonicalKey(id), Key(*e));

  std::vector<VarId> occurrences;
  Occurrences(*e, &occurrences);
  EXPECT_EQ(mgr.CountVarOccurrences(id), occurrences.size());
  std::sort(occurrences.begin(), occurrences.end());
  const bool read_once =
      std::adjacent_find(occurrences.begin(), occurrences.end()) ==
      occurrences.end();
  occurrences.erase(std::unique(occurrences.begin(), occurrences.end()),
                    occurrences.end());
  std::vector<VarId> collected;
  mgr.CollectVars(id, &collected);
  EXPECT_EQ(collected, occurrences);
  EXPECT_EQ(mgr.IsReadOnce(id), read_once);

  // The same operations in the same order as over the expansion.
  const double read_once_p = ProbabilityReadOnce(mgr, id, f.vars);
  EXPECT_EQ(read_once_p, ReadOnceP(*e, f.vars));
  const double exact = Enumerate(t, f.vars, n);
  if (read_once) {
    EXPECT_NEAR(read_once_p, exact, 1e-12);
  }
  EXPECT_NEAR(ProbabilityExact(mgr, id, f.vars), exact, 1e-12);
  const ProbabilityInterval full = ProbabilityAnytime(mgr, id, f.vars, 1 << 12);
  EXPECT_NEAR(full.lower, exact, 1e-12);
  EXPECT_NEAR(full.upper, exact, 1e-12);
  const ProbabilityInterval cut = ProbabilityAnytime(mgr, id, f.vars, 2);
  EXPECT_LE(cut.lower, exact + 1e-12);
  EXPECT_GE(cut.upper, exact - 1e-12);

  // Monte Carlo draws the formula's variables in ascending order.
  Rng lib_rng(seed), model_rng(seed);
  constexpr std::size_t kSamples = 64;
  std::size_t hits = 0;
  std::vector<bool> sample(n, false);
  for (std::size_t i = 0; i < kSamples; ++i) {
    for (VarId v : collected) sample[v] = model_rng.Bernoulli(f.vars.probability(v));
    hits += Eval(*e, sample) ? 1 : 0;
  }
  EXPECT_EQ(ProbabilityMonteCarlo(mgr, id, f.vars, kSamples, &lib_rng),
            static_cast<double>(hits) / kSamples);

  const LineageId simple = Simplify(mgr, id);
  EXPECT_LE(mgr.CountVarOccurrences(simple), mgr.CountVarOccurrences(id));
  for (std::uint32_t bits = 0; bits < (1u << n); ++bits) {
    for (VarId v = 0; v < n; ++v) assignment[v] = (bits >> v & 1) != 0;
    ASSERT_EQ(EvaluateAssignment(mgr, simple, assignment), Eval(t, assignment))
        << "simplified, assignment " << bits;
  }
}

TEST(LineageAndNotPropertyTest, OneIdPerFormulaAndEveryReaderAgrees) {
  for (std::uint64_t seed : testing::PropertySeeds({1, 2, 3, 4})) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    Rng rng(seed);
    Fixture f(static_cast<VarId>(1 + rng.Below(8)), &rng);
    LineageManager& mgr = f.mgr;
    std::vector<LineageId> built;
    for (int i = 0; i < 300; ++i) {
      SCOPED_TRACE(::testing::Message() << "formula " << i);
      const TreePtr t = RandomTree(&rng, 4, static_cast<VarId>(f.leaves.size()));
      const LineageId id = Build(mgr, f.leaves, *t, /*fused=*/true);

      // Restriction rebuilds through the constructors: with every cofactor
      // of the Shannon expansion built first, the first valuations by
      // expansion add no node.
      BuildCofactors(mgr, f.leaves, id);
      const std::size_t size = mgr.size();
      ProbabilityExact(mgr, id, f.vars);
      ProbabilityAnytime(mgr, id, f.vars, 1 << 12);
      EXPECT_EQ(mgr.size(), size) << "restriction built other nodes";

      ASSERT_EQ(Build(mgr, f.leaves, *t, /*fused=*/false), id);
      EXPECT_EQ(f.Parse(Parenthesized(*Expand(mgr, id), f.vars)), id);

      // λ1 ∧ ¬λ2 over earlier formulas, through every constructor.
      if (!built.empty()) {
        const LineageId a = built[rng.Below(built.size())];
        const LineageId want = mgr.MakeAndNot(a, id);
        EXPECT_EQ(mgr.ConcatAndNot(a, id), want);
        EXPECT_EQ(mgr.MakeAnd(a, mgr.MakeNot(id)), want);
        EXPECT_EQ(f.Parse(Parenthesized(*Expand(mgr, a), f.vars) + "&!" +
                          Parenthesized(*Expand(mgr, id), f.vars)),
                  want);
        CheckReaders(f, want, *AndNot(Expand(mgr, a), Expand(mgr, id)),
                     seed * 1000 + i);
      }
      built.push_back(id);
      CheckReaders(f, id, *t, seed * 1000 + i);
    }
    for (LineageId id = 0; id < mgr.size(); ++id) {
      const LineageNode& n = mgr.node(id);
      if (n.kind == LineageKind::kAnd) {
        ASSERT_NE(mgr.kind(n.right), LineageKind::kNot) << "∧ node " << id;
      }
    }
  }
}

// Each fold of MakeAndNot, named, against MakeAnd(a, MakeNot(b)).
TEST(LineageAndNotPropertyTest, FoldsMatchTheTwoNodePath) {
  Rng rng(1);
  Fixture f(3, &rng);
  LineageManager& mgr = f.mgr;
  const LineageId a = mgr.MakeOr(f.leaves[0], f.leaves[1]);
  const LineageId b = f.leaves[2];
  const LineageId not_b = mgr.MakeNot(b);
  auto two_node = [&](LineageId x, LineageId y) {
    return mgr.MakeAnd(x, mgr.MakeNot(y));
  };

  // ¬b ∧ ¬b is ¬b: read-once valuation gives 1 − p, not (1 − p)².
  EXPECT_EQ(mgr.MakeAndNot(not_b, b), not_b);
  EXPECT_EQ(two_node(not_b, b), not_b);
  EXPECT_EQ(ProbabilityReadOnce(mgr, mgr.ConcatAndNot(not_b, b), f.vars),
            1.0 - f.vars.probability(2));
  // True ∧ ¬b is ¬b.
  EXPECT_EQ(mgr.MakeAndNot(mgr.True(), b), not_b);
  EXPECT_EQ(two_node(mgr.True(), b), not_b);
  // a ∧ ¬¬x is a ∧ x.
  EXPECT_EQ(mgr.MakeAndNot(a, not_b), mgr.MakeAnd(a, b));
  EXPECT_EQ(two_node(a, not_b), mgr.MakeAnd(a, b));
  EXPECT_EQ(mgr.kind(mgr.MakeAnd(a, b)), LineageKind::kAnd);
  // a ∧ ¬True is False; so is False ∧ ¬b.
  EXPECT_EQ(mgr.MakeAndNot(a, mgr.True()), mgr.False());
  EXPECT_EQ(two_node(a, mgr.True()), mgr.False());
  EXPECT_EQ(mgr.MakeAndNot(mgr.False(), b), mgr.False());
  // a ∧ ¬False is a.
  EXPECT_EQ(mgr.MakeAndNot(a, mgr.False()), a);
  EXPECT_EQ(two_node(a, mgr.False()), a);
  // andNot(λ1, null) is λ1.
  EXPECT_EQ(mgr.ConcatAndNot(a, kNullLineage), a);

  // Otherwise one node: an ∧ over a ¬ right child becomes it too.
  const std::size_t before = mgr.size();
  const LineageId fused = mgr.ConcatAndNot(a, b);
  EXPECT_EQ(mgr.size(), before + 1);
  EXPECT_EQ(mgr.kind(fused), LineageKind::kAndNot);
  EXPECT_EQ(mgr.MakeAnd(a, not_b), fused);
  EXPECT_EQ(mgr.size(), before + 1);
}

// Fig. 1c's lineage prints as before, and Simplify sees an andNot as the ∧
// over a ¬ it stands for.
TEST(LineageAndNotPropertyTest, PrintingAndSimplification) {
  VarTable vars;
  LineageManager mgr;
  const LineageId c1 = mgr.MakeVar(*vars.AddNamed("c1", 0.6));
  const LineageId a1 = mgr.MakeVar(*vars.AddNamed("a1", 0.3));
  const LineageId b1 = mgr.MakeVar(*vars.AddNamed("b1", 0.6));
  const LineageId fig1c = mgr.ConcatAndNot(c1, mgr.ConcatOr(a1, b1));
  EXPECT_EQ(mgr.ToString(fig1c, vars), "c1∧¬(a1∨b1)");
  EXPECT_EQ(mgr.ToString(fig1c, vars, /*ascii=*/true), "c1&!(a1|b1)");
  EXPECT_EQ(mgr.CanonicalKey(fig1c), "&(!(|(v1,v2)),v0)");
  EXPECT_EQ(mgr.ToString(mgr.ConcatAndNot(mgr.MakeOr(c1, a1), b1), vars),
            "(c1∨a1)∧¬b1");
  EXPECT_EQ(mgr.ToString(mgr.ConcatAndNot(mgr.ConcatAndNot(c1, a1), b1), vars),
            "c1∧¬a1∧¬b1");

  // x ∧ ¬x → ⊥.
  EXPECT_EQ(Simplify(mgr, mgr.MakeAndNot(c1, c1)), mgr.False());
  // Absorption through an andNot's left operand and its ¬ operand.
  EXPECT_EQ(Simplify(mgr, mgr.MakeOr(mgr.MakeAndNot(c1, a1), c1)), c1);
  const LineageId not_a1 = mgr.MakeNot(a1);
  EXPECT_EQ(Simplify(mgr, mgr.MakeOr(not_a1, mgr.MakeAndNot(c1, a1))), not_a1);
  // Chain dedup: (c1 ∧ ¬a1) ∧ ¬a1 → c1 ∧ ¬a1.
  const LineageId once = mgr.MakeAndNot(c1, a1);
  EXPECT_EQ(Simplify(mgr, mgr.MakeAndNot(once, a1)), once);
}

}  // namespace
}  // namespace tpset
