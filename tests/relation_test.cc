// TpRelation construction, validation and equivalence.
#include <gtest/gtest.h>

#include "relation/relation.h"
#include "relation/validate.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::MakeRelation;

TEST(RelationTest, AddBaseRegistersVariableAndFact) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation rel(ctx, Schema::SingleString("Product"), "r");
  Result<VarId> v = rel.AddBase({Value(std::string("milk"))}, Interval(2, 10),
                                0.3, "a1");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_EQ(ctx->vars().probability(*v), 0.3);
  EXPECT_EQ(ctx->vars().name(*v), "a1");
  EXPECT_EQ(rel.LineageString(0), "a1");
  EXPECT_EQ(ToString(rel.FactOf(0)), "'milk'");
  EXPECT_NEAR(rel.TupleProbability(0), 0.3, 1e-12);
}

TEST(RelationTest, AddBaseRejectsBadInput) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation rel(ctx, Schema::SingleString("Product"), "r");
  EXPECT_FALSE(rel.AddBase({Value(std::string("x"))}, Interval(5, 5), 0.5).ok())
      << "empty interval";
  EXPECT_FALSE(rel.AddBase({Value(std::string("x"))}, Interval(5, 4), 0.5).ok())
      << "inverted interval";
  EXPECT_FALSE(rel.AddBase({Value(std::string("x"))}, Interval(0, 1), 0.0).ok())
      << "probability 0 excluded by Ωp = (0,1]";
  EXPECT_FALSE(rel.AddBase({Value(std::string("x"))}, Interval(0, 1), 1.1).ok());
  EXPECT_FALSE(rel.AddBase({Value(std::int64_t{1})}, Interval(0, 1), 0.5).ok())
      << "schema mismatch";
  EXPECT_TRUE(rel.AddBase({Value(std::string("x"))}, Interval(0, 1), 1.0).ok())
      << "probability 1 is allowed";
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, DuplicateVarNameRejected) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation rel(ctx, Schema::SingleString("Product"), "r");
  ASSERT_TRUE(rel.AddBase({Value(std::string("x"))}, Interval(0, 1), 0.5, "v").ok());
  EXPECT_FALSE(rel.AddBase({Value(std::string("y"))}, Interval(0, 1), 0.5, "v").ok());
}

TEST(RelationTest, SortFactTime) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation rel = MakeRelation(ctx, "r",
                                {{"b", "v1", 5, 6, 0.5},
                                 {"a", "v2", 7, 9, 0.5},
                                 {"a", "v3", 1, 3, 0.5}});
  EXPECT_FALSE(rel.IsSortedFactTime());
  rel.SortFactTime();
  EXPECT_TRUE(rel.IsSortedFactTime());
  // Facts sort by FactId (interning order: b first, then a).
  EXPECT_EQ(rel[0].fact, rel[1].fact == rel[2].fact ? rel[0].fact : rel[0].fact);
  EXPECT_LE(rel[1].t.start, rel[2].t.start);
}

TEST(RelationTest, EquivalenceIgnoresOrderAndLineageCommutativity) {
  auto ctx = std::make_shared<TpContext>();
  LineageManager& mgr = ctx->lineage();
  VarTable& vars = ctx->vars();
  VarId x = vars.Add(0.5);
  VarId y = vars.Add(0.5);
  FactId f = ctx->facts().Intern({Value(std::string("f"))});

  TpRelation r1(ctx, Schema::SingleString("Product"), "r1");
  r1.AddDerived(f, Interval(0, 5), mgr.MakeAnd(mgr.MakeVar(x), mgr.MakeVar(y)));
  r1.AddDerived(f, Interval(5, 9), mgr.MakeVar(x));

  TpRelation r2(ctx, Schema::SingleString("Product"), "r2");
  r2.AddDerived(f, Interval(5, 9), mgr.MakeVar(x));
  r2.AddDerived(f, Interval(0, 5), mgr.MakeAnd(mgr.MakeVar(y), mgr.MakeVar(x)));

  EXPECT_TRUE(RelationsEquivalent(r1, r2));

  TpRelation r3(ctx, Schema::SingleString("Product"), "r3");
  r3.AddDerived(f, Interval(0, 5), mgr.MakeOr(mgr.MakeVar(x), mgr.MakeVar(y)));
  r3.AddDerived(f, Interval(5, 9), mgr.MakeVar(x));
  EXPECT_FALSE(RelationsEquivalent(r1, r3)) << "∧ vs ∨ differ";

  TpRelation r4(ctx, Schema::SingleString("Product"), "r4");
  r4.AddDerived(f, Interval(0, 5), mgr.MakeAnd(mgr.MakeVar(x), mgr.MakeVar(y)));
  EXPECT_FALSE(RelationsEquivalent(r1, r4)) << "different sizes";
}

TEST(RelationTest, EquivalenceRequiresSharedContext) {
  auto ctx1 = std::make_shared<TpContext>();
  auto ctx2 = std::make_shared<TpContext>();
  TpRelation r1 = MakeRelation(ctx1, "r1", {{"f", "v1", 0, 5, 0.5}});
  TpRelation r2 = MakeRelation(ctx2, "r2", {{"f", "v2", 0, 5, 0.5}});
  EXPECT_FALSE(RelationsEquivalent(r1, r2));
}

TEST(ValidateTest, WellFormedAcceptsBaseRelations) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation rel = MakeRelation(ctx, "r", {{"f", "v1", 0, 5, 0.5}});
  EXPECT_TRUE(ValidateWellFormed(rel).ok());
}

TEST(ValidateTest, WellFormedRejectsCorruptTuples) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation rel = MakeRelation(ctx, "r", {{"f", "v1", 0, 5, 0.5}});
  // Inject corruption through the mutable accessor (failure injection).
  rel.mutable_tuples()[0].t = Interval(5, 5);
  EXPECT_EQ(ValidateWellFormed(rel).code(), StatusCode::kCorruption);

  TpRelation rel2 = MakeRelation(ctx, "r2", {{"f", "v2", 0, 5, 0.5}});
  rel2.mutable_tuples()[0].lineage = kNullLineage;
  EXPECT_EQ(ValidateWellFormed(rel2).code(), StatusCode::kCorruption);

  TpRelation rel3 = MakeRelation(ctx, "r3", {{"f", "v3", 0, 5, 0.5}});
  rel3.mutable_tuples()[0].fact = 999999;
  EXPECT_EQ(ValidateWellFormed(rel3).code(), StatusCode::kCorruption);

  TpRelation no_ctx;
  EXPECT_EQ(ValidateWellFormed(no_ctx).code(), StatusCode::kInvalidArgument);
}

TEST(ValidateTest, DuplicateFree) {
  auto ctx = std::make_shared<TpContext>();
  // Same fact, non-overlapping: fine (even adjacent).
  TpRelation ok = MakeRelation(ctx, "ok",
                               {{"f", "v1", 0, 5, 0.5}, {"f", "v2", 5, 9, 0.5}});
  EXPECT_TRUE(ValidateDuplicateFree(ok).ok());
  // Same fact, overlapping: rejected.
  TpRelation bad = MakeRelation(ctx, "bad",
                                {{"f", "v3", 0, 5, 0.5}, {"f", "v4", 4, 9, 0.5}});
  EXPECT_EQ(ValidateDuplicateFree(bad).code(), StatusCode::kInvalidArgument);
  // Different facts may overlap freely.
  TpRelation mixed = MakeRelation(ctx, "mixed",
                                  {{"f", "v5", 0, 5, 0.5}, {"g", "v6", 0, 5, 0.5}});
  EXPECT_TRUE(ValidateDuplicateFree(mixed).ok());

  // Unsorted input, its overlap not adjacent in input order: checked on a
  // sorted copy.
  TpRelation unsorted = MakeRelation(ctx, "unsorted",
                                     {{"f", "v7", 4, 9, 0.5},
                                      {"g", "v8", 0, 5, 0.5},
                                      {"f", "v9", 0, 5, 0.5}});
  ASSERT_FALSE(unsorted.IsSortedFactTime());
  Status st = ValidateDuplicateFree(unsorted);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(),
            "relation 'unsorted' is not duplicate-free: fact 'f' has "
            "overlapping intervals [0,5) and [4,9)");
  // Witnessed (fact, start) order: checked in place, same message. [0,10)
  // overlaps both later tuples, the second not adjacent to it; the first
  // adjacent pair reports it.
  TpRelation witnessed = MakeRelation(ctx, "witnessed",
                                      {{"g", "v10", 0, 10, 0.5},
                                       {"g", "v11", 2, 3, 0.5},
                                       {"g", "v12", 5, 7, 0.5}});
  ASSERT_TRUE(witnessed.known_sorted());
  st = ValidateDuplicateFree(witnessed);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(),
            "relation 'witnessed' is not duplicate-free: fact 'g' has "
            "overlapping intervals [0,10) and [2,3)");
}

TEST(ValidateTest, SetOpInputsSchemaCompatibility) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation r = MakeRelation(ctx, "r", {{"f", "v1", 0, 5, 0.5}});
  TpRelation s(ctx, Schema::SingleInt("fact"), "s");
  ASSERT_TRUE(s.AddBase({Value(std::int64_t{1})}, Interval(0, 5), 0.5).ok());
  EXPECT_EQ(ValidateSetOpInputs(r, s).code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, ProbabilityMethodsAgreeOnBaseTuples) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation rel = MakeRelation(ctx, "r", {{"f", "v1", 0, 5, 0.37}});
  EXPECT_NEAR(rel.TupleProbability(0, ProbabilityMethod::kReadOnce), 0.37, 1e-12);
  EXPECT_NEAR(rel.TupleProbability(0, ProbabilityMethod::kExact), 0.37, 1e-12);
  Rng rng(3);
  EXPECT_NEAR(rel.TupleProbability(0, ProbabilityMethod::kMonteCarlo, 100000, &rng),
              0.37, 0.01);
}

}  // namespace
}  // namespace tpset
