// Lineage expression parser.
#include <gtest/gtest.h>

#include "common/random.h"
#include "lineage/lineage.h"
#include "lineage/parse.h"
#include "relation/relation.h"

namespace tpset {
namespace {

class ParseTest : public ::testing::Test {
 protected:
  LineageManager mgr_;
  VarTable vars_;
  VarId a1_ = *vars_.AddNamed("a1", 0.3);
  VarId b1_ = *vars_.AddNamed("b1", 0.6);
  VarId c1_ = *vars_.AddNamed("c1", 0.7);
};

TEST_F(ParseTest, Atom) {
  Result<LineageId> r = ParseLineage("a1", &mgr_, vars_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, mgr_.MakeVar(a1_));
}

TEST_F(ParseTest, PrecedenceNotOverAndOverOr) {
  Result<LineageId> r = ParseLineage("a1 | b1 & c1", &mgr_, vars_);
  ASSERT_TRUE(r.ok());
  LineageId expected =
      mgr_.MakeOr(mgr_.MakeVar(a1_), mgr_.MakeAnd(mgr_.MakeVar(b1_), mgr_.MakeVar(c1_)));
  EXPECT_EQ(*r, expected);

  r = ParseLineage("!a1 & b1", &mgr_, vars_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, mgr_.MakeAnd(mgr_.MakeNot(mgr_.MakeVar(a1_)), mgr_.MakeVar(b1_)));
}

TEST_F(ParseTest, Parentheses) {
  Result<LineageId> r = ParseLineage("c1 & !(a1 | b1)", &mgr_, vars_);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(mgr_.ToString(*r, vars_), "c1∧¬(a1∨b1)");
}

TEST_F(ParseTest, RoundTripThroughToString) {
  for (const char* text :
       {"a1", "!a1", "a1&b1", "a1|b1", "c1&!(a1|b1)", "(a1|b1)&c1"}) {
    Result<LineageId> r = ParseLineage(text, &mgr_, vars_);
    ASSERT_TRUE(r.ok()) << text;
    std::string printed = mgr_.ToString(*r, vars_, /*ascii=*/true);
    Result<LineageId> r2 = ParseLineage(printed, &mgr_, vars_);
    ASSERT_TRUE(r2.ok()) << printed;
    EXPECT_EQ(*r, *r2) << "parse(print(f)) == f via hash-consing";
  }
}

TEST_F(ParseTest, Constants) {
  EXPECT_EQ(*ParseLineage("true", &mgr_, vars_), mgr_.True());
  EXPECT_EQ(*ParseLineage("false", &mgr_, vars_), mgr_.False());
  EXPECT_EQ(*ParseLineage("null", &mgr_, vars_), kNullLineage);
}

// A base tuple's lineage is its variable's leaf; parsing the variable's
// name finds that leaf rather than building a new node.
TEST(ParseBaseTest, NamedBaseVariableResolvesToItsLeaf) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation rel(ctx, Schema::SingleString("Product"), "a");
  for (const char* var : {"a1", "a2", "a3"}) {
    ASSERT_TRUE(rel.AddBase({Value(std::string(var))}, Interval(0, 5), 0.5, var)
                    .ok());
  }
  const std::size_t arena = ctx->lineage().size();
  Result<LineageId> r = ParseLineage("a2", &ctx->lineage(), ctx->vars());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, rel[1].lineage);
  EXPECT_EQ(ctx->lineage().size(), arena);
}

TEST_F(ParseTest, Whitespace) {
  EXPECT_TRUE(ParseLineage("  a1  &  ! ( b1 | c1 ) ", &mgr_, vars_).ok());
}

// Random token soup must either parse or fail cleanly — never crash or
// hang — and successfully parsed strings must re-parse to the same formula
// after printing.
TEST_F(ParseTest, FuzzRandomTokenSoup) {
  const std::string alphabet = "a1b1c1&|!()  ";
  Rng rng(1234);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string input;
    std::size_t len = rng.Below(24);
    for (std::size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng.Below(alphabet.size())]);
    }
    Result<LineageId> r = ParseLineage(input, &mgr_, vars_);
    if (r.ok() && *r != kNullLineage) {
      ++parsed_ok;
      std::string printed = mgr_.ToString(*r, vars_, /*ascii=*/true);
      Result<LineageId> r2 = ParseLineage(printed, &mgr_, vars_);
      ASSERT_TRUE(r2.ok()) << input << " -> " << printed;
      EXPECT_EQ(*r, *r2) << input;
    }
  }
  EXPECT_GT(parsed_ok, 0) << "fuzz should occasionally produce valid input";
}

TEST_F(ParseTest, Errors) {
  EXPECT_FALSE(ParseLineage("", &mgr_, vars_).ok());
  EXPECT_FALSE(ParseLineage("a1 &", &mgr_, vars_).ok());
  EXPECT_FALSE(ParseLineage("(a1", &mgr_, vars_).ok());
  EXPECT_FALSE(ParseLineage("a1 b1", &mgr_, vars_).ok()) << "trailing input";
  EXPECT_FALSE(ParseLineage("unknown", &mgr_, vars_).ok()) << "unknown variable";
  EXPECT_FALSE(ParseLineage("null | a1", &mgr_, vars_).ok())
      << "null only stands alone";
  EXPECT_FALSE(ParseLineage("&a1", &mgr_, vars_).ok());
}

}  // namespace
}  // namespace tpset
