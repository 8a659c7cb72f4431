#include "src/r1cs/constraint_system.h"

#include <gtest/gtest.h>

namespace nope {
namespace {

TEST(ConstraintSystem, ConstantOneIsVariableZero) {
  ConstraintSystem cs;
  EXPECT_EQ(cs.NumVariables(), 1u);
  EXPECT_EQ(cs.NumPublic(), 1u);
  EXPECT_EQ(cs.ValueOf(kOneVar), Fr::One());
}

TEST(ConstraintSystem, PublicBeforeWitnessEnforced) {
  ConstraintSystem cs;
  cs.AddPublicInput(Fr::FromU64(3));
  cs.AddWitness(Fr::FromU64(4));
  EXPECT_THROW(cs.AddPublicInput(Fr::FromU64(5)), std::logic_error);
}

TEST(ConstraintSystem, SatisfactionDetection) {
  ConstraintSystem cs;
  Var x = cs.AddPublicInput(Fr::FromU64(3));
  Var y = cs.AddWitness(Fr::FromU64(9));
  cs.Enforce(LC(x), LC(x), LC(y));  // x * x == y
  EXPECT_TRUE(cs.IsSatisfied());

  cs.SetValueForTest(y, Fr::FromU64(10));
  size_t bad = 99;
  EXPECT_FALSE(cs.IsSatisfied(&bad));
  EXPECT_EQ(bad, 0u);
}

TEST(ConstraintSystem, LinearCombinationAlgebra) {
  ConstraintSystem cs;
  Var x = cs.AddWitness(Fr::FromU64(5));
  Var y = cs.AddWitness(Fr::FromU64(7));
  LC lc = LC(x) * Fr::FromU64(2) + LC(y) - LC::Constant(Fr::FromU64(3));
  EXPECT_EQ(cs.Eval(lc), Fr::FromU64(14));
  LC zero = LC(x) - LC(x);
  EXPECT_EQ(cs.Eval(zero), Fr::Zero());
  EXPECT_TRUE((LC(x) * Fr::Zero()).IsEmpty());
}

TEST(ConstraintSystem, EnforceEqualAndBoolean) {
  ConstraintSystem cs;
  Var b = cs.AddWitness(Fr::One());
  cs.EnforceBoolean(b);
  cs.EnforceEqual(LC(b), LC::Constant(Fr::One()));
  EXPECT_TRUE(cs.IsSatisfied());

  ConstraintSystem cs2;
  Var nb = cs2.AddWitness(Fr::FromU64(2));
  cs2.EnforceBoolean(nb);
  EXPECT_FALSE(cs2.IsSatisfied());
}

TEST(ConstraintSystem, CountModeTracksWithoutStoring) {
  ConstraintSystem cs(ConstraintSystem::Mode::kCount);
  Var x = cs.AddWitness(Fr::FromU64(2));
  for (int i = 0; i < 100; ++i) {
    cs.Enforce(LC(x), LC(x), LC::Constant(Fr::FromU64(4)));
  }
  EXPECT_EQ(cs.NumConstraints(), 100u);
  EXPECT_TRUE(cs.constraints().empty());
  EXPECT_THROW(cs.IsSatisfied(), std::logic_error);
}

TEST(LinearCombination, CanonicalizeMergesDuplicateVariables) {
  ConstraintSystem cs;
  Var x = cs.AddWitness(Fr::FromU64(5));
  Var y = cs.AddWitness(Fr::FromU64(7));
  LC lc;
  lc.Add(y, Fr::FromU64(2));
  lc.Add(x, Fr::FromU64(3));
  lc.Add(y, Fr::FromU64(4));  // duplicate var: must merge to 6y
  lc.Add(x, Fr::FromU64(1));  // and 4x
  Fr before = cs.Eval(lc);
  lc.Canonicalize();
  EXPECT_EQ(cs.Eval(lc), before);
  ASSERT_EQ(lc.terms().size(), 2u);
  EXPECT_EQ(lc.terms()[0].first, x);  // sorted by variable id
  EXPECT_EQ(lc.terms()[0].second, Fr::FromU64(4));
  EXPECT_EQ(lc.terms()[1].first, y);
  EXPECT_EQ(lc.terms()[1].second, Fr::FromU64(6));
}

TEST(LinearCombination, CanonicalizeDropsZeroCoefficients) {
  ConstraintSystem cs;
  Var x = cs.AddWitness(Fr::FromU64(5));
  Var y = cs.AddWitness(Fr::FromU64(7));
  LC lc;
  lc.Add(x, Fr::Zero());  // explicit zero
  lc.Add(y, Fr::One());
  lc.Add(y, -Fr::One());  // cancels to zero after merging
  lc.Canonicalize();
  EXPECT_TRUE(lc.IsEmpty());
  EXPECT_TRUE(lc.IsConstant());
  EXPECT_EQ(lc.ConstantValue(), Fr::Zero());

  LC mixed = LC::Constant(Fr::FromU64(9)) + LC(x) - LC(x);
  mixed.Canonicalize();
  EXPECT_TRUE(mixed.IsConstant());
  EXPECT_EQ(mixed.ConstantValue(), Fr::FromU64(9));
  EXPECT_FALSE((LC(x) + LC::Constant(Fr::One())).IsConstant());
}

TEST(LinearCombination, EvalLcAgainstExplicitAssignment) {
  ConstraintSystem cs;
  Var x = cs.AddWitness(Fr::FromU64(5));
  LC lc = LC(x) * Fr::FromU64(3) + LC::Constant(Fr::FromU64(2));
  std::vector<Fr> values = {Fr::One(), Fr::FromU64(10)};
  EXPECT_EQ(EvalLc(lc, values), Fr::FromU64(32));
  EXPECT_EQ(cs.Eval(lc), Fr::FromU64(17));  // system's own value untouched
}

TEST(ConstraintSystem, SatisfiedByExternalAssignment) {
  ConstraintSystem cs;
  Var x = cs.AddWitness(Fr::FromU64(3));
  Var y = cs.AddWitness(Fr::FromU64(9));
  cs.Enforce(LC(x), LC(x), LC(y));
  std::vector<Fr> good = {Fr::One(), Fr::FromU64(4), Fr::FromU64(16)};
  EXPECT_TRUE(cs.SatisfiedBy(good));
  std::vector<Fr> bad = {Fr::One(), Fr::FromU64(4), Fr::FromU64(15)};
  size_t which = 99;
  EXPECT_FALSE(cs.SatisfiedBy(bad, &which));
  EXPECT_EQ(which, 0u);
}

TEST(ConstraintSystem, WithValuesKeepsMatricesAndSwapsAssignment) {
  ConstraintSystem cs;
  Var x = cs.AddPublicInput(Fr::FromU64(3));
  Var y = cs.AddWitness(Fr::FromU64(9));
  cs.Enforce(LC(x), LC(x), LC(y));
  ConstraintSystem seeded = cs.WithValues({Fr::One(), Fr::FromU64(4), Fr::FromU64(16)});
  EXPECT_EQ(seeded.NumPublic(), cs.NumPublic());
  EXPECT_EQ(seeded.NumConstraints(), cs.NumConstraints());
  EXPECT_EQ(seeded.ValueOf(y), Fr::FromU64(16));
  EXPECT_TRUE(seeded.IsSatisfied());
  EXPECT_EQ(cs.ValueOf(y), Fr::FromU64(9));  // the source is untouched
}

TEST(ConstraintSystemDeathTest, WithValuesWrongArityAborts) {
  ConstraintSystem cs;
  cs.AddWitness(Fr::FromU64(3));
  EXPECT_DEATH(cs.WithValues({Fr::One()}), "wrong arity");
}

TEST(ConstraintSystem, ScopesRecordConstraintAndVarSpans) {
  ConstraintSystem cs;
  Var x = cs.AddWitness(Fr::FromU64(2));
  {
    GadgetScope outer(&cs, "outer");
    cs.Enforce(LC(x), LC(x), LC::Constant(Fr::FromU64(4)));
    {
      GadgetScope inner(&cs, "inner");
      Var y = cs.AddWitness(Fr::FromU64(8));
      cs.Enforce(LC(x), LC(y), LC::Constant(Fr::FromU64(16)));
    }
    cs.Enforce(LC(x), LC::Constant(Fr::One()), LC(x));
  }
  ASSERT_EQ(cs.scopes().size(), 2u);
  // Spans are appended at BeginScope, so enclosing scopes come first.
  const ScopeSpan& inner = cs.scopes()[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1u);
  EXPECT_EQ(inner.first_constraint, 1u);
  EXPECT_EQ(inner.num_constraints, 1u);
  EXPECT_EQ(inner.num_vars, 1u);
  const ScopeSpan& outer = cs.scopes()[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0u);
  EXPECT_EQ(outer.first_constraint, 0u);
  EXPECT_EQ(outer.num_constraints, 3u);
}

TEST(ConstraintSystem, UnbalancedEndScopeThrows) {
  ConstraintSystem cs;
  EXPECT_THROW(cs.EndScope(), std::logic_error);
}

}  // namespace
}  // namespace nope
