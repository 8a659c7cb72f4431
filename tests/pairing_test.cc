#include <gtest/gtest.h>

#include "src/ec/bn254.h"

namespace nope {
namespace {

TEST(Pairing, NonDegenerate) {
  Fp12 e = Pairing(G1Generator(), G2Generator());
  EXPECT_FALSE(e.IsOne());
  EXPECT_FALSE(e.IsZero());
  // Pairing output lies in the order-r subgroup.
  EXPECT_TRUE(e.Pow(Bn254Order()).IsOne());
}

TEST(Pairing, IdentityInputs) {
  EXPECT_TRUE(Pairing(G1::Infinity(), G2Generator()).IsOne());
  EXPECT_TRUE(Pairing(G1Generator(), G2::Infinity()).IsOne());
}

TEST(Pairing, BilinearInFirstArgument) {
  BigUInt a(123456789);
  Fp12 lhs = Pairing(G1Generator().ScalarMul(a), G2Generator());
  Fp12 rhs = Pairing(G1Generator(), G2Generator()).Pow(a);
  EXPECT_EQ(lhs, rhs);
}

TEST(Pairing, BilinearInSecondArgument) {
  BigUInt b(987654321);
  Fp12 lhs = Pairing(G1Generator(), G2Generator().ScalarMul(b));
  Fp12 rhs = Pairing(G1Generator(), G2Generator()).Pow(b);
  EXPECT_EQ(lhs, rhs);
}

TEST(Pairing, FullBilinearity) {
  Rng rng(301);
  BigUInt a = BigUInt::RandomBelow(&rng, BigUInt(1) << 64);
  BigUInt b = BigUInt::RandomBelow(&rng, BigUInt(1) << 64);
  Fp12 lhs = Pairing(G1Generator().ScalarMul(a), G2Generator().ScalarMul(b));
  Fp12 rhs = Pairing(G1Generator(), G2Generator()).Pow(a * b);
  EXPECT_EQ(lhs, rhs);
}

TEST(Pairing, ProductCheck) {
  // e(aG, bH) * e(-abG, H) == 1.
  BigUInt a(31337);
  BigUInt b(271828);
  G1 p1 = G1Generator().ScalarMul(a);
  G2 q1 = G2Generator().ScalarMul(b);
  G1 p2 = G1Generator().ScalarMul(a * b).Negate();
  EXPECT_TRUE(PairingProductIsOne({{p1, q1}, {p2, G2Generator()}}));
  EXPECT_FALSE(PairingProductIsOne({{p1, q1}, {p2.Double(), G2Generator()}}));
}

TEST(Pairing, AdditivityViaProduct) {
  // e(P1 + P2, Q) == e(P1, Q) e(P2, Q).
  G1 p1 = G1Generator().ScalarMul(BigUInt(111));
  G1 p2 = G1Generator().ScalarMul(BigUInt(222));
  G2 q = G2Generator().ScalarMul(BigUInt(5));
  EXPECT_EQ(Pairing(p1.Add(p2), q), Pairing(p1, q) * Pairing(p2, q));
}

TEST(Pairing, PreparedLineSchedule) {
  // 6u+2 in non-adjacent form has 66 digits, 22 of them nonzero: 65
  // doubling lines, 21 addition lines and 2 Frobenius correction lines.
  G2Prepared prep = PrepareG2(G2Generator());
  EXPECT_EQ(prep.lines.size(), 65u + 21u + 2u);
  EXPECT_EQ(sizeof(G2PreparedLine), 192u);
}

}  // namespace
}  // namespace nope
