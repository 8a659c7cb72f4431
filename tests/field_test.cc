#include <gtest/gtest.h>

#include <vector>

#include "src/ff/fp12.h"

namespace nope {
namespace {

template <typename Field>
class FpTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fq, Fr, P256Fq, P256Fn>;
TYPED_TEST_SUITE(FpTest, FieldTypes);

TYPED_TEST(FpTest, AdditiveGroupLaws) {
  using F = TypeParam;
  Rng rng(101);
  for (int i = 0; i < 50; ++i) {
    F a = F::Random(&rng);
    F b = F::Random(&rng);
    F c = F::Random(&rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a + F::Zero(), a);
    EXPECT_EQ(a - a, F::Zero());
    EXPECT_EQ(a + (-a), F::Zero());
  }
}

TYPED_TEST(FpTest, MultiplicativeGroupLaws) {
  using F = TypeParam;
  Rng rng(102);
  for (int i = 0; i < 50; ++i) {
    F a = F::Random(&rng);
    F b = F::Random(&rng);
    F c = F::Random(&rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * F::One(), a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), F::One());
    }
  }
}

TYPED_TEST(FpTest, MatchesBigUIntArithmetic) {
  using F = TypeParam;
  const BigUInt& p = F::params().modulus_big;
  Rng rng(103);
  for (int i = 0; i < 50; ++i) {
    BigUInt x = BigUInt::RandomBelow(&rng, p);
    BigUInt y = BigUInt::RandomBelow(&rng, p);
    F fx = F::FromBigUInt(x);
    F fy = F::FromBigUInt(y);
    EXPECT_EQ((fx * fy).ToBigUInt(), x.MulMod(y, p));
    EXPECT_EQ((fx + fy).ToBigUInt(), x.AddMod(y, p));
    EXPECT_EQ((fx - fy).ToBigUInt(), x.SubMod(y, p));
  }
}

TYPED_TEST(FpTest, RoundTripAndReduction) {
  using F = TypeParam;
  const BigUInt& p = F::params().modulus_big;
  EXPECT_EQ(F::FromBigUInt(p), F::Zero());
  EXPECT_EQ(F::FromBigUInt(p + BigUInt(5)), F::FromU64(5));
  EXPECT_EQ(F::FromU64(1), F::One());
  EXPECT_EQ(F::One().ToBigUInt(), BigUInt(1));
}

TYPED_TEST(FpTest, FermatLittleTheorem) {
  using F = TypeParam;
  Rng rng(104);
  F a = F::Random(&rng);
  EXPECT_EQ(a.Pow(F::params().modulus_big - BigUInt(1)), F::One());
}

// The x86-64 carry intrinsics and the portable fallback other platforms
// run must produce the same words and carries.
TEST(FpCarryTest, AddCarryAndSubBorrowMatchPortable) {
  std::vector<uint64_t> words = {0, 1, 2, 0x7fffffffffffffffull,
                                 0x8000000000000000ull, ~0ull - 1, ~0ull};
  Rng rng(105);
  for (int i = 0; i < 64; ++i) {
    words.push_back(rng.NextU64());
  }
  for (uint64_t a : words) {
    for (uint64_t b : words) {
      for (unsigned char c : {0, 1}) {
        unsigned char fast = c;
        unsigned char portable = c;
        ASSERT_EQ(fp_detail::AddCarry(a, b, &fast),
                  fp_detail::AddCarryPortable(a, b, &portable));
        ASSERT_EQ(fast, portable);
        fast = c;
        portable = c;
        ASSERT_EQ(fp_detail::SubBorrow(a, b, &fast),
                  fp_detail::SubBorrowPortable(a, b, &portable));
        ASSERT_EQ(fast, portable);
      }
    }
  }
}

TEST(Fp2Test, FieldLaws) {
  Rng rng(105);
  auto random_fp2 = [&] { return Fp2{Fq::Random(&rng), Fq::Random(&rng)}; };
  for (int i = 0; i < 30; ++i) {
    Fp2 a = random_fp2();
    Fp2 b = random_fp2();
    Fp2 c = random_fp2();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp2::One());
    }
  }
  // u^2 == -1.
  Fp2 u{Fq::Zero(), Fq::One()};
  Fp2 minus_one{-Fq::One(), Fq::Zero()};
  EXPECT_EQ(u * u, minus_one);
}

TEST(Fp6Test, FieldLawsAndVReduction) {
  Rng rng(106);
  auto rf2 = [&] { return Fp2{Fq::Random(&rng), Fq::Random(&rng)}; };
  auto rf6 = [&] { return Fp6{rf2(), rf2(), rf2()}; };
  for (int i = 0; i < 20; ++i) {
    Fp6 a = rf6();
    Fp6 b = rf6();
    Fp6 c = rf6();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp6::One());
    }
    // Multiplication by v matches structural MulByV.
    Fp6 v{Fp2::Zero(), Fp2::One(), Fp2::Zero()};
    EXPECT_EQ(a * v, a.MulByV());
  }
  // The sparse multiply by b0 + b1 v matches the dense one, and MulByXi
  // matches multiplication by the xi constant.
  for (int i = 0; i < 10; ++i) {
    Fp6 a = rf6();
    Fp2 b0 = rf2();
    Fp2 b1 = rf2();
    Fp6 sparse{b0, b1, Fp2::Zero()};
    EXPECT_EQ(a.MulBy01(b0, b1), a * sparse);
    EXPECT_EQ(MulByXi(b0), b0 * Xi());
  }
  // v^3 == xi.
  Fp6 v{Fp2::Zero(), Fp2::One(), Fp2::Zero()};
  Fp6 xi{Xi(), Fp2::Zero(), Fp2::Zero()};
  EXPECT_EQ(v * v * v, xi);
}

TEST(Fp12Test, FieldLawsAndFrobenius) {
  Rng rng(107);
  auto rf2 = [&] { return Fp2{Fq::Random(&rng), Fq::Random(&rng)}; };
  auto rf6 = [&] { return Fp6{rf2(), rf2(), rf2()}; };
  auto rf12 = [&] { return Fp12{rf6(), rf6()}; };
  for (int i = 0; i < 10; ++i) {
    Fp12 a = rf12();
    Fp12 b = rf12();
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Fp12::One());
    }
    // Frobenius is the p-power map.
    EXPECT_EQ(a.Frobenius(1), a.Pow(Fq::params().modulus_big));
    // 12 applications are the identity.
    EXPECT_EQ(a.Frobenius(12), a);
    // Frobenius(2) == Frobenius applied twice.
    EXPECT_EQ(a.Frobenius(2), a.Frobenius(1).Frobenius(1));
  }
  for (int i = 0; i < 10; ++i) {
    Fp12 a = rf12();
    // Sparse line multiply: a * (x + y w + z v w).
    Fp2 x = rf2();
    Fp2 y = rf2();
    Fp2 z = rf2();
    Fp12 line{Fp6{x, Fp2::Zero(), Fp2::Zero()}, Fp6{y, z, Fp2::Zero()}};
    EXPECT_EQ(a.MulBy034(x, y, z), a * line);
    // Granger-Scott squaring agrees with Square() on the cyclotomic
    // subgroup, the image of a^((p^6 - 1)(p^2 + 1)).
    Fp12 c = a.Conjugate() * a.Inverse();
    c = c.Frobenius(2) * c;
    EXPECT_EQ(c.CyclotomicSquare(), c.Square());
    EXPECT_EQ(c.CyclotomicSquare().CyclotomicSquare(), c.Square().Square());
  }
  // w^2 == v.
  Fp12 w{Fp6::Zero(), Fp6::One()};
  Fp12 v{Fp6{Fp2::Zero(), Fp2::One(), Fp2::Zero()}, Fp6::Zero()};
  EXPECT_EQ(w * w, v);
}

}  // namespace
}  // namespace nope
