#include "src/ff/fp12.h"

#include <array>
#include <utility>

namespace nope {

namespace {

// Frobenius coefficients gamma_k = xi^(k(p-1)/6) for k = 1..5, computed once.
const std::array<Fp2, 6>& FrobeniusGammas() {
  static const std::array<Fp2, 6> gammas = [] {
    std::array<Fp2, 6> out;
    out[0] = Fp2::One();
    BigUInt p = Fq::params().modulus_big;
    BigUInt step = (p - BigUInt(1)) / BigUInt(6);
    for (int k = 1; k <= 5; ++k) {
      out[k] = Xi().Pow(step * BigUInt(static_cast<uint64_t>(k)));
    }
    return out;
  }();
  return gammas;
}

Fp2 FrobFp2(const Fp2& x) { return x.Conjugate(); }

// (a + b s)^2 in Fp4 = Fp2[s]/(s^2 - xi): returns {a^2 + xi b^2, 2ab}.
std::pair<Fp2, Fp2> Fp4Square(const Fp2& a, const Fp2& b) {
  Fp2 a2 = a.Square();
  Fp2 b2 = b.Square();
  return {MulByXi(b2) + a2, (a + b).Square() - a2 - b2};
}

Fp6 FrobFp6(const Fp6& x) {
  const auto& g = FrobeniusGammas();
  return {FrobFp2(x.c0), FrobFp2(x.c1) * g[2], FrobFp2(x.c2) * g[4]};
}

}  // namespace

Fp12 Fp12::Frobenius(int power) const {
  Fp12 out = *this;
  const auto& g = FrobeniusGammas();
  for (int i = 0; i < power; ++i) {
    Fp6 a = FrobFp6(out.c0);
    Fp6 b = FrobFp6(out.c1);
    // w^p = gamma_1 * w, so the c1 half picks up a gamma_1 on each Fp2 slot.
    out = {a, b.ScalarMulFp2(g[1])};
  }
  return out;
}

Fp12 Fp12::CyclotomicSquare() const {
  // Granger and Scott, "Faster squaring in the cyclotomic subgroup of sixth
  // degree extensions" (PKC 2010): viewed over Fp4, a cyclotomic element
  // (z0 + z1 s, z2 + z3 s, z4 + z5 s) squares as three Fp4 squarings A, B, C
  // followed by z -> 3A - 2z / 3A + 2z style corrections. The Fp4 pairs sit
  // in the tower as (c0.c0, c1.c1), (c1.c0, c0.c2) and (c0.c1, c1.c2).
  auto [t0, t1] = Fp4Square(c0.c0, c1.c1);
  auto [t2, t3] = Fp4Square(c1.c0, c0.c2);
  auto [t4, t5] = Fp4Square(c0.c1, c1.c2);
  auto minus = [](const Fp2& t, const Fp2& z) { return (t - z).Double() + t; };
  auto plus = [](const Fp2& t, const Fp2& z) { return (t + z).Double() + t; };
  Fp12 out;
  out.c0.c0 = minus(t0, c0.c0);
  out.c1.c1 = plus(t1, c1.c1);
  out.c1.c0 = plus(MulByXi(t5), c1.c0);
  out.c0.c2 = minus(t4, c0.c2);
  out.c0.c1 = minus(t2, c0.c1);
  out.c1.c2 = plus(t3, c1.c2);
  return out;
}

}  // namespace nope
