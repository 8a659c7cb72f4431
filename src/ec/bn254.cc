#include "src/ec/bn254.h"

#include "src/base/check.h"
#include "src/ec/batch_affine.h"

namespace nope {

namespace {

// BN parameter u for alt_bn128; the ate loop count is 6u+2.
constexpr uint64_t kBnU = 4965661367192848881ULL;

// One step of the optimal ate schedule; each emits exactly one line.
enum class LineStep : uint8_t {
  kDouble,      // T <- 2T
  kAddQ,        // T <- T + Q    (loop digit +1)
  kAddNegQ,     // T <- T - Q    (loop digit -1)
  kAddPiQ,      // T <- T + pi(Q)     (first Frobenius correction)
  kAddNegPi2Q,  // T <- T - pi^2(Q)   (second Frobenius correction)
};

// Non-adjacent form of k: digits in {-1, 0, 1}, least significant first,
// no two adjacent digits nonzero.
std::vector<int> Naf(unsigned __int128 k) {
  std::vector<int> naf;
  while (k != 0) {
    int d = 0;
    if (k & 1) {
      d = (k & 3) == 1 ? 1 : -1;
      k = d == 1 ? k - 1 : k + 1;
    }
    naf.push_back(d);
    k >>= 1;
  }
  return naf;
}

// The line schedule of the loop: 6u+2 in non-adjacent form (66 digits, 22
// nonzero, against 65 bits with 37 set in binary), scanned from the digit
// below the leading 1, then the two correction steps.
const std::vector<LineStep>& AteSchedule() {
  static const std::vector<LineStep> schedule = [] {
    const std::vector<int> naf = Naf(static_cast<unsigned __int128>(kBnU) * 6 + 2);
    std::vector<LineStep> out;
    for (size_t i = naf.size() - 1; i-- > 0;) {
      out.push_back(LineStep::kDouble);
      if (naf[i] != 0) {
        out.push_back(naf[i] > 0 ? LineStep::kAddQ : LineStep::kAddNegQ);
      }
    }
    out.push_back(LineStep::kAddPiQ);
    out.push_back(LineStep::kAddNegPi2Q);
    return out;
  }();
  return schedule;
}

const Fq& TwoInv() {
  static const Fq h = Fq::FromU64(2).Inverse();
  return h;
}

// 3b' for the twist y^2 = x^3 + b'.
const Fp2& ThreeTwistB() {
  static const Fp2 b3 = Bn254G2Config::B() + Bn254G2Config::B() + Bn254G2Config::B();
  return b3;
}

// Point on the twist E'(Fp2) in homogeneous projective coordinates:
// (X : Y : Z) is the affine point (X/Z, Y/Z).
struct TwistPoint {
  Fp2 x;
  Fp2 y;
  Fp2 z;
};

// T <- 2T, returning the tangent line at T. Costello-Lange-Naehrig /
// Aranha et al. (2010) formulas for a D-type twist: the affine tangent
//   py - lambda px w + (lambda x_T - y_T) v w,  lambda = 3 x_T^2 / (2 y_T),
// times -2 y_T Z^2 is -2YZ py + 3X^2 px w + (3b'Z^2 - Y^2) v w.
G2PreparedLine DoublingStep(TwistPoint* t) {
  Fp2 a = (t->x * t->y).ScalarMul(TwoInv());
  Fp2 b = t->y.Square();
  Fp2 c = t->z.Square();
  Fp2 e = c * ThreeTwistB();
  Fp2 f = e + e + e;
  Fp2 g = (b + f).ScalarMul(TwoInv());
  Fp2 h = (t->y + t->z).Square() - (b + c);  // 2YZ
  Fp2 x2 = t->x.Square();
  Fp2 e2 = e.Square();
  G2PreparedLine line{-h, x2 + x2 + x2, e - b};
  t->x = a * (b - f);
  t->y = g.Square() - (e2 + e2 + e2);
  t->z = b * h;
  return line;
}

// T <- T + Q for affine Q = (qx, qy), returning the line through T and Q.
// With theta = Y - qy Z and lambda = X - qx Z the affine line
//   py - (theta/lambda) px w + ((theta/lambda) qx - qy) v w
// times lambda is lambda py - theta px w + (theta qx - lambda qy) v w.
G2PreparedLine AdditionStep(TwistPoint* t, const Fp2& qx, const Fp2& qy) {
  Fp2 theta = t->y - qy * t->z;
  Fp2 lambda = t->x - qx * t->z;
  Fp2 c = theta.Square();
  Fp2 d = lambda.Square();
  Fp2 e = lambda * d;
  Fp2 f = t->z * c;
  Fp2 g = t->x * d;
  Fp2 h = e + f - g.Double();
  G2PreparedLine line{lambda, -theta, theta * qx - lambda * qy};
  t->x = lambda * h;
  t->y = theta * (g - h) - t->y * e;
  t->z = t->z * e;
  return line;
}

// psi coefficients: the Frobenius of an untwisted coordinate x w^2 is
// conj(x) xi^((p-1)/3) w^2 (and conj(y) xi^((p-1)/2) w^3 for the y side),
// so on the twist psi(x, y) = (c_x conj(x), c_y conj(y)).
const Fp2& PsiCoeffX() {
  static const Fp2 c =
      Xi().Pow((Fq::params().modulus_big - BigUInt(1)) / BigUInt(3));
  return c;
}

const Fp2& PsiCoeffY() {
  static const Fp2 c =
      Xi().Pow((Fq::params().modulus_big - BigUInt(1)) / BigUInt(2));
  return c;
}

// psi on one coordinate of a twist point.
Fp2 PsiX(const Fp2& x) { return x.Conjugate() * PsiCoeffX(); }
Fp2 PsiY(const Fp2& y) { return y.Conjugate() * PsiCoeffY(); }

}  // namespace

Fp2 Bn254G2Config::B() {
  static const Fp2 b = Fp2{Fq::FromU64(3), Fq::Zero()} * Xi().Inverse();
  return b;
}

const BigUInt& Bn254Order() {
  static const BigUInt r = Fr::params().modulus_big;
  return r;
}

G1 G1Generator() { return G1::FromAffine(Fq::FromU64(1), Fq::FromU64(2)); }

G2 G2Generator() {
  Fp2 x{Fq::FromBigUInt(BigUInt::FromDecimal(
            "10857046999023057135944570762232829481370756359578518086990519993285655852781")),
        Fq::FromBigUInt(BigUInt::FromDecimal(
            "11559732032986387107991004021392285783925812861821192530917403151452391805634"))};
  Fp2 y{Fq::FromBigUInt(BigUInt::FromDecimal(
            "8495653923123431417604973247489272438418190587263600148770280649306958101930")),
        Fq::FromBigUInt(BigUInt::FromDecimal(
            "4082367875863433681332203403145435568316851327593401208105741076214120093531"))};
  return G2::FromAffine(x, y);
}

bool G1InSubgroup(const G1& p) {
  // Cofactor 1: every point satisfying the curve equation is in the group.
  return p.IsOnCurve();
}

G2 G2Psi(const G2& p) {
  if (p.IsInfinity()) {
    return G2::Infinity();
  }
  // Conjugation is a field automorphism, so it commutes with the Jacobian
  // projection (X/Z^2, Y/Z^3); scaling X by c_x and Y by c_y in Jacobian
  // coordinates applies the affine psi without an inversion.
  return {PsiX(p.x), PsiY(p.y), p.z.Conjugate()};
}

const BigUInt& Bn254PsiEigenvalue() {
  // t - 1 = 6u^2 for the BN trace t = 6u^2 + 1; this is the eigenvalue of
  // psi on the order-r subgroup, as an integer below r.
  static const BigUInt e = [] {
    BigUInt u(kBnU);
    return u * u * BigUInt(6);
  }();
  return e;
}

bool G2InSubgroup(const G2& p) {
  if (!p.IsOnCurve()) {
    return false;
  }
  if (p.IsInfinity()) {
    return true;
  }
  // Soundness: psi satisfies its characteristic equation
  //   psi^2 - [t] psi + [p] = 0
  // on all of E'(Fp2). If psi(P) = [6u^2]P then substituting gives
  // [36u^4 - 6u^2 t + p]P = O, and with t = 6u^2 + 1 the scalar collapses
  // to p - 6u^2 = r, so P has order dividing the prime r. Completeness: on
  // the order-r subgroup psi acts as [p mod r] = [6u^2]. Differentially
  // tested against G2InSubgroupReference.
  return G2Psi(p).Equals(p.ScalarMul(Bn254PsiEigenvalue()));
}

bool G2InSubgroupReference(const G2& p) {
  return p.IsOnCurve() && p.ScalarMul(Bn254Order()).IsInfinity();
}

namespace {

// Steps the running point T of one G2 argument through the schedule,
// returning each step's line.
class TwistStepper {
 public:
  explicit TwistStepper(const G2::Affine& q) : q_(q), t_{q.x, q.y, Fp2::One()} {}

  G2PreparedLine Next(LineStep step) {
    switch (step) {
      case LineStep::kDouble:
        return DoublingStep(&t_);
      case LineStep::kAddQ:
        return AdditionStep(&t_, q_.x, q_.y);
      case LineStep::kAddNegQ:
        return AdditionStep(&t_, q_.x, -q_.y);
      case LineStep::kAddPiQ:
        return AdditionStep(&t_, PsiX(q_.x), PsiY(q_.y));
      case LineStep::kAddNegPi2Q:
        return AdditionStep(&t_, PsiX(PsiX(q_.x)), -PsiY(PsiY(q_.y)));
    }
    NOPE_INVARIANT(false, "unknown Miller-loop step");
    return {};
  }

 private:
  G2::Affine q_;
  TwistPoint t_;
};

// f * line(p): the line's coefficients evaluated at the affine G1 point and
// multiplied in sparsely.
Fp12 MulByLine(const Fp12& f, const G2PreparedLine& line, const G1::Affine& p) {
  return f.MulBy034(line.ell_0.ScalarMul(p.y), line.ell_vw.ScalarMul(p.x), line.ell_vv);
}

// a^u for a in the cyclotomic subgroup, over the non-adjacent form of u (63
// digits, 24 nonzero, against 28 set bits); a^-1 is the conjugate there.
Fp12 CyclotomicExpByU(const Fp12& a) {
  static const std::vector<int> naf = Naf(kBnU);
  const Fp12 a_inv = a.Conjugate();
  Fp12 r = a;
  for (size_t i = naf.size() - 1; i-- > 0;) {
    r = r.CyclotomicSquare();
    if (naf[i] != 0) {
      r = r * (naf[i] > 0 ? a : a_inv);
    }
  }
  return r;
}

}  // namespace

Fp12 MultiMillerLoop(const std::vector<std::pair<G1, G2>>& pairs,
                     const std::vector<std::pair<G1, const G2Prepared*>>& prepared) {
  const std::vector<LineStep>& schedule = AteSchedule();
  // Terms with an infinity argument contribute 1 and are dropped. The G1
  // points of the on-the-fly terms come first, then those of the prepared
  // terms.
  std::vector<G1> g1s;
  std::vector<G2> g2s;
  std::vector<const G2Prepared*> tables;
  for (const auto& [p, q] : pairs) {
    if (!p.IsInfinity() && !q.IsInfinity()) {
      g1s.push_back(p);
      g2s.push_back(q);
    }
  }
  for (const auto& [p, q] : prepared) {
    if (!p.IsInfinity() && !q->infinity) {
      NOPE_INVARIANT(q->lines.size() == schedule.size(),
                     "G2Prepared line schedule out of sync with the ate loop");
      g1s.push_back(p);
      tables.push_back(q);
    }
  }
  // One batched inversion per group puts every input in affine form.
  const std::vector<G1::Affine> ps = BatchToAffine(g1s);
  std::vector<TwistStepper> steppers;
  steppers.reserve(g2s.size());
  for (const G2::Affine& q : BatchToAffine(g2s)) {
    steppers.emplace_back(q);
  }

  const size_t fly = steppers.size();
  Fp12 f = Fp12::One();
  for (size_t k = 0; k < schedule.size(); ++k) {
    if (schedule[k] == LineStep::kDouble) {
      f = f.Square();
    }
    for (size_t i = 0; i < fly; ++i) {
      f = MulByLine(f, steppers[i].Next(schedule[k]), ps[i]);
    }
    for (size_t i = 0; i < tables.size(); ++i) {
      f = MulByLine(f, tables[i]->lines[k], ps[fly + i]);
    }
  }
  return f;
}

Fp12 MillerLoop(const G1& p, const G2& q) { return MultiMillerLoop({{p, q}}); }

Fp12 MillerLoop(const G1& p, const G2Prepared& q) { return MultiMillerLoop({}, {{p, &q}}); }

G2Prepared PrepareG2(const G2& q) {
  G2Prepared out;
  if (q.IsInfinity()) {
    return out;
  }
  out.infinity = false;
  const std::vector<LineStep>& schedule = AteSchedule();
  out.lines.reserve(schedule.size());
  TwistStepper stepper(q.ToAffine());
  for (LineStep step : schedule) {
    out.lines.push_back(stepper.Next(step));
  }
  return out;
}

Fp12 FinalExponentiation(const Fp12& f) {
  // Easy part: f^((p^6 - 1)(p^2 + 1)). Its image is the cyclotomic
  // subgroup, where conjugation is inversion and CyclotomicSquare applies.
  Fp12 t = f.Conjugate() * f.Inverse();
  t = t.Frobenius(2) * t;

  // Hard part: t^((p^4 - p^2 + 1)/r). For BN curves the exponent splits
  // exactly as l0 + l1 p + l2 p^2 + p^3 with
  //   l2 = 6u^2 + 1,
  //   l1 = -36u^3 - 18u^2 - 12u + 1,
  //   l0 = -36u^3 - 30u^2 - 18u - 2,
  // which Scott et al. ("On the final exponentiation for calculating
  // pairings on ordinary elliptic curves", 2009) write as
  //   y0 y1^2 y2^6 y3^12 y4^18 y5^30 y6^36
  // and evaluate with the short addition chain below. The power is exactly
  // the one the definition asks for, so the output is the reduced pairing
  // itself, not a fixed power of it.
  Fp12 fu = CyclotomicExpByU(t);
  Fp12 fu2 = CyclotomicExpByU(fu);
  Fp12 fu3 = CyclotomicExpByU(fu2);
  Fp12 y0 = t.Frobenius(1) * t.Frobenius(2) * t.Frobenius(3);  // t^(p + p^2 + p^3)
  Fp12 y1 = t.Conjugate();                                      // t^-1
  Fp12 y2 = fu2.Frobenius(2);                                   // t^(u^2 p^2)
  Fp12 y3 = fu.Frobenius(1).Conjugate();                        // t^(-u p)
  Fp12 y4 = (fu * fu2.Frobenius(1)).Conjugate();                // t^(-u - u^2 p)
  Fp12 y5 = fu2.Conjugate();                                    // t^(-u^2)
  Fp12 y6 = (fu3 * fu3.Frobenius(1)).Conjugate();               // t^(-u^3 - u^3 p)
  Fp12 t0 = y6.CyclotomicSquare() * y4 * y5;
  Fp12 t1 = y3 * y5 * t0;
  t0 = t0 * y2;
  t1 = (t1.CyclotomicSquare() * t0).CyclotomicSquare();
  t0 = t1 * y1;
  t1 = t1 * y0;
  return t0.CyclotomicSquare() * t1;
}

Fp12 Pairing(const G1& p, const G2& q) { return FinalExponentiation(MillerLoop(p, q)); }

bool PairingProductIsOne(const std::vector<std::pair<G1, G2>>& pairs) {
  return FinalExponentiation(MultiMillerLoop(pairs)).IsOne();
}

}  // namespace nope
