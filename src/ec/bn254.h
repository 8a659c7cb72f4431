// BN254 (alt_bn128) groups G1, G2 and the optimal ate pairing. This is the
// proof-system curve: Groth16 proofs live in G1/G2 and verification is a
// product-of-pairings check in Fp12 (§2.3 of the paper).
#ifndef SRC_EC_BN254_H_
#define SRC_EC_BN254_H_

#include <utility>
#include <vector>

#include "src/ec/curve.h"
#include "src/ff/fp12.h"

namespace nope {

struct Bn254G1Config {
  using Field = Fq;
  static Field A() { return Fq::Zero(); }
  static Field B() { return Fq::FromU64(3); }
};

struct Bn254G2Config {
  using Field = Fp2;
  static Field A() { return Fp2::Zero(); }
  static Field B();  // 3 / (9 + u), the D-twist constant.
};

using G1 = EcPoint<Bn254G1Config>;
using G2 = EcPoint<Bn254G2Config>;
using G1Affine = AffinePoint<Bn254G1Config>;
using G2Affine = AffinePoint<Bn254G2Config>;

// Group order (same prime as Fr's modulus).
const BigUInt& Bn254Order();

G1 G1Generator();
G2 G2Generator();

// The untwist-Frobenius-twist endomorphism psi on the twist E'(Fp2):
//   psi(x, y) = (c_x * conj(x), c_y * conj(y))
// with c_x = xi^((p-1)/3), c_y = xi^((p-1)/2). On the order-r subgroup psi
// acts as multiplication by the Frobenius eigenvalue p === 6u^2 (mod r),
// where u is the BN parameter; outside it the eigenvalue relation fails,
// which is what makes the fast subgroup check below sound.
G2 G2Psi(const G2& p);

// 6u^2 = t - 1 for the BN trace t: the eigenvalue of psi on G2 as an
// integer (it is < r, so no reduction is needed). Exposed for tests.
const BigUInt& Bn254PsiEigenvalue();

// Subgroup membership checks for deserialized (untrusted) points. BN254 G1
// has cofactor 1, so the curve equation alone proves membership; G2 sits on
// a twist with a large cofactor, so an explicit order-r membership check is
// required before feeding a decoded point into a pairing.
//
// G2InSubgroup is the fast path: on-curve plus psi(P) == [6u^2]P. The
// eigenvalue relation implies [r]P = O (see bn254.cc), and [6u^2] is a
// 127-bit scalar versus the 254-bit order, so the check costs roughly half
// a ScalarMul(r). G2InSubgroupReference is the direct order-r scalar
// multiplication, kept as the differential-testing reference.
bool G1InSubgroup(const G1& p);
bool G2InSubgroup(const G2& p);
bool G2InSubgroupReference(const G2& p);

// Optimal ate pairing e: G1 x G2 -> Fp12. Identity inputs map to 1.
//
// The Miller loop runs on the twist E'(Fp2) in homogeneous projective
// coordinates over a signed-digit form of 6u+2; each step emits its line as
// three Fp2 coefficients (G2PreparedLine), which are evaluated at the G1
// point and multiplied into the accumulator with a sparse Fp12 multiply.
// Every loop over several pairs shares one accumulator, so a product of k
// pairings pays one Fp12 squaring per loop bit, not k.
//
// Contract for degenerate inputs: MillerLoop (all variants) and Pairing
// return 1 when either argument is the point at infinity (such terms drop
// out of a multi-pair loop). That makes an infinity factor vanish from any
// pairing-product equation, so callers performing a soundness-critical
// product check MUST reject infinity inputs at their own boundary before
// calling in (groth16::Verify/BatchVerify do).
Fp12 Pairing(const G1& p, const G2& q);

// Miller loop without the final exponentiation. Its raw value depends on
// the loop's internal line scaling (by factors in proper subfields of Fp12,
// which the final exponentiation maps to 1); only FinalExponentiation of it
// is canonical.
Fp12 MillerLoop(const G1& p, const G2& q);

// Final exponentiation f^((p^12 - 1)/r): the easy part (p^6 - 1)(p^2 + 1),
// then the hard part (p^4 - p^2 + 1)/r = l0 + l1 p + l2 p^2 + p^3 as an
// exact chain of three exponentiations by u (Scott et al., 2009).
Fp12 FinalExponentiation(const Fp12& f);

// One line of the Miller loop with the G1 point left symbolic: evaluated at
// a G1 point (px, py) it is the sparse Fp12 element
//   ell_0 * py + ell_vw * px * w + ell_vv * v w,
// the affine line through the untwisted points scaled by a factor in Fp2.
struct G2PreparedLine {
  Fp2 ell_0;
  Fp2 ell_vw;
  Fp2 ell_vv;
};

// The line coefficients of MillerLoop(*, q) for a fixed q, in loop order:
// one per doubling, one per nonzero loop digit and two for the Frobenius
// correction steps. They are exactly the coefficients the on-the-fly loop
// computes, so replaying them is bit-identical to stepping q. The
// fixed-input G2 elements of a Groth16 verifying key (beta, gamma, delta)
// are prepared once per key and amortized over every verification.
struct G2Prepared {
  bool infinity = true;
  std::vector<G2PreparedLine> lines;

  size_t SizeBytes() const {
    return sizeof(*this) + lines.capacity() * sizeof(G2PreparedLine);
  }
};

G2Prepared PrepareG2(const G2& q);

// Miller loop consuming precomputed lines; bit-identical to
// MillerLoop(p, q) for q the point PrepareG2 was given (asserted by the
// differential tests). Same degenerate-input contract: returns 1 when p or
// the prepared point is infinity.
Fp12 MillerLoop(const G1& p, const G2Prepared& q);

// Product of the Miller loops of every (p, q) pair and every (p, prepared q)
// term, computed as one loop with a shared accumulator. Equal to the
// product of the individual MillerLoop values after FinalExponentiation.
Fp12 MultiMillerLoop(const std::vector<std::pair<G1, G2>>& pairs,
                     const std::vector<std::pair<G1, const G2Prepared*>>& prepared = {});

// Checks prod_i e(p_i, q_i) == 1 with one shared Miller loop and one final
// exponentiation.
bool PairingProductIsOne(const std::vector<std::pair<G1, G2>>& pairs);

}  // namespace nope

#endif  // SRC_EC_BN254_H_
