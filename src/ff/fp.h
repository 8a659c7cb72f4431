// Fixed-width (256-bit, 4x64-limb) prime fields in Montgomery form.
//
// One template serves all four moduli the system needs: BN254's base and
// scalar fields (Groth16 back-end, §2.3 of the paper) and P-256's base field
// and group order (DNSSEC ECDSA, §5). Multiplication is textbook CIOS, which
// is valid for any odd modulus below 2^256 (P-256's prime is close to 2^256,
// so the extra carry limb matters).
#ifndef SRC_FF_FP_H_
#define SRC_FF_FP_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "src/base/biguint.h"
#include "src/base/bytes.h"
#include "src/base/check.h"
#include "src/ff/fp_simd.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace nope {

// Runtime-derived constants; the limb modulus and the Montgomery constant
// are compile-time members of Fp (kModulus, kInv).
struct FpParams {
  std::array<uint64_t, 4> r2;   // R^2 mod p, R = 2^256
  std::array<uint64_t, 4> one;  // R mod p (Montgomery form of 1)
  BigUInt modulus_big;
  BigUInt modulus_minus_2;  // exponent for Fermat inversion
};

FpParams ComputeFpParams(const BigUInt& modulus);

namespace fp_detail {
using uint128 = unsigned __int128;

inline std::array<uint64_t, 4> ToLimbs(const BigUInt& v) {
  const auto& limbs = v.limbs();
  // BigUInt is normalized (no leading zero limbs), so a fifth limb means
  // v >= 2^256 and the copy below would silently drop its top bits. Every
  // caller must reduce first.
  NOPE_INVARIANT(limbs.size() <= 4, "ToLimbs: value does not fit in 4 limbs");
  std::array<uint64_t, 4> out{0, 0, 0, 0};
  for (size_t i = 0; i < limbs.size(); ++i) {
    out[i] = limbs[i];
  }
  return out;
}

inline BigUInt FromLimbs(const std::array<uint64_t, 4>& limbs) {
  return BigUInt::FromLimbsLE(limbs.data(), 4);
}

// a + b + *carry with the carry-out written back to *carry (0 or 1), in
// portable C++. Compiled on every platform so tests can compare it with
// AddCarry; it is what AddCarry runs off x86-64.
inline uint64_t AddCarryPortable(uint64_t a, uint64_t b, unsigned char* carry) {
  uint128 sum = static_cast<uint128>(a) + b + *carry;
  *carry = static_cast<unsigned char>(sum >> 64);
  return static_cast<uint64_t>(sum);
}

// a - b - *borrow with the borrow-out written back to *borrow (0 or 1).
inline uint64_t SubBorrowPortable(uint64_t a, uint64_t b, unsigned char* borrow) {
  uint128 diff = static_cast<uint128>(a) - b - *borrow;
  *borrow = static_cast<unsigned char>((diff >> 64) & 1);
  return static_cast<uint64_t>(diff);
}

// The carry chains of Fp add/sub. On x86-64 they use the adc/sbb
// intrinsics: gcc compiles the 128-bit form above into two-word adds with
// register spills; the intrinsics cut handshake_nope's median operation
// time by ~25% (EXPERIMENTS.md, "Carry intrinsics"). Same words either way.
inline uint64_t AddCarry(uint64_t a, uint64_t b, unsigned char* carry) {
#if defined(__x86_64__)
  unsigned long long out;
  *carry = _addcarry_u64(*carry, a, b, &out);
  return out;
#else
  return AddCarryPortable(a, b, carry);
#endif
}

inline uint64_t SubBorrow(uint64_t a, uint64_t b, unsigned char* borrow) {
#if defined(__x86_64__)
  unsigned long long out;
  *borrow = _subborrow_u64(*borrow, a, b, &out);
  return out;
#else
  return SubBorrowPortable(a, b, borrow);
#endif
}

// Compile-time limbs of a decimal string below 2^256.
constexpr std::array<uint64_t, 4> DecimalLimbs(const char* s) {
  std::array<uint64_t, 4> v{0, 0, 0, 0};
  for (; *s != '\0'; ++s) {
    uint128 carry = static_cast<uint128>(*s - '0');
    for (int i = 0; i < 4; ++i) {
      uint128 cur = static_cast<uint128>(v[i]) * 10 + carry;
      v[i] = static_cast<uint64_t>(cur);
      carry = cur >> 64;
    }
  }
  return v;
}

// -p^{-1} mod 2^64 for odd p0, by Newton iteration on 64-bit words.
constexpr uint64_t NegInverse64(uint64_t p0) {
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - p0 * inv;
  }
  return ~inv + 1;
}
}  // namespace fp_detail

// Tag must provide: static constexpr const char* ModulusDecimal();
template <typename Tag>
class Fp {
 public:
  Fp() : limbs_{0, 0, 0, 0} {}

  // The modulus and Montgomery constant are compile-time constants, so the
  // add/sub/multiply kernels read immediates; params() holds the rest.
  static constexpr std::array<uint64_t, 4> kModulus =
      fp_detail::DecimalLimbs(Tag::ModulusDecimal());
  static constexpr uint64_t kInv = fp_detail::NegInverse64(kModulus[0]);

  static const FpParams& params() {
    static const FpParams p = ComputeFpParams(BigUInt::FromDecimal(Tag::ModulusDecimal()));
    return p;
  }

  static Fp Zero() { return Fp(); }
  static Fp One() {
    Fp out;
    out.limbs_ = params().one;
    return out;
  }

  static Fp FromU64(uint64_t v) { return FromBigUInt(BigUInt(v)); }

  static Fp FromBigUInt(const BigUInt& v) {
    BigUInt reduced = v % params().modulus_big;
    Fp out;
    out.limbs_ = fp_detail::ToLimbs(reduced);
    out.limbs_ = MontMul(out.limbs_, params().r2);
    return out;
  }

  static Fp Random(Rng* rng) {
    return FromBigUInt(BigUInt::RandomBelow(rng, params().modulus_big));
  }

  BigUInt ToBigUInt() const {
    std::array<uint64_t, 4> std_form = MontMul(limbs_, {1, 0, 0, 0});
    return fp_detail::FromLimbs(std_form);
  }

  bool IsZero() const { return limbs_[0] == 0 && limbs_[1] == 0 && limbs_[2] == 0 && limbs_[3] == 0; }

  bool operator==(const Fp& o) const { return limbs_ == o.limbs_; }
  bool operator!=(const Fp& o) const { return !(*this == o); }

  // Add/sub are branchless: the value-dependent compare-and-correct is done
  // with borrow masks instead of branches. These run in the MSM batch-affine
  // fold loops on effectively random field elements, where a 50/50 branch
  // mispredicts every other call and costs more than the whole subtraction.
  Fp operator+(const Fp& o) const {
    using fp_detail::AddCarry;
    using fp_detail::SubBorrow;
    Fp out;
    unsigned char carry = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      out.limbs_[i] = AddCarry(limbs_[i], o.limbs_[i], &carry);
    }
    // d = (a + b) - p; keep it unless the subtraction borrowed past the
    // carry-out (i.e. a + b < p).
    std::array<uint64_t, 4> d;
    unsigned char borrow = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      d[i] = SubBorrow(out.limbs_[i], kModulus[i], &borrow);
    }
    const uint64_t mask = 0 - static_cast<uint64_t>(carry | (borrow ^ 1));
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      out.limbs_[i] = (d[i] & mask) | (out.limbs_[i] & ~mask);
    }
    return out;
  }

  Fp operator-(const Fp& o) const {
    using fp_detail::AddCarry;
    using fp_detail::SubBorrow;
    Fp out;
    unsigned char borrow = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      out.limbs_[i] = SubBorrow(limbs_[i], o.limbs_[i], &borrow);
    }
    // If a < b the wrapped difference is off by exactly 2^256 - p; adding
    // p (masked by the final borrow) lands on a - b + p < p.
    const uint64_t mask = 0 - static_cast<uint64_t>(borrow);
    unsigned char carry = 0;
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      out.limbs_[i] = AddCarry(out.limbs_[i], kModulus[i] & mask, &carry);
    }
    return out;
  }

  Fp operator-() const { return Zero() - *this; }

  Fp operator*(const Fp& o) const {
    Fp out;
    out.limbs_ = MontMul(limbs_, o.limbs_);
    return out;
  }

  Fp Square() const { return *this * *this; }

  Fp Double() const { return *this + *this; }

  Fp Pow(const BigUInt& exp) const {
    Fp result = One();
    Fp base = *this;
    for (size_t i = exp.BitLength(); i-- > 0;) {
      result = result.Square();
      if (exp.Bit(i)) {
        result = result * base;
      }
    }
    return result;
  }

  // Fermat inversion; returns zero for zero input (callers check).
  Fp Inverse() const { return Pow(params().modulus_minus_2); }

  const std::array<uint64_t, 4>& limbs() const { return limbs_; }

  std::string ToString() const { return ToBigUInt().ToDecimal(); }

  // --- Batch (SIMD-dispatched) operations ---------------------------------
  //
  // out[i] = a[i] * b[i] for i in [0, n). The lane-aligned prefix goes
  // through the process-wide SIMD backend (src/ff/fp_simd.h); the tail uses
  // the scalar CIOS path. Outputs are bit-identical either way, so callers
  // never need to care which kernel ran. Elementwise aliasing (out == a,
  // out == b) is allowed.
  static void MulBatch(const Fp* a, const Fp* b, Fp* out, size_t n) {
    static_assert(sizeof(Fp) == 4 * sizeof(uint64_t),
                  "batch kernels assume Fp is 4 packed limbs");
    static_assert(std::is_standard_layout<Fp>::value,
                  "batch kernels reinterpret Fp arrays as limb arrays");
    const fp_simd::Backend& be = fp_simd::ActiveBackend();
    const size_t main = be.mont_mul == nullptr ? 0 : n - n % be.lanes;
    if (main != 0) {
      be.mont_mul(reinterpret_cast<const uint64_t*>(a),
                  reinterpret_cast<const uint64_t*>(b),
                  reinterpret_cast<uint64_t*>(out), main,
                  kModulus.data(), kInv);
    }
    for (size_t i = main; i < n; ++i) {
      out[i].limbs_ = MontMul(a[i].limbs_, b[i].limbs_);
    }
  }

  static void SquareBatch(const Fp* a, Fp* out, size_t n) {
    MulBatch(a, a, out, n);
  }

  // Montgomery -> standard form for n elements (the batch analogue of the
  // conversion inside ToBigUInt): out[i] = in[i] * 2^-256 mod p.
  static void ToStdLimbsBatch(const Fp* in, std::array<uint64_t, 4>* out,
                              size_t n) {
    constexpr size_t kBlock = 64;
    Fp ones[kBlock];
    Fp res[kBlock];
    for (size_t i = 0; i < kBlock; ++i) {
      ones[i].limbs_ = {1, 0, 0, 0};  // raw 1: MontMul(x, 1) leaves Montgomery form
    }
    for (size_t base = 0; base < n; base += kBlock) {
      const size_t len = n - base < kBlock ? n - base : kBlock;
      MulBatch(in + base, ones, res, len);
      for (size_t i = 0; i < len; ++i) {
        out[base + i] = res[i].limbs_;
      }
    }
  }

  // Adopts raw Montgomery-form limbs (test and differential-harness hook).
  static Fp FromMontLimbs(const std::array<uint64_t, 4>& limbs) {
    NOPE_INVARIANT(!GreaterEqual(limbs, kModulus),
                   "FromMontLimbs: limbs must be canonical (< p)");
    Fp out;
    out.limbs_ = limbs;
    return out;
  }

  // Lane width / name of the process-wide SIMD backend (1 / "scalar" when
  // vector kernels are compiled out, disabled, or unsupported by the CPU).
  static size_t SimdLanes() { return fp_simd::ActiveBackend().lanes; }
  static const char* SimdBackendName() { return fp_simd::ActiveBackend().name; }

 private:
  static bool GreaterEqual(const std::array<uint64_t, 4>& a, const std::array<uint64_t, 4>& b) {
    for (int i = 3; i >= 0; --i) {
      if (a[i] != b[i]) {
        return a[i] > b[i];
      }
    }
    return true;
  }

  static std::array<uint64_t, 4> MontMul(const std::array<uint64_t, 4>& a,
                                         const std::array<uint64_t, 4>& b) {
    using fp_detail::uint128;
    uint64_t t[6] = {0, 0, 0, 0, 0, 0};
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      // Multiplication step: t += a * b[i].
      uint128 carry = 0;
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) {
        uint128 cur = static_cast<uint128>(a[j]) * b[i] + t[j] + carry;
        t[j] = static_cast<uint64_t>(cur);
        carry = cur >> 64;
      }
      uint128 cur = static_cast<uint128>(t[4]) + carry;
      t[4] = static_cast<uint64_t>(cur);
      t[5] = static_cast<uint64_t>(cur >> 64);

      // Reduction step: make t divisible by 2^64.
      uint64_t m = t[0] * kInv;
      uint128 red = static_cast<uint128>(m) * kModulus[0] + t[0];
      carry = red >> 64;
#pragma GCC unroll 4
      for (int j = 1; j < 4; ++j) {
        uint128 c2 = static_cast<uint128>(m) * kModulus[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(c2);
        carry = c2 >> 64;
      }
      uint128 c3 = static_cast<uint128>(t[4]) + carry;
      t[3] = static_cast<uint64_t>(c3);
      t[4] = t[5] + static_cast<uint64_t>(c3 >> 64);
    }

    // t < 2p. Final conditional subtraction of p, branchless as in
    // operator+: keep t - p unless it borrowed past the carry word (t < p).
    std::array<uint64_t, 4> out;
    unsigned char borrow = 0;
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      out[j] = fp_detail::SubBorrow(t[j], kModulus[j], &borrow);
    }
    const uint64_t mask = 0 - (t[4] | static_cast<uint64_t>(borrow ^ 1));
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) {
      out[j] = (out[j] & mask) | (t[j] & ~mask);
    }
    return out;
  }

  std::array<uint64_t, 4> limbs_;
};

// --- Concrete fields -------------------------------------------------------

struct Bn254FqTag {
  static constexpr const char* ModulusDecimal() {
    return "21888242871839275222246405745257275088696311157297823662689037894645226208583";
  }
};

struct Bn254FrTag {
  static constexpr const char* ModulusDecimal() {
    return "21888242871839275222246405745257275088548364400416034343698204186575808495617";
  }
};

struct P256FqTag {
  static constexpr const char* ModulusDecimal() {
    return "115792089210356248762697446949407573530086143415290314195533631308867097853951";
  }
};

struct P256FnTag {
  static constexpr const char* ModulusDecimal() {
    return "115792089210356248762697446949407573529996955224135760342422259061068512044369";
  }
};

using Fq = Fp<Bn254FqTag>;    // BN254 base field
using Fr = Fp<Bn254FrTag>;    // BN254 scalar field (R1CS constraint field)
using P256Fq = Fp<P256FqTag>; // P-256 base field
using P256Fn = Fp<P256FnTag>; // P-256 group order field

// --- Generic batch helpers -------------------------------------------------
//
// Templated batch consumers (batch inversion, MSM bucket folds) run over
// both the prime fields above and composite fields like Fp2 that have no
// SIMD batch API. These helpers dispatch to the field's batch entry points
// when they exist and fall back to elementwise operations otherwise.

template <typename F, typename = void>
struct FieldHasBatchOps : std::false_type {};
template <typename F>
struct FieldHasBatchOps<
    F, std::void_t<decltype(F::MulBatch(static_cast<const F*>(nullptr),
                                        static_cast<const F*>(nullptr),
                                        static_cast<F*>(nullptr), size_t{0}))>>
    : std::true_type {};

template <typename F>
inline void FieldMulBatch(const F* a, const F* b, F* out, size_t n) {
  if constexpr (FieldHasBatchOps<F>::value) {
    F::MulBatch(a, b, out, n);
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = a[i] * b[i];
    }
  }
}

template <typename F>
inline void FieldSquareBatch(const F* a, F* out, size_t n) {
  if constexpr (FieldHasBatchOps<F>::value) {
    F::SquareBatch(a, out, n);
  } else {
    for (size_t i = 0; i < n; ++i) {
      out[i] = a[i].Square();
    }
  }
}

template <typename F>
inline size_t FieldSimdLanes() {
  if constexpr (FieldHasBatchOps<F>::value) {
    return F::SimdLanes();
  } else {
    return 1;
  }
}

}  // namespace nope

#endif  // SRC_FF_FP_H_
