#include "src/ff/fp.h"

#include <stdexcept>

namespace nope {

FpParams ComputeFpParams(const BigUInt& modulus) {
  if (!modulus.IsOdd() || modulus.BitLength() > 256) {
    throw std::invalid_argument("Fp modulus must be odd and at most 256 bits");
  }
  FpParams out;
  out.modulus_big = modulus;
  out.modulus_minus_2 = modulus - BigUInt(2);

  BigUInt r = BigUInt(1) << 256;
  out.one = fp_detail::ToLimbs(r % modulus);
  out.r2 = fp_detail::ToLimbs((r * r) % modulus);
  return out;
}

}  // namespace nope
