#include "ref_chunk.h"

#include <atomic>
#include <chrono>
#include <cstdint>

namespace perfbench {
namespace {

constexpr int kRounds = 1000;  // 12 elements, so 12 000 multiplications

// A result folded in here stays live, so the loop is not optimized away.
std::atomic<uint64_t> g_sink{0};

// CIOS Montgomery multiplication modulo the BN254 base prime: the instruction
// mix of the library's field arithmetic, on operands in registers and L1.
void MontMul(const uint64_t* a, const uint64_t* b, uint64_t* out) {
  using u128 = unsigned __int128;
  static constexpr uint64_t kP[4] = {0x3c208c16d87cfd47ULL, 0x97816a916871ca8dULL,
                                     0xb85045b68181585dULL, 0x30644e72e131a029ULL};
  static constexpr uint64_t kInv = 0x87d20782e4866389ULL;  // -p^-1 mod 2^64
  uint64_t t[6] = {0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    u128 c = 0;
    for (int j = 0; j < 4; ++j) {
      c += static_cast<u128>(a[j]) * b[i] + t[j];
      t[j] = static_cast<uint64_t>(c);
      c >>= 64;
    }
    c += t[4];
    t[4] = static_cast<uint64_t>(c);
    t[5] = static_cast<uint64_t>(c >> 64);
    uint64_t m = t[0] * kInv;
    c = (static_cast<u128>(m) * kP[0] + t[0]) >> 64;
    for (int j = 1; j < 4; ++j) {
      c += static_cast<u128>(m) * kP[j] + t[j];
      t[j - 1] = static_cast<uint64_t>(c);
      c >>= 64;
    }
    c += t[4];
    t[3] = static_cast<uint64_t>(c);
    t[4] = t[5] + static_cast<uint64_t>(c >> 64);
  }
  for (int j = 0; j < 4; ++j) {
    out[j] = t[j];
  }
}

}  // namespace

double RefChunkMs() {
  thread_local uint64_t state[12][4];
  thread_local bool seeded = false;
  if (!seeded) {
    for (int i = 0; i < 12; ++i) {
      for (int j = 0; j < 4; ++j) {
        state[i][j] = (i * 7919u + j * 104729u + 1) & 0x0fffffffffffffffULL;
      }
    }
    seeded = true;
  }
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < 12; ++i) {
      MontMul(state[i], state[(i + 1) % 12], state[i]);
    }
  }
  double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
  g_sink.fetch_xor(state[3][1], std::memory_order_relaxed);
  return ms;
}

const char* RefChunkBuild() { return PERFBENCH_REF_CHUNK_BUILD; }

}  // namespace perfbench
