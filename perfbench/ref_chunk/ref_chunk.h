// Host-speed reference chunk of the NOPE benchmark.
//
// The measuring host is shared: neighbours slow every compute-bound loop on a
// vCPU by up to 2x, in phases lasting from a fraction of a second to minutes.
// A fixed reference chunk, timed next to the operations on the same thread,
// measures the host's current speed so the benchmark can express each time
// at a nominal host speed.
//
// The chunk is frozen: it is independent of the library, and its own
// CMakeLists.txt compiles it with fixed options that do not come from the
// repository's build, so no change to the library or its flags moves it.
// Changing the chunk, its flags or kRefNominalMs changes every normalized
// figure.
#ifndef PERFBENCH_REF_CHUNK_REF_CHUNK_H_
#define PERFBENCH_REF_CHUNK_REF_CHUNK_H_

namespace perfbench {

// On the nominal host one chunk takes 0.5 ms.
inline constexpr double kRefNominalMs = 0.5;

// Runs one chunk (12 000 4-limb Montgomery multiplications modulo the BN254
// base prime) on the calling thread; returns its wall time in ms.
double RefChunkMs();

// The compiler and options the chunk was built with.
const char* RefChunkBuild();

}  // namespace perfbench

#endif  // PERFBENCH_REF_CHUNK_REF_CHUNK_H_
