/**
 * @file
 * The oracle's built-in verification workload.
 *
 * Golden digest files (tests/golden/) are committed to git and checked
 * on every CI host, so the workload they digest must be bit-stable
 * across machines and C libraries. The networks in src/dnn draw their
 * weights through libm (Box-Muller gaussians), whose last-ulp behavior
 * is implementation-defined; a weight landing exactly on a Q7.8
 * rounding boundary could flip a digest between hosts. goldenNet()
 * sidesteps the problem: it mirrors the all-layer-kinds shape of the
 * test suite's tiny network but draws every weight and input as a
 * dyadic rational k/256 straight from integer Rng output — exactly
 * representable in both f64 and Q7.8, so flashing quantizes exactly
 * and every simulated value is platform-independent by construction.
 */

#ifndef SONIC_VERIFY_WORKLOAD_HH
#define SONIC_VERIFY_WORKLOAD_HH

#include "dnn/spec.hh"
#include "util/types.hh"

namespace sonic::verify
{

/** goldenNet's default seed (the zoo's "golden" row is built at it). */
inline constexpr u64 kGoldenSeed = 0x601d;

/**
 * Tiny all-layer-kinds network (factored conv with pool, pruned 2-D
 * conv, sparse FC, dense FC; input 1x8x8, 4 classes) with dyadic
 * integer-derived weights. Deterministic for a given seed on every
 * platform.
 */
dnn::NetworkSpec goldenNet(u64 seed = kGoldenSeed);

/** A deterministic Q7.8 input for goldenNet (raw values). */
std::vector<i16> goldenInput(u64 seed = 0x1ca7e);

} // namespace sonic::verify

#endif // SONIC_VERIFY_WORKLOAD_HH
