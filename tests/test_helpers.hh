/**
 * @file
 * Shared fixtures for kernel/integration tests: a tiny network that
 * exercises every device layer kind (factored conv with all stages,
 * pooling, pruned 2-D conv, sparse FC, dense FC) quickly enough for
 * exhaustive failure-injection sweeps.
 */

#ifndef SONIC_TESTS_TEST_HELPERS_HH
#define SONIC_TESTS_TEST_HELPERS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "dnn/spec.hh"
#include "fixed/fixed.hh"
#include "tensor/sparse.hh"
#include "util/rng.hh"

namespace sonic::testutil
{

/**
 * Relative tolerance for comparing simulated energy/time totals that
 * were accumulated in different batching orders.
 *
 * Origin: PR 2's bulk charging books an n-element span as cost * n
 * (one f64 multiply) where per-element accounting summed cost n times
 * (n rounded additions), and per-layer/per-op report rows re-sum the
 * same buckets in a different association than the global total. Both
 * are pure f64 reassociation effects: logits, cycle counts and op
 * counts stay bit-exact. The largest observed instance is TAILS'
 * batched LEA format shifts, which drift the end-to-end energy total
 * by ~2e-16 relative against the per-op accumulation sequence; sums
 * over a few hundred report rows are bounded by ~n * 2^-52. 1e-12
 * covers every in-repo comparison of this class with orders of
 * magnitude to spare while still catching any real accounting bug
 * (the smallest charged op is ~1e-9 of a run's total).
 *
 * Use this named constant — not an ad-hoc epsilon — wherever two
 * accounting paths for the *same* simulated work are compared.
 */
inline constexpr f64 kBatchedEnergyRelTol = 1e-12;

/** Tiny all-layer-kinds network: input 1x8x8, 4 classes. */
inline dnn::NetworkSpec
tinyNet(u64 seed = 0x7e57)
{
    Rng rng(seed);
    dnn::NetworkSpec net;
    net.name = "tiny";
    net.input = {1, 8, 8};
    net.numClasses = 4;

    // Factored conv: col(3) x row(3) -> 2 channels, relu, pool.
    dnn::FactoredConvLayer f;
    f.col = {0.4, -0.2, 0.3};
    f.row = {0.5, 0.1, -0.3};
    f.scale = {0.8, -0.6};
    net.layers.push_back({"conv1", std::move(f), true, true});
    // Now 2 x 3 x 3.

    // Pruned 2-D conv: 3 x 2 x 2 x 2, half the taps pruned.
    tensor::FilterBank bank(3, 2, 2, 2);
    for (auto &w : bank.data)
        w = rng.gaussian(0.0, 0.4);
    tensor::Tensor3 flat(3, 2, 4);
    flat.data() = bank.data;
    tensor::pruneToFraction(flat, 0.5);
    bank.data = flat.data();
    net.layers.push_back({"conv2", dnn::SparseConvLayer{bank}, true,
                          false});
    // Now 3 x 2 x 2 = 12.

    // Sparse FC 6 x 12 (40% kept), relu.
    tensor::Matrix sfc = tensor::Matrix::gaussian(6, 12, rng, 0.35);
    tensor::pruneToFraction(sfc, 0.4);
    net.layers.push_back({"fc", dnn::SparseFcLayer{sfc}, true, false});

    // Dense FC 4 x 6.
    tensor::Matrix dfc = tensor::Matrix::gaussian(4, 6, rng, 0.35);
    net.layers.push_back({"fc", dnn::DenseFcLayer{dfc}, false, false});
    return net;
}

/** A deterministic Q7.8 input for the tiny network. */
inline std::vector<i16>
tinyInput(u64 seed = 0xcafe)
{
    Rng rng(seed);
    std::vector<i16> input;
    for (u32 i = 0; i < 64; ++i)
        input.push_back(
            fixed::Q78::fromFloat(rng.uniform(-1.0, 1.0)).raw());
    return input;
}

/** FNV-1a 64 offset basis: the seed of a fresh bitDigest chain. */
inline constexpr u64 kDigestBasis = 0xcbf29ce484222325ull;

/**
 * FNV-1a over raw bytes, chained through h. Folding the bytes (not the
 * values) makes the digest a bit-exact pin: an f64 that moves by one
 * ulp, or flips the sign of a zero, changes it.
 */
inline u64
bitDigest(const void *data, std::size_t bytes, u64 h = kDigestBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

inline u64
bitDigest(const std::vector<f64> &v, u64 h = kDigestBasis)
{
    return bitDigest(v.data(), v.size() * sizeof(f64), h);
}

inline u64
bitDigest(const std::string &s, u64 h = kDigestBasis)
{
    return bitDigest(s.data(), s.size(), h);
}

} // namespace sonic::testutil

#endif // SONIC_TESTS_TEST_HELPERS_HH
