/**
 * @file
 * Deterministic pseudo-random number generation (splitmix64 seeding plus
 * xoshiro256** state). Every stochastic quantity in the project — weights,
 * sparsity patterns, synthetic datasets, harvester jitter — derives from a
 * Rng so that experiments are bit-reproducible across runs and platforms.
 */

#ifndef SONIC_UTIL_RNG_HH
#define SONIC_UTIL_RNG_HH

#include <cmath>
#include <cstring>
#include <string>

#include "util/types.hh"

namespace sonic
{

/**
 * splitmix64 finalizer: the project's standard 64-bit mixer for
 * deriving deterministic per-coordinate seeds (sweep specs, fleet
 * device assignments). Bijective, so distinct inputs cannot collide.
 */
inline u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * FNV-1a over a string: the name-coordinate hash (model names,
 * environment names) folded into seed derivations.
 */
inline u64
fnv1a(const std::string &name)
{
    u64 h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= static_cast<u64>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ull;
    }
    return h;
}

/** FNV-1a 64 offset basis: the seed of a fresh digest chain. */
inline constexpr u64 kDigestBasis = 0xcbf29ce484222325ull;

/**
 * Bit digest of f64 words, chained through h: the key of the eigen
 * memo and of the build-time factor and label tables. Each word's bit
 * pattern is xored in whole and multiplied by the FNV-1a prime (one
 * multiply per word, 8x fewer than FNV-1a over the bytes), then the
 * high half is folded down so that high bits reach the low bits too.
 * Each step is a bijection of h for a fixed word and injective in the
 * word for a fixed h, so two sequences that differ in one word (by an
 * ulp, or by the sign of a zero) always digest differently.
 */
inline u64
wordDigest(u64 word, u64 h)
{
    h = (h ^ word) * 0x100000001b3ull;
    return h ^ (h >> 32);
}

inline u64
wordDigest(const f64 *data, u64 count, u64 h = kDigestBasis)
{
    for (u64 i = 0; i < count; ++i) {
        u64 w = 0;
        std::memcpy(&w, data + i, sizeof w);
        h = wordDigest(w, h);
    }
    return h;
}

/**
 * Deterministic PRNG. Not cryptographic; chosen for reproducibility and
 * platform independence (no libc rand, no std::random distribution
 * variance across standard libraries).
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed via splitmix64 expansion. */
    explicit Rng(u64 seed = 0x9e3779b97f4a7c15ull)
    {
        u64 x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            u64 z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value (xoshiro256**). */
    u64
    next()
    {
        const u64 result = rotl(state_[1] * 5, 7) * 9;
        const u64 t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    f64
    uniform()
    {
        return static_cast<f64>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    f64
    uniform(f64 lo, f64 hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    u64
    below(u64 n)
    {
        return next() % n;
    }

    /** Uniform integer in [lo, hi]. */
    i64
    between(i64 lo, i64 hi)
    {
        return lo + static_cast<i64>(below(static_cast<u64>(hi - lo + 1)));
    }

    /** Standard normal via Box-Muller (deterministic branch). */
    f64
    gaussian()
    {
        if (haveSpare_) {
            haveSpare_ = false;
            return spare_;
        }
        f64 u1 = uniform();
        f64 u2 = uniform();
        if (u1 < 1e-300)
            u1 = 1e-300;
        const f64 r = std::sqrt(-2.0 * std::log(u1));
        const f64 theta = 2.0 * 3.14159265358979323846 * u2;
        spare_ = r * std::sin(theta);
        haveSpare_ = true;
        return r * std::cos(theta);
    }

    /** Gaussian with the given mean and standard deviation. */
    f64
    gaussian(f64 mean, f64 stddev)
    {
        return mean + stddev * gaussian();
    }

    /** Bernoulli draw with probability p of true. */
    bool
    bernoulli(f64 p)
    {
        return uniform() < p;
    }

    /** Derive an independent stream for a named sub-component. */
    Rng
    fork(u64 stream) const
    {
        Rng child(*this);
        // Mix the stream id into every state word so forks diverge.
        for (auto &word : child.state_)
            word ^= (stream + 0x632be59bd9b4e019ull) * 0xd1342543de82ef95ull;
        child.next();
        child.next();
        return child;
    }

  private:
    static u64
    rotl(u64 x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    u64 state_[4] = {};
    bool haveSpare_ = false;
    f64 spare_ = 0.0;
};

} // namespace sonic

#endif // SONIC_UTIL_RNG_HH
