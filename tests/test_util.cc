/**
 * @file
 * Unit tests for util: deterministic RNG, table formatting, the
 * shortest-round-trip f64 formatter, and checked CLI number parsing.
 */

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>

#include "util/cli.hh"
#include "util/fmt.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace sonic
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const f64 u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const f64 u = rng.uniform(-2.5, 3.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 3.5);
    }
}

TEST(Rng, BelowStaysBelow)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const i64 v = rng.between(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsRoughlyStandard)
{
    Rng rng(11);
    f64 sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const f64 g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<f64>(hits) / n, 0.3, 0.03);
}

TEST(Rng, ForkIndependentStreams)
{
    Rng base(5);
    Rng a = base.fork(1);
    Rng b = base.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, ForkDeterministic)
{
    Rng a = Rng(5).fork(9);
    Rng b = Rng(5).fork(9);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Table, AlignsColumns)
{
    Table t({"a", "bb"});
    t.row().cell(std::string("x")).cell(u64{12});
    t.row().cell(std::string("longer")).cell(u64{3});
    const std::string s = t.str();
    EXPECT_NE(s.find("| a "), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CsvRoundTrip)
{
    Table t({"x", "y"});
    t.row().cell(u64{1}).cell(2.5, 1);
    EXPECT_EQ(t.csv(), "x,y\n1,2.5\n");
}

TEST(Table, FormatEnergyPicksUnit)
{
    EXPECT_EQ(formatEnergy(1.5), "1.500 J");
    EXPECT_EQ(formatEnergy(2e-3), "2.000 mJ");
    EXPECT_EQ(formatEnergy(3e-6), "3.000 uJ");
    EXPECT_EQ(formatEnergy(4e-9), "4.000 nJ");
}

TEST(Table, FormatSeconds)
{
    EXPECT_EQ(formatSeconds(2.0), "2.000 s");
    EXPECT_EQ(formatSeconds(0.5), "500.000 ms");
}

TEST(Table, AsciiBarClamps)
{
    EXPECT_EQ(asciiBar(0.0, 4), "....");
    EXPECT_EQ(asciiBar(1.0, 4), "####");
    EXPECT_EQ(asciiBar(2.0, 4), "####");
    EXPECT_EQ(asciiBar(0.5, 4), "##..");
}

TEST(FmtF64, ProducesShortestForms)
{
    EXPECT_EQ(fmtF64(0.0), "0");
    EXPECT_EQ(fmtF64(-0.0), "-0"); // the sign bit survives
    EXPECT_EQ(fmtF64(0.1), "0.1");
    EXPECT_EQ(fmtF64(86400.0), "86400");
    EXPECT_EQ(fmtF64(1e300), "1e+300");
    EXPECT_EQ(fmtF64(-2.5), "-2.5");
}

TEST(FmtF64, RoundTripsRandomBitPatterns)
{
    // The whole point of replacing precision(12): parsing the printed
    // digits must recover the exact bits. std::from_chars is a
    // correctly-rounded inverse (and, unlike std::stod, accepts
    // subnormals without raising range errors), so this closes the
    // loop.
    std::mt19937_64 rng(0xf64);
    for (u32 i = 0; i < 20000; ++i) {
        const f64 value = std::bit_cast<f64>(rng());
        if (!std::isfinite(value))
            continue;
        const std::string text = fmtF64(value);
        f64 reparsed = 0.0;
        const auto result = std::from_chars(
            text.data(), text.data() + text.size(), reparsed);
        ASSERT_EQ(result.ptr, text.data() + text.size()) << text;
        EXPECT_EQ(std::bit_cast<u64>(reparsed),
                  std::bit_cast<u64>(value))
            << text;
    }
    // The old formatter's concrete casualty class: close f64s that
    // agree in their first 12 significant digits stay distinct.
    const f64 a = 0.1234567890123456;
    const f64 b = std::nextafter(a, 1.0);
    EXPECT_NE(fmtF64(a), fmtF64(b));
}

TEST(ParseNumber, AcceptsWholeValuesInRange)
{
    EXPECT_EQ(cli::parseNumber<u32>("--n", "1", 1, 10), 1u);
    EXPECT_EQ(cli::parseNumber<u32>("--n", "10", 1, 10), 10u);
    EXPECT_EQ(cli::parseNumber<u32>("--n", "4294967295", 0, UINT32_MAX),
              UINT32_MAX);
    EXPECT_EQ(cli::parseNumber<u64>("--seed", "18446744073709551615", 0,
                                    UINT64_MAX),
              UINT64_MAX);
    EXPECT_EQ(cli::parseNumber<f64>("--h", "86400", 1e-3, 1e9), 86400.0);
    EXPECT_EQ(cli::parseNumber<f64>("--h", "2.5e3", 1e-3, 1e9), 2500.0);
}

TEST(ParseNumber, RejectsOverflowInsteadOfTruncating)
{
    // stoul + cast turned this into 1,215,752,191 devices.
    std::string error;
    EXPECT_EQ(cli::parseNumber<u32>("--devices", "99999999999999", 1,
                                    UINT32_MAX, &error),
              std::nullopt);
    EXPECT_EQ(error, "--devices expects an integer in [1, 4294967295], "
                     "got '99999999999999'");
    EXPECT_EQ(cli::parseNumber<u32>("--n", "4294967296", 0, UINT32_MAX),
              std::nullopt);
    EXPECT_EQ(cli::parseNumber<u64>("--n", "18446744073709551616", 0,
                                    UINT64_MAX),
              std::nullopt);
    EXPECT_EQ(cli::parseNumber<f64>("--h", "1e400", 0.0, 1e300),
              std::nullopt);
}

TEST(ParseNumber, RejectsOutOfRange)
{
    std::string error;
    EXPECT_EQ(cli::parseNumber<u32>("--devices", "0", 1, 10, &error),
              std::nullopt);
    EXPECT_EQ(error, "--devices expects an integer in [1, 10], got '0'");
    EXPECT_EQ(cli::parseNumber<u32>("--n", "11", 1, 10), std::nullopt);
    EXPECT_EQ(cli::parseNumber<f64>("--horizon", "-1", 1e-3, 1e9, &error),
              std::nullopt);
    EXPECT_EQ(error, "--horizon expects a finite number in [0.001, "
                     "1e+09], got '-1'");
    EXPECT_EQ(cli::parseNumber<f64>("--h", "0", 1e-3, 1e9), std::nullopt);
}

TEST(ParseNumber, RejectsNonFiniteAndMalformedText)
{
    const f64 big = std::numeric_limits<f64>::max();
    for (const char *bad : {"nan", "NaN", "inf", "-inf", "infinity"})
        EXPECT_EQ(cli::parseNumber<f64>("--h", bad, -big, big),
                  std::nullopt)
            << bad;
    for (const char *bad : {"", " 5", "5 ", "+5", "-1", "5x", "0x10",
                            "1.5", "1e3", "--5"})
        EXPECT_EQ(cli::parseNumber<u32>("--n", bad, 0, UINT32_MAX),
                  std::nullopt)
            << "'" << bad << "'";
    for (const char *bad : {"", "1.5s", "1,5", " 1", "."})
        EXPECT_EQ(cli::parseNumber<f64>("--h", bad, -big, big),
                  std::nullopt)
            << "'" << bad << "'";
}

} // namespace
} // namespace sonic
