/**
 * @file
 * Tests for the harvested-energy environment subsystem: the
 * piecewise-linear harvest model's integrals, environment references
 * and registry semantics, trace parsing with corruption diagnostics,
 * seeded determinism (same seed, same supply behavior), and the
 * lease-protocol equivalence of every registered environment (leased
 * and per-op-draw devices must brown out on the identical operation).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <limits>

#include <gtest/gtest.h>

#include "app/engine.hh"
#include "arch/device.hh"
#include "env/environment.hh"
#include "env/traces.hh"
#include "util/rng.hh"

namespace sonic::env
{
namespace
{

// --- HarvestModel ---------------------------------------------------

TEST(HarvestModel, ConstantRateIntegralsAreExact)
{
    const auto model = HarvestModel::constant(0.5e-3);
    EXPECT_EQ(model.watts(0.0), 0.5e-3);
    EXPECT_EQ(model.watts(123.456), 0.5e-3);
    EXPECT_NEAR(model.energyJoules(7.0, 10.0), 5e-3, 1e-12);
    // Inverse: harvesting 1 mJ at 0.5 mW takes 2 s from any phase.
    EXPECT_NEAR(model.secondsToHarvest(0.0, 1e-3), 2.0, 1e-9);
    EXPECT_NEAR(model.secondsToHarvest(941.5, 1e-3), 2.0, 1e-9);
}

TEST(HarvestModel, PiecewiseRampIntegratesAndInverts)
{
    // 0 W at t=0 ramping to 10 mW at t=10, back down by t=20 (wrap).
    const HarvestModel model({{0.0, 0.0}, {10.0, 10e-3}}, 20.0);
    EXPECT_NEAR(model.watts(5.0), 5e-3, 1e-15);
    EXPECT_NEAR(model.watts(15.0), 5e-3, 1e-15);
    // One period integrates to the triangle area: 1/2 * 20 s * 10 mW.
    EXPECT_NEAR(model.energyJoulesPerPeriod(), 0.1, 1e-12);
    EXPECT_NEAR(model.energyJoules(0.0, 20.0), 0.1, 1e-12);
    EXPECT_NEAR(model.energyJoules(0.0, 40.0), 0.2, 1e-12);
    // Inverse agrees with the forward integral.
    const f64 t = model.secondsToHarvest(2.5, 0.03);
    EXPECT_NEAR(model.energyJoules(2.5, t), 0.03, 1e-9);
}

TEST(HarvestModel, DarkSpansDelayRecharge)
{
    // Solar-like: dark until t=100, then 10 mW until the period ends.
    const HarvestModel model(
        {{0.0, 0.0}, {100.0, 0.0}, {100.5, 10e-3}}, 200.0);
    // Asking for energy at midnight waits out the darkness first.
    const f64 dead = model.secondsToHarvest(0.0, 1e-3);
    EXPECT_GT(dead, 100.0);
    EXPECT_NEAR(model.energyJoules(0.0, dead), 1e-3, 1e-9);
    // Asking during the lit span is fast.
    EXPECT_LT(model.secondsToHarvest(110.0, 1e-4), 1.0);
}

TEST(HarvestModel, EnergyIntegralAdvancesPastSubUlpSteps)
{
    // Entering the duty-cycle source's 10 ms ramp from a clock past
    // one period, the ramp end sits 2e-16 s above the wrapped time:
    // a step the clock (ulp ~2e-15 at 11 s) cannot represent. The
    // march once repeated that step ~1e16 times; it must now finish
    // and still invert secondsToHarvest.
    const HarvestModel model({{0.0, 10e-3},
                              {1.0, 10e-3},
                              {1.01, 0.0},
                              {9.99, 0.0}},
                             10.0);
    const f64 t0 = std::nextafter(10.0, 0.0);
    const f64 joules = 0x1.477ffbb0a5fd8p-5;
    const f64 seconds = model.secondsToHarvest(t0, joules);
    EXPECT_NEAR(model.energyJoules(t0, seconds), joules, 1e-9 * joules);
}

TEST(HarvestModel, InvalidModelsDie)
{
    EXPECT_DEATH(HarvestModel({{1.0, 1e-3}}, 10.0), "start at t = 0");
    EXPECT_DEATH(HarvestModel({{0.0, -1e-3}}, 10.0), "negative");
    EXPECT_DEATH(HarvestModel({{0.0, 1e-3}, {20.0, 1e-3}}, 10.0),
                 "beyond the period");
    // All-dark: could never recharge anything.
    EXPECT_DEATH(HarvestModel({{0.0, 0.0}}, 10.0), "positive energy");
}

// --- Reference oracle ----------------------------------------------

/**
 * The harvest inversion as it stood before the segment table, the
 * exact wrap and the supply's segment cursor: watts(),
 * secondsToHarvest() and the supply's clock wrap, kept verbatim (bar
 * renaming) as the bit-for-bit reference the production model must
 * reproduce.
 */
struct ReferenceModel
{
    std::vector<HarvestModel::Point> points_;
    f64 period_;
    f64 periodJoules_;

    explicit ReferenceModel(const HarvestModel &model)
        : points_(model.points()), period_(model.periodSeconds()),
          periodJoules_(model.energyJoulesPerPeriod())
    {
    }

    f64
    segmentEnd(u64 i) const
    {
        return i + 1 < points_.size() ? points_[i + 1].seconds : period_;
    }

    f64
    segmentEndWatts(u64 i) const
    {
        return i + 1 < points_.size() ? points_[i + 1].watts
                                      : points_.front().watts;
    }

    f64
    watts(f64 t) const
    {
        f64 local = std::fmod(t, period_);
        if (local < 0.0)
            local += period_;
        u64 i = points_.size() - 1;
        while (i > 0 && points_[i].seconds > local)
            --i;
        const f64 t0 = points_[i].seconds;
        const f64 t1 = segmentEnd(i);
        const f64 w0 = points_[i].watts;
        const f64 w1 = segmentEndWatts(i);
        if (t1 <= t0)
            return w0;
        return w0 + (w1 - w0) * ((local - t0) / (t1 - t0));
    }

    f64
    secondsToHarvest(f64 t0, f64 joules) const
    {
        if (joules <= 0.0)
            return 0.0;
        f64 seconds = 0.0;
        if (joules > periodJoules_) {
            const f64 periods = std::floor(joules / periodJoules_);
            seconds += periods * period_;
            joules -= periods * periodJoules_;
            if (joules <= 0.0)
                return seconds;
        }
        f64 t = t0 + seconds;
        const u64 max_steps = 2 * (points_.size() + 1) + 4;
        for (u64 step = 0; step < max_steps; ++step) {
            f64 local = std::fmod(t, period_);
            if (local < 0.0)
                local += period_;
            u64 i = points_.size() - 1;
            while (i > 0 && points_[i].seconds > local)
                --i;
            const f64 seg_end = segmentEnd(i);
            f64 span = seg_end - local;
            if (span <= 0.0)
                span = 0.0;
            const f64 w0 = watts(t);
            const f64 w1 = watts(t + span);
            const f64 seg_joules = 0.5 * (w0 + w1) * span;
            if (seg_joules >= joules && seg_joules > 0.0) {
                const f64 m = span > 0.0 ? (w1 - w0) / span : 0.0;
                f64 tau;
                if (std::fabs(m) < 1e-18) {
                    tau = joules / w0;
                } else {
                    const f64 disc = w0 * w0 + 2.0 * m * joules;
                    tau = (std::sqrt(std::max(disc, 0.0)) - w0) / m;
                }
                tau = std::clamp(tau, 0.0, span);
                return seconds + tau;
            }
            joules -= seg_joules;
            seconds += span;
            t += span;
            if (span == 0.0) {
                const f64 nudge = period_ * 1e-12;
                seconds += nudge;
                t += nudge;
            }
        }
        return seconds + joules / (periodJoules_ / period_);
    }

    /** HarvestSupply's clock wrap. */
    void
    wrapClock(f64 *sim_seconds) const
    {
        if (period_ > 0.0 && *sim_seconds >= period_)
            *sim_seconds = std::fmod(*sim_seconds, period_);
    }
};

u64
bits(f64 x)
{
    return std::bit_cast<u64>(x);
}

/** One model the oracle runs over, with its draw budget. */
struct OracleModel
{
    std::string name;
    HarvestModel model;
    u64 draws;
};

/** Every registered harvest environment (2^20 draws each) plus
 * hand-built adversarial shapes (2^18 each). */
std::vector<OracleModel>
oracleModels()
{
    std::vector<OracleModel> out;
    auto &registry = EnvRegistry::instance();
    for (const auto &name : registry.names()) {
        const auto psu = registry.make({name, 0.0}, 1);
        if (const auto *h = dynamic_cast<const HarvestSupply *>(psu.get()))
            out.push_back({name, h->model(), 1u << 20});
    }
    const auto adversarial = [&out](std::string name, HarvestModel m) {
        out.push_back({std::move(name), std::move(m), 1u << 18});
    };
    const f64 one_up = std::nextafter(1.0, 2.0);
    adversarial("single-point", HarvestModel({{0.0, 3e-3}}, 5.0));
    adversarial("zero-watt-spans",
                HarvestModel({{0.0, 0.0},
                              {1.0, 0.0},
                              {2.0, 4e-3},
                              {3.0, 0.0},
                              {7.0, 0.0}},
                             10.0));
    // A flat -0.0 span from t = 0 (read at t = -0.0 too) and a
    // +0.0 -> -0.0 wrap: the sign of every zero rate must survive.
    adversarial("negative-zero-watts",
                HarvestModel({{0.0, -0.0},
                              {1.0, -0.0},
                              {1.5, 2e-3},
                              {2.0, -0.0},
                              {3.0, -0.0},
                              {4.0, 0.0}},
                             5.0));
    adversarial("ulp-apart-points",
                HarvestModel({{0.0, 1e-3},
                              {1.0, 1e-3},
                              {one_up, 5e-3},
                              {std::nextafter(one_up, 2.0), 0.0},
                              {2.0, 7e-3}},
                             std::nextafter(2.0, 3.0)));
    // Falling ramps whose end rate is not w0 + (w1 - w0): the rate
    // read at a segment end must be the next segment's, not the
    // extrapolated one.
    adversarial("inexact-slopes",
                HarvestModel({{0.0, 0.3e-3},
                              {1.0, 0.1e-3},
                              {2.5, 2.2e-3},
                              {3.0, 0.7e-3},
                              {4.0, 7e-3},
                              {4.5, 0.3e-3}},
                             6.0));
    adversarial("steep-ramps",
                HarvestModel({{0.0, 0.0},
                              {1e-9, 50e-3},
                              {0.25, 1e-9},
                              {0.5, 0.0}},
                             0.75));
    return out;
}

/**
 * Seeded adversarial clock reading for a model: uniform phases,
 * unwrapped times up to a few periods, exact control-point offsets and
 * period multiples, their 1-ulp neighbours, and -0.0.
 */
f64
drawTime(Rng &rng, const HarvestModel &model)
{
    const f64 period = model.periodSeconds();
    const auto &pts = model.points();
    const f64 edge = rng.below(4) == 0
        ? period
        : pts[rng.below(pts.size())].seconds;
    switch (rng.below(8)) {
    case 0:
    case 1:
    case 2:
        return rng.uniform(0.0, period);
    case 3:
        return rng.uniform(0.0, 4.0 * period);
    case 4:
        return edge + period * static_cast<f64>(rng.below(3));
    case 5:
        return std::nextafter(edge, 0.0);
    case 6:
        return rng.below(16) == 0
            ? -0.0
            : std::nextafter(edge, std::numeric_limits<f64>::infinity());
    default:
        return rng.uniform(0.0, 1e6 * period);
    }
}

/** Seeded energy request: recharge-sized deficits, sub-period and
 * multi-period amounts, exact period multiples and their neighbours. */
f64
drawJoules(Rng &rng, const HarvestModel &model)
{
    const f64 per_period = model.energyJoulesPerPeriod();
    switch (rng.below(8)) {
    case 0:
        // A full 100 uF / 1 mF buffer or a partial one.
        return (rng.below(2) == 0 ? 1.26e-4 : 1.26e-5)
             * (rng.below(2) == 0 ? 1.0 : rng.uniform());
    case 1:
    case 2:
        return per_period * std::exp2(rng.uniform(-40.0, 0.0));
    case 3:
        return per_period * rng.uniform(0.0, 4.0);
    case 4:
        return per_period * static_cast<f64>(1 + rng.below(3));
    case 5:
        return std::nextafter(per_period, 0.0);
    case 6:
        return std::nextafter(per_period * 2.0,
                              std::numeric_limits<f64>::infinity());
    default:
        return rng.below(2) == 0 ? 0.0 : -per_period;
    }
}

TEST(HarvestOracle, InversionMatchesTheReferenceBitForBit)
{
    // Each draw inverts the integral from a fresh time and reads the
    // rate there.
    for (const auto &[name, model, draws] : oracleModels()) {
        const ReferenceModel ref(model);
        Rng rng(fnv1a(name));
        u64 mismatches = 0;
        for (u64 d = 0; d < draws; ++d) {
            const f64 t0 = drawTime(rng, model);
            const f64 joules = drawJoules(rng, model);
            const f64 want = ref.secondsToHarvest(t0, joules);
            const f64 got = model.secondsToHarvest(t0, joules);
            const f64 want_w = ref.watts(t0);
            const f64 got_w = model.watts(t0);
            const bool same = bits(want) == bits(got)
                && bits(want_w) == bits(got_w);
            if (!same && mismatches++ < 5)
                ADD_FAILURE() << name << ": t0 " << std::hexfloat << t0
                              << " joules " << joules << " seconds "
                              << want << " vs " << got << ", watts "
                              << want_w << " vs " << got_w;
        }
        EXPECT_EQ(mismatches, 0u) << name;
    }
}

TEST(HarvestOracle, SupplyWalksMatchTheReferenceBitForBit)
{
    // Whole elapse/recharge sequences through one HarvestSupply, so
    // its segment cursor is carried across calls exactly as in a
    // fleet replay: brown-outs to empty, partial drains, uptimes from
    // sub-microsecond to several periods.
    constexpr u64 kWalks = 64;
    constexpr u64 kStepsPerWalk = 4096;
    for (const auto &[name, model, draws] : oracleModels()) {
        const ReferenceModel ref(model);
        Rng rng(fnv1a(name) ^ 0x5eed);
        u64 mismatches = 0;
        for (u64 w = 0; w < kWalks; ++w) {
            const f64 farads = rng.below(2) == 0 ? 100e-6 : 1e-3;
            const f64 phase = rng.uniform(0.0, model.periodSeconds());
            HarvestSupply supply(name, model, farads, phase);
            const f64 capacity = supply.capacityNj();
            f64 sim = phase;
            f64 harvested = capacity;
            for (u64 step = 0; step < kStepsPerWalk; ++step) {
                f64 live = model.periodSeconds()
                         * std::exp2(rng.uniform(-30.0, 2.0));
                if (rng.below(16) == 0)
                    live = 0.0;
                supply.elapse(live);
                if (live > 0.0) {
                    sim += live;
                    ref.wrapClock(&sim);
                }
                const f64 level =
                    rng.below(2) == 0 ? 0.0 : capacity * rng.uniform();
                supply.setLevelNjForReplay(level);
                const f64 deficit = capacity - level;
                const f64 want =
                    ref.secondsToHarvest(sim, deficit * 1e-9);
                sim += want;
                ref.wrapClock(&sim);
                harvested += deficit;
                const f64 got = supply.recharge();
                const bool same = bits(want) == bits(got)
                    && bits(sim) == bits(supply.simSeconds())
                    && bits(harvested) == bits(supply.harvestedNj())
                    && supply.levelNj() == capacity;
                if (!same && mismatches++ < 5)
                    ADD_FAILURE()
                        << name << " walk " << w << " step " << step
                        << ": dead " << std::hexfloat << want << " vs "
                        << got << ", clock " << sim << " vs "
                        << supply.simSeconds();
            }
        }
        EXPECT_EQ(mismatches, 0u) << name;
    }
}

// --- EnvRef parsing -------------------------------------------------

TEST(EnvRef, ParsesNamesAndCapacitorOverrides)
{
    EnvRef ref;
    std::string error;
    ASSERT_TRUE(parseEnvRef("solar", &ref, &error));
    EXPECT_EQ(ref.env, "solar");
    EXPECT_EQ(ref.capacitanceFarads, 0.0);
    EXPECT_EQ(ref.label(), "solar");

    ASSERT_TRUE(parseEnvRef("rf-paper@50mF", &ref, &error));
    EXPECT_EQ(ref.env, "rf-paper");
    EXPECT_NEAR(ref.capacitanceFarads, 50e-3, 1e-15);
    EXPECT_EQ(ref.label(), "rf-paper@50mF");

    ASSERT_TRUE(parseEnvRef("x@0.05F", &ref, &error));
    EXPECT_NEAR(ref.capacitanceFarads, 0.05, 1e-15);
    ASSERT_TRUE(parseEnvRef("x@220nF", &ref, &error));
    EXPECT_NEAR(ref.capacitanceFarads, 220e-9, 1e-20);

    EXPECT_FALSE(parseEnvRef("@1mF", &ref, &error));
    EXPECT_NE(error.find("empty name"), std::string::npos);
    EXPECT_FALSE(parseEnvRef("solar@", &ref, &error));
    EXPECT_FALSE(parseEnvRef("solar@12kF", &ref, &error));
    EXPECT_NE(error.find("unit"), std::string::npos);
    EXPECT_FALSE(parseEnvRef("solar@-3uF", &ref, &error));
    EXPECT_NE(error.find("positive"), std::string::npos);
}

TEST(EnvRef, RejectsNonFiniteAndUnderflowingCapacitance)
{
    // strtod reads "nan" and "inf", and 1e-305 nF underflows to a
    // subnormal farad count (a smaller factor would reach 0.0 F, which
    // means "the default capacitor"): each must fail like a negative
    // value does.
    for (const char *text :
         {"solar@nanF", "solar@NANmF", "solar@infF", "solar@-infuF",
          "solar@1e-305nF", "solar@0F", "solar@-0mF"}) {
        SCOPED_TRACE(text);
        EnvRef ref;
        std::string error;
        EXPECT_FALSE(parseEnvRef(text, &ref, &error));
        EXPECT_NE(error.find("capacitance must be positive"),
                  std::string::npos)
            << error;
    }
    EnvRef ref;
    std::string error;
    // A factor that is itself subnormal does not parse at all.
    EXPECT_FALSE(parseEnvRef("solar@1e-320nF", &ref, &error));
    // A tiny product that stays a positive normal double still parses.
    ASSERT_TRUE(parseEnvRef("solar@1e-290nF", &ref, &error)) << error;
    EXPECT_GT(ref.capacitanceFarads, 0.0);
}

// --- Registry -------------------------------------------------------

TEST(EnvRegistry, BuiltinsAreRegistered)
{
    auto &registry = EnvRegistry::instance();
    for (const char *name :
         {"continuous", "rf-paper", "rf-bursty", "solar", "duty-cycle",
          "trace-rf-office", "trace-solar-cloudy"})
        EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_FALSE(registry.contains("no-such-env"));
    EXPECT_EQ(registry.meta("no-such-env"), nullptr);
    EXPECT_TRUE(registry.meta("continuous")->alwaysOn);
    EXPECT_FALSE(registry.meta("solar")->alwaysOn);
}

TEST(EnvRegistry, UnknownEnvironmentDies)
{
    EXPECT_DEATH(EnvRegistry::instance().make({"no-such-env", 0.0}, 1),
                 "registered environments");
}

TEST(EnvRegistry, CapacitorOverrideScalesTheBuffer)
{
    auto &registry = EnvRegistry::instance();
    auto small = registry.make({"rf-paper", 100e-6}, 7);
    auto large = registry.make({"rf-paper", 1e-3}, 7);
    ASSERT_GT(small->capacityNj(), 0.0);
    EXPECT_NEAR(large->capacityNj() / small->capacityNj(), 10.0,
                1e-9);
    auto defaulted = registry.make({"rf-paper", 0.0}, 7);
    EXPECT_EQ(defaulted->capacityNj(), small->capacityNj());
}

// --- Traces ---------------------------------------------------------

TEST(Traces, CsvParsesAndNormalizes)
{
    HarvestModel model;
    std::string error;
    ASSERT_TRUE(parseTraceCsv("# comment\n"
                              "10,0.001\n"
                              "\n"
                              "  20 , 0.002 \n"
                              "30,0.001\n",
                              &model, &error))
        << error;
    EXPECT_EQ(model.periodSeconds(), 20.0); // normalized to t0 = 0
    EXPECT_NEAR(model.watts(5.0), 0.0015, 1e-12);
}

TEST(Traces, CsvCorruptionDiagnostics)
{
    HarvestModel model;
    std::string error;

    EXPECT_FALSE(parseTraceCsv("0 0.001\n1,0.001\n", &model, &error));
    EXPECT_NE(error.find("no comma"), std::string::npos);

    EXPECT_FALSE(parseTraceCsv("0,abc\n1,0.001\n", &model, &error));
    EXPECT_NE(error.find("unparsable"), std::string::npos);

    EXPECT_FALSE(parseTraceCsv("0,0.001\n0,0.002\n", &model, &error));
    EXPECT_NE(error.find("strictly increasing"), std::string::npos);

    EXPECT_FALSE(parseTraceCsv("0,0.001\n1,-0.2\n", &model, &error));
    EXPECT_NE(error.find("negative power"), std::string::npos);

    EXPECT_FALSE(parseTraceCsv("0,0.001\n", &model, &error));
    EXPECT_NE(error.find("at least 2 samples"), std::string::npos);

    EXPECT_FALSE(parseTraceCsv("0,0\n5,0\n10,0\n", &model, &error));
    EXPECT_NE(error.find("no energy"), std::string::npos);
}

TEST(Traces, NonFiniteSamplesAreRejectedWithLineNumbers)
{
    HarvestModel model;
    std::string error;

    // std::stod happily parses "nan" and "inf", and `watts < 0.0` is
    // false for NaN — both used to slip through validation and poison
    // every downstream energy integral.
    EXPECT_FALSE(
        parseTraceCsv("0,0.001\n1,nan\n", &model, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("non-finite power"), std::string::npos);

    EXPECT_FALSE(
        parseTraceCsv("0,0.001\n1,inf\n", &model, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    EXPECT_NE(error.find("non-finite power"), std::string::npos);

    EXPECT_FALSE(
        parseTraceCsv("0,0.001\n1,-inf\n", &model, &error));
    EXPECT_NE(error.find("non-finite power"), std::string::npos);

    EXPECT_FALSE(
        parseTraceCsv("nan,0.001\n1,0.001\n", &model, &error));
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
    EXPECT_NE(error.find("non-finite timestamp"), std::string::npos);

    // A power that overflows f64 ("1e999" -> inf) cannot sneak
    // through either parser: std::stod signals out-of-range.
    EXPECT_FALSE(
        parseTraceCsv("0,0.001\n1,1e999\n", &model, &error));
    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 1, "
        "\"points\": [[0, 0.001], [1, 1e999]]}",
        &model, &error));

    // The shared sample validator (the JSON path's line of defense
    // for programmatically-built samples) names the offending sample.
    EXPECT_FALSE(
        parseTraceCsv("0,0.001\n1, nan\n2,0.001\n", &model, &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(Traces, JsonParsesAndRejectsCorruption)
{
    HarvestModel model;
    std::string error;
    ASSERT_TRUE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 1, "
        "\"points\": [[0, 0.001], [10, 0.002], [20, 0.001]]}",
        &model, &error))
        << error;
    EXPECT_EQ(model.periodSeconds(), 20.0);

    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"other\", \"version\": 1, "
        "\"points\": [[0, 1], [1, 1]]}",
        &model, &error));
    EXPECT_NE(error.find("not a sonic-trace"), std::string::npos);

    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 9, "
        "\"points\": [[0, 1], [1, 1]]}",
        &model, &error));
    EXPECT_NE(error.find("unsupported trace format version 9"),
              std::string::npos);

    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 1, "
        "\"points\": [[0, 1], [1]]}",
        &model, &error));
    EXPECT_NE(error.find("[seconds, watts]"), std::string::npos);

    EXPECT_FALSE(parseTraceJson(
        "{\"format\": \"sonic-trace\", \"version\": 1, "
        "\"points\": [[0, 1], [1, 1]]} extra",
        &model, &error));
    EXPECT_NE(error.find("trailing garbage"), std::string::npos);

    EXPECT_FALSE(parseTraceJson("{\"format\": \"sonic-trace\", "
                                "\"version\": 1}",
                                &model, &error));
    EXPECT_NE(error.find("missing \"points\""), std::string::npos);
}

TEST(Traces, FileRegistrationAndDiagnostics)
{
    const std::string path =
        ::testing::TempDir() + "sonic_env_trace.csv";
    {
        std::ofstream out(path);
        out << "0,0.0005\n60,0.001\n120,0.0005\n";
    }
    auto &registry = EnvRegistry::instance();
    std::string error;
    if (!registry.contains("test-trace-file"))
        ASSERT_TRUE(registry.addTraceFile("test-trace-file", path,
                                          &error))
            << error;
    EXPECT_EQ(registry.meta("test-trace-file")->family, "trace");
    auto psu = registry.make({"test-trace-file", 1e-3}, 3);
    EXPECT_TRUE(psu->intermittent());

    // Duplicate registration is rejected, not overwritten.
    EXPECT_FALSE(
        registry.addTraceFile("test-trace-file", path, &error));
    EXPECT_NE(error.find("already registered"), std::string::npos);

    // Missing and corrupt files produce diagnostics.
    EXPECT_FALSE(registry.addTraceFile("test-missing-trace",
                                       "/no/such/trace.csv", &error));
    EXPECT_NE(error.find("cannot read"), std::string::npos);

    const std::string bad_path =
        ::testing::TempDir() + "sonic_env_trace_bad.csv";
    {
        std::ofstream out(bad_path);
        out << "0,0.001\nbogus line\n";
    }
    EXPECT_FALSE(registry.addTraceFile("test-bad-trace", bad_path,
                                       &error));
    EXPECT_NE(error.find("line 2"), std::string::npos);
    EXPECT_FALSE(registry.contains("test-bad-trace"));
}

// --- Determinism and the lease protocol -----------------------------

/** Drive a supply through a fixed mixed charge script on a Device,
 * returning every observable a schedule comparison needs. */
struct ScriptProbe
{
    std::vector<u32> failureSteps;
    u64 cycles = 0;
    f64 nanojoules = 0.0;
    u64 reboots = 0;
    f64 deadSeconds = 0.0;
};

ScriptProbe
runScript(arch::Device &dev, u32 steps)
{
    ScriptProbe out;
    for (u32 i = 0; i < steps; ++i) {
        const auto op = static_cast<arch::Op>(i % arch::kNumOps);
        const u64 count = 1 + (i % 7 == 0 ? i % 23 : 0);
        try {
            dev.consume(op, count);
        } catch (const arch::PowerFailure &) {
            out.failureSteps.push_back(i);
            dev.reboot();
        }
    }
    out.cycles = dev.cycles();
    out.nanojoules = dev.stats().totalNanojoules();
    out.reboots = dev.rebootCount();
    out.deadSeconds = dev.deadSeconds();
    return out;
}

ScriptProbe
probeEnvironment(const EnvRef &ref, u64 seed, bool per_op_draw,
                 u32 steps = 4096)
{
    arch::DeviceConfig config;
    config.perOpPowerDraw = per_op_draw;
    arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                     EnvRegistry::instance().make(ref, seed), config);
    return runScript(dev, steps);
}

TEST(EnvDeterminism, SameSeedReplaysTheIdenticalSupplyBehavior)
{
    for (const auto &name : EnvRegistry::instance().names()) {
        // Small buffers so the script browns out often.
        const EnvRef ref{name, 5e-6};
        const auto a = probeEnvironment(ref, 0xabc, false);
        const auto b = probeEnvironment(ref, 0xabc, false);
        EXPECT_EQ(a.failureSteps, b.failureSteps) << name;
        EXPECT_EQ(a.cycles, b.cycles) << name;
        EXPECT_EQ(a.nanojoules, b.nanojoules) << name;
        EXPECT_EQ(a.deadSeconds, b.deadSeconds) << name;
    }
}

TEST(EnvDeterminism, SeedsChangeTheDeploymentPhase)
{
    // Distinct seeds boot at distinct points of the solar cycle, so
    // the dead-time pattern differs (failure placement is energy-
    // deterministic, but recharge timing shifts).
    const EnvRef ref{"solar", 5e-6};
    const auto a = probeEnvironment(ref, 1, false);
    const auto b = probeEnvironment(ref, 2, false);
    EXPECT_NE(a.deadSeconds, b.deadSeconds);
}

TEST(EnvLease, EveryRegisteredEnvironmentIsLeaseEquivalent)
{
    // The PR 2 contract, extended to the whole registry: a leased
    // device and a per-op-draw device under the same environment must
    // brown out on the identical operation with identical totals.
    for (const auto &name : EnvRegistry::instance().names()) {
        for (const f64 farads : {3e-6, 20e-6}) {
            const EnvRef ref{name, farads};
            const auto leased = probeEnvironment(ref, 0x5eed, false);
            const auto reference = probeEnvironment(ref, 0x5eed, true);
            ASSERT_EQ(leased.failureSteps, reference.failureSteps)
                << name << "@" << farads;
            EXPECT_EQ(leased.cycles, reference.cycles) << name;
            EXPECT_EQ(leased.nanojoules, reference.nanojoules)
                << name;
            EXPECT_EQ(leased.reboots, reference.reboots) << name;
            EXPECT_EQ(leased.deadSeconds, reference.deadSeconds)
                << name;
        }
    }
}

TEST(EnvLease, HarvestSupplyStateSettlesExactly)
{
    // Supply-side observables settle to the per-op-draw values too.
    auto make = [](bool per_op) {
        arch::DeviceConfig config;
        config.perOpPowerDraw = per_op;
        return config;
    };
    auto psu_a = EnvRegistry::instance().make({"rf-bursty", 5e-6}, 9);
    auto psu_b = EnvRegistry::instance().make({"rf-bursty", 5e-6}, 9);
    auto *raw_a = dynamic_cast<HarvestSupply *>(psu_a.get());
    auto *raw_b = dynamic_cast<HarvestSupply *>(psu_b.get());
    ASSERT_NE(raw_a, nullptr);
    raw_a->setRecordFailures(true);
    raw_b->setRecordFailures(true);
    arch::Device dev_a(arch::EnergyProfile::msp430fr5994(),
                       std::move(psu_a), make(false));
    arch::Device dev_b(arch::EnergyProfile::msp430fr5994(),
                       std::move(psu_b), make(true));
    runScript(dev_a, 4096);
    runScript(dev_b, 4096);
    dev_a.power(); // settle
    dev_b.power();
    EXPECT_GT(raw_a->failureIndices().size(), 0u);
    EXPECT_EQ(raw_a->failureIndices(), raw_b->failureIndices());
    EXPECT_EQ(raw_a->drawsSoFar(), raw_b->drawsSoFar());
    EXPECT_EQ(raw_a->levelNj(), raw_b->levelNj());
    EXPECT_EQ(raw_a->harvestedNj(), raw_b->harvestedNj());
    EXPECT_EQ(raw_a->simSeconds(), raw_b->simSeconds());
}

TEST(EnvClock, DeviceLifetimeFlushesUptimeIntoTheSupplyClock)
{
    // A supply that outlives its Device (the fleet lifetime pattern:
    // one environment powering a sequence of inferences through
    // BorrowedSupply views) must see every second of uptime, including
    // the stretch after the last reboot — otherwise the environment
    // clock lags and between-inference recharges integrate the
    // harvest model at a stale simulated time.
    auto psu = EnvRegistry::instance().make({"duty-cycle", 1e-3}, 11);
    auto *harvest = dynamic_cast<HarvestSupply *>(psu.get());
    ASSERT_NE(harvest, nullptr);
    const f64 phase = harvest->simSeconds();

    f64 live = 0.0, dead = 0.0;
    {
        arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                         std::make_unique<BorrowedSupply>(psu.get()));
        runScript(dev, 2048);
        live = dev.liveSeconds();
        dead = dev.deadSeconds();
    }
    // Clock advanced by the uptime plus the recharge dead time —
    // nothing lost at destruction, with or without reboots. The clock
    // wraps into [0, period) (the model is periodic), so compare
    // modulo the period (NEAR: the clock accumulates per-reboot
    // deltas, a telescoped sum).
    const f64 period = harvest->model().periodSeconds();
    EXPECT_NEAR(harvest->simSeconds(),
                std::fmod(phase + live + dead, period),
                (phase + live + dead) * 1e-12);

    // And a reboot-free lifetime advances it by pure uptime.
    auto psu3 = EnvRegistry::instance().make({"duty-cycle", 50e-3}, 11);
    auto *harvest3 = dynamic_cast<HarvestSupply *>(psu3.get());
    const f64 phase3 = harvest3->simSeconds();
    f64 live3 = 0.0;
    {
        arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                         std::make_unique<BorrowedSupply>(psu3.get()));
        dev.consume(arch::Op::FixedMul, 100);
        live3 = dev.liveSeconds();
        EXPECT_EQ(dev.rebootCount(), 0u);
    }
    EXPECT_DOUBLE_EQ(
        harvest3->simSeconds(),
        std::fmod(phase3 + live3, harvest3->model().periodSeconds()));
}

TEST(EnvClock, ZeroAndNegativeElapseAreNoOps)
{
    auto psu = EnvRegistry::instance().make({"solar", 1e-3}, 3);
    auto *harvest = dynamic_cast<HarvestSupply *>(psu.get());
    ASSERT_NE(harvest, nullptr);
    const f64 before = harvest->simSeconds();
    harvest->elapse(0.0);
    EXPECT_EQ(harvest->simSeconds(), before);
    harvest->elapse(-5.0);
    EXPECT_EQ(harvest->simSeconds(), before);
}

TEST(EnvClock, PhaseWrapsExactlyAtHugeUptime)
{
    // The absorption bug the wrap fixes: an unwrapped f64 accumulator
    // at ~1e17 s absorbs a 1 s increment entirely (1e17 + 1.0 == 1e17
    // in f64), freezing the phase. With wrapping the clock stays in
    // [0, period) where 1 s increments are exactly representable.
    auto psu = EnvRegistry::instance().make({"duty-cycle", 1e-3}, 5);
    auto *harvest = dynamic_cast<HarvestSupply *>(psu.get());
    ASSERT_NE(harvest, nullptr);
    const f64 period = harvest->model().periodSeconds();
    ASSERT_GT(period, 0.0);
    const f64 phase = harvest->simSeconds();

    // Whole periods are identity on the wrapped clock...
    harvest->elapse(1e6 * period);
    EXPECT_NEAR(harvest->simSeconds(), phase, period * 1e-9);
    // ...and a fractional remainder lands at the same phase as the
    // short elapse alone would.
    harvest->elapse(17.0 * period + 0.25 * period);
    EXPECT_NEAR(harvest->simSeconds(),
                std::fmod(phase + 0.25 * period, period), period * 1e-9);
    EXPECT_LT(harvest->simSeconds(), period);

    // The frozen-phase failure mode: after an enormous uptime the
    // clock still registers a small increment instead of absorbing it.
    // (The huge elapse itself rounds once at ulp(1e9 * period) — the
    // wrap's guarantee is that subsequent small increments land from
    // a small base, not that a single giant addition is exact.)
    harvest->elapse(1e9 * period);
    const f64 p1 = harvest->simSeconds();
    EXPECT_LT(p1, period);
    harvest->elapse(0.125 * period);
    EXPECT_NEAR(harvest->simSeconds(),
                std::fmod(p1 + 0.125 * period, period), period * 1e-9);
}

TEST(EnvClock, TimeInvariantSuppliesIgnoreElapse)
{
    // elapse() is a PowerSupply-wide notification; supplies with no
    // environment clock must accept it silently at any magnitude.
    arch::ContinuousPower continuous;
    continuous.elapse(0.0);
    continuous.elapse(1e18);
    EXPECT_FALSE(continuous.intermittent());

    arch::CapacitorPower cap(100e-6, 0.5e-3);
    const f64 level = cap.levelNj();
    cap.elapse(0.0);
    cap.elapse(1e18);
    EXPECT_EQ(cap.levelNj(), level);

    arch::SchedulePower sched({3, 5});
    sched.elapse(1e18);
    EXPECT_EQ(sched.drawsSoFar(), 0u);
    EXPECT_TRUE(sched.draw(1.0));
}

// --- Sweep integration ----------------------------------------------

TEST(EnvSweep, EnvironmentAxisExpandsAndReseeds)
{
    app::SweepPlan plan;
    plan.nets({"golden"})
        .impls({kernels::Impl::Sonic})
        .environmentLabels({"rf-paper@1mF", "solar"});
    EXPECT_EQ(plan.size(), 2u);
    const auto specs = plan.expand();
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].environment.label(), "rf-paper@1mF");
    EXPECT_EQ(specs[1].environment.label(), "solar");
    EXPECT_NE(specs[0].seed, specs[1].seed);

    // The empty EnvRef keeps pre-axis seeds; a set one reseeds.
    app::SweepPlan plain;
    plain.nets({"golden"}).impls({kernels::Impl::Sonic});
    EXPECT_NE(plain.expand()[0].seed, specs[0].seed);
    app::SweepPlan defaulted;
    defaulted.nets({"golden"})
        .impls({kernels::Impl::Sonic})
        .environments({{}});
    EXPECT_EQ(plain.expand()[0].seed, defaulted.expand()[0].seed);
}

TEST(EnvSweep, UnknownEnvironmentInPlanDies)
{
    app::SweepPlan plan;
    EXPECT_DEATH(plan.environmentLabels({"no-such-env"}),
                 "registered environments");
}

TEST(EnvSweep, EngineRunsUnderAnEnvironmentDeterministically)
{
    app::SweepPlan plan;
    plan.nets({"golden"})
        .impls({kernels::Impl::Sonic, kernels::Impl::Tile8})
        .environmentLabels(
            {"trace-rf-office@100uF", "duty-cycle@100uF"});
    app::Engine serial(app::EngineOptions{1});
    app::Engine parallel(app::EngineOptions{4});
    const auto a = serial.run(plan);
    const auto b = parallel.run(plan);
    ASSERT_EQ(a.size(), 4u);
    for (u64 i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].result.completed) << i;
        EXPECT_GT(a[i].result.reboots, 0u) << i;
        EXPECT_EQ(a[i].result.reboots, b[i].result.reboots) << i;
        EXPECT_EQ(a[i].result.logits, b[i].result.logits) << i;
        EXPECT_EQ(a[i].result.deadSeconds, b[i].result.deadSeconds)
            << i;
        EXPECT_EQ(a[i].result.energyJ, b[i].result.energyJ) << i;
    }
}

} // namespace
} // namespace sonic::env
