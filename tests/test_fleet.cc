/**
 * @file
 * Tests for the fleet simulator: deterministic device assignment,
 * single-device lifetime telemetry, DNF accounting, the CSV sink, and
 * the headline contract — the aggregate FleetSummary (and its JSON
 * rendering) is bit-identical across 1/2/8 worker threads.
 */

#include <algorithm>
#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "fleet/fleet.hh"
#include "fleet/round_cache.hh"
#include "test_helpers.hh"

namespace sonic::fleet
{
namespace
{

/** A fast mixed fleet over the tiny golden workload. */
FleetPlan
goldenFleet(u32 devices)
{
    FleetPlan plan;
    plan.devices = devices;
    plan.nets = {"golden"};
    plan.impls = {kernels::Impl::Sonic, kernels::Impl::Tile8};
    plan.environments = {{"rf-paper", 100e-6},
                         {"trace-rf-office", 50e-6},
                         {"duty-cycle", 100e-6},
                         {"continuous", 0.0}};
    plan.maxInferencesPerDevice = 2;
    plan.baseSeed = 0xf1ee7;
    return plan;
}

/** goldenFleet with the pipeline axis exercised. */
FleetPlan
pipelineFleet(u32 devices)
{
    auto plan = goldenFleet(devices);
    plan.pipelines = {"wildlife", "infer-only", "lossy-uplink"};
    return plan;
}

TEST(FleetPlan, AssignmentsAreDeterministicAndCoverTheLists)
{
    const auto plan = goldenFleet(64);
    bool saw_second_impl = false, saw_second_env = false;
    for (u32 d = 0; d < plan.devices; ++d) {
        const auto a = plan.assignmentFor(d);
        const auto b = plan.assignmentFor(d);
        EXPECT_EQ(a.net, b.net);
        EXPECT_EQ(a.impl, b.impl);
        EXPECT_EQ(a.environment.label(), b.environment.label());
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.deviceIndex, d);
        saw_second_impl |= a.impl == kernels::Impl::Tile8;
        saw_second_env |= a.environment.env == "duty-cycle";
    }
    EXPECT_TRUE(saw_second_impl);
    EXPECT_TRUE(saw_second_env);

    // A different base seed deals a different fleet.
    auto reseeded = plan;
    reseeded.baseSeed = 123;
    bool any_differs = false;
    for (u32 d = 0; d < plan.devices; ++d)
        any_differs |=
            reseeded.assignmentFor(d).seed != plan.assignmentFor(d).seed;
    EXPECT_TRUE(any_differs);
}

TEST(FleetPlan, InvalidDistributionsDie)
{
    auto plan = goldenFleet(4);
    plan.nets = {"no-such-model"};
    EXPECT_DEATH(plan.validate(), "registered models");
    auto plan2 = goldenFleet(4);
    plan2.environments = {{"no-such-env", 0.0}};
    EXPECT_DEATH(plan2.validate(), "registered environments");
}

TEST(Fleet, DeviceLifetimeProducesConsistentTelemetry)
{
    const auto plan = goldenFleet(8);
    for (u32 d = 0; d < plan.devices; ++d) {
        const auto t = simulateDevice(plan, d);
        EXPECT_LE(t.inferencesCompleted,
                  plan.maxInferencesPerDevice);
        EXPECT_EQ(t.inferenceSeconds.size(), t.inferencesCompleted);
        EXPECT_GT(t.liveSeconds, 0.0);
        EXPECT_GT(t.energyJ, 0.0);
        EXPECT_GE(t.harvestedJ, 0.0);
        if (!t.diedNonTerminating) {
            EXPECT_EQ(t.inferencesCompleted,
                      plan.maxInferencesPerDevice)
                << "device " << d
                << " stopped early without a DNF verdict";
        }
        // Rates are self-consistent.
        if (t.inferencesCompleted > 0)
            EXPECT_NEAR(t.energyPerInferenceJ() * t.inferencesCompleted,
                        t.energyJ, 1e-12);
    }
}

TEST(Fleet, NonTerminatingKernelsAreAccountedAsDnf)
{
    // Base keeps loop state in volatile memory: on a tiny harvested
    // buffer it can never finish — the fleet must report it as a DNF
    // device, not hang or crash.
    FleetPlan plan;
    plan.devices = 3;
    plan.nets = {"golden"};
    plan.impls = {kernels::Impl::Base};
    plan.environments = {{"rf-paper", 5e-6}};
    plan.maxInferencesPerDevice = 2;
    const auto summary = runFleet(plan, FleetOptions{1});
    EXPECT_EQ(summary.total.devices, 3u);
    EXPECT_EQ(summary.total.dnfDevices, 3u);
    EXPECT_EQ(summary.total.inferences, 0u);
    EXPECT_GT(summary.total.reboots, 0u);
}

TEST(Fleet, SummaryIsBitIdenticalAcrossThreadCounts)
{
    const auto plan = goldenFleet(48);
    std::string reference_json;
    std::string reference_csv;
    for (const u32 threads : {1u, 2u, 8u}) {
        std::ostringstream csv;
        FleetCsvSink sink(csv);
        const auto summary =
            runFleet(plan, FleetOptions{threads}, {&sink});
        EXPECT_EQ(summary.devices, plan.devices);
        EXPECT_GT(summary.total.inferences, 0u);
        const std::string json = summary.toJson();
        if (reference_json.empty()) {
            reference_json = json;
            reference_csv = csv.str();
        } else {
            // Bit-identical aggregate summary and per-device stream.
            EXPECT_EQ(json, reference_json) << threads;
            EXPECT_EQ(csv.str(), reference_csv) << threads;
        }
    }
    // The JSON carries every breakdown group.
    EXPECT_NE(reference_json.find("\"byEnvironment\""),
              std::string::npos);
    EXPECT_NE(reference_json.find("\"byImpl\""), std::string::npos);
    EXPECT_NE(reference_json.find("\"byNet\""), std::string::npos);
    EXPECT_NE(reference_json.find("\"latencyP95Seconds\""),
              std::string::npos);
}

TEST(Fleet, CsvSinkStreamsOneRowPerDeviceInOrder)
{
    const auto plan = goldenFleet(6);
    std::ostringstream csv;
    FleetCsvSink sink(csv);
    runFleet(plan, FleetOptions{4}, {&sink});

    std::istringstream lines(csv.str());
    std::string line;
    std::vector<std::string> rows;
    while (std::getline(lines, line))
        rows.push_back(line);
    ASSERT_EQ(rows.size(), 1u + plan.devices);
    EXPECT_EQ(rows[0].rfind("device,net,impl,environment", 0), 0u);
    for (u32 d = 0; d < plan.devices; ++d)
        EXPECT_EQ(rows[1 + d].rfind(std::to_string(d) + ",", 0), 0u)
            << rows[1 + d];
}

TEST(Fleet, ContinuousDevicesNeverRebootAndHarvestWhatTheyUse)
{
    FleetPlan plan;
    plan.devices = 2;
    plan.nets = {"golden"};
    plan.impls = {kernels::Impl::Sonic};
    plan.environments = {{"continuous", 0.0}};
    plan.maxInferencesPerDevice = 3;
    const auto summary = runFleet(plan, FleetOptions{1});
    EXPECT_EQ(summary.total.reboots, 0u);
    EXPECT_EQ(summary.total.inferences, 2u * 3u);
    EXPECT_EQ(summary.total.deadSeconds, 0.0);
    EXPECT_NEAR(summary.total.harvestedJ, summary.total.energyJ,
                summary.total.energyJ * 1e-9);
}

TEST(FleetPlan, PipelineAxisIsDealtAndValidated)
{
    const auto plan = pipelineFleet(64);
    bool saw_wildlife = false, saw_infer_only = false;
    for (u32 d = 0; d < plan.devices; ++d) {
        const auto a = plan.assignmentFor(d);
        EXPECT_EQ(a.pipeline, plan.assignmentFor(d).pipeline);
        saw_wildlife |= a.pipeline == "wildlife";
        saw_infer_only |= a.pipeline == "infer-only";
    }
    EXPECT_TRUE(saw_wildlife);
    EXPECT_TRUE(saw_infer_only);

    auto bad = pipelineFleet(4);
    bad.pipelines = {"no-such-pipeline"};
    EXPECT_DEATH(bad.validate(), "registered pipelines");

    // The pipeline axis rides on an independent hash lane: adding it
    // did not reshuffle the pre-pipeline assignment of any device.
    const auto legacy = goldenFleet(64);
    for (u32 d = 0; d < legacy.devices; ++d) {
        const auto a = legacy.assignmentFor(d);
        const auto b = pipelineFleet(64).assignmentFor(d);
        EXPECT_EQ(a.net, b.net);
        EXPECT_EQ(a.impl, b.impl);
        EXPECT_EQ(a.environment.label(), b.environment.label());
        EXPECT_EQ(a.seed, b.seed);
    }
}

TEST(Fleet, PipelineDevicesDeliverAndAccountRadioEnergy)
{
    FleetPlan plan;
    plan.devices = 6;
    plan.nets = {"golden"};
    plan.impls = {kernels::Impl::Sonic};
    plan.environments = {{"continuous", 0.0}};
    plan.pipelines = {"wildlife"};
    plan.maxInferencesPerDevice = 2;
    const auto summary = runFleet(plan, FleetOptions{1});
    // Lossless link + continuous power: every inference delivers on
    // the first attempt.
    EXPECT_EQ(summary.total.inferences, 6u * 2u);
    EXPECT_EQ(summary.total.resultsDelivered, 6u * 2u);
    EXPECT_EQ(summary.total.txAttempts, 6u * 2u);
    EXPECT_EQ(summary.total.txRetries, 0u);
    EXPECT_EQ(summary.total.txGaveUpDevices, 0u);
    EXPECT_GT(summary.total.radioEnergyJ, 0.0);
    EXPECT_GT(summary.total.senseEnergyJ, 0.0);
    EXPECT_LT(summary.total.radioEnergyJ + summary.total.senseEnergyJ,
              summary.total.energyJ);
    EXPECT_GT(summary.deliveryP50Seconds, 0.0);
    EXPECT_LE(summary.deliveryP50Seconds, summary.deliveryP99Seconds);
}

/**
 * Satellite invariant: every breakdown axis partitions the fleet, so
 * each by-group map must sum exactly to the fleet totals — integer
 * counters bit-exactly, f64 accumulations to reassociation tolerance —
 * under every thread count.
 */
TEST(Fleet, GroupBreakdownsSumToFleetTotals)
{
    const auto plan = pipelineFleet(48);
    for (const u32 threads : {1u, 2u, 8u}) {
        const auto summary = runFleet(plan, FleetOptions{threads});
        ASSERT_GT(summary.total.resultsDelivered, 0u);
        const std::map<std::string, GroupStats> *groups[] = {
            &summary.byEnvironment, &summary.byImpl, &summary.byNet,
            &summary.byPipeline};
        for (const auto *by : groups) {
            GroupStats sum;
            for (const auto &[name, g] : *by) {
                EXPECT_FALSE(name.empty());
                EXPECT_GT(g.devices, 0u);
                sum.devices += g.devices;
                sum.dnfDevices += g.dnfDevices;
                sum.failedDevices += g.failedDevices;
                sum.inferences += g.inferences;
                sum.reboots += g.reboots;
                sum.liveSeconds += g.liveSeconds;
                sum.deadSeconds += g.deadSeconds;
                sum.energyJ += g.energyJ;
                sum.harvestedJ += g.harvestedJ;
                sum.resultsDelivered += g.resultsDelivered;
                sum.txGaveUpDevices += g.txGaveUpDevices;
                sum.txAttempts += g.txAttempts;
                sum.txRetries += g.txRetries;
                sum.radioEnergyJ += g.radioEnergyJ;
                sum.senseEnergyJ += g.senseEnergyJ;
                sum.txBackoffSeconds += g.txBackoffSeconds;
            }
            EXPECT_EQ(sum.devices, summary.total.devices);
            EXPECT_EQ(sum.dnfDevices, summary.total.dnfDevices);
            EXPECT_EQ(sum.failedDevices, summary.total.failedDevices);
            EXPECT_EQ(sum.inferences, summary.total.inferences);
            EXPECT_EQ(sum.reboots, summary.total.reboots);
            EXPECT_EQ(sum.resultsDelivered,
                      summary.total.resultsDelivered);
            EXPECT_EQ(sum.txGaveUpDevices,
                      summary.total.txGaveUpDevices);
            EXPECT_EQ(sum.txAttempts, summary.total.txAttempts);
            EXPECT_EQ(sum.txRetries, summary.total.txRetries);
            const auto near = [](f64 a, f64 b) {
                EXPECT_NEAR(a, b,
                            std::max(std::abs(b), 1.0) * 1e-9);
            };
            near(sum.liveSeconds, summary.total.liveSeconds);
            near(sum.deadSeconds, summary.total.deadSeconds);
            near(sum.energyJ, summary.total.energyJ);
            near(sum.harvestedJ, summary.total.harvestedJ);
            near(sum.radioEnergyJ, summary.total.radioEnergyJ);
            near(sum.senseEnergyJ, summary.total.senseEnergyJ);
            near(sum.txBackoffSeconds, summary.total.txBackoffSeconds);
        }
    }
}

TEST(Fleet, PipelineSummaryIsBitIdenticalAcrossThreadCounts)
{
    const auto plan = pipelineFleet(48);
    std::string reference_json;
    std::string reference_csv;
    for (const u32 threads : {1u, 2u, 8u}) {
        std::ostringstream csv;
        FleetCsvSink sink(csv);
        const auto summary =
            runFleet(plan, FleetOptions{threads}, {&sink});
        EXPECT_GT(summary.total.resultsDelivered, 0u);
        const std::string json = summary.toJson();
        if (reference_json.empty()) {
            reference_json = json;
            reference_csv = csv.str();
        } else {
            EXPECT_EQ(json, reference_json) << threads;
            EXPECT_EQ(csv.str(), reference_csv) << threads;
        }
    }
    EXPECT_NE(reference_json.find("\"byPipeline\""), std::string::npos);
    EXPECT_NE(reference_json.find("\"deliveryP95Seconds\""),
              std::string::npos);
    EXPECT_NE(reference_csv.find(",wildlife,"), std::string::npos);
}

/** Look up a named scenario's plan, shrunk for test runtime. */
FleetPlan
scenarioPlan(const std::string &name, u32 devices)
{
    for (const auto &scenario : namedScenarios()) {
        if (scenario.name == name) {
            auto plan = scenario.plan;
            plan.devices = devices;
            return plan;
        }
    }
    ADD_FAILURE() << "missing scenario " << name;
    return FleetPlan{};
}

/**
 * The tentpole contract: round-trace memoization changes nothing about
 * the telemetry. Memoized and unmemoized fleets produce byte-identical
 * summary JSON and per-device CSV at every thread count, on both
 * acceptance scenarios.
 */
TEST(Fleet, MemoizedFleetsMatchUnmemoizedBitExactly)
{
    for (const char *name : {"mixed-1k", "wildlife-day"}) {
        const auto plan =
            scenarioPlan(name, name[0] == 'm' ? 32u : 24u);
        std::string reference_json, reference_csv;
        for (const bool cached : {false, true}) {
            for (const u32 threads : {1u, 2u, 8u}) {
                FleetOptions options;
                options.threads = threads;
                options.useCache = cached;
                // Exercise the production replay path, not the
                // debug re-execution cross-check.
                options.verifyCache = false;
                std::ostringstream csv;
                FleetCsvSink sink(csv);
                const auto summary = runFleet(plan, options, {&sink});
                EXPECT_GT(summary.total.inferences, 0u);
                EXPECT_EQ(cached, summary.cache.lookups() > 0) << name;
                const std::string json = summary.toJson();
                if (reference_json.empty()) {
                    reference_json = json;
                    reference_csv = csv.str();
                } else {
                    EXPECT_EQ(json, reference_json)
                        << name << " cached=" << cached
                        << " threads=" << threads;
                    EXPECT_EQ(csv.str(), reference_csv)
                        << name << " cached=" << cached
                        << " threads=" << threads;
                }
            }
        }
    }
}

/**
 * Every RoundKey field must participate in lookup identity: mutating
 * any one coordinate misses while the original still hits. (Keys are
 * equality-compared in full, so this holds even on hash collisions.)
 */
TEST(RoundCache, EveryKeyFieldAffectsLookup)
{
    RoundCache cache;
    RoundKey key;
    key.netIndex = 1;
    key.implIndex = 2;
    key.pipelineIndex = 3;
    key.inputIndex = 4;
    key.capacityNjBits = 0x3f50624dd2f1a9fcull; // 0.001 as f64 bits
    RoundTrace trace;
    trace.liveSeconds = 1.5;
    trace.liveDeltas = {0.5, 1.0};
    trace.reboots = 1;
    ASSERT_NE(cache.insert(key, trace), nullptr);
    ASSERT_NE(cache.find(key), nullptr);
    EXPECT_EQ(cache.find(key)->liveSeconds, 1.5);

    const auto expectMiss = [&cache, &key](auto mutate) {
        RoundKey probe = key;
        mutate(probe);
        EXPECT_EQ(cache.find(probe), nullptr);
        EXPECT_NE(cache.find(key), nullptr); // original unaffected
    };
    expectMiss([](RoundKey &k) { k.netIndex ^= 1; });
    expectMiss([](RoundKey &k) { k.implIndex ^= 1; });
    expectMiss([](RoundKey &k) { k.pipelineIndex ^= 1; });
    expectMiss([](RoundKey &k) { k.inputIndex ^= 1; });
    expectMiss([](RoundKey &k) { k.capacityNjBits ^= 1; });
}

/**
 * The verification mode (always on in debug builds): every cache hit
 * re-executes the round and bitwise-compares the full trace including
 * the NVM digest. A verified run must still reproduce the unmemoized
 * summary exactly, and must actually have verified something.
 */
TEST(Fleet, CacheVerificationCrossChecksEveryHit)
{
    const auto plan = goldenFleet(24);
    FleetOptions verified;
    verified.threads = 2;
    verified.useCache = true;
    verified.verifyCache = true;
    const auto checked = runFleet(plan, verified);
    EXPECT_GT(checked.cache.roundHits, 0u);

    FleetOptions plain;
    plain.threads = 1;
    plain.useCache = false;
    const auto reference = runFleet(plan, plain);
    EXPECT_EQ(checked.toJson(), reference.toJson());
}

/**
 * Satellite fix: the horizon gate is uniform across rounds. Round 0
 * always runs (a fully-charged buffer recharges in zero seconds), and
 * a between-round recharge that would overshoot the horizon is clipped
 * at it instead of accruing the full refill time.
 */
TEST(Fleet, HorizonClipsBetweenRoundRecharges)
{
    FleetPlan plan;
    plan.nets = {"golden"};
    plan.impls = {kernels::Impl::Sonic};
    plan.environments = {{"rf-paper", 100e-6}};
    plan.devices = 1;
    plan.maxInferencesPerDevice = 1;
    const auto one_round = simulateDevice(plan, 0);
    ASSERT_EQ(one_round.inferencesCompleted, 1u);
    const f64 round_seconds = one_round.totalSeconds();
    ASSERT_GT(round_seconds, 0.0);

    // Horizon lands inside the recharge before round 1: the device
    // sleeps only up to the horizon, bit-for-bit.
    auto clipped = plan;
    clipped.maxInferencesPerDevice = 0;
    clipped.horizonSeconds = round_seconds * 1.25;
    const auto t = simulateDevice(clipped, 0);
    EXPECT_EQ(t.inferencesCompleted, 1u);
    EXPECT_NEAR(t.totalSeconds(), clipped.horizonSeconds,
                clipped.horizonSeconds * 1e-12);

    // Horizon shorter than the first round: round 0 still runs in
    // full (its pre-round recharge is the zero-second no-op), so the
    // lifetime is exactly that one round.
    auto tiny = plan;
    tiny.maxInferencesPerDevice = 0;
    tiny.horizonSeconds = round_seconds * 0.5;
    const auto t0 = simulateDevice(tiny, 0);
    EXPECT_EQ(t0.inferencesCompleted, 1u);
    EXPECT_EQ(t0.totalSeconds(), round_seconds);
}

/**
 * Cache telemetry is reported on the summary struct but deliberately
 * kept out of the JSON artifact, which must stay byte-identical
 * between memoized and --no-cache runs.
 */
TEST(Fleet, CacheStatsAreReportedButNotSerialized)
{
    const auto plan = goldenFleet(32);
    FleetOptions options;
    options.threads = 1;
    options.verifyCache = false;
    const auto summary = runFleet(plan, options);
    EXPECT_GT(summary.cache.lookups(), 0u);
    EXPECT_GT(summary.cache.roundHits, 0u);
    EXPECT_GT(summary.cache.lifetimeHits, 0u); // continuous devices
    EXPECT_GT(summary.cache.hitRate(), 0.0);
    EXPECT_LE(summary.cache.hitRate(), 1.0);
    const std::string json = summary.toJson();
    EXPECT_EQ(json.find("roundHits"), std::string::npos);
    EXPECT_EQ(json.find("hitRate"), std::string::npos);
}

FleetPlan
scenarioPlan(const std::string &name)
{
    for (const auto &scenario : namedScenarios())
        if (scenario.name == name)
            return scenario.plan;
    ADD_FAILURE() << "no scenario " << name;
    return {};
}

/** FNV-1a digest of a fleet's summary JSON at the given thread count. */
u64
summaryDigest(const FleetPlan &plan, u32 threads)
{
    FleetOptions options;
    options.threads = threads;
    // Pins the production (Release) path in every build type; the
    // cache cross-check is covered by CacheVerificationCrossChecksEveryHit.
    options.verifyCache = false;
    return testutil::bitDigest(runFleet(plan, options).toJson());
}

/**
 * Pinned summary bits of the fleets the replay and reduction paths
 * carry: mixed-1k at 20,000 devices (almost every round a round-cache
 * hit, ~5M replayed recharges) and smoke-200 across the infer-only and
 * wildlife pipelines (every kernel, trace and always-on environments,
 * uncached ACK-variant rounds). Any drift in the harvest inversion,
 * the replay walk or the device-order reduction changes a digest.
 */
TEST(FleetPinned, SummaryDigestsAtOneAndFourThreads)
{
    auto mixed = scenarioPlan("mixed-1k");
    mixed.devices = 20000;
    auto smoke = scenarioPlan("smoke-200");
    smoke.pipelines = {"infer-only", "wildlife"};
    for (const u32 threads : {1u, 4u}) {
        EXPECT_EQ(summaryDigest(mixed, threads), 0x605ba16b04c04746ull)
            << "mixed-1k@20000, threads " << threads;
        EXPECT_EQ(summaryDigest(smoke, threads), 0xe86983e89be85d42ull)
            << "smoke-200 infer-only+wildlife, threads " << threads;
    }
}

} // namespace
} // namespace sonic::fleet
