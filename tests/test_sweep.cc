/**
 * @file
 * Tests for the declarative sweep engine: plan expansion (shape,
 * ordering, seeding), engine execution (parallel bit-identical to
 * serial — the determinism contract), and the streaming sinks.
 */

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "app/engine.hh"
#include "dnn/device_net.hh"
#include "tests/test_helpers.hh"

namespace sonic::app
{
namespace
{

void
expectResultsEqual(const ExperimentResult &a, const ExperimentResult &b,
                   const std::string &what)
{
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.nonTerminating, b.nonTerminating) << what;
    EXPECT_EQ(a.reboots, b.reboots) << what;
    EXPECT_EQ(a.tasksExecuted, b.tasksExecuted) << what;
    // Bit-identical, not approximately equal: the same spec performs
    // the same charged operations in the same order on its own device
    // regardless of which worker thread runs it.
    EXPECT_EQ(a.liveSeconds, b.liveSeconds) << what;
    EXPECT_EQ(a.deadSeconds, b.deadSeconds) << what;
    EXPECT_EQ(a.totalSeconds, b.totalSeconds) << what;
    EXPECT_EQ(a.energyJ, b.energyJ) << what;
    EXPECT_EQ(a.harvestedJ, b.harvestedJ) << what;
    EXPECT_EQ(a.logits, b.logits) << what;
    EXPECT_EQ(a.predictedClass, b.predictedClass) << what;
    EXPECT_EQ(a.tailsTileWords, b.tailsTileWords) << what;
    ASSERT_EQ(a.layers.size(), b.layers.size()) << what;
    for (u64 i = 0; i < a.layers.size(); ++i) {
        EXPECT_EQ(a.layers[i].name, b.layers[i].name) << what;
        EXPECT_EQ(a.layers[i].kernelSeconds, b.layers[i].kernelSeconds)
            << what;
        EXPECT_EQ(a.layers[i].controlSeconds,
                  b.layers[i].controlSeconds)
            << what;
        EXPECT_EQ(a.layers[i].energyJ, b.layers[i].energyJ) << what;
    }
    EXPECT_EQ(a.energyByOp, b.energyByOp) << what;
}

TEST(SweepPlan, DefaultsToSingleDefaultSpec)
{
    SweepPlan plan;
    EXPECT_EQ(plan.size(), 1u);
    const auto specs = plan.expand();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].net, "MNIST");
    EXPECT_EQ(specs[0].impl, kernels::Impl::Sonic);
    EXPECT_EQ(specs[0].power, PowerKind::Continuous);
    EXPECT_EQ(specs[0].profile, ProfileVariant::Standard);
    EXPECT_EQ(specs[0].sampleIndex, 0u);
}

TEST(SweepPlan, CrossProductSizeAndOrder)
{
    SweepPlan plan;
    plan.nets({"HAR", "OkG"})
        .impls({kernels::Impl::Base, kernels::Impl::Sonic})
        .power({PowerKind::Continuous, PowerKind::Cap1mF})
        .samples(2);
    EXPECT_EQ(plan.size(), 16u);
    const auto specs = plan.expand();
    ASSERT_EQ(specs.size(), 16u);

    // Nets outermost ... samples innermost.
    EXPECT_EQ(specs[0].net, "HAR");
    EXPECT_EQ(specs[0].impl, kernels::Impl::Base);
    EXPECT_EQ(specs[0].power, PowerKind::Continuous);
    EXPECT_EQ(specs[0].sampleIndex, 0u);
    EXPECT_EQ(specs[1].sampleIndex, 1u);
    EXPECT_EQ(specs[2].power, PowerKind::Cap1mF);
    EXPECT_EQ(specs[4].impl, kernels::Impl::Sonic);
    EXPECT_EQ(specs[8].net, "OkG");
    EXPECT_EQ(specs[15].net, "OkG");
    EXPECT_EQ(specs[15].impl, kernels::Impl::Sonic);
    EXPECT_EQ(specs[15].power, PowerKind::Cap1mF);
    EXPECT_EQ(specs[15].sampleIndex, 1u);
}

TEST(SweepPlan, AllAxisHelpersCoverThePaperGrid)
{
    SweepPlan plan;
    plan.allNets().allImpls().allPower().profiles(
        {ProfileVariant::Standard, ProfileVariant::NoLea,
         ProfileVariant::NoDma});
    EXPECT_EQ(plan.size(), 3u * 6u * 4u * 3u);
}

TEST(SweepPlan, ImplNamesResolveThroughRegistry)
{
    SweepPlan plan;
    plan.implNames({"SONIC", "Tile-8", "TAILS"});
    const auto &axis = plan.implAxis();
    ASSERT_EQ(axis.size(), 3u);
    EXPECT_EQ(axis[0], kernels::Impl::Sonic);
    EXPECT_EQ(axis[1], kernels::Impl::Tile8);
    EXPECT_EQ(axis[2], kernels::Impl::Tails);
}

TEST(SweepPlan, AxisChecksReturnTheSettersDiagnostics)
{
    // The checks a CLI runs before the setters report a bad name as
    // text instead of fatal(); good names resolve as the setters do.
    EXPECT_EQ(checkNets({"MNIST", "OkG"}), "");
    EXPECT_NE(checkNets({"MNIST", "nope"}).find("unknown model 'nope'"),
              std::string::npos);

    std::vector<kernels::Impl> ids;
    EXPECT_EQ(resolveImplNames({"TAILS", "Base"}, &ids), "");
    EXPECT_EQ(ids, (std::vector{kernels::Impl::Tails,
                                kernels::Impl::Base}));
    EXPECT_EQ(resolveImplNames({"nope"}, &ids),
              "unknown implementation 'nope'");

    std::vector<env::EnvRef> refs;
    EXPECT_EQ(resolveEnvironmentLabels({"solar@1mF", "rf-paper"}, &refs),
              "");
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_EQ(refs[1].env, "rf-paper");
    EXPECT_NE(resolveEnvironmentLabels({"nope"}, &refs)
                  .find("unknown environment 'nope'"),
              std::string::npos);
    EXPECT_NE(resolveEnvironmentLabels({"solar@-1mF"}, &refs)
                  .find("capacitance must be positive"),
              std::string::npos);
}

TEST(SweepPlan, SeedsAreDeterministicAndShapeIndependent)
{
    SweepPlan small;
    small.nets({"HAR"})
        .impls({kernels::Impl::Sonic});
    SweepPlan large;
    large.allNets()
        .impls({kernels::Impl::Base, kernels::Impl::Sonic})
        .allPower()
        .samples(2);

    const auto small_specs = small.expand();
    const auto large_specs = large.expand();
    // The (Har, Sonic, Continuous, Standard, 0) point exists in both
    // plans and must carry the same seed: seeding is a function of
    // coordinates, not of plan shape or expansion index.
    const RunSpec &a = small_specs[0];
    const RunSpec *b = nullptr;
    for (const auto &spec : large_specs) {
        if (spec.net == a.net && spec.impl == a.impl
            && spec.power == a.power && spec.profile == a.profile
            && spec.sampleIndex == a.sampleIndex)
            b = &spec;
    }
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a.seed, b->seed);

    // Distinct coordinates get distinct seeds.
    std::set<u64> seeds;
    for (const auto &spec : large_specs)
        seeds.insert(spec.seed);
    EXPECT_EQ(seeds.size(), large_specs.size());

    // A different base seed reseeds everything.
    SweepPlan reseeded;
    reseeded.nets({"HAR"})
        .impls({kernels::Impl::Sonic})
        .baseSeed(1234);
    EXPECT_NE(reseeded.expand()[0].seed, a.seed);
}

TEST(SweepPlan, SeedsIndependentOfAxisInsertionOrder)
{
    // The seed is a pure function of (baseSeed, coordinates): the
    // order axis setters were called in — and therefore any refactor
    // of plan-building code — can never reseed a grid point.
    SweepPlan ab;
    ab.nets({"HAR", "OkG"})
        .impls({kernels::Impl::Base, kernels::Impl::Sonic})
        .power({PowerKind::Continuous, PowerKind::Cap1mF})
        .samples(2)
        .baseSeed(77);
    SweepPlan ba;
    ba.baseSeed(77)
        .samples(2)
        .power({PowerKind::Continuous, PowerKind::Cap1mF})
        .impls({kernels::Impl::Base, kernels::Impl::Sonic})
        .nets({"HAR", "OkG"});

    const auto a = ab.expand();
    const auto b = ba.expand();
    ASSERT_EQ(a.size(), b.size());
    for (u64 i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].net, b[i].net);
        EXPECT_EQ(a[i].impl, b[i].impl);
        EXPECT_EQ(a[i].seed, b[i].seed) << i;
    }
}

TEST(SweepPlan, SeedsBitStableAcrossThreadCounts)
{
    // Engine workers pull specs from a shared counter; the recorded
    // seed stream must be the plan's expansion regardless of how many
    // threads raced over it.
    SweepPlan plan;
    plan.nets({"HAR"})
        .impls({kernels::Impl::Sonic, kernels::Impl::Base})
        .samples(2)
        .baseSeed(0xabcdef);
    const auto expanded = plan.expand();

    for (const u32 threads : {1u, 2u, 8u}) {
        Engine engine(EngineOptions{threads});
        const auto records = engine.run(plan);
        ASSERT_EQ(records.size(), expanded.size()) << threads;
        for (u64 i = 0; i < records.size(); ++i)
            EXPECT_EQ(records[i].spec.seed, expanded[i].seed)
                << threads << "/" << i;
    }
}

TEST(SweepPlan, ScheduleAxisExpandsInnermostAndReseeds)
{
    SweepPlan plan;
    plan.impls({kernels::Impl::Sonic})
        .failureSchedules({{}, {10, 20}, {10, 21}});
    EXPECT_EQ(plan.size(), 3u);
    const auto specs = plan.expand();
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_TRUE(specs[0].failureSchedule.empty());
    EXPECT_EQ(specs[1].failureSchedule, (std::vector<u64>{10, 20}));
    EXPECT_EQ(specs[2].failureSchedule, (std::vector<u64>{10, 21}));

    // The empty schedule keeps the pre-axis seed; distinct schedules
    // get distinct seeds.
    SweepPlan plain;
    plain.impls({kernels::Impl::Sonic});
    EXPECT_EQ(specs[0].seed, plain.expand()[0].seed);
    std::set<u64> seeds{specs[0].seed, specs[1].seed, specs[2].seed};
    EXPECT_EQ(seeds.size(), 3u);
}

TEST(Engine, ScheduleRunsStreamDigestsThroughSinks)
{
    SweepPlan plan;
    plan.nets({"HAR"})
        .impls({kernels::Impl::Sonic})
        .failureSchedules({{1000, 2000}})
        .captureNvmDigests(true);
    std::ostringstream json_out;
    JsonSink json(json_out);
    Engine engine(EngineOptions{1});
    const auto records = engine.run(plan, {&json});
    ASSERT_EQ(records.size(), 1u);
    const auto &r = records[0].result;
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.scheduleFired, 2u);
    EXPECT_EQ(r.reboots, 2u);
    EXPECT_EQ(r.rebootDigests.size(), 2u);
    EXPECT_NE(r.finalNvmDigest, 0u);

    const std::string text = json_out.str();
    EXPECT_NE(text.find("\"failureSchedule\": [1000, 2000]"),
              std::string::npos);
    EXPECT_NE(text.find("\"scheduleFired\": 2"), std::string::npos);
    EXPECT_NE(text.find("\"rebootDigests\": ["), std::string::npos);
}

TEST(Engine, ParallelSweepBitIdenticalToSerial)
{
    SweepPlan plan;
    plan.nets({"HAR"})
        .impls({kernels::Impl::Sonic, kernels::Impl::Tails})
        .power({PowerKind::Continuous, PowerKind::Cap100uF});

    Engine serial(EngineOptions{1});
    Engine parallel(EngineOptions{4});
    EXPECT_EQ(serial.threadCount(), 1u);
    EXPECT_EQ(parallel.threadCount(), 4u);

    const auto serial_records = serial.run(plan);
    const auto parallel_records = parallel.run(plan);
    ASSERT_EQ(serial_records.size(), plan.size());
    ASSERT_EQ(parallel_records.size(), plan.size());

    for (u64 i = 0; i < serial_records.size(); ++i) {
        const auto &s = serial_records[i];
        const auto &p = parallel_records[i];
        // Records arrive in plan order on both paths.
        EXPECT_EQ(s.planIndex, i);
        EXPECT_EQ(p.planIndex, i);
        EXPECT_EQ(s.spec.net, p.spec.net);
        EXPECT_EQ(s.spec.impl, p.spec.impl);
        EXPECT_EQ(s.spec.power, p.spec.power);
        EXPECT_EQ(s.spec.seed, p.spec.seed);
        expectResultsEqual(
            s.result, p.result,
            "record " + std::to_string(i) + " ("
                + std::string(kernels::implName(s.spec.impl)) + "/"
                + powerName(s.spec.power) + ")");
        EXPECT_TRUE(s.result.completed);
    }
}

TEST(Engine, SinksStreamInPlanOrder)
{
    SweepPlan plan;
    plan.nets({"HAR"})
        .impls({kernels::Impl::Base, kernels::Impl::Sonic});

    std::ostringstream csv_out, json_out;
    CsvSink csv(csv_out);
    JsonSink json(json_out);
    MemorySink memory;

    Engine engine(EngineOptions{2});
    const auto records = engine.run(plan, {&csv, &json, &memory});
    ASSERT_EQ(records.size(), 2u);
    ASSERT_EQ(memory.records().size(), 2u);
    EXPECT_EQ(memory.records()[0].spec.impl, kernels::Impl::Base);
    EXPECT_EQ(memory.records()[1].spec.impl, kernels::Impl::Sonic);

    // CSV: header + one line per record, in plan order.
    const std::string csv_text = csv_out.str();
    std::istringstream csv_lines(csv_text);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(csv_lines, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0].rfind("planIndex,net,impl,power", 0), 0u);
    EXPECT_NE(lines[1].find("HAR,Base,Continuous"),
              std::string::npos);
    EXPECT_NE(lines[2].find("HAR,SONIC,Continuous"),
              std::string::npos);

    // JSON: an array with one object per record and the trajectory
    // payload (layers, per-op energies, logits).
    const std::string json_text = json_out.str();
    EXPECT_EQ(json_text.front(), '[');
    EXPECT_EQ(json_text[json_text.size() - 2], ']');
    EXPECT_NE(json_text.find("\"impl\": \"SONIC\""),
              std::string::npos);
    EXPECT_NE(json_text.find("\"layers\": ["), std::string::npos);
    EXPECT_NE(json_text.find("\"energyByOp\": {"),
              std::string::npos);
    EXPECT_NE(json_text.find("\"logits\": ["), std::string::npos);
    u64 objects = 0;
    for (u64 pos = 0;
         (pos = json_text.find("\"planIndex\"", pos))
         != std::string::npos;
         ++pos)
        ++objects;
    EXPECT_EQ(objects, 2u);
}

TEST(Sinks, CsvQuotesHostileModelNamesAndJsonEscapes)
{
    // Model names are user-supplied: a comma/quote in a name must not
    // shift CSV columns, and control characters must not break JSON.
    SweepRecord record;
    record.planIndex = 0;
    record.spec.net = "evil,\"model\"\nname";

    std::ostringstream csv_out;
    CsvSink csv(csv_out);
    csv.begin(1);
    csv.add(record);
    const std::string csv_text = csv_out.str();
    // RFC 4180: quoted field, embedded quotes doubled.
    EXPECT_NE(csv_text.find("0,\"evil,\"\"model\"\"\nname\","),
              std::string::npos)
        << csv_text;

    std::ostringstream json_out;
    JsonSink json(json_out);
    json.begin(1);
    json.add(record);
    json.end();
    const std::string json_text = json_out.str();
    EXPECT_NE(json_text.find("evil,\\\"model\\\"\\nname"),
              std::string::npos)
        << json_text;
}

TEST(Engine, RunOneMatchesSweepRecord)
{
    SweepPlan plan;
    plan.nets({"HAR"}).impls({kernels::Impl::Sonic});
    Engine engine;
    const auto records = engine.run(plan);
    ASSERT_EQ(records.size(), 1u);
    const auto direct = engine.runOne(records[0].spec);
    expectResultsEqual(records[0].result, direct, "runOne vs sweep");
}

/** Device-side bits of one hand-built run (see directRun). */
struct DirectRun
{
    u64 buckets = testutil::kDigestBasis; ///< every bucket's bits
    u64 nvmDigest = 0;                    ///< FRAM image at run end
    kernels::RunResult run;
};

/** Fold a value's object bytes into a digest chain. */
template <typename T>
u64
fold(const T &value, u64 h)
{
    return testutil::bitDigest(&value, sizeof value, h);
}

/** Digest of a run's logits, verdict, reboots, tasks and FRAM image. */
u64
outcomeDigest(const std::vector<i16> &logits, bool completed, u64 reboots,
              u64 tasks, u64 nvm_digest)
{
    u64 h = testutil::bitDigest(logits.data(),
                                logits.size() * sizeof(i16));
    h = fold(completed, h);
    h = fold(reboots, h);
    h = fold(tasks, h);
    return fold(nvm_digest, h);
}

/**
 * Run a spec on a hand-built Device, the way Engine::runOne does, and
 * digest every (layer, part) bucket's count/cycles/nanojoules bits.
 */
DirectRun
directRun(const RunSpec &spec)
{
    arch::Device dev(makeProfile(spec.profile), makeSupply(spec));
    const auto &entry = dnn::ModelZoo::instance().get(spec.net);
    dnn::DeviceNetwork net(dev, entry.compressed());
    const auto &sample =
        entry.dataset()[spec.sampleIndex % entry.dataset().size()];
    net.loadInput(dnn::DeviceNetwork::quantizeInput(sample.input));

    DirectRun out;
    out.run = kernels::runInference(net, spec.impl);
    out.nvmDigest = dev.nvmDigest();
    const auto &stats = dev.stats();
    for (u16 l = 0; l < stats.numLayers(); ++l) {
        for (u32 p = 0; p < arch::kNumParts; ++p) {
            const auto &b = stats.bucket(l, static_cast<arch::Part>(p));
            out.buckets = fold(b.count, out.buckets);
            out.buckets = fold(b.cycles, out.buckets);
            out.buckets = fold(b.nanojoules, out.buckets);
        }
    }
    return out;
}

/**
 * Pinned per-run device bits of the paper grid on sample 0: every
 * (layer, part) attribution bucket, the logits, reboots, tasks and
 * the final FRAM image, for MNIST/HAR/OkG x all six kernels on
 * continuous power and on rf-paper@100uF (where Base and the large
 * tilings do not finish). A misattributed bucket, a wrongly lowered
 * weight or a redo-log read that resolves to the wrong entry moves a
 * digest. Engine::runOne must reproduce the hand-built run; its FRAM
 * digest is captured on continuous power only, where there are no
 * per-reboot snapshots to pay for.
 */
TEST(EnginePinned, PerRunDeviceBits)
{
    struct Pin
    {
        const char *net;
        const char *env;
        kernels::Impl impl;
        u64 buckets;
        u64 outcome;
    };
    const Pin pins[] = {
        {"MNIST", "continuous", kernels::Impl::Base,
         0x16aab824f8642513ull, 0x743f377b885d1435ull},
        {"MNIST", "continuous", kernels::Impl::Tile8,
         0x83e8babef8ac2205ull, 0xde3b9bb753c97697ull},
        {"MNIST", "continuous", kernels::Impl::Tile32,
         0x04190f5008af5dbfull, 0x6799e32d82a8949full},
        {"MNIST", "continuous", kernels::Impl::Tile128,
         0x7517f3b540de0aa6ull, 0xe88c663389f20434ull},
        {"MNIST", "continuous", kernels::Impl::Sonic,
         0x0e1fc94438ac29aaull, 0x18e313a1ee9dfc46ull},
        {"MNIST", "continuous", kernels::Impl::Tails,
         0x6b85e05e2fa3af95ull, 0x440a355e501b7171ull},
        {"MNIST", "rf-paper@100uF", kernels::Impl::Base,
         0xad3f6cd4f6c5b138ull, 0xfc52eb3733d1cf1bull},
        {"MNIST", "rf-paper@100uF", kernels::Impl::Tile8,
         0xdf28b64e75b5ac39ull, 0x344e00478de2757dull},
        {"MNIST", "rf-paper@100uF", kernels::Impl::Tile32,
         0x272c91426052e7b6ull, 0x74b67f82f2856081ull},
        {"MNIST", "rf-paper@100uF", kernels::Impl::Tile128,
         0xc4dc58d23f8ca15aull, 0xe0d2cb04e6da0485ull},
        {"MNIST", "rf-paper@100uF", kernels::Impl::Sonic,
         0x58aceacbb3078ebeull, 0xee1a6970d3dd74c0ull},
        {"MNIST", "rf-paper@100uF", kernels::Impl::Tails,
         0xb56a09831c70717cull, 0x4e21b3b172fdfbdeull},
        {"HAR", "continuous", kernels::Impl::Base,
         0x43121d958934e9dbull, 0x1f8077acfc9c9074ull},
        {"HAR", "continuous", kernels::Impl::Tile8,
         0xa113bf6c74f0a7deull, 0x1ffa3390a807387aull},
        {"HAR", "continuous", kernels::Impl::Tile32,
         0x7b3a517c8d25691dull, 0xd938141b5791c95eull},
        {"HAR", "continuous", kernels::Impl::Tile128,
         0xac6c65d830298af8ull, 0xf596c780cdfe4833ull},
        {"HAR", "continuous", kernels::Impl::Sonic,
         0x6a270eeb774e4595ull, 0xd4848123a3a554d8ull},
        {"HAR", "continuous", kernels::Impl::Tails,
         0x4e15b56c48ebbc4dull, 0x43a686f7df6b84bbull},
        {"HAR", "rf-paper@100uF", kernels::Impl::Base,
         0xc3d1134783ecd59dull, 0x0a6b68121c103926ull},
        {"HAR", "rf-paper@100uF", kernels::Impl::Tile8,
         0x1df032a3bc97b929ull, 0xc5c2a5db5477c269ull},
        {"HAR", "rf-paper@100uF", kernels::Impl::Tile32,
         0x50bdad925e6bd74eull, 0xbc5642c52cba4382ull},
        {"HAR", "rf-paper@100uF", kernels::Impl::Tile128,
         0x53a842a8c076d4f9ull, 0x3647b6e58475b93eull},
        {"HAR", "rf-paper@100uF", kernels::Impl::Sonic,
         0xb353324e382ed5d0ull, 0xca3f69b17d001e40ull},
        {"HAR", "rf-paper@100uF", kernels::Impl::Tails,
         0xc41164c95fa68229ull, 0xcf35076e5dfdf6ceull},
        {"OkG", "continuous", kernels::Impl::Base,
         0xced3f9fcbde9fa7cull, 0x34ffafa98d87f7c5ull},
        {"OkG", "continuous", kernels::Impl::Tile8,
         0xf8e25220dae15c31ull, 0x30db5ec049391e47ull},
        {"OkG", "continuous", kernels::Impl::Tile32,
         0x809974e9ff871c2full, 0x2c4dac9368ad5c95ull},
        {"OkG", "continuous", kernels::Impl::Tile128,
         0xa764a70ae0bc4419ull, 0x21039c1b2d53fdfaull},
        {"OkG", "continuous", kernels::Impl::Sonic,
         0xd256b379d04a68e0ull, 0x6bfaa2650bc6721aull},
        {"OkG", "continuous", kernels::Impl::Tails,
         0x7683f58f8ee3804dull, 0xee81d41b32b8340dull},
        {"OkG", "rf-paper@100uF", kernels::Impl::Base,
         0xef237232e2d429e3ull, 0xc745672e4cb23153ull},
        {"OkG", "rf-paper@100uF", kernels::Impl::Tile8,
         0x37d288520953febfull, 0x53e9e38689d4546aull},
        {"OkG", "rf-paper@100uF", kernels::Impl::Tile32,
         0xf6b8e570451d8d7dull, 0x4c4c3de272fd93edull},
        {"OkG", "rf-paper@100uF", kernels::Impl::Tile128,
         0x9b5c17a2ba0010afull, 0xa8bae76f66c5f4f7ull},
        {"OkG", "rf-paper@100uF", kernels::Impl::Sonic,
         0x26a9105e82c3612aull, 0xeaa8a83a7c0b075aull},
        {"OkG", "rf-paper@100uF", kernels::Impl::Tails,
         0x1177450a96384092ull, 0x3676efed9061ebe7ull},
    };
    Engine engine;
    for (const auto &pin : pins) {
        RunSpec spec;
        spec.net = pin.net;
        spec.impl = pin.impl;
        std::string error;
        ASSERT_TRUE(env::parseEnvRef(pin.env, &spec.environment, &error))
            << error;
        const std::string what = std::string(pin.net) + "/"
            + std::string(kernels::implName(pin.impl)) + "/" + pin.env;
        const DirectRun direct = directRun(spec);
        const auto &run = direct.run;
        EXPECT_EQ(direct.buckets, pin.buckets)
            << what << std::hex << " 0x" << direct.buckets;
        const u64 outcome =
            outcomeDigest(run.logits, run.completed, run.reboots,
                          run.tasksExecuted, direct.nvmDigest);
        EXPECT_EQ(outcome, pin.outcome)
            << what << std::hex << " 0x" << outcome;

        spec.captureNvmDigests = run.reboots == 0;
        const auto result = engine.runOne(spec);
        EXPECT_EQ(result.completed, run.completed) << what;
        EXPECT_EQ(result.reboots, run.reboots) << what;
        EXPECT_EQ(result.tasksExecuted, run.tasksExecuted) << what;
        EXPECT_EQ(result.logits, run.completed ? run.logits
                                               : std::vector<i16>{})
            << what;
        if (spec.captureNvmDigests) {
            EXPECT_EQ(result.finalNvmDigest, direct.nvmDigest) << what;
        }
    }
}

} // namespace
} // namespace sonic::app
