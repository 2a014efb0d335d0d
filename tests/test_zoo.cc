/**
 * @file
 * Tests for the model zoo and the declarative NetworkBuilder: registry
 * semantics (lazy caching, registration order, duplicate/unknown
 * names), builder shape propagation and fusion, the synthetic model
 * families, generic knob compression, the unknown-model error
 * paths in SweepPlan and Engine, and bit pins of the paper workloads'
 * teachers, compressed networks and datasets.
 */

#include <gtest/gtest.h>

#include "app/engine.hh"
#include "dnn/builder.hh"
#include "dnn/model_io.hh"
#include "dnn/zoo.hh"
#include "test_helpers.hh"
#include "util/parallel.hh"

namespace sonic::dnn
{
namespace
{

TEST(ModelZoo, BuiltinsAreRegisteredInOrder)
{
    auto &zoo = ModelZoo::instance();
    const auto names = zoo.names();
    ASSERT_GE(names.size(), 7u);
    // The paper trio leads, then the verify workload, then the
    // builder-generated synthetic families.
    EXPECT_EQ(names[0], "MNIST");
    EXPECT_EQ(names[1], "HAR");
    EXPECT_EQ(names[2], "OkG");
    EXPECT_EQ(names[3], "golden");
    EXPECT_TRUE(zoo.contains("DeepFC-6"));
    EXPECT_TRUE(zoo.contains("WideFC-512"));
    EXPECT_TRUE(zoo.contains("DWConv-3"));
    EXPECT_FALSE(zoo.contains("no-such-model"));
    EXPECT_EQ(zoo.find("no-such-model"), nullptr);
}

TEST(ModelZoo, EntriesAreCachedAndStable)
{
    auto &zoo = ModelZoo::instance();
    const ModelEntry *a = zoo.find("HAR");
    const ModelEntry *b = zoo.find("HAR");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a, b);
    EXPECT_EQ(&a->teacher(), &b->teacher());
    EXPECT_EQ(&a->dataset(), &b->dataset());
    EXPECT_EQ(a->dataset().size(), a->meta().datasetSamples);
}

TEST(ModelZoo, PaperMetadataMatchesTable2)
{
    auto &zoo = ModelZoo::instance();
    EXPECT_DOUBLE_EQ(zoo.get("MNIST").meta().paperAccuracy, 0.99);
    EXPECT_DOUBLE_EQ(zoo.get("HAR").meta().paperAccuracy, 0.88);
    EXPECT_DOUBLE_EQ(zoo.get("OkG").meta().paperAccuracy, 0.84);
    EXPECT_EQ(zoo.get("MNIST").meta().family, "paper");
    EXPECT_EQ(zoo.get("golden").meta().family, "verify");
    EXPECT_EQ(zoo.get("DeepFC-6").meta().family, "synthetic");
    EXPECT_DOUBLE_EQ(zoo.get("HAR").meta().scaledAccuracy(0.5),
                     0.44);
}

TEST(ModelZoo, AddRegistersACustomModelSweepableByName)
{
    auto &zoo = ModelZoo::instance();
    // Process-global registry: stay idempotent under --gtest_repeat.
    if (!zoo.contains("test-custom")) {
        ModelMeta meta;
        meta.family = "custom";
        zoo.add("test-custom", meta,
                deepFcNet("test-custom", 16, 2, 8, 4));
    }
    const auto &entry = zoo.get("test-custom");
    EXPECT_EQ(entry.teacher().numClasses, 4u);
    // teacher == compressed for fixed registered networks.
    EXPECT_EQ(entry.compressed().paramCount(),
              entry.teacher().paramCount());

    // Sweepable through the engine with zero engine edits.
    app::SweepPlan plan;
    plan.nets({"test-custom"}).impls({kernels::Impl::Sonic});
    app::Engine engine(app::EngineOptions{1});
    const auto records = engine.run(plan);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(records[0].result.completed);
    EXPECT_EQ(records[0].spec.net, "test-custom");
}

TEST(ModelZoo, DatasetBuilderReplacesTheSyntheticDefault)
{
    auto &zoo = ModelZoo::instance();
    // A model shipping its own eval inputs (the dataset plug-in
    // point): three constant-ramp samples with fixed labels instead
    // of the synthetic teacher-labelled noise.
    if (!zoo.contains("test-own-dataset")) {
        ModelMeta meta;
        meta.family = "custom";
        meta.datasetSamples = 64; // ignored by the custom builder
        zoo.add("test-own-dataset", meta, [] {
            ModelDef def;
            def.teacher = deepFcNet("test-own-dataset", 16, 2, 8, 4);
            def.dataset = [](const NetworkSpec &teacher,
                             const ModelMeta &) {
                Dataset data;
                for (u32 s = 0; s < 3; ++s) {
                    Sample sample;
                    sample.input = tensor::FeatureMap(
                        teacher.input.c, teacher.input.h,
                        teacher.input.w);
                    for (u64 i = 0; i < sample.input.data.size(); ++i)
                        sample.input.data[i] =
                            0.01 * static_cast<f64>(i + s);
                    sample.label = s % teacher.numClasses;
                    data.push_back(std::move(sample));
                }
                return data;
            };
            return def;
        });
    }
    const auto &entry = zoo.get("test-own-dataset");
    ASSERT_EQ(entry.dataset().size(), 3u); // not meta.datasetSamples
    EXPECT_EQ(entry.dataset()[1].label, 1u);
    EXPECT_EQ(entry.dataset()[0].input.data[2], 0.02);

    // The engine consumes the custom samples like any dataset.
    app::SweepPlan plan;
    plan.nets({"test-own-dataset"})
        .impls({kernels::Impl::Sonic})
        .samples(3);
    app::Engine engine(app::EngineOptions{1});
    const auto records = engine.run(plan);
    ASSERT_EQ(records.size(), 3u);
    for (const auto &record : records)
        EXPECT_TRUE(record.result.completed);
}

TEST(ModelZoo, SyntheticModelsRunOnEveryPaperKernel)
{
    app::SweepPlan plan;
    plan.nets({"DeepFC-6", "WideFC-512", "DWConv-3"}).allImpls();
    app::Engine engine;
    const auto records = engine.run(plan);
    ASSERT_EQ(records.size(), 3u * 6u);
    for (const auto &record : records)
        EXPECT_TRUE(record.result.completed)
            << record.spec.net << "/"
            << kernels::implName(record.spec.impl);
}

TEST(ModelZoo, UnknownNameInSweepPlanDies)
{
    EXPECT_EXIT(
        {
            app::SweepPlan plan;
            plan.nets({"HAR", "definitely-not-registered"});
        },
        ::testing::ExitedWithCode(1), "definitely-not-registered");
}

TEST(ModelZoo, UnknownNameInEngineDies)
{
    EXPECT_EXIT(
        {
            app::Engine engine;
            app::RunSpec spec;
            spec.net = "definitely-not-registered";
            engine.runOne(spec);
        },
        ::testing::ExitedWithCode(1), "registered models");
}

TEST(ModelZoo, GenericKnobCompressionShrinksSyntheticTeachers)
{
    const auto &entry = ModelZoo::instance().get("DeepFC-6");
    CompressionKnobs lean;
    lean.fcKeep = 0.5;
    const auto compressed = entry.withKnobs(lean, 0x5eed);
    EXPECT_LT(compressed.paramCount(), entry.teacher().paramCount());
    EXPECT_EQ(compressed.numClasses, entry.teacher().numClasses);
}

/** GENESIS grid points off the Table 2 default: separate+prune at
 * half budgets with doubled ranks, and prune-only. */
std::vector<CompressionKnobs>
genesisKnobs()
{
    CompressionKnobs lean;
    lean.fcKeep = 0.5;
    lean.convKeep = 0.5;
    lean.fcRankScale = 2.0;
    CompressionKnobs prune;
    prune.separateConv = false;
    prune.svdFc = false;
    prune.fcKeep = 0.1;
    return {lean, prune};
}

/** Digest of a network's model_io serialization (every weight bit). */
u64
netDigest(const NetworkSpec &net, u64 h = testutil::kDigestBasis)
{
    return testutil::bitDigest(modelJson(net), h);
}

TEST(ModelZoo, PaperArtifactsArePinned)
{
    // Every bit of the teacher, the Table 2 network, the GENESIS knob
    // variants and every dataset sample (input bits and label) is
    // pinned; see the Pinned tests in test_tensor.cc.
    struct Pin
    {
        const char *net;
        u64 teacher, compressed, knobs, dataset;
    };
    const Pin pins[] = {
        {"MNIST", 0x1646b9118d1a8013ull, 0xd7674448877c380full,
         0x275f8cbf6810f4d5ull, 0x060acb7188deaf2cull},
        {"HAR", 0x1588c94651e081faull, 0x485139434e64ff61ull,
         0x08c7a393378f7d43ull, 0xfb8ac070a16920f6ull},
        {"OkG", 0xc18e00e5d8e989f1ull, 0x33a8b0d17e75406aull,
         0x7a10f98606feb8dfull, 0x4bea2a03e84da547ull},
    };
    for (const auto &pin : pins) {
        SCOPED_TRACE(pin.net);
        const auto &entry = ModelZoo::instance().get(pin.net);
        const u64 teacher = netDigest(entry.teacher());
        const u64 compressed = netDigest(entry.compressed());
        u64 knobs = testutil::kDigestBasis;
        for (const auto &k : genesisKnobs())
            knobs = netDigest(entry.withKnobs(k, 0x5eed), knobs);
        u64 dataset = testutil::kDigestBasis;
        for (const auto &sample : entry.dataset()) {
            dataset = testutil::bitDigest(sample.input.data, dataset);
            dataset = testutil::bitDigest(&sample.label,
                                          sizeof sample.label, dataset);
        }
        EXPECT_EQ(teacher, pin.teacher) << std::hex << teacher;
        EXPECT_EQ(compressed, pin.compressed) << std::hex << compressed;
        EXPECT_EQ(knobs, pin.knobs) << std::hex << knobs;
        EXPECT_EQ(dataset, pin.dataset) << std::hex << dataset;
    }
}

TEST(ModelZoo, PaperEntriesCompressTheTeacherTheyBuilt)
{
    // The zoo compresses the teacher it already holds instead of
    // building a second copy; every path to a compressed paper net
    // must serialize to the same bytes.
    for (const NetId id : {NetId::Mnist, NetId::Har, NetId::Okg}) {
        SCOPED_TRACE(netName(id));
        const auto &entry = ModelZoo::instance().get(netName(id));
        const NetworkSpec teacher = buildTeacher(id);
        EXPECT_EQ(modelJson(teacher), modelJson(entry.teacher()));
        const std::string table2 = modelJson(buildCompressed(id));
        EXPECT_EQ(table2, modelJson(compressTeacher(id, teacher, {})));
        EXPECT_EQ(table2, modelJson(entry.compressed()));
        // A GENESIS prune-only grid point (the SVD path is covered by
        // the default knobs above and pinned for the other point).
        const CompressionKnobs prune = genesisKnobs().back();
        EXPECT_EQ(modelJson(entry.withKnobs(prune, 0x5eed)),
                  modelJson(compressTeacher(id, teacher, prune)));
    }
}

TEST(ModelZoo, ConcurrentCompressionMatchesSerialBytes)
{
    // Each compression fans its layers out over the cold-start
    // workers; called from inside executor workers, the same fan runs
    // inline. Four workers compressing the three paper nets at the
    // Table 2 knobs and MNIST at a GENESIS point at once must produce
    // the bytes of a top-level call (the zoo's own compressed entry
    // for Table 2).
    struct Job
    {
        NetId id;
        CompressionKnobs knobs;
        std::string serial;
    };
    std::vector<Job> jobs;
    for (const NetId id : {NetId::Mnist, NetId::Har, NetId::Okg})
        jobs.push_back({id, {},
                        modelJson(ModelZoo::instance()
                                      .get(netName(id))
                                      .compressed())});
    const NetworkSpec &mnist =
        ModelZoo::instance().get(netName(NetId::Mnist)).teacher();
    jobs.push_back(
        {NetId::Mnist, genesisKnobs()[0],
         modelJson(compressTeacher(NetId::Mnist, mnist,
                                   genesisKnobs()[0]))});

    std::vector<std::string> concurrent(jobs.size());
    util::parallelFor(jobs.size(), 4, [&](u64 i, u32) {
        const auto &teacher =
            ModelZoo::instance().get(netName(jobs[i].id)).teacher();
        concurrent[i] = modelJson(
            compressTeacher(jobs[i].id, teacher, jobs[i].knobs));
    });
    for (u64 i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(concurrent[i], jobs[i].serial);
    }
}

TEST(Builder, TracksShapesThroughConvPoolAndFc)
{
    NetworkBuilder b("shapes", {1, 12, 12});
    b.factoredConv("conv1", 4, 3, 3).relu().pool();
    // (12-3+1) = 10 -> pool -> 5; 4 channels.
    EXPECT_EQ(b.currentShape().c, 4u);
    EXPECT_EQ(b.currentShape().h, 5u);
    EXPECT_EQ(b.currentShape().w, 5u);
    b.sparseFc("fc", 16, 0.5).relu().fc("out", 6);
    const auto net = b.build();
    EXPECT_EQ(net.numClasses, 6u);
    ASSERT_EQ(net.layers.size(), 3u);
    EXPECT_TRUE(net.layers[0].reluAfter);
    EXPECT_TRUE(net.layers[0].poolAfter);
    EXPECT_TRUE(net.layers[1].reluAfter);
    EXPECT_FALSE(net.layers[2].reluAfter);
    EXPECT_EQ(net.shapeAfter(2).elems(), 6u);
}

TEST(Builder, SyntheticWeightsAreDeterministicDyadics)
{
    const auto a = deepFcNet("det", 16, 3, 8, 4, 99);
    const auto b = deepFcNet("det", 16, 3, 8, 4, 99);
    const auto c = deepFcNet("det", 16, 3, 8, 4, 100);
    const auto *fa = std::get_if<DenseFcLayer>(&a.layers[0].op);
    const auto *fb = std::get_if<DenseFcLayer>(&b.layers[0].op);
    const auto *fc = std::get_if<DenseFcLayer>(&c.layers[0].op);
    ASSERT_NE(fa, nullptr);
    EXPECT_EQ(fa->weights.data(), fb->weights.data());
    EXPECT_NE(fa->weights.data(), fc->weights.data());
    // Every weight sits on a dyadic grid: scaling by 4096 yields an
    // integer exactly (the platform-stability property).
    for (f64 w : fa->weights.data()) {
        const f64 scaled = w * 4096.0;
        EXPECT_EQ(scaled, static_cast<f64>(static_cast<i64>(scaled)));
    }
}

TEST(Builder, FamiliesProduceRunnableDeviceNets)
{
    // One-liner families must lower and classify on the host.
    const auto wide = wideFcNet("w", 24, 64, 0.25, 5);
    EXPECT_EQ(wide.numClasses, 5u);
    const auto dw = depthwiseConvNet("d", 2, 10, 2, 3);
    EXPECT_EQ(dw.numClasses, 3u);
    tensor::FeatureMap in(2, 10, 10);
    in.data[3] = 0.5;
    EXPECT_LT(dw.classify(in), 3u);
}

TEST(Builder, ExplicitWeightsAndValidation)
{
    tensor::Matrix w(3, 16);
    w.at(0, 0) = 1.0;
    const auto net = NetworkBuilder("explicit", {1, 4, 4})
                         .fc("fc", std::move(w))
                         .build();
    EXPECT_EQ(net.numClasses, 3u);

    // A mis-sized explicit FC is a fatal configuration error.
    EXPECT_DEATH(
        {
            tensor::Matrix bad(3, 7);
            NetworkBuilder("bad", {1, 4, 4}).fc("fc", std::move(bad));
        },
        "expects");
}

} // namespace
} // namespace sonic::dnn
