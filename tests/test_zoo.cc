/**
 * @file
 * Tests for the model zoo and the declarative NetworkBuilder: registry
 * semantics (lazy caching, registration order, duplicate/unknown
 * names), builder shape propagation and fusion, the synthetic model
 * families, generic knob compression, the unknown-model error
 * paths in SweepPlan and Engine, and bit pins of the paper workloads'
 * teachers, compressed networks and datasets, with the build-time
 * factor and label tables held to what solving and labelling give.
 * Warmed paper entries must not keep their teacher, and rebuild it
 * bit for bit on demand.
 */

#include <cstdlib>
#include <cstring>
#include <latch>
#include <thread>

#include <malloc.h>

#include <gtest/gtest.h>

#include "app/engine.hh"
#include "dnn/builder.hh"
#include "dnn/label_table.hh"
#include "dnn/model_io.hh"
#include "dnn/zoo.hh"
#include "tensor/decompose.hh"
#include "tensor/eigen_table.hh"
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
    // A fixed-weight model keeps its only copy of the teacher.
    EXPECT_EQ(entry.teacher().paramCount(),
              entry.compressed().paramCount());
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

/** Digest of every dataset sample (input bits and label). */
u64
datasetDigest(const Dataset &data)
{
    u64 h = testutil::kDigestBasis;
    for (const auto &sample : data) {
        h = testutil::bitDigest(sample.input.data, h);
        h = testutil::bitDigest(&sample.label, sizeof sample.label, h);
    }
    return h;
}

/** The paper entries' artifact digests. */
struct Pin
{
    const char *net;
    u64 teacher, compressed, knobs, dataset;
};
const Pin kPaperPins[] = {
    {"MNIST", 0x1646b9118d1a8013ull, 0xd7674448877c380full,
     0x275f8cbf6810f4d5ull, 0x060acb7188deaf2cull},
    {"HAR", 0x1588c94651e081faull, 0x485139434e64ff61ull,
     0x08c7a393378f7d43ull, 0xfb8ac070a16920f6ull},
    {"OkG", 0xc18e00e5d8e989f1ull, 0x33a8b0d17e75406aull,
     0x7a10f98606feb8dfull, 0x4bea2a03e84da547ull},
};

TEST(ModelZoo, PaperArtifactsArePinned)
{
    // Every bit of the teacher, the Table 2 network, the GENESIS knob
    // variants and every dataset sample (input bits and label) is
    // pinned; see the Pinned tests in test_tensor.cc.
    for (const auto &pin : kPaperPins) {
        SCOPED_TRACE(pin.net);
        const auto &entry = ModelZoo::instance().get(pin.net);
        const u64 teacher = netDigest(entry.teacher());
        const u64 compressed = netDigest(entry.compressed());
        u64 knobs = testutil::kDigestBasis;
        for (const auto &k : genesisKnobs())
            knobs = netDigest(entry.withKnobs(k, 0x5eed), knobs);
        const u64 dataset = datasetDigest(entry.dataset());
        EXPECT_EQ(teacher, pin.teacher) << std::hex << teacher;
        EXPECT_EQ(compressed, pin.compressed) << std::hex << compressed;
        EXPECT_EQ(knobs, pin.knobs) << std::hex << knobs;
        EXPECT_EQ(dataset, pin.dataset) << std::hex << dataset;
    }

    // The artifacts above came from the build-time table; its entries
    // must be what solving and labelling compute. Every hidden FC
    // layer of every paper teacher has a factor entry, and every
    // paper dataset a label entry.
    const auto same_bits = [](const f64 *x, const f64 *y, u64 n) {
        return std::memcmp(x, y, n * sizeof(f64)) == 0;
    };
    u32 eigens_checked = 0;
    u32 labels_checked = 0;
    for (const auto &pin : kPaperPins) {
        SCOPED_TRACE(pin.net);
        const auto &entry = ModelZoo::instance().get(pin.net);
        const NetworkSpec &teacher = entry.teacher();
        for (u32 li = 0; li + 1 < teacher.layers.size(); ++li) {
            const auto *fc =
                std::get_if<DenseFcLayer>(&teacher.layers[li].op);
            if (fc == nullptr)
                continue;
            const tensor::Matrix &a = fc->weights;
            const u64 digest = wordDigest(a.data().data(), a.size());
            const tensor::TabledEigen *tabled = nullptr;
            for (const auto &t : tensor::tabledEigens())
                if (t.digest == digest && t.rows == a.rows()
                    && t.cols == a.cols())
                    tabled = &t;
            ASSERT_NE(tabled, nullptr) << "layer " << li;
            const tensor::EigenResult eig = tensor::symmetricEigen(
                tensor::gramMatrix(a, tabled->gramRows));
            ASSERT_EQ(tabled->dim, eig.values.size());
            ASSERT_GE(tabled->rank, 1u);
            EXPECT_TRUE(same_bits(tabled->values, eig.values.data(),
                                  tabled->rank));
            for (u32 i = 0; i < tabled->rank; ++i) {
                std::vector<f64> column(tabled->dim);
                for (u32 r = 0; r < tabled->dim; ++r)
                    column[r] = eig.vectors.at(r, i);
                EXPECT_TRUE(same_bits(tabled->vectors
                                          + u64{i} * tabled->dim,
                                      column.data(), tabled->dim))
                    << "layer " << li << " column " << i;
            }
            ++eigens_checked;
        }

        const Dataset &data = entry.dataset();
        const u64 key = labelKey(teacher, data);
        const TabledLabels *tabled = nullptr;
        for (const auto &t : tabledLabels())
            if (t.key == key)
                tabled = &t;
        ASSERT_NE(tabled, nullptr);
        ASSERT_EQ(tabled->count, data.size());
        for (u32 i = 0; i < tabled->count; ++i)
            EXPECT_EQ(tabled->labels[i], teacher.classify(data[i].input))
                << "sample " << i;
        ++labels_checked;
    }
    EXPECT_EQ(eigens_checked, tensor::tabledEigens().size());
    EXPECT_EQ(labels_checked, tabledLabels().size());
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

/** Heap bytes in use: arena chunks plus mmapped ones. */
i64
heapInUse()
{
    const struct mallinfo2 info = mallinfo2();
    return static_cast<i64>(info.uordblks + info.hblkhd);
}

TEST(ModelZoo, PaperEntryKeepsNoTeacherAfterWarmUp)
{
    // Sanitizer runtimes allocate outside glibc's accounting.
    {
        const i64 before = heapInUse();
        void *volatile probe = std::malloc(i64{1} << 20);
        const bool counted = heapInUse() - before >= (i64{1} << 20);
        std::free(probe);
        if (!counted)
            GTEST_SKIP() << "mallinfo2 does not see this allocator";
    }
    // Process-wide first-use state (the zoo's own row, the cold-start
    // workers) is paid outside the measured window.
    ModelZoo::instance().get("MNIST").dataset();
    const i64 teacher_bytes = static_cast<i64>(
        buildTeacher(NetId::Mnist).paramCount() * sizeof(f64));

    const i64 before = heapInUse();
    // The ModelDef (and the teacher in it) dies with this statement.
    const auto entry = std::make_unique<ModelEntry>(
        "MNIST", *ModelZoo::instance().meta("MNIST"),
        paperModelDef(NetId::Mnist));
    entry->compressed();
    entry->dataset();
    const i64 retained = heapInUse() - before;
    EXPECT_LT(retained, teacher_bytes / 2)
        << "teacher " << teacher_bytes << " bytes";

    // The teacher comes back on demand, bit for bit.
    EXPECT_EQ(netDigest(entry->teacher()), kPaperPins[0].teacher);
}

TEST(ModelZoo, TeacherRebuildRacesDatasetLabelling)
{
    // Two threads ask a fresh entry for its teacher (the rebuild)
    // while two label its dataset (which frees the teacher the entry
    // was built with). TSan runs this suite.
    const ModelEntry entry("MNIST", *ModelZoo::instance().meta("MNIST"),
                           paperModelDef(NetId::Mnist));
    std::latch start(4);
    std::vector<const void *> seen(4);
    std::vector<std::thread> threads;
    for (u32 t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            seen[t] = t % 2 == 0
                ? static_cast<const void *>(&entry.teacher())
                : static_cast<const void *>(&entry.dataset());
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(seen[0], seen[2]);
    EXPECT_EQ(seen[1], seen[3]);
    EXPECT_EQ(netDigest(entry.teacher()), kPaperPins[0].teacher);
    EXPECT_EQ(datasetDigest(entry.dataset()), kPaperPins[0].dataset);
}

TEST(ModelZoo, RebuiltTeachersAreTheRegisteredOnes)
{
    // These models are born device-feasible, so compressed() is the
    // teacher their entry was built with; the teacher rebuilt at the
    // recorded seed must be it, bit for bit.
    for (const char *name : {"golden", "DeepFC-6", "WideFC-512",
                             "DWConv-3"}) {
        SCOPED_TRACE(name);
        const auto &entry = ModelZoo::instance().get(name);
        entry.dataset();
        EXPECT_EQ(modelJson(entry.teacher()),
                  modelJson(entry.compressed()));
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
