/**
 * @file
 * Host-performance microbenchmarks of the simulator's hot paths: the
 * charged-operation dispatch (single-op and span-batched, with and
 * without the energy lease), memory-handle accesses (single and bulk
 * span), fixed-point arithmetic, the redo-log, and a full tiny-network
 * inference per implementation. These measure *host* performance of
 * the simulator (how fast experiments run), complementing the
 * simulated-device measurements of the figure benches.
 *
 * Two harnesses share this binary:
 *  - `--emit-json[=PATH]` runs a self-contained chrono-timed harness
 *    and writes BENCH_micro_ops.json with simulated ops/sec for the
 *    consume dispatch, NvArray access, a sparse-FC inner loop, a
 *    Tile-128-sized redo-log task and a tiny SONIC inference: median,
 *    min and max over repeated runs, the per-op-draw reference numbers
 *    measured in the same run (so the lease speedup is a same-run
 *    ratio), and the environment they were measured in. CI runs this
 *    in Release and uploads the JSON.
 *  - without arguments, the google-benchmark suite runs (when the
 *    library is available at configure time).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/memory.hh"
#include "dnn/device_net.hh"
#include "fixed/fixed.hh"
#include "kernels/kernel_util.hh"
#include "kernels/runner.hh"
#include "task/runtime.hh"
#include "tests/test_helpers.hh"

#ifdef SONIC_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

using namespace sonic;

namespace
{

arch::Device
continuousDevice(bool per_op_draw = false)
{
    arch::DeviceConfig config;
    config.perOpPowerDraw = per_op_draw;
    return arch::Device(arch::EnergyProfile::msp430fr5994(),
                        std::make_unique<arch::ContinuousPower>(),
                        config);
}

/** Total simulated op instances charged so far on a device. */
u64
simulatedOps(const arch::Device &dev)
{
    u64 ops = 0;
    for (u32 o = 0; o < arch::kNumOps; ++o)
        ops += dev.stats().opCount(static_cast<arch::Op>(o));
    return ops;
}

/** Chrono-timed harness: runs body(iters) with growing iteration
 * counts until it takes at least min_seconds, then reports simulated
 * ops per second (the body reports how many simulated ops one
 * iteration charges). */
template <typename F>
f64
measureOpsPerSec(u64 ops_per_iter, F &&body, f64 min_seconds = 0.1)
{
    using clock = std::chrono::steady_clock;
    u64 iters = 1024;
    for (;;) {
        const auto t0 = clock::now();
        body(iters);
        const f64 s =
            std::chrono::duration<f64>(clock::now() - t0).count();
        if (s >= min_seconds) {
            return static_cast<f64>(iters)
                * static_cast<f64>(ops_per_iter) / s;
        }
        iters *= s > 0.01 ? 4 : 16;
    }
}

/** Timed repeats per case; each case reports median, min and max. */
constexpr u32 kRepeats = 5;

/** One case's throughput over kRepeats runs of the harness. */
struct Measured
{
    std::string key;
    f64 median = 0.0;
    f64 min = 0.0;
    f64 max = 0.0;
};

template <typename F>
Measured
measureRepeated(std::string key, u64 ops_per_iter, F &&body)
{
    std::vector<f64> runs;
    for (u32 r = 0; r < kRepeats; ++r)
        runs.push_back(measureOpsPerSec(ops_per_iter, body));
    std::sort(runs.begin(), runs.end());
    return {std::move(key), runs[kRepeats / 2], runs.front(),
            runs.back()};
}

/** The --emit-json harness (see file header). */
int
emitJson(const std::string &path)
{
    std::vector<Measured> cases;

    // --- Device::consume dispatch -------------------------------------
    // Single-op calls, lease fast path vs per-op virtual draw.
    {
        auto dev = continuousDevice();
        cases.push_back(measureRepeated(
            "consume_single_ops_per_sec", 1, [&](u64 n) {
                for (u64 i = 0; i < n; ++i)
                    dev.consume(arch::Op::FixedMul);
            }));
    }
    {
        auto dev = continuousDevice(/*per_op_draw=*/true);
        cases.push_back(measureRepeated(
            "consume_single_per_op_draw_ops_per_sec", 1, [&](u64 n) {
                for (u64 i = 0; i < n; ++i)
                    dev.consume(arch::Op::FixedMul);
            }));
    }
    // Span-batched charging (count=32), the shape the kernels dispatch
    // after the bulk-accessor migration.
    {
        auto dev = continuousDevice();
        cases.push_back(measureRepeated(
            "consume_batch32_ops_per_sec", 32, [&](u64 n) {
                for (u64 i = 0; i < n; ++i)
                    dev.consume(arch::Op::FixedMul, 32);
            }));
    }
    {
        auto dev = continuousDevice(/*per_op_draw=*/true);
        cases.push_back(measureRepeated(
            "consume_batch32_per_op_draw_ops_per_sec", 32, [&](u64 n) {
                for (u64 i = 0; i < n; ++i)
                    dev.consume(arch::Op::FixedMul, 32);
            }));
    }

    // --- NvArray access ------------------------------------------------
    {
        auto dev = continuousDevice();
        arch::NvArray<i16> arr(dev, 1024, "bench");
        u32 i = 0;
        cases.push_back(measureRepeated(
            "nvarray_rw_single_ops_per_sec", 2, [&](u64 n) {
                for (u64 k = 0; k < n; ++k) {
                    arr.write(i & 1023, static_cast<i16>(i));
                    volatile i16 v = arr.read(i & 1023);
                    (void)v;
                    ++i;
                }
            }));
    }
    {
        auto dev = continuousDevice(/*per_op_draw=*/true);
        arch::NvArray<i16> arr(dev, 1024, "bench");
        u32 i = 0;
        cases.push_back(measureRepeated(
            "nvarray_rw_per_op_draw_ops_per_sec", 2, [&](u64 n) {
                for (u64 k = 0; k < n; ++k) {
                    arr.write(i & 1023, static_cast<i16>(i));
                    volatile i16 v = arr.read(i & 1023);
                    (void)v;
                    ++i;
                }
            }));
    }
    // Span accessors: one 64-word bulk write + read round trip (the
    // kernels' post-migration access shape), reported per word moved.
    {
        auto dev = continuousDevice();
        arch::NvArray<i16> arr(dev, 1024, "bench");
        i16 buf[64] = {};
        u32 i = 0;
        cases.push_back(measureRepeated(
            "nvarray_span64_words_per_sec", 128, [&](u64 n) {
                for (u64 k = 0; k < n; ++k) {
                    const u64 base = (i & 15) * 64;
                    arr.writeRange(base, 64, buf);
                    arr.readRange(base, 64, buf);
                    ++i;
                }
            }));
    }

    // --- Sparse-FC inner loop (base.cc's CSC traversal shape) ----------
    // Synthetic CSC: 64 columns x 8 taps into a 256-row output, charged
    // exactly as kernels/base.cc sparseFc charges its accumulation.
    {
        auto dev = continuousDevice();
        constexpr u32 kCols = 64;
        constexpr u32 kTaps = 8;
        constexpr u32 kRows = 256;
        arch::NvArray<i16> colPtr(dev, kCols + 1, "bench.colPtr");
        arch::NvArray<i16> rowIdx(dev, kCols * kTaps, "bench.rowIdx");
        arch::NvArray<i16> vals(dev, kCols * kTaps, "bench.vals");
        arch::NvArray<i16> src(dev, kCols, "bench.src");
        arch::NvArray<i16> dst(dev, kRows, "bench.dst");
        for (u32 c = 0; c <= kCols; ++c)
            colPtr.poke(c, static_cast<i16>(c * kTaps));
        for (u32 t = 0; t < kCols * kTaps; ++t) {
            rowIdx.poke(t, static_cast<i16>((t * 37) % kRows));
            vals.poke(t, static_cast<i16>(t % 251));
        }
        const u64 mark = simulatedOps(dev);
        i16 rows[kTaps];
        i16 ws[kTaps];
        auto inner = [&](u64 n) {
            for (u64 rep = 0; rep < n; ++rep) {
                for (u32 c = 0; c < kCols; ++c) {
                    const auto first =
                        static_cast<u32>(colPtr.read(c));
                    const auto last =
                        static_cast<u32>(colPtr.read(c + 1));
                    const i16 x = src.read(c);
                    const u32 k = last - first;
                    rowIdx.readRange(first, k, rows);
                    vals.readRange(first, k, ws);
                    kernels::addr1(dev, k);
                    kernels::chargeMacQ(dev, k);
                    kernels::loopStep(dev, k);
                    for (u32 t = 0; t < k; ++t) {
                        const auto r = static_cast<u32>(rows[t]);
                        dev.consume(arch::Op::FramLoad);
                        dev.consume(arch::Op::FramStore);
                        dst.poke(r,
                                 kernels::addQRaw(
                                     dst.peek(r),
                                     kernels::mulQRaw(ws[t], x)));
                    }
                }
            }
        };
        // Calibrate simulated ops per outer iteration once.
        inner(1);
        const u64 ops_per_iter = simulatedOps(dev) - mark;
        cases.push_back(measureRepeated("sparse_fc_inner_ops_per_sec",
                                        ops_per_iter, inner));
    }

    // --- Redo log: one Tile-128-sized task -----------------------------
    // 128 logged writes, 128 logged reads of the same words, then the
    // two-phase commit: the per-task shape of Tile-128 on the miss
    // path. The Scheduler (and its read index) is reused, as a kernel
    // reuses it across tasks.
    {
        auto dev = continuousDevice();
        arch::NvArray<i16> arr(dev, 1024, "bench");
        task::Program prog;
        u32 round = 0;
        const task::TaskId t =
            prog.addTask("tile", [&](task::Runtime &rt) {
                const u32 base = (round++ & 7) * 128;
                for (u32 k = 0; k < 128; ++k)
                    rt.logWrite(arr, base + k,
                                static_cast<i16>(k + round));
                for (u32 k = 0; k < 128; ++k) {
                    volatile i16 v = rt.logRead(arr, base + k);
                    (void)v;
                }
                return task::kDone;
            });
        task::Scheduler sched(dev, prog);
        const u64 mark = simulatedOps(dev);
        (void)sched.run(t);
        const u64 ops_per_iter = simulatedOps(dev) - mark;
        cases.push_back(measureRepeated(
            "redo_log_rw_ops_per_sec", ops_per_iter, [&](u64 n) {
                for (u64 k = 0; k < n; ++k)
                    (void)sched.run(t);
            }));
    }

    // --- End-to-end: tiny-network SONIC inference ----------------------
    {
        const auto spec = testutil::tinyNet();
        const auto input = testutil::tinyInput();
        u64 ops_per_iter = 0;
        {
            auto dev = continuousDevice();
            dnn::DeviceNetwork net(dev, spec);
            net.loadInput(input);
            (void)kernels::runInference(net, kernels::Impl::Sonic);
            ops_per_iter = simulatedOps(dev);
        }
        cases.push_back(measureRepeated(
            "tiny_inference_sonic_sim_ops_per_sec", ops_per_iter,
            [&](u64 n) {
                for (u64 k = 0; k < n; ++k) {
                    auto dev = continuousDevice();
                    dnn::DeviceNetwork net(dev, spec);
                    net.loadInput(input);
                    (void)kernels::runInference(net,
                                                kernels::Impl::Sonic);
                }
            }));
    }

    // Same-run speedups of the medians (lease + batching vs per-op
    // virtual draw).
    auto median = [&](const char *key) -> f64 {
        for (const auto &c : cases)
            if (c.key == key)
                return c.median;
        return 0.0;
    };
    const std::pair<const char *, f64> speedups[] = {
        {"speedup_consume_batch32_vs_per_op_draw",
         median("consume_batch32_ops_per_sec")
             / median("consume_batch32_per_op_draw_ops_per_sec")},
        {"speedup_consume_single_vs_per_op_draw",
         median("consume_single_ops_per_sec")
             / median("consume_single_per_op_draw_ops_per_sec")},
        {"speedup_nvarray_span64_vs_single_per_op_draw",
         median("nvarray_span64_words_per_sec")
             / median("nvarray_rw_per_op_draw_ops_per_sec")},
    };

    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"micro_ops\",\n");
    std::fprintf(out, "  \"unit\": \"simulated ops per second\",\n");
    std::fprintf(out,
                 "  \"environment\": {\"threads\": 1, \"nproc\": %u, "
                 "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
                 "\"compiler\": \"%s\", \"repeats\": %u},\n",
                 std::thread::hardware_concurrency(),
                 SONIC_BENCH_BUILD_TYPE, SONIC_BENCH_CXX_FLAGS,
                 SONIC_BENCH_COMPILER, kRepeats);
    for (const auto &c : cases) {
        std::fprintf(out,
                     "  \"%s\": {\"median\": %.6g, \"min\": %.6g, "
                     "\"max\": %.6g},\n",
                     c.key.c_str(), c.median, c.min, c.max);
        std::printf("%-40s %.4g  [%.4g, %.4g]\n", c.key.c_str(),
                    c.median, c.min, c.max);
    }
    for (u64 i = 0; i < std::size(speedups); ++i) {
        std::fprintf(out, "  \"%s\": %.6g%s\n", speedups[i].first,
                     speedups[i].second,
                     i + 1 < std::size(speedups) ? "," : "");
        std::printf("%-40s %.4g\n", speedups[i].first,
                    speedups[i].second);
    }
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
    return 0;
}

} // namespace

#ifdef SONIC_HAVE_GBENCH

namespace
{

void
BM_DeviceConsume(benchmark::State &state)
{
    auto dev = continuousDevice();
    for (auto _ : state)
        dev.consume(arch::Op::FixedMul);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceConsume);

void
BM_DeviceConsumePerOpDraw(benchmark::State &state)
{
    auto dev = continuousDevice(/*per_op_draw=*/true);
    for (auto _ : state)
        dev.consume(arch::Op::FixedMul);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceConsumePerOpDraw);

void
BM_DeviceConsumeBatch32(benchmark::State &state)
{
    auto dev = continuousDevice();
    for (auto _ : state)
        dev.consume(arch::Op::FixedMul, 32);
    state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_DeviceConsumeBatch32);

void
BM_NvArrayReadWrite(benchmark::State &state)
{
    auto dev = continuousDevice();
    arch::NvArray<i16> arr(dev, 1024, "bench");
    u32 i = 0;
    for (auto _ : state) {
        arr.write(i & 1023, static_cast<i16>(i));
        benchmark::DoNotOptimize(arr.read(i & 1023));
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_NvArrayReadWrite);

void
BM_NvArraySpan64(benchmark::State &state)
{
    auto dev = continuousDevice();
    arch::NvArray<i16> arr(dev, 1024, "bench");
    i16 buf[64] = {};
    u32 i = 0;
    for (auto _ : state) {
        const u64 base = (i & 15) * 64;
        arr.writeRange(base, 64, buf);
        arr.readRange(base, 64, buf);
        benchmark::DoNotOptimize(buf[0]);
        ++i;
    }
    state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_NvArraySpan64);

void
BM_FixedMulAdd(benchmark::State &state)
{
    fixed::Q78 acc;
    fixed::Q78 a = fixed::Q78::fromFloat(0.37);
    fixed::Q78 b = fixed::Q78::fromFloat(1.21);
    for (auto _ : state) {
        acc = acc + a * b;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FixedMulAdd);

void
BM_RedoLogWriteCommit(benchmark::State &state)
{
    auto dev = continuousDevice();
    task::Program prog;
    arch::NvArray<i16> arr(dev, 64, "a");
    const auto entries = static_cast<u32>(state.range(0));
    const task::TaskId t =
        prog.addTask("t", [&](task::Runtime &rt) {
            for (u32 k = 0; k < entries; ++k)
                rt.logWrite(arr, k % 64, static_cast<i16>(k));
            return task::kDone;
        });
    for (auto _ : state) {
        task::Scheduler sched(dev, prog);
        benchmark::DoNotOptimize(sched.run(t).completed);
    }
    state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_RedoLogWriteCommit)->Arg(8)->Arg(32)->Arg(128);

void
BM_ImplRegistryLookup(benchmark::State &state)
{
    auto &registry = kernels::ImplRegistry::instance();
    for (auto _ : state) {
        benchmark::DoNotOptimize(registry.find("SONIC"));
        benchmark::DoNotOptimize(registry.find(kernels::Impl::Tails));
    }
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_ImplRegistryLookup);

void
BM_RedoLogRead(benchmark::State &state)
{
    // Reads against a log holding `entries` uncommitted writes — the
    // Tile-128 shape that used to pay a reverse linear scan per read.
    auto dev = continuousDevice();
    task::Program prog;
    arch::NvArray<i16> arr(dev, 1024, "a");
    const auto entries = static_cast<u32>(state.range(0));
    u64 sink = 0;
    const task::TaskId t =
        prog.addTask("t", [&](task::Runtime &rt) {
            for (u32 k = 0; k < entries; ++k)
                rt.logWrite(arr, k % 1024, static_cast<i16>(k));
            for (u32 k = 0; k < entries; ++k)
                sink += static_cast<u64>(rt.logRead(arr, k % 1024));
            return task::kDone;
        });
    for (auto _ : state) {
        task::Scheduler sched(dev, prog);
        benchmark::DoNotOptimize(sched.run(t).completed);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_RedoLogRead)->Arg(8)->Arg(128)->Arg(1024);

void
BM_TinyInference(benchmark::State &state)
{
    const auto impl = static_cast<kernels::Impl>(state.range(0));
    const auto spec = testutil::tinyNet();
    const auto input = testutil::tinyInput();
    for (auto _ : state) {
        auto dev = continuousDevice();
        dnn::DeviceNetwork net(dev, spec);
        net.loadInput(input);
        benchmark::DoNotOptimize(
            kernels::runInference(net, impl).completed);
    }
}
BENCHMARK(BM_TinyInference)
    ->Arg(static_cast<int>(kernels::Impl::Base))
    ->Arg(static_cast<int>(kernels::Impl::Tile8))
    ->Arg(static_cast<int>(kernels::Impl::Sonic))
    ->Arg(static_cast<int>(kernels::Impl::Tails));

void
BM_TinyIntermittentSonic(benchmark::State &state)
{
    const auto spec = testutil::tinyNet();
    const auto input = testutil::tinyInput();
    for (auto _ : state) {
        arch::Device dev(arch::EnergyProfile::msp430fr5994(),
                         std::make_unique<arch::FailEveryOps>(
                             static_cast<u64>(state.range(0))));
        dnn::DeviceNetwork net(dev, spec);
        net.loadInput(input);
        benchmark::DoNotOptimize(
            kernels::runInference(net, kernels::Impl::Sonic)
                .completed);
    }
}
BENCHMARK(BM_TinyIntermittentSonic)->Arg(127)->Arg(1031);

} // namespace

#endif // SONIC_HAVE_GBENCH

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--emit-json") == 0)
            return emitJson("BENCH_micro_ops.json");
        if (std::strncmp(argv[i], "--emit-json=", 12) == 0)
            return emitJson(argv[i] + 12);
    }
#ifdef SONIC_HAVE_GBENCH
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
#else
    std::fprintf(stderr,
                 "google-benchmark not built in; run with "
                 "--emit-json[=PATH] for the chrono harness\n");
    return 1;
#endif
}
