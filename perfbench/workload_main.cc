/**
 * @file
 * The benchmark's workload program: one process runs one workload from a cold
 * start and prints one JSON object describing it on stdout.
 *
 *     perfbench_workload --workload=fleet-replay --seed=1 --seconds=4
 *     perfbench_workload --workload=sweep-kernels --seed=1 --seconds=8 \
 *         --traced
 *
 * A process first warms the model zoo (the set-up a CLI user pays on
 * every invocation), then repeats the workload for about `--seconds`,
 * checking the outputs of every repeat after its timer stops. With `--traced` it alternates an untraced repeat with a
 * traced one, which times calls into the library's public functions
 * from this file (a timing FleetSink, a sequential Engine::runOne pass
 * and timers around ModelZoo::get and telemetry::aggregate) and
 * reports per-layer metrics. run.py turns several processes' objects
 * into the benchmark's result.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/engine.hh"
#include "dnn/zoo.hh"
#include "fleet/fleet.hh"
#include "telemetry/aggregate.hh"
#include "telemetry/sonicz.hh"
#include "timing_sink.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "workloads.hh"

namespace
{

using namespace sonic;
using namespace perfbench;

// Worker threads, at most: fewer than the cores of a 4-core host, so
// work that other tenants of a shared host run beside the benchmark
// slows it less, and less unevenly.
constexpr u32 kMaxThreads = 2;

// Workload sizes: each repeat is about a second of host time at two
// threads, so a process fits about two repeats after its set-up.
constexpr u32 kFleetReplayDevices = 100000;
constexpr u32 kTelemetryDevices = 40000;
constexpr u32 kSweepSamples = 6;

// Devices per traced repeat compared against fleet::simulateDevice.
constexpr u32 kReferenceDevices = 32;

/** Check accounting: every check counts as attempted; the first few
 * failures keep their description. */
struct Checks
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        if (failures.size() < 8)
            failures.push_back(what);
    }
};

/** Per-layer metrics of one traced repeat, in report order. */
using Layers = std::vector<std::pair<std::string, double>>;

double
since(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
hex(u64 value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
number(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** The fleet-layer metrics every traced fleet repeat reports. */
void
fleetLayers(const TimingFleetSink &sink, Clock::time_point returned,
            const fleet::FleetSummary &summary, Layers &layers)
{
    const auto &cache = summary.cache;
    const double simulate = sink.simulateSeconds();
    layers.insert(
        layers.end(),
        {{"fleet.simulate_s", simulate},
         {"fleet.reduce_s", sink.reduceSeconds(returned)},
         {"fleet.round_hits", static_cast<double>(cache.roundHits)},
         {"fleet.round_misses", static_cast<double>(cache.roundMisses)},
         {"fleet.lifetime_hits", static_cast<double>(cache.lifetimeHits)},
         {"fleet.lifetime_misses",
          static_cast<double>(cache.lifetimeMisses)},
         {"fleet.uncached_rounds",
          static_cast<double>(cache.uncachedRounds)},
         {"fleet.hit_ratio", cache.hitRate()},
         {"fleet.reboots_replayed",
          static_cast<double>(summary.total.reboots)},
         {"fleet.ns_per_reboot",
          summary.total.reboots > 0
              ? simulate * 1e9 / static_cast<double>(summary.total.reboots)
              : 0.0},
         {"fleet.dnf_devices",
          static_cast<double>(summary.total.dnfDevices)}});
}

/** Compare the devices a timing sink kept against the unmemoized
 * reference simulation. */
void
checkAgainstReference(const fleet::FleetPlan &plan,
                      const std::vector<u32> &wanted,
                      const TimingFleetSink &sink, Checks &checks)
{
    checks.expect(sink.kept().size() == wanted.size(),
                  "timing sink saw " + std::to_string(sink.kept().size())
                      + " of " + std::to_string(wanted.size())
                      + " sampled devices");
    for (const auto &device : sink.kept()) {
        const u32 i = device.assignment.deviceIndex;
        checks.expect(sameTelemetry(device, fleet::simulateDevice(plan, i)),
                      "device " + std::to_string(i)
                          + " differs from fleet::simulateDevice");
    }
}

/** One workload: a timed untraced repeat, and a traced one. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Units of work per repeat (devices or runs). */
    virtual u64 work() const = 0;

    /** Run once untraced; return the timed seconds. */
    virtual double run(Checks &checks) = 0;

    /** Run once traced; return the timed seconds. Called after at
     * least one untraced repeat. */
    virtual double traced(Checks &checks, Layers &layers) = 0;

    /** Digest of the outputs, equal across processes. */
    virtual u64 outputDigest() const = 0;
};

fleet::FleetOptions
fleetOptions(u32 threads)
{
    fleet::FleetOptions options;
    options.threads = threads;
    return options;
}

/** `mixed-1k` scaled up, no sinks: the round-cache replay path. */
class FleetReplay : public Workload
{
  public:
    FleetReplay(u64 seed, u32 threads)
        : seed_(seed), plan_(fleetReplayPlan(seed, kFleetReplayDevices)),
          options_(fleetOptions(threads))
    {
    }

    u64 work() const override { return plan_.devices; }

    double
    run(Checks &checks) override
    {
        const auto t0 = Clock::now();
        const auto summary = fleet::runFleet(plan_, options_);
        const double seconds = since(t0);
        expectSummary(summary.toJson(), checks);
        return seconds;
    }

    double
    traced(Checks &checks, Layers &layers) override
    {
        const auto wanted =
            sampleDevices(seed_, plan_.devices, kReferenceDevices);
        TimingFleetSink sink(nullptr, wanted);
        const auto t0 = Clock::now();
        const auto summary = fleet::runFleet(plan_, options_, {&sink});
        const auto returned = Clock::now();
        fleetLayers(sink, returned, summary, layers);
        checks.expect(summary.toJson() == json_,
                      "traced summary differs from the untraced one");
        checkAgainstReference(plan_, wanted, sink, checks);
        return secondsBetween(t0, returned);
    }

    u64 outputDigest() const override { return digest(json_); }

  private:
    void
    expectSummary(const std::string &json, Checks &checks)
    {
        if (json_.empty())
            json_ = json;
        else
            checks.expect(json == json_,
                          "summary JSON differs between repeats");
    }

    u64 seed_;
    fleet::FleetPlan plan_;
    fleet::FleetOptions options_;
    std::string json_;
};

/** The `smoke-200` axes scaled up, written to .sonicz in memory and
 * folded back with telemetry::aggregate. */
class TelemetryRoundtrip : public Workload
{
  public:
    TelemetryRoundtrip(u64 seed, u32 threads)
        : seed_(seed), threads_(threads),
          plan_(telemetryPlan(seed, kTelemetryDevices)),
          options_(fleetOptions(threads))
    {
    }

    u64 work() const override { return plan_.devices; }

    double
    run(Checks &checks) override
    {
        std::stringstream file;
        const auto t0 = Clock::now();
        fleet::FleetSummary summary;
        {
            telemetry::SoniczFleetSink sink(file, threads_);
            summary = fleet::runFleet(plan_, options_, {&sink});
        }
        fleet::FleetSummary folded;
        std::string error;
        const bool read = telemetry::aggregate(file, &folded, &error);
        const double seconds = since(t0);
        expectRoundtrip(summary, read, error, folded, file.view(), checks);
        return seconds;
    }

    double
    traced(Checks &checks, Layers &layers) override
    {
        const auto wanted =
            sampleDevices(seed_, plan_.devices, kReferenceDevices);
        std::stringstream file;
        const auto t0 = Clock::now();
        telemetry::SoniczFleetSink sonicz(file, threads_);
        TimingFleetSink sink(&sonicz, wanted);
        const auto summary = fleet::runFleet(plan_, options_, {&sink});
        const auto returned = Clock::now();
        fleet::FleetSummary folded;
        std::string error;
        const bool read = telemetry::aggregate(file, &folded, &error);
        const double aggregate = since(returned);
        const double seconds = since(t0);

        fleetLayers(sink, returned, summary, layers);
        const double bytes = static_cast<double>(file.view().size());
        const double devices = static_cast<double>(plan_.devices);
        layers.insert(layers.end(),
                      {{"telemetry.encode_s", sink.encodeSeconds()},
                       {"telemetry.aggregate_s", aggregate},
                       {"telemetry.bytes_per_device", bytes / devices},
                       {"telemetry.decode_rows_per_s",
                        devices / aggregate}});
        expectRoundtrip(summary, read, error, folded, file.view(), checks);
        checkAgainstReference(plan_, wanted, sink, checks);
        return seconds;
    }

    u64
    outputDigest() const override
    {
        return digest(json_) ^ soniczDigest_;
    }

  private:
    void
    expectRoundtrip(const fleet::FleetSummary &summary, bool read,
                    const std::string &error,
                    const fleet::FleetSummary &folded,
                    std::string_view bytes, Checks &checks)
    {
        checks.expect(read, "aggregate failed: " + error);
        checks.expect(sameGroups(summary, folded),
                      "aggregate group stats differ from runFleet's");
        const std::string json = summary.toJson();
        const u64 sonicz = digest(bytes);
        if (json_.empty()) {
            json_ = json;
            soniczDigest_ = sonicz;
            return;
        }
        checks.expect(json == json_,
                      "summary JSON differs between repeats");
        checks.expect(sonicz == soniczDigest_,
                      ".sonicz bytes differ between repeats");
    }

    u64 seed_;
    u32 threads_;
    fleet::FleetPlan plan_;
    fleet::FleetOptions options_;
    std::string json_;
    u64 soniczDigest_ = 0;
};

/** The paper nets x all six kernels x three power environments: every
 * op simulated, no round cache, no replay. */
class SweepKernels : public Workload
{
  public:
    SweepKernels(u64 seed, u32 threads, u32 datasetSize)
        : threads_(threads),
          plan_(sweepPlan(seed, kSweepSamples, datasetSize)),
          engine_(app::EngineOptions{threads})
    {
    }

    u64 work() const override { return plan_.size(); }

    double
    run(Checks &checks) override
    {
        const auto t0 = Clock::now();
        auto records = engine_.run(plan_);
        const double seconds = since(t0);
        poolSeconds_.push_back(seconds);

        u64 h = 0;
        for (const auto &record : records)
            h = h * 0x100000001b3ull ^ recordDigest(record.result);
        if (records_.empty()) {
            records_ = std::move(records);
            digest_ = h;
            checkLogits(checks);
        } else {
            checks.expect(h == digest_,
                          "sweep results differ between repeats");
        }
        return seconds;
    }

    double
    traced(Checks &checks, Layers &layers) override
    {
        const auto specs = plan_.expand();
        std::map<std::string, double> implSeconds;
        for (kernels::Impl impl : kernels::kAllImpls)
            implSeconds[std::string(kernels::implName(impl))] = 0.0;
        runOneMs_.clear();
        double busy = 0.0;
        u64 ops = 0, reboots = 0, tasks = 0;

        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto r0 = Clock::now();
            const auto result = engine_.runOne(specs[i]);
            const double seconds = since(r0);
            busy += seconds;
            runOneMs_.push_back(seconds * 1e3);
            implSeconds[std::string(kernels::implName(specs[i].impl))] +=
                seconds;
            ops += result.opInstances;
            reboots += result.reboots;
            tasks += result.tasksExecuted;
            checks.expect(recordDigest(result)
                              == recordDigest(records_[i].result),
                          "runOne differs from the pooled sweep at plan "
                          "index " + std::to_string(i));
        }
        const double seconds = since(t0);

        for (kernels::Impl impl : kernels::kAllImpls) {
            const std::string name(kernels::implName(impl));
            layers.emplace_back("kernels.run_s." + name,
                                implSeconds[name]);
        }
        layers.insert(
            layers.end(),
            {{"arch.op_instances", static_cast<double>(ops)},
             {"arch.sim_ops_per_s", static_cast<double>(ops) / busy},
             {"arch.reboots", static_cast<double>(reboots)},
             {"task.tasks_executed", static_cast<double>(tasks)},
             {"kernels.dnf_runs", static_cast<double>(dnfRuns_)},
             {"kernels.tails_tile_mismatch_runs",
              static_cast<double>(tileMismatchRuns_)},
             {"kernels.useful_op_ratio", usefulOpRatio_},
             {"app.pool_efficiency",
              busy / (threads_ * median(poolSeconds_))}});
        return seconds;
    }

    u64 outputDigest() const override { return digest_; }

    /** Per-run host milliseconds of the last traced pass. */
    const std::vector<double> &runOneMs() const { return runOneMs_; }

  private:
    /**
     * Every completed intermittent run must reproduce the continuous
     * run's logits for the same net, kernel and sample. A TAILS run
     * that calibrated a different LEA tile computes a different
     * (tile-dependent) fixed-point result, so it is counted apart and
     * neither passes nor fails.
     */
    void
    checkLogits(Checks &checks)
    {
        std::map<std::string, const app::ExperimentResult *> continuous;
        const auto key = [](const app::RunSpec &spec) {
            return spec.net + "/"
                + std::string(kernels::implName(spec.impl)) + "/"
                + std::to_string(spec.sampleIndex);
        };
        for (const auto &record : records_)
            if (record.spec.environment.label() == "continuous") {
                continuous[key(record.spec)] = &record.result;
                checks.expect(record.result.completed,
                              "continuous run " + key(record.spec)
                                  + " did not complete");
            }

        u64 continuousOps = 0, intermittentOps = 0;
        for (const auto &record : records_) {
            if (record.spec.environment.label() == "continuous")
                continue;
            const auto &r = record.result;
            const std::string where =
                key(record.spec) + " at "
                + record.spec.environment.label();
            if (!r.completed) {
                checks.expect(r.nonTerminating,
                              where + " neither completed nor DNF");
                ++dnfRuns_;
                continue;
            }
            const auto &c = *continuous.at(key(record.spec));
            continuousOps += c.opInstances;
            intermittentOps += r.opInstances;
            if (record.spec.impl == kernels::Impl::Tails
                && r.tailsTileWords != c.tailsTileWords) {
                ++tileMismatchRuns_;
                continue;
            }
            checks.expect(r.logits == c.logits,
                          where + " logits differ from continuous");
        }
        usefulOpRatio_ = intermittentOps > 0
            ? static_cast<double>(continuousOps)
                  / static_cast<double>(intermittentOps)
            : 0.0;
    }

    u32 threads_;
    app::SweepPlan plan_;
    app::Engine engine_;
    std::vector<app::SweepRecord> records_;
    u64 digest_ = 0;
    std::vector<double> poolSeconds_;
    std::vector<double> runOneMs_;
    u64 dnfRuns_ = 0;
    u64 tileMismatchRuns_ = 0;
    double usefulOpRatio_ = 0.0;
};

std::string
jsonArray(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + number(values[i]);
    return out + "]";
}

int
usage(const char *why)
{
    std::cerr << "perfbench_workload: " << why << "\n"
              << "usage: perfbench_workload "
                 "--workload=fleet-replay|sweep-kernels|"
                 "telemetry-roundtrip --seed=N --seconds=S [--traced]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    // Without NDEBUG, FleetOptions::verifyCache re-simulates every
    // cache hit and the per-op debug asserts are live: a different
    // program from the one users run.
    std::cerr << "perfbench_workload: built without NDEBUG; refusing to "
                 "measure a debug build\n";
    return 2;
#endif

    std::string workloadName, seedText, secondsText;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (cli::consumeFlag(arg, "--workload", &workloadName)
            || cli::consumeFlag(arg, "--seed", &seedText)
            || cli::consumeFlag(arg, "--seconds", &secondsText))
            continue;
        if (arg == "--traced") {
            traced = true;
            continue;
        }
        return usage(("unknown argument " + arg).c_str());
    }
    u64 seed = 0;
    double budget = 0.0;
    try {
        std::size_t used = 0;
        seed = std::stoull(seedText, &used);
        if (used != seedText.size())
            return usage("--seed must be a whole number");
        budget = std::stod(secondsText, &used);
        if (used != secondsText.size() || !(budget >= 0.0)
            || budget > 3600.0)
            return usage("--seconds must be a number in [0, 3600]");
    } catch (const std::exception &) {
        return usage("--seed and --seconds are required numbers");
    }
    if (workloadName != "fleet-replay" && workloadName != "sweep-kernels"
        && workloadName != "telemetry-roundtrip")
        return usage(("unknown workload '" + workloadName + "'").c_str());
    const u32 threads = std::min(
        kMaxThreads, std::max(1u, std::thread::hardware_concurrency()));

    // Set-up: the cold zoo warm-up every CLI invocation pays.
    Layers layers;
    double datasetSeconds = 0.0;
    u32 datasetSize = ~0u;
    const auto setupStart = Clock::now();
    for (const auto &net : kNets) {
        const auto t0 = Clock::now();
        const auto &entry = dnn::ModelZoo::instance().get(net);
        entry.compressed();
        layers.emplace_back("dnn.build_s." + net, since(t0));
        const auto t1 = Clock::now();
        datasetSize = std::min<u32>(
            datasetSize, static_cast<u32>(entry.dataset().size()));
        datasetSeconds += since(t1);
    }
    const double setupSeconds = since(setupStart);
    layers.emplace_back("dnn.dataset_s", datasetSeconds);

    std::unique_ptr<Workload> workload;
    if (workloadName == "fleet-replay")
        workload = std::make_unique<FleetReplay>(seed, threads);
    else if (workloadName == "telemetry-roundtrip")
        workload = std::make_unique<TelemetryRoundtrip>(seed, threads);
    else
        workload =
            std::make_unique<SweepKernels>(seed, threads, datasetSize);

    Checks checks;
    std::vector<double> runSeconds, tracedSeconds;
    Layers tracedLayers;
    // Repeat at least once, and start another repeat only if it is
    // expected to end within the budget, so a slow host stretches the
    // run by at most one repeat per process.
    const auto loopStart = Clock::now();
    double lastRepeat = 0.0;
    double peakRssMb = 0.0;
    while (runSeconds.empty() || since(loopStart) + lastRepeat <= budget) {
        const auto t0 = Clock::now();
        runSeconds.push_back(workload->run(checks));
        if (runSeconds.size() == 1) {
            // Peak memory of set-up plus one repeat, as one CLI run
            // would use; later repeats raise it by a varying amount.
            rusage resources{};
            getrusage(RUSAGE_SELF, &resources);
            peakRssMb = static_cast<double>(resources.ru_maxrss) / 1024.0;
        }
        if (traced) {
            tracedLayers.clear();
            tracedSeconds.push_back(workload->traced(checks, tracedLayers));
        }
        lastRepeat = since(t0);
    }
    // Cold set-up plus a typical repeat: what a CLI user waits for.
    const double wallSeconds = setupSeconds + median(runSeconds);

    std::ostringstream out;
    out << "{\"workload\": " << jsonQuote(workloadName)
        << ", \"seed\": " << seed << ", \"threads\": " << threads
        << ", \"setup_s\": " << number(setupSeconds)
        << ", \"wall_s\": " << number(wallSeconds)
        << ", \"work\": " << workload->work()
        << ", \"run_s\": " << jsonArray(runSeconds)
        << ", \"peak_rss_mb\": " << number(peakRssMb)
        << ", \"attempted\": " << checks.attempted
        << ", \"failed\": " << checks.failed << ", \"failures\": [";
    for (std::size_t i = 0; i < checks.failures.size(); ++i)
        out << (i ? ", " : "") << jsonQuote(checks.failures[i]);
    out << "], \"digest\": \"" << hex(workload->outputDigest()) << "\"";
    if (traced) {
        layers.insert(layers.end(), tracedLayers.begin(),
                      tracedLayers.end());
        out << ", \"traced_s\": " << jsonArray(tracedSeconds)
            << ", \"layers\": {";
        for (std::size_t i = 0; i < layers.size(); ++i)
            out << (i ? ", " : "") << jsonQuote(layers[i].first) << ": "
                << number(layers[i].second);
        out << "}";
        if (auto *sweep = dynamic_cast<SweepKernels *>(workload.get()))
            out << ", \"runone_ms\": " << jsonArray(sweep->runOneMs());
    }
    out << ", \"environment\": {\"build_type\": "
        << jsonQuote(PERFBENCH_BUILD_TYPE)
        << ", \"cxx_flags\": " << jsonQuote(PERFBENCH_CXX_FLAGS)
        << ", \"compiler\": " << jsonQuote(PERFBENCH_COMPILER)
        << ", \"ndebug\": true"
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"threads\": " << threads << "}}";
    std::cout << out.str() << std::endl;
    return 0;
}
