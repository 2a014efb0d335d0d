/**
 * @file
 * sonic_fleet — the deployment fleet simulator CLI.
 *
 * Runs a fleet of intermittently-powered inference devices across
 * harvested-energy environments and reports per-device and aggregate
 * telemetry:
 *
 *     sonic_fleet --scenario=mixed-1k --summary=fleet_summary.json
 *     sonic_fleet --devices=500 --nets=MNIST,HAR --impls=SONIC,TAILS \
 *                 --envs=solar@1mF,rf-paper@100uF --csv=fleet.csv
 *     sonic_fleet --trace=my-site=site_power.csv --envs=my-site@1mF \
 *                 --devices=50
 *     sonic_fleet --from-plan=plan.json --summary=planned.json
 *
 * --from-plan replays a sonic_plan artifact: the plan carries its own
 * scenario (axes, seed, horizon) plus the per-coordinate kernel
 * assignment, so the planned deployment rebuilds exactly — no
 * matching flags required. Axis overrides that keep the coordinate
 * set intact (e.g. --devices, --threads) still apply afterwards.
 *
 * --list-envs and --list-scenarios enumerate the registered
 * environments and the named scenarios. The process exits 1 when the
 * fleet completed zero inferences (a deployment that delivers nothing
 * is a failure unless --allow-zero says otherwise), so CI can gate on
 * the exit code alone. A fleet whose telemetry columns could not fit
 * in the host's physical memory is refused with exit 2 before anything
 * is allocated (fleet::checkFleetMemory).
 */

#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hh"
#include "plan/plan.hh"
#include "telemetry/sonicz.hh"
#include "trace/trace.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace
{

using namespace sonic;
using cli::consumeFlag;
using cli::splitCsv;

constexpr u32 kU32Max = std::numeric_limits<u32>::max();
constexpr u64 kU64Max = std::numeric_limits<u64>::max();

/** --threads cap: every worker is an OS thread, and so is every
 * .sonicz block encoder. */
using cli::kMaxThreads;

/** The worker count runFleet resolves 0 to. */
u32
effectiveThreads(u32 requested)
{
    return requested > 0
        ? requested
        : std::max(1u, std::thread::hardware_concurrency());
}

int
usage()
{
    std::cerr
        << "usage: sonic_fleet [--scenario=NAME]\n"
           "                   [--devices=N] [--nets=A,B,...]\n"
           "                   [--impls=SONIC,TAILS,...]\n"
           "                   [--envs=solar@1mF,rf-paper,...]\n"
           "                   [--pipelines=wildlife,infer-only,...]\n"
           "                   [--horizon=SECONDS]\n"
           "                   [--max-inferences=K] [--threads=T]\n"
           "                   [--seed=S] [--csv=PATH]\n"
           "                   [--json=PATH] [--sonicz=PATH]\n"
           "                   [--summary=PATH]\n"
           "                   [--from-plan=PLAN.json]\n"
           "                   [--trace=NAME=FILE] [--allow-zero]\n"
           "                   [--trace-out=RUN.sonictrace]\n"
           "                   [--trace-every=N] [--progress]\n"
           "                   [--require-delivered]\n"
           "                   [--list-envs] [--list-scenarios]\n"
           "                   [--list-pipelines]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    fleet::FleetPlan plan;
    fleet::FleetOptions options;
    bool allow_zero = false;
    bool require_delivered = false;
    bool require_cache_hits = false;
    std::string csv_path, json_path, sonicz_path, summary_path;
    std::string trace_out_path;
    std::vector<std::string> trace_args;
    std::string value;

    // Two passes: traces must register and --scenario/--from-plan
    // must resolve before axis overrides apply, whatever the flag
    // order was.
    std::vector<std::string> args(argv + 1, argv + argc);
    // Parse the current flag's value as a number in [lo, hi] into
    // *out; on a bad value print why and fail (the caller exits 2).
    const auto number = [&value](const char *flag, auto lo, auto hi,
                                 auto *out) {
        return cli::numberFlag(flag, value, lo, hi, out);
    };
    for (const auto &arg : args) {
        if (consumeFlag(arg, "--trace", &value)) {
            trace_args.push_back(value);
        } else if (consumeFlag(arg, "--from-plan", &value)) {
            std::ifstream in(value);
            if (!in) {
                std::cerr << "cannot read " << value << "\n";
                return 2;
            }
            std::ostringstream text;
            text << in.rdbuf();
            sonic::plan::Plan deployment;
            std::string error;
            if (!sonic::plan::Plan::fromJson(text.str(),
                                             &deployment,
                                             &error)) {
                std::cerr << "bad plan " << value << ": "
                          << error << "\n";
                return 2;
            }
            plan = deployment.toFleetPlan();
        } else if (consumeFlag(arg, "--scenario", &value)) {
            bool found = false;
            for (const auto &scenario :
                 fleet::namedScenarios()) {
                if (scenario.name == value) {
                    plan = scenario.plan;
                    found = true;
                }
            }
            if (!found) {
                std::cerr << "unknown scenario '" << value
                          << "' (--list-scenarios)\n";
                return 2;
            }
        }
    }

    for (const auto &trace : trace_args) {
        const auto eq = trace.find('=');
        if (eq == std::string::npos || eq == 0) {
            std::cerr << "--trace expects NAME=FILE (got '"
                      << trace << "')\n";
            return 2;
        }
        std::string error;
        if (!env::EnvRegistry::instance().addTraceFile(
                trace.substr(0, eq), trace.substr(eq + 1),
                &error)) {
            std::cerr << "cannot register trace: " << error
                      << "\n";
            return 2;
        }
    }

    for (const auto &arg : args) {
        if (consumeFlag(arg, "--trace", &value)
            || consumeFlag(arg, "--scenario", &value)
            || consumeFlag(arg, "--from-plan", &value)) {
            continue; // handled above
        } else if (arg == "--list-envs") {
            auto &registry = env::EnvRegistry::instance();
            for (const auto &name : registry.names()) {
                const auto *meta = registry.meta(name);
                std::cout
                    << name << " [" << meta->family << "] — "
                    << meta->description << " (default "
                    << env::formatCapacitance(
                           meta->defaultCapacitanceFarads)
                    << ")\n";
            }
            return 0;
        } else if (arg == "--list-scenarios") {
            for (const auto &scenario : fleet::namedScenarios())
                std::cout << scenario.name << " — "
                          << scenario.description << "\n";
            return 0;
        } else if (arg == "--list-pipelines") {
            std::cout
                << pipeline::PipelineRegistry::instance()
                       .availableList();
            return 0;
        } else if (consumeFlag(arg, "--devices", &value)) {
            if (!number("--devices", u32{1}, kU32Max, &plan.devices))
                return 2;
        } else if (consumeFlag(arg, "--nets", &value)) {
            plan.nets = splitCsv(value);
        } else if (consumeFlag(arg, "--impls", &value)) {
            plan.impls.clear();
            for (const auto &name : splitCsv(value)) {
                const auto *info =
                    kernels::ImplRegistry::instance().find(name);
                if (info == nullptr) {
                    std::cerr << "unknown implementation '" << name
                              << "'\n";
                    return 2;
                }
                plan.impls.push_back(info->id);
            }
        } else if (consumeFlag(arg, "--envs", &value)) {
            plan.environments.clear();
            for (const auto &label : splitCsv(value)) {
                env::EnvRef ref;
                std::string error;
                if (!env::parseEnvRef(label, &ref, &error)) {
                    std::cerr << error << "\n";
                    return 2;
                }
                plan.environments.push_back(std::move(ref));
            }
        } else if (consumeFlag(arg, "--pipelines", &value)) {
            plan.pipelines = splitCsv(value);
        } else if (consumeFlag(arg, "--horizon", &value)) {
            if (!number("--horizon", cli::kMinHorizonSeconds,
                        cli::kMaxHorizonSeconds,
                        &plan.horizonSeconds))
                return 2;
        } else if (consumeFlag(arg, "--max-inferences", &value)) {
            if (!number("--max-inferences", u32{0}, kU32Max,
                        &plan.maxInferencesPerDevice))
                return 2;
        } else if (consumeFlag(arg, "--threads", &value)) {
            if (!number("--threads", u32{0}, kMaxThreads,
                        &options.threads))
                return 2;
        } else if (consumeFlag(arg, "--seed", &value)) {
            if (!number("--seed", u64{0}, kU64Max, &plan.baseSeed))
                return 2;
        } else if (consumeFlag(arg, "--trace-out", &value)) {
            trace_out_path = value;
        } else if (consumeFlag(arg, "--trace-every", &value)) {
            if (!number("--trace-every", u32{0}, kU32Max,
                        &plan.traceEvery))
                return 2;
        } else if (arg == "--progress") {
            options.progress = true;
        } else if (consumeFlag(arg, "--csv", &value)) {
            csv_path = value;
        } else if (consumeFlag(arg, "--json", &value)) {
            json_path = value;
        } else if (consumeFlag(arg, "--sonicz", &value)) {
            sonicz_path = value;
        } else if (consumeFlag(arg, "--summary", &value)) {
            summary_path = value;
        } else if (arg == "--no-cache") {
            options.useCache = false;
        } else if (arg == "--require-cache-hits") {
            require_cache_hits = true;
        } else if (arg == "--allow-zero") {
            allow_zero = true;
        } else if (arg == "--require-delivered") {
            require_delivered = true;
        } else {
            return usage();
        }
    }
    if (plan.nets.empty() || plan.impls.empty()
        || plan.environments.empty() || plan.pipelines.empty()) {
        std::cerr << "--nets, --impls, --envs and --pipelines each need "
                     "at least one entry\n";
        return 2;
    }
    // Before any sink opens or any column is allocated.
    if (const auto error = fleet::checkFleetMemory(plan); !error.empty()) {
        std::cerr << error << "\n";
        return 2;
    }

    std::vector<fleet::FleetSink *> sinks;
    std::ofstream csv_file;
    fleet::FleetCsvSink csv_sink(csv_file);
    if (!csv_path.empty()) {
        csv_file.open(csv_path);
        if (!csv_file) {
            std::cerr << "cannot write " << csv_path << "\n";
            return 2;
        }
        sinks.push_back(&csv_sink);
    }
    std::ofstream json_file;
    fleet::FleetJsonSink json_sink(json_file);
    if (!json_path.empty()) {
        json_file.open(json_path);
        if (!json_file) {
            std::cerr << "cannot write " << json_path << "\n";
            return 2;
        }
        sinks.push_back(&json_sink);
    }
    std::ofstream sonicz_file;
    std::unique_ptr<telemetry::SoniczFleetSink> sonicz_sink;
    if (!sonicz_path.empty()) {
        sonicz_file.open(sonicz_path, std::ios::binary);
        if (!sonicz_file) {
            std::cerr << "cannot write " << sonicz_path << "\n";
            return 2;
        }
        // Block encoding fans out across the worker count the fleet
        // itself uses; the bytes are identical either way.
        sonicz_sink = std::make_unique<telemetry::SoniczFleetSink>(
            sonicz_file, effectiveThreads(options.threads));
        sinks.push_back(sonicz_sink.get());
    }

    trace::TraceCollector collector;
    if (!trace_out_path.empty()) {
        if (plan.traceEvery == 0)
            plan.traceEvery = 16; // sample 1-in-16 by default
        options.traces = &collector;
    } else if (plan.traceEvery != 0) {
        std::cerr << "--trace-every without --trace-out does "
                     "nothing\n";
    }

    const auto summary = fleet::runFleet(plan, options, sinks);

    if (!trace_out_path.empty()) {
        std::ofstream trace_file(trace_out_path, std::ios::binary);
        if (!trace_file) {
            std::cerr << "cannot write " << trace_out_path << "\n";
            return 2;
        }
        collector.write(trace_file,
                        effectiveThreads(options.threads));
        std::cout << "trace: " << collector.devices() << " devices, "
                  << collector.events() << " events -> "
                  << trace_out_path << "\n";
    }

    // Human-readable deployment report. Cache telemetry goes to
    // stdout only — the JSON artifact must stay byte-identical between
    // memoized and --no-cache runs.
    std::cout << "fleet: " << summary.devices << " devices, "
              << summary.total.inferences << " inferences, "
              << summary.total.resultsDelivered << " delivered, "
              << summary.total.dnfDevices << " DNF devices, "
              << summary.total.reboots << " reboots\n";
    std::cout << "latency p50/p95/p99: " << summary.latencyP50Seconds
              << " / " << summary.latencyP95Seconds << " / "
              << summary.latencyP99Seconds << " s\n";
    if (summary.total.resultsDelivered > 0)
        std::cout << "sense->ack p50/p95/p99: "
                  << summary.deliveryP50Seconds << " / "
                  << summary.deliveryP95Seconds << " / "
                  << summary.deliveryP99Seconds << " s\n";
    Table table({"environment", "devices", "dnf", "inf/dev-day",
                 "reboots/inf", "dead frac", "J/inf"});
    for (const auto &[name, g] : summary.byEnvironment) {
        table.row()
            .cell(name)
            .cell(g.devices)
            .cell(g.dnfDevices)
            .cell(g.inferencesPerDeviceDay(), 3)
            .cell(g.rebootsPerInference(), 2)
            .cell(g.deadFraction(), 4)
            .cell(g.energyPerInferenceJ(), 6);
    }
    table.print(std::cout);
    if (summary.total.txAttempts > 0) {
        Table tx({"pipeline", "devices", "delivered/dev-day",
                  "retries/delivered", "gave-up devs", "radio frac"});
        for (const auto &[name, g] : summary.byPipeline) {
            tx.row()
                .cell(name)
                .cell(g.devices)
                .cell(g.deliveredPerDeviceDay(), 3)
                .cell(g.retriesPerDelivered(), 2)
                .cell(g.txGaveUpDevices)
                .cell(g.radioEnergyFraction(), 4);
        }
        tx.print(std::cout);
    }

    if (!summary_path.empty()) {
        std::ofstream out(summary_path);
        if (!out) {
            std::cerr << "cannot write " << summary_path << "\n";
            return 2;
        }
        out << summary.toJson();
        std::cout << "fleet summary written to " << summary_path
                  << "\n";
    }

    if (options.useCache) {
        std::cout << "round cache: " << summary.cache.roundHits
                  << " hits / " << summary.cache.lookups()
                  << " lookups (hit rate " << summary.cache.hitRate()
                  << "), " << summary.cache.lifetimeHits
                  << " lifetime hits, " << summary.cache.uncachedRounds
                  << " uncached rounds\n";
    }

    if (require_cache_hits
        && (summary.cache.lookups() == 0
            || summary.cache.roundHits + summary.cache.lifetimeHits
                   == 0)) {
        std::cerr << "fleet ran without cache hits — failing "
                     "(--require-cache-hits)\n";
        return 1;
    }
    if (summary.total.inferences == 0 && !allow_zero) {
        std::cerr << "fleet completed zero inferences — failing "
                     "(--allow-zero to override)\n";
        return 1;
    }
    if (require_delivered && summary.total.resultsDelivered == 0) {
        std::cerr << "fleet delivered zero results — failing "
                     "(--require-delivered)\n";
        return 1;
    }
    return 0;
}
