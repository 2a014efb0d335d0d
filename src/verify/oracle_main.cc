/**
 * @file
 * sonic_oracle — the adversarial intermittence oracle CLI.
 *
 * Default mode fuzzes implementations with seeded adversarial power
 * schedules and differentially verifies every run against continuous
 * power, shrinking any divergence to a minimal failure-index set:
 *
 *     sonic_oracle --schedules=200 --seed=1
 *     sonic_oracle --net=HAR --impls=SONIC,TAILS --schedules=50
 *     sonic_oracle --net=DeepFC-6 --schedules=50
 *
 * --env=<environment[@cap]> swaps the synthetic schedule battery for
 * realistic ones: failure windows sliced from where the named
 * harvesting environment (env::EnvRegistry; see sonic_fleet
 * --list-envs) actually browns the capacitor out:
 *
 *     sonic_oracle --env=trace-rf-office --schedules=250
 *     sonic_oracle --net=HAR --env=solar@1mF --impls=SONIC,TAILS
 *
 * --pipelines=<all|name,...> fuzzes the sense-infer-transmit delivery
 * surface instead: each named pipeline crossed with every kernel under
 * a mixed battery that includes TX-boundary commit-targeted schedules,
 * with delivery accounting (no lost or duplicated results) held
 * exactly to the continuous reference:
 *
 *     sonic_oracle --pipelines=all --schedules=250
 *     sonic_oracle --pipelines=wildlife --impls=SONIC
 *
 * --net=golden (default) uses the built-in platform-stable workload
 * and runs sequentially; any other registered model-zoo name (--list
 * prints them; model files register via --load) fans schedules across
 * the sweep engine's worker pool.
 *
 * Golden digest files:
 *
 *     sonic_oracle --emit-golden=tests/golden/golden_net.json
 *     sonic_oracle --verify-golden=tests/golden/golden_net.json
 *
 * On divergence the failure-shrink artifact (reasons, schedules,
 * shrunk counterexamples, NVM digest chains) is written to --artifact
 * (default oracle_failures.json) and the exit code is 1.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "dnn/device_net.hh"
#include "dnn/model_io.hh"
#include "dnn/zoo.hh"
#include "env/environment.hh"
#include "util/cli.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "verify/oracle.hh"
#include "verify/workload.hh"

namespace
{

using namespace sonic;
using cli::consumeFlag;
using cli::splitCsv;

/** --schedules and --max-failures caps: every schedule, with up to
 * that many failure points, is generated up front. */
constexpr u32 kMaxSchedules = 100000;
constexpr u32 kMaxFailuresPerSchedule = 1024;

struct Args
{
    std::string net = "golden";
    std::vector<std::string> impls; ///< empty = acceptance five
    std::vector<std::string> loadModels; ///< model files to register
    std::string environment; ///< fuzz under a realistic environment
    std::vector<std::string> pipelines; ///< pipeline-surface fuzz mode
    bool list = false;
    u32 schedules = 200;
    u64 seed = 1;
    u32 maxFailures = 8;
    u32 threads = 0;
    std::string artifact = "oracle_failures.json";
    std::string emitGolden;
    std::string verifyGolden;
};

int
usage()
{
    std::cerr
        << "usage: sonic_oracle [--net=golden|<zoo model name>]\n"
           "                    [--impls=SONIC,TAILS,...]\n"
           "                    [--load=model.json[,model2.json]]\n"
           "                    [--env=<environment[@cap]>]\n"
           "                    [--pipelines=all|wildlife,...]\n"
           "                    [--list]\n"
           "                    [--schedules=N] [--seed=S]\n"
           "                    [--max-failures=K] [--threads=T]\n"
           "                    [--artifact=PATH]\n"
           "                    [--emit-golden=PATH]\n"
           "                    [--verify-golden=PATH]\n"
           "registered models: "
        << sonic::dnn::ModelZoo::instance().availableList()
        << "\nregistered environments: "
        << sonic::env::EnvRegistry::instance().availableList() << "\n";
    return 2;
}

/** The acceptance battery: the paper's kernels plus a second tiling. */
const char *kDefaultImpls[] = {"Base", "Tile-8", "Tile-32", "SONIC",
                               "TAILS"};

/** Where divergence traces land: next to the --artifact JSON, named
 * <artifact-stem>.<tag>.<n>.sonictrace. */
std::string
tracePathFor(const std::string &artifact, const std::string &tag,
             u64 index)
{
    std::string stem = artifact;
    if (stem.size() > 5 && stem.rfind(".json") == stem.size() - 5)
        stem.resize(stem.size() - 5);
    return stem + "." + tag + "." + std::to_string(index)
        + ".sonictrace";
}

/** Re-run every shrunk divergence with the trace probe attached and
 * write one .sonictrace per counterexample. */
void
dumpLocalDivergenceTraces(verify::OracleReport *report,
                          const verify::LocalWorkload &workload,
                          const std::string &artifact,
                          const std::string &tag)
{
    if (artifact.empty())
        return;
    u64 n = 0;
    for (auto &d : report->divergences) {
        const std::string path = tracePathFor(artifact, tag, n++);
        std::string error;
        if (verify::dumpScheduleTrace(workload, d.shrunk, path,
                                      &error))
            d.tracePath = path;
        else
            std::cerr << "divergence trace dump failed: " << error
                      << "\n";
    }
}

void
dumpPipelineDivergenceTraces(verify::OracleReport *report,
                             const verify::PipelineWorkload &workload,
                             const std::string &artifact,
                             const std::string &tag)
{
    if (artifact.empty())
        return;
    u64 n = 0;
    for (auto &d : report->divergences) {
        const std::string path = tracePathFor(artifact, tag, n++);
        std::string error;
        if (verify::dumpPipelineScheduleTrace(workload, d.shrunk,
                                              path, &error))
            d.tracePath = path;
        else
            std::cerr << "divergence trace dump failed: " << error
                      << "\n";
    }
}

int
runGoldenFileMode(const Args &args)
{
    const std::string content = verify::goldenJson();
    if (!args.emitGolden.empty()) {
        std::ofstream out(args.emitGolden);
        if (!out) {
            std::cerr << "cannot write " << args.emitGolden << "\n";
            return 2;
        }
        out << content;
        std::cout << "wrote golden digests to " << args.emitGolden
                  << "\n";
        return 0;
    }
    std::ifstream in(args.verifyGolden);
    if (!in) {
        std::cerr << "cannot read " << args.verifyGolden << "\n";
        return 2;
    }
    std::ostringstream stored;
    stored << in.rdbuf();
    if (stored.str() == content) {
        std::cout << "golden digests match " << args.verifyGolden
                  << "\n";
        return 0;
    }
    std::cerr << "golden digest mismatch against " << args.verifyGolden
              << " — intermittent semantics changed.\n"
                 "If intentional, refresh with:\n  sonic_oracle "
                 "--emit-golden="
              << args.verifyGolden << "\n";
    return 1;
}

/** Parse and validate --env into an EnvRef (empty input passes). */
env::EnvRef
resolveEnvironment(const std::string &label)
{
    env::EnvRef ref;
    if (label.empty())
        return ref;
    std::string error;
    if (!env::parseEnvRef(label, &ref, &error))
        fatal(error);
    auto &registry = env::EnvRegistry::instance();
    const auto *meta = registry.meta(ref.env);
    if (meta == nullptr)
        fatal("unknown environment '", ref.env,
              "'; registered environments: ",
              registry.availableList());
    if (meta->alwaysOn)
        fatal("environment '", ref.env,
              "' never fails; the oracle needs an intermittent one");
    return ref;
}

verify::OracleReport
runLocalImpl(const std::string &impl_name, const Args &args)
{
    const auto *info =
        kernels::ImplRegistry::instance().find(impl_name);
    if (info == nullptr)
        fatal("unknown implementation '", impl_name, "'");

    verify::LocalWorkload workload;
    workload.net = verify::goldenNet();
    workload.input = verify::goldenInput();
    workload.impl = info->id;

    verify::ScheduleGenConfig gen;
    gen.seed = args.seed
        ^ (static_cast<u64>(info->id) * 0x9e3779b97f4a7c15ull);
    gen.maxFailures = args.maxFailures;
    const env::EnvRef environment =
        resolveEnvironment(args.environment);
    std::vector<verify::Schedule> schedules;
    if (environment.empty()) {
        // The commit trace (a full instrumented run) only feeds the
        // synthetic generators; environment schedules skip it.
        u64 horizon = 0;
        const auto commits =
            verify::recordCommitTrace(workload, &horizon);
        gen.opHorizon = horizon;
        schedules =
            verify::mixedSchedules(args.schedules, commits, gen);
    } else {
        schedules = verify::environmentSchedules(
            workload, environment, args.schedules, gen);
    }

    verify::OracleOptions options;
    options.crashConsistent = info->crashConsistent;
    // Software kernels are additionally held to the continuous final
    // FRAM image; TAILS' calibration registers are power-dependent.
    options.checkFinalNvmDigest = info->crashConsistent
        && info->id != kernels::Impl::Tails;
    verify::Oracle oracle(verify::localRunner(workload), options);
    auto report = oracle.verify(schedules);
    report.impl = info->name;
    report.workload = environment.empty()
        ? "golden"
        : "golden under " + environment.label();
    dumpLocalDivergenceTraces(&report, workload, args.artifact,
                              info->name);
    return report;
}

/**
 * Fuzz the pipeline delivery surface: one pipeline x kernel coordinate
 * on the golden workload under the mixed uniform / bursty /
 * TX-boundary-targeted battery, with delivery accounting held exactly
 * to the continuous reference.
 */
verify::OracleReport
runPipelineImpl(const std::string &pipeline_name,
                const std::string &impl_name, const Args &args)
{
    const auto *info =
        kernels::ImplRegistry::instance().find(impl_name);
    if (info == nullptr)
        fatal("unknown implementation '", impl_name, "'");
    verify::PipelineWorkload workload;
    workload.base.net = verify::goldenNet();
    workload.base.input = verify::goldenInput();
    workload.base.impl = info->id;
    workload.spec =
        pipeline::PipelineRegistry::instance().get(pipeline_name);
    const u64 seed = args.seed
        ^ (static_cast<u64>(info->id) * 0x9e3779b97f4a7c15ull)
        ^ fnv1a(pipeline_name);
    auto report = verify::verifyPipelineLocal(
        workload, args.schedules, seed, args.maxFailures);
    dumpPipelineDivergenceTraces(&report, workload, args.artifact,
                                 pipeline_name + "." + info->name);
    return report;
}

verify::OracleReport
runEngineImpl(app::Engine &engine, const dnn::NetRef &net,
              const std::string &impl_name, const Args &args)
{
    const auto *info =
        kernels::ImplRegistry::instance().find(impl_name);
    if (info == nullptr)
        fatal("unknown implementation '", impl_name, "'");
    verify::EngineOracleConfig config;
    config.net = net;
    config.impl = info->id;
    config.schedules = args.schedules;
    config.seed = args.seed;
    config.maxFailures = args.maxFailures;
    config.environment = resolveEnvironment(args.environment);
    auto report = verify::verifyWithEngine(engine, config);
    // The local mirror of the engine coordinate (same cached net and
    // sample-0 input verifyWithEngine records commit traces with).
    verify::LocalWorkload workload;
    workload.net = engine.compressed(net);
    workload.input = dnn::DeviceNetwork::quantizeInput(
        engine.dataset(net)[0].input);
    workload.impl = info->id;
    dumpLocalDivergenceTraces(&report, workload, args.artifact,
                              std::string(net) + "." + info->name);
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string value;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (consumeFlag(arg, "--net", &value)) {
            args.net = value;
        } else if (consumeFlag(arg, "--impls", &value)) {
            args.impls = splitCsv(value);
        } else if (consumeFlag(arg, "--load", &value)) {
            args.loadModels = splitCsv(value);
        } else if (consumeFlag(arg, "--env", &value)) {
            args.environment = value;
        } else if (consumeFlag(arg, "--pipelines", &value)) {
            args.pipelines = value == "all"
                ? pipeline::PipelineRegistry::instance().names()
                : splitCsv(value);
        } else if (arg == "--list") {
            args.list = true;
        } else if (consumeFlag(arg, "--schedules", &value)) {
            if (!cli::numberFlag("--schedules", value, u32{1},
                                 kMaxSchedules, &args.schedules))
                return 2;
        } else if (consumeFlag(arg, "--seed", &value)) {
            if (!cli::numberFlag("--seed", value, u64{0},
                                 std::numeric_limits<u64>::max(),
                                 &args.seed))
                return 2;
        } else if (consumeFlag(arg, "--max-failures", &value)) {
            if (!cli::numberFlag("--max-failures", value, u32{1},
                                 kMaxFailuresPerSchedule,
                                 &args.maxFailures))
                return 2;
        } else if (consumeFlag(arg, "--threads", &value)) {
            if (!cli::numberFlag("--threads", value, u32{0},
                                 cli::kMaxThreads, &args.threads))
                return 2;
        } else if (consumeFlag(arg, "--artifact", &value)) {
            args.artifact = value;
        } else if (consumeFlag(arg, "--emit-golden", &value)) {
            args.emitGolden = value;
        } else if (consumeFlag(arg, "--verify-golden", &value)) {
            args.verifyGolden = value;
        } else {
            return usage();
        }
    }

    auto &zoo = dnn::ModelZoo::instance();
    for (const auto &path : args.loadModels) {
        std::string error;
        if (!dnn::loadModelIntoZoo(path, zoo, &error)) {
            std::cerr << "cannot load model " << path << ": " << error
                      << "\n";
            return 2;
        }
    }

    if (args.list) {
        // Registry metadata only — listing must not build every model.
        for (const auto &name : zoo.names()) {
            const auto *meta = zoo.meta(name);
            std::cout << name << " [" << meta->family << "] — "
                      << meta->description << "\n";
        }
        return 0;
    }

    if (!args.emitGolden.empty() || !args.verifyGolden.empty())
        return runGoldenFileMode(args);

    std::vector<std::string> impls = args.impls;
    if (impls.empty())
        impls.assign(std::begin(kDefaultImpls),
                     std::end(kDefaultImpls));

    // "golden" runs the built-in platform-stable workload on the
    // sequential local path; every other zoo model fans through the
    // engine's worker pool.
    const bool use_engine = args.net != "golden";
    if (use_engine && !zoo.contains(args.net)) {
        std::cerr << "unknown model '" << args.net
                  << "'; registered models: " << zoo.availableList()
                  << "\n";
        return 2;
    }

    app::Engine engine(app::EngineOptions{args.threads});
    std::vector<verify::OracleReport> reports;
    if (!args.pipelines.empty()) {
        // Pipeline-surface mode: every requested pipeline crossed with
        // every requested kernel, sequential local path.
        for (const auto &name : args.pipelines)
            for (const auto &impl : impls)
                reports.push_back(runPipelineImpl(name, impl, args));
    } else {
        for (const auto &impl : impls)
            reports.push_back(
                use_engine ? runEngineImpl(engine, args.net, impl, args)
                           : runLocalImpl(impl, args));
    }
    u64 divergent = 0;
    for (const auto &report : reports) {
        divergent += report.divergences.size();
        std::cout << report.impl << " on " << report.workload << ": "
                  << report.schedulesRun << " schedules, "
                  << report.totalFired << " injected failures, "
                  << report.totalReboots << " reboots — "
                  << (report.ok()
                          ? "no divergence"
                          : std::to_string(report.divergences.size())
                              + " DIVERGENT")
                  << "\n";
        for (const auto &d : report.divergences) {
            std::cout << "  " << d.reason << "\n    schedule:";
            for (u64 idx : d.schedule)
                std::cout << ' ' << idx;
            std::cout << "\n    shrunk:";
            for (u64 idx : d.shrunk)
                std::cout << ' ' << idx;
            std::cout << "\n";
        }
    }

    if (divergent > 0 && !args.artifact.empty()) {
        std::ofstream out(args.artifact);
        out << "[\n";
        bool first = true;
        for (const auto &report : reports) {
            if (report.ok())
                continue;
            out << (first ? "" : ",\n") << verify::reportJson(report);
            first = false;
        }
        out << "]\n";
        std::cout << "failure-shrink artifact written to "
                  << args.artifact << "\n";
    }
    return divergent == 0 ? 0 : 1;
}
