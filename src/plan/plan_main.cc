/**
 * @file
 * sonic_plan — the deployment planner CLI.
 *
 * Closes the telemetry→decision loop: given a scenario (device mix,
 * environments, candidate models/kernels, objective), decide which
 * kernel every fleet coordinate should run and prove the decision with
 * a confirming fleet run against every uniform single-kernel baseline:
 *
 *     sonic_fleet --scenario=mixed-1k --sonicz=mixed.sonicz
 *     sonic_plan --scenario=mixed-1k --ingest=mixed.sonicz \
 *                --plan=plan.json --confirm
 *     sonic_fleet --scenario=mixed-1k --from-plan=plan.json
 *
 * Three modes share one model of the fleet:
 *   - ingest:  stream .sonicz fleet telemetry into per-coordinate
 *              estimates (no row materialization);
 *   - probe:   fill under-covered cells with paired uniform probe
 *              fleets over the scenario's own device deals;
 *   - decide:  per-coordinate argmax (greedy == global optimum, see
 *              src/plan/planner.hh), cross-checked exhaustively on
 *              small grids, then optionally confirmed by running the
 *              planned fleet and every baseline.
 *
 * Exits 1 when the confirming run fails to tie-or-beat some baseline,
 * so CI can gate on the exit code alone. Exits 2 on usage errors,
 * including a fleet too large for the host's physical memory.
 */

#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "plan/planner.hh"
#include "util/cli.hh"
#include "util/table.hh"

namespace
{

using namespace sonic;
using cli::consumeFlag;
using cli::splitCsv;

constexpr u32 kU32Max = std::numeric_limits<u32>::max();
constexpr u64 kU64Max = std::numeric_limits<u64>::max();

int
usage()
{
    std::cerr
        << "usage: sonic_plan [--scenario=NAME]\n"
           "                  [--devices=N] [--nets=A,B,...]\n"
           "                  [--impls=SONIC,TAILS,...]\n"
           "                  [--envs=solar@1mF,rf-paper,...]\n"
           "                  [--pipelines=wildlife,...]\n"
           "                  [--horizon=SECONDS]\n"
           "                  [--max-inferences=K] [--seed=S]\n"
           "                  [--objective=delivered-per-day|\n"
           "                     inferences-per-day|energy-per-inference]\n"
           "                  [--ingest=FILE.sonicz]... [--no-probe]\n"
           "                  [--probe-devices=N (0=full fleet)]\n"
           "                  [--min-cell-devices=N]\n"
           "                  [--plan=OUT.json] [--confirm]\n"
           "                  [--confirm-summary=PATH]\n"
           "                  [--from-plan=PLAN.json]\n"
           "                  [--threads=T] [--no-cache]\n"
           "                  [--list-scenarios] [--list-objectives]\n";
    return 2;
}

/** Natural (human) display of an objective's mean per-device value:
 * energy objectives are internally negated so higher is always better;
 * people want to read J/inference. */
f64
displayValue(plan::Objective objective, f64 value)
{
    return objective == plan::Objective::EnergyPerInference ? -value
                                                            : value;
}

const char *
displayColumn(plan::Objective objective)
{
    switch (objective) {
    case plan::Objective::DeliveredPerDay:
        return "delivered/dev-day";
    case plan::Objective::InferencesPerDay:
        return "inf/dev-day";
    case plan::Objective::EnergyPerInference:
        return "J/inf";
    }
    return "objective";
}

/** Whether a fleet's telemetry columns fit in this host's memory;
 * prints the diagnostic when they do not. */
bool
fitsInMemory(const fleet::FleetPlan &fleet_plan)
{
    const std::string error = fleet::checkFleetMemory(fleet_plan);
    if (!error.empty())
        std::cerr << error << "\n";
    return error.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    fleet::FleetPlan fleet_plan;
    plan::PlannerOptions options;
    std::string scenario_name;
    std::string plan_path, confirm_summary_path, from_plan_path;
    std::vector<std::string> ingest_paths;
    bool confirm = false;
    std::string value;

    // Two passes, like sonic_fleet: --scenario must resolve before
    // axis overrides apply, whatever the flag order was.
    std::vector<std::string> args(argv + 1, argv + argc);
    // Parse the current flag's value as a number in [lo, hi] into
    // *out; on a bad value print why and fail (the caller exits 2).
    const auto number = [&value](const char *flag, auto lo, auto hi,
                                 auto *out) {
        return cli::numberFlag(flag, value, lo, hi, out);
    };
    for (const auto &arg : args) {
        if (consumeFlag(arg, "--scenario", &value)) {
            bool found = false;
            for (const auto &scenario :
                 fleet::namedScenarios()) {
                if (scenario.name == value) {
                    fleet_plan = scenario.plan;
                    scenario_name = value;
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

    for (const auto &arg : args) {
        if (consumeFlag(arg, "--scenario", &value)) {
            continue; // handled above
        } else if (arg == "--list-scenarios") {
            for (const auto &scenario : fleet::namedScenarios())
                std::cout << scenario.name << " — "
                          << scenario.description << "\n";
            return 0;
        } else if (arg == "--list-objectives") {
            for (const auto objective :
                 {plan::Objective::DeliveredPerDay,
                  plan::Objective::InferencesPerDay,
                  plan::Objective::EnergyPerInference})
                std::cout << plan::objectiveName(objective)
                          << "\n";
            return 0;
        } else if (consumeFlag(arg, "--devices", &value)) {
            if (!number("--devices", u32{1}, kU32Max,
                        &fleet_plan.devices))
                return 2;
        } else if (consumeFlag(arg, "--nets", &value)) {
            fleet_plan.nets = splitCsv(value);
        } else if (consumeFlag(arg, "--impls", &value)) {
            fleet_plan.impls.clear();
            for (const auto &name : splitCsv(value)) {
                const auto *info =
                    kernels::ImplRegistry::instance().find(name);
                if (info == nullptr) {
                    std::cerr << "unknown implementation '" << name
                              << "'\n";
                    return 2;
                }
                fleet_plan.impls.push_back(info->id);
            }
        } else if (consumeFlag(arg, "--envs", &value)) {
            fleet_plan.environments.clear();
            for (const auto &label : splitCsv(value)) {
                env::EnvRef ref;
                std::string error;
                if (!env::parseEnvRef(label, &ref, &error)) {
                    std::cerr << error << "\n";
                    return 2;
                }
                fleet_plan.environments.push_back(std::move(ref));
            }
        } else if (consumeFlag(arg, "--pipelines", &value)) {
            fleet_plan.pipelines = splitCsv(value);
        } else if (consumeFlag(arg, "--horizon", &value)) {
            if (!number("--horizon", cli::kMinHorizonSeconds,
                        cli::kMaxHorizonSeconds,
                        &fleet_plan.horizonSeconds))
                return 2;
        } else if (consumeFlag(arg, "--max-inferences", &value)) {
            if (!number("--max-inferences", u32{0}, kU32Max,
                        &fleet_plan.maxInferencesPerDevice))
                return 2;
        } else if (consumeFlag(arg, "--seed", &value)) {
            if (!number("--seed", u64{0}, kU64Max,
                        &fleet_plan.baseSeed))
                return 2;
        } else if (consumeFlag(arg, "--objective", &value)) {
            if (!plan::objectiveFromName(value,
                                         &options.objective)) {
                std::cerr << "unknown objective '" << value
                          << "' (--list-objectives)\n";
                return 2;
            }
        } else if (consumeFlag(arg, "--ingest", &value)) {
            ingest_paths.push_back(value);
        } else if (arg == "--no-probe") {
            options.probe = false;
        } else if (consumeFlag(arg, "--probe-devices", &value)) {
            if (!number("--probe-devices", u32{0}, kU32Max,
                        &options.probeDevices))
                return 2;
        } else if (consumeFlag(arg, "--min-cell-devices",
                               &value)) {
            if (!number("--min-cell-devices", u64{0}, kU64Max,
                        &options.minCellDevices))
                return 2;
        } else if (consumeFlag(arg, "--plan", &value)) {
            plan_path = value;
        } else if (arg == "--confirm") {
            confirm = true;
        } else if (consumeFlag(arg, "--confirm-summary",
                               &value)) {
            confirm_summary_path = value;
        } else if (consumeFlag(arg, "--from-plan", &value)) {
            from_plan_path = value;
        } else if (consumeFlag(arg, "--threads", &value)) {
            if (!number("--threads", u32{0}, cli::kMaxThreads,
                        &options.fleet.threads))
                return 2;
        } else if (arg == "--no-cache") {
            options.fleet.useCache = false;
        } else {
            return usage();
        }
    }

    plan::Plan plan;
    if (!from_plan_path.empty()) {
        // Confirming an existing artifact: the plan carries its own
        // scenario (axes, seed, horizon), so axis flags do not apply.
        std::ifstream in(from_plan_path);
        if (!in) {
            std::cerr << "cannot read " << from_plan_path << "\n";
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        std::string error;
        if (!plan::Plan::fromJson(text.str(), &plan, &error)) {
            std::cerr << "bad plan " << from_plan_path << ": "
                      << error << "\n";
            return 2;
        }
        if (!fitsInMemory(plan.toFleetPlan()))
            return 2;
        options.objective = plan.objective;
        confirm = true;
        std::cout << "plan: " << from_plan_path << " ("
                  << plan.choices.size() << " coordinates, objective "
                  << plan::objectiveName(plan.objective) << ")\n";
    } else {
        // Probe fleets are a prefix of this one.
        if (!fitsInMemory(fleet_plan))
            return 2;
        plan::Scenario scenario{scenario_name, fleet_plan};
        plan::PlanModel model(options.objective);

        for (const auto &path : ingest_paths) {
            std::ifstream in(path, std::ios::binary);
            if (!in) {
                std::cerr << "cannot read " << path << "\n";
                return 2;
            }
            std::string error;
            if (!model.ingestSonicz(in, &error)) {
                std::cerr << "cannot ingest " << path << ": "
                          << error << "\n";
                return 2;
            }
        }
        if (model.rowsIngested() > 0)
            std::cout << "ingested " << model.rowsIngested()
                      << " telemetry rows from "
                      << ingest_paths.size() << " file(s)\n";

        plan::DecideInfo info;
        std::string error;
        if (!plan::decide(scenario, &model, options, &plan, &info,
                          &error)) {
            std::cerr << error << "\n";
            return 1;
        }
        if (info.probeFleets > 0)
            std::cout << "probed " << info.probeFleets
                      << " kernel(s), " << info.probeDevices
                      << " probe devices total\n";
        if (info.exhaustiveChecked)
            std::cout << "decision cross-checked against exhaustive "
                         "enumeration\n";

        Table table({"environment", "net", "pipeline", "kernel",
                     displayColumn(plan.objective), "devices",
                     "source"});
        for (const auto &choice : plan.choices) {
            table.row()
                .cell(choice.envLabel)
                .cell(choice.net)
                .cell(choice.pipeline)
                .cell(choice.impl)
                .cell(displayValue(plan.objective, choice.score), 4)
                .cell(choice.devicesObserved)
                .cell(choice.probed ? "probe" : "telemetry");
        }
        table.print(std::cout);

        if (!plan_path.empty()) {
            std::ofstream out(plan_path);
            if (!out) {
                std::cerr << "cannot write " << plan_path << "\n";
                return 2;
            }
            out << plan.toJson();
            std::cout << "plan written to " << plan_path << "\n";
        }
    }

    if (!confirm)
        return 0;

    const auto result = plan::confirm(plan, options.fleet);
    Table table({"assignment", displayColumn(plan.objective),
                 "verdict"});
    table.row()
        .cell("planned")
        .cell(displayValue(plan.objective, result.planObjective), 4)
        .cell("-");
    for (const auto &baseline : result.baselines) {
        const bool beaten =
            result.planObjective >= baseline.objective;
        table.row()
            .cell("all-" + baseline.impl)
            .cell(displayValue(plan.objective, baseline.objective), 4)
            .cell(beaten ? "plan >=" : "plan LOSES");
    }
    table.print(std::cout);

    if (!confirm_summary_path.empty()) {
        std::ofstream out(confirm_summary_path);
        if (!out) {
            std::cerr << "cannot write " << confirm_summary_path
                      << "\n";
            return 2;
        }
        out << result.planSummaryJson;
        std::cout << "confirming fleet summary written to "
                  << confirm_summary_path << "\n";
    }

    if (!result.planWins) {
        std::cerr << "plan loses to a uniform baseline — the "
                     "estimates that produced it disagree with the "
                     "confirming run (probe more devices, or ingest "
                     "fresher telemetry)\n";
        return 1;
    }
    std::cout << "plan ties-or-beats every uniform single-kernel "
                 "baseline\n";
    return 0;
}
