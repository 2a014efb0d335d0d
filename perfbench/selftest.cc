/**
 * @file
 * Self-test of the benchmark's C++ helpers: the timing sink must be a
 * pure pass-through (same summary digest and same .sonicz bytes with
 * and without it), and the comparisons and input generators the
 * workload program's checks rest on must accept equal outputs, reject changed
 * ones and be deterministic in the seed. Exits nonzero on failure.
 */

#include <cmath>
#include <iostream>
#include <sstream>
#include <string>

#include "telemetry/aggregate.hh"
#include "telemetry/sonicz.hh"
#include "timing_sink.hh"
#include "workloads.hh"

namespace
{

using namespace sonic;
using namespace perfbench;

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

struct Run
{
    fleet::FleetSummary summary;
    std::string sonicz;
};

/** Run `plan`, optionally through a .sonicz sink, optionally wrapped
 * in a timing sink. */
Run
runWith(const fleet::FleetPlan &plan, u32 threads, bool sonicz,
        bool timed)
{
    fleet::FleetOptions options;
    options.threads = threads;
    std::stringstream file;
    Run out;
    {
        telemetry::SoniczFleetSink writer(file, threads);
        TimingFleetSink timing(sonicz ? &writer : nullptr);
        std::vector<fleet::FleetSink *> sinks;
        if (timed)
            sinks.push_back(&timing);
        else if (sonicz)
            sinks.push_back(&writer);
        out.summary = fleet::runFleet(plan, options, sinks);
    }
    out.sonicz = sonicz ? file.str() : std::string();
    return out;
}

void
timingSinkIsPassThrough()
{
    const auto plan = telemetryPlan(7, 600);
    for (u32 threads : {1u, 4u}) {
        const auto bare = runWith(plan, threads, false, false);
        const auto timedBare = runWith(plan, threads, false, true);
        const auto sonicz = runWith(plan, threads, true, false);
        const auto timedSonicz = runWith(plan, threads, true, true);
        const u64 reference = digest(bare.summary.toJson());
        check(digest(timedBare.summary.toJson()) == reference,
              "timing sink alone changes the summary digest");
        check(digest(sonicz.summary.toJson()) == reference,
              ".sonicz sink changes the summary digest");
        check(digest(timedSonicz.summary.toJson()) == reference,
              "timing sink around .sonicz changes the summary digest");
        check(!sonicz.sonicz.empty()
                  && timedSonicz.sonicz == sonicz.sonicz,
              "timing sink changes the .sonicz bytes");
    }
}

void
keptDevicesMatchReference()
{
    const auto plan = fleetReplayPlan(11, 400);
    const auto wanted = sampleDevices(11, plan.devices, 12);
    TimingFleetSink probe(nullptr, wanted);
    fleet::FleetOptions options;
    options.threads = 4;
    fleet::runFleet(plan, options, {&probe});
    check(probe.kept().size() == wanted.size(),
          "timing sink did not keep every sampled device");
    for (const auto &device : probe.kept())
        check(sameTelemetry(device,
                            fleet::simulateDevice(
                                plan, device.assignment.deviceIndex)),
              "kept device differs from fleet::simulateDevice");
    check(probe.simulateSeconds() > 0.0,
          "timing sink measured no simulation time");

    auto changed = probe.kept().front();
    changed.energyJ = std::nextafter(changed.energyJ, 1.0);
    check(!sameTelemetry(changed, probe.kept().front()),
          "sameTelemetry missed a one-ulp energy change");
}

void
aggregateComparison()
{
    const auto run = runWith(telemetryPlan(3, 500), 2, true, false);
    std::istringstream in(run.sonicz);
    fleet::FleetSummary folded;
    std::string error;
    check(telemetry::aggregate(in, &folded, &error),
          "aggregate rejected the .sonicz file");
    check(sameGroups(run.summary, folded),
          "aggregate group stats differ from runFleet's");
    folded.byImpl.begin()->second.reboots += 1;
    check(!sameGroups(run.summary, folded),
          "sameGroups missed a changed breakdown group");
}

void
generatorsAreSeeded()
{
    const auto a = sampleDevices(5, 1000, 50);
    check(a == sampleDevices(5, 1000, 50), "sampleDevices not seeded");
    check(a != sampleDevices(6, 1000, 50),
          "sampleDevices ignores the seed");
    bool ascending = true;
    for (std::size_t i = 1; i < a.size(); ++i)
        ascending = ascending && a[i - 1] < a[i];
    check(a.size() == 50 && ascending && a.back() < 1000,
          "sampleDevices not distinct, ascending and in range");

    const auto samples = sweepPlan(9, 40, 64).sampleAxis();
    check(samples == sweepPlan(9, 40, 64).sampleAxis(),
          "sweep samples not seeded");
    check(samples != sweepPlan(10, 40, 64).sampleAxis(),
          "sweep samples ignore the seed");
    bool inRange = samples.size() == 40;
    for (u32 s : samples)
        inRange = inRange && s < 64;
    check(inRange, "sweep samples out of the dataset's range");
    check(fleetReplayPlan(9, 10).baseSeed == 9
              && telemetryPlan(9, 10).baseSeed == 9,
          "fleet plans ignore the seed");
}

} // namespace

int
main()
{
    timingSinkIsPassThrough();
    keptDevicesMatchReference();
    aggregateComparison();
    generatorsAreSeeded();
    if (failures > 0) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench selftest: all checks passed\n";
    return 0;
}
