/**
 * @file
 * The benchmark's workload inputs and output comparisons, shared by
 * the workload program and its self-test. Inputs are generated here
 * from the workload seed; the library only ever sees the generated
 * plans and sample indices.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>
#include <string_view>
#include <vector>

#include "app/engine.hh"
#include "fleet/fleet.hh"

namespace perfbench
{

/** The nets every workload runs; warming them is the set-up. */
extern const std::vector<sonic::dnn::NetRef> kNets;

/** The sweep's environment axis: no harvesting, a roomy capacitor and
 * the paper's smallest one. */
extern const std::vector<std::string> kSweepEnvironments;

/** The `mixed-1k` scenario at `devices`, dealt from `seed`. */
sonic::fleet::FleetPlan fleetReplayPlan(sonic::u64 seed,
                                        sonic::u32 devices);

/** The `smoke-200` axes with the infer-only and wildlife pipelines at
 * `devices`, dealt from `seed`. */
sonic::fleet::FleetPlan telemetryPlan(sonic::u64 seed,
                                      sonic::u32 devices);

/** The paper nets x every kernel x kSweepEnvironments, over `samples`
 * sample indices drawn from `seed` below `datasetSize`. */
sonic::app::SweepPlan sweepPlan(sonic::u64 seed, sonic::u32 samples,
                                sonic::u32 datasetSize);

/** `count` distinct device indices below `devices`, ascending, drawn
 * from `seed`. */
std::vector<sonic::u32> sampleDevices(sonic::u64 seed,
                                      sonic::u32 devices,
                                      sonic::u32 count);

/** Bit-for-bit equality of every scalar field and running sum the two
 * rows carry (the per-round latency lists are not compared: rows
 * runFleet streams do not carry them). */
bool sameTelemetry(const sonic::fleet::DeviceTelemetry &a,
                   const sonic::fleet::DeviceTelemetry &b);

/** Bit-for-bit equality of the total and every breakdown group. */
bool sameGroups(const sonic::fleet::FleetSummary &a,
                const sonic::fleet::FleetSummary &b);

/** FNV-1a over bytes, without copying them (a copy of the .sonicz
 * buffer would show in the peak RSS the benchmark reports). */
sonic::u64 digest(std::string_view bytes);

/** Digest of what a sweep record reports: outcome, counts, energy,
 * time, tile and logits. */
sonic::u64 recordDigest(const sonic::app::ExperimentResult &result);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
