#include "workloads.hh"

#include <algorithm>
#include <bit>
#include <set>

#include "util/logging.hh"
#include "util/rng.hh"

namespace perfbench
{

using namespace sonic;

const std::vector<dnn::NetRef> kNets = {"MNIST", "HAR", "OkG"};

const std::vector<std::string> kSweepEnvironments = {
    "continuous", "rf-paper@1mF", "rf-paper@100uF"};

namespace
{

fleet::FleetPlan
scenarioPlan(const std::string &name)
{
    for (const auto &scenario : fleet::namedScenarios())
        if (scenario.name == name)
            return scenario.plan;
    panic("no fleet scenario named ", name);
}

bool
sameBits(f64 a, f64 b)
{
    return std::bit_cast<u64>(a) == std::bit_cast<u64>(b);
}

bool
sameGroup(const fleet::GroupStats &a, const fleet::GroupStats &b)
{
    return a.devices == b.devices && a.dnfDevices == b.dnfDevices
        && a.failedDevices == b.failedDevices
        && a.inferences == b.inferences && a.reboots == b.reboots
        && sameBits(a.liveSeconds, b.liveSeconds)
        && sameBits(a.deadSeconds, b.deadSeconds)
        && sameBits(a.energyJ, b.energyJ)
        && sameBits(a.harvestedJ, b.harvestedJ)
        && a.resultsDelivered == b.resultsDelivered
        && a.txGaveUpDevices == b.txGaveUpDevices
        && a.txAttempts == b.txAttempts && a.txRetries == b.txRetries
        && sameBits(a.radioEnergyJ, b.radioEnergyJ)
        && sameBits(a.senseEnergyJ, b.senseEnergyJ)
        && sameBits(a.txBackoffSeconds, b.txBackoffSeconds);
}

bool
sameGroupMap(const std::map<std::string, fleet::GroupStats> &a,
             const std::map<std::string, fleet::GroupStats> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto &x, const auto &y) {
                          return x.first == y.first
                              && sameGroup(x.second, y.second);
                      });
}

void
mixInto(u64 &h, u64 value)
{
    h = mix64(h ^ value);
}

} // namespace

fleet::FleetPlan
fleetReplayPlan(u64 seed, u32 devices)
{
    fleet::FleetPlan plan = scenarioPlan("mixed-1k");
    plan.devices = devices;
    plan.baseSeed = seed;
    return plan;
}

fleet::FleetPlan
telemetryPlan(u64 seed, u32 devices)
{
    fleet::FleetPlan plan = scenarioPlan("smoke-200");
    plan.pipelines = {"infer-only", "wildlife"};
    plan.devices = devices;
    plan.baseSeed = seed;
    return plan;
}

app::SweepPlan
sweepPlan(u64 seed, u32 samples, u32 datasetSize)
{
    Rng rng(seed);
    std::vector<u32> indices(samples);
    for (auto &index : indices)
        index = static_cast<u32>(rng.below(datasetSize));
    app::SweepPlan plan;
    plan.nets(kNets)
        .allImpls()
        .environmentLabels(kSweepEnvironments)
        .sampleIndices(std::move(indices));
    return plan;
}

std::vector<u32>
sampleDevices(u64 seed, u32 devices, u32 count)
{
    SONIC_ASSERT(count <= devices, "cannot sample ", count, " of ",
                 devices, " devices");
    Rng rng(mix64(seed ^ 0xde71ceull));
    std::set<u32> picked;
    while (picked.size() < count)
        picked.insert(static_cast<u32>(rng.below(devices)));
    return {picked.begin(), picked.end()};
}

bool
sameTelemetry(const fleet::DeviceTelemetry &a,
              const fleet::DeviceTelemetry &b)
{
    const auto &x = a.assignment;
    const auto &y = b.assignment;
    return x.deviceIndex == y.deviceIndex && x.net == y.net
        && x.impl == y.impl && x.environment == y.environment
        && x.pipeline == y.pipeline && x.seed == y.seed
        && a.inferencesCompleted == b.inferencesCompleted
        && a.diedNonTerminating == b.diedNonTerminating
        && a.failedIncomplete == b.failedIncomplete
        && a.reboots == b.reboots
        && sameBits(a.liveSeconds, b.liveSeconds)
        && sameBits(a.deadSeconds, b.deadSeconds)
        && sameBits(a.energyJ, b.energyJ)
        && sameBits(a.harvestedJ, b.harvestedJ)
        && a.resultsDelivered == b.resultsDelivered
        && a.txGaveUpRounds == b.txGaveUpRounds
        && a.txAttempts == b.txAttempts && a.txRetries == b.txRetries
        && sameBits(a.radioEnergyJ, b.radioEnergyJ)
        && sameBits(a.senseEnergyJ, b.senseEnergyJ)
        && sameBits(a.txBackoffSeconds, b.txBackoffSeconds)
        && sameBits(a.inferenceSecondsSum, b.inferenceSecondsSum)
        && sameBits(a.deliverySecondsSum, b.deliverySecondsSum);
}

bool
sameGroups(const fleet::FleetSummary &a, const fleet::FleetSummary &b)
{
    return sameGroup(a.total, b.total)
        && sameGroupMap(a.byEnvironment, b.byEnvironment)
        && sameGroupMap(a.byImpl, b.byImpl)
        && sameGroupMap(a.byNet, b.byNet)
        && sameGroupMap(a.byPipeline, b.byPipeline);
}

u64
digest(std::string_view bytes)
{
    u64 h = 0xcbf29ce484222325ull;
    for (char c : bytes) {
        h ^= static_cast<u64>(static_cast<unsigned char>(c));
        h *= 0x100000001b3ull;
    }
    return h;
}

u64
recordDigest(const app::ExperimentResult &r)
{
    u64 h = 0;
    mixInto(h, (r.completed ? 1u : 0u) | (r.nonTerminating ? 2u : 0u));
    mixInto(h, r.reboots);
    mixInto(h, r.tasksExecuted);
    mixInto(h, r.opInstances);
    mixInto(h, r.tailsTileWords);
    mixInto(h, std::bit_cast<u64>(r.totalSeconds));
    mixInto(h, std::bit_cast<u64>(r.energyJ));
    for (i16 logit : r.logits)
        mixInto(h, static_cast<u16>(logit));
    return h;
}

} // namespace perfbench
