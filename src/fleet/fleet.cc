#include "fleet/fleet.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <ostream>
#include <sstream>
#include <typeinfo>

#include "dnn/device_net.hh"
#include "fleet/round_cache.hh"
#include "trace/trace.hh"
#include "util/fmt.hh"
#include "util/progress.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace sonic::fleet
{

// --- FleetPlan ------------------------------------------------------

std::string
FleetPlan::coordinateKey(const std::string &envLabel,
                         const std::string &net,
                         const std::string &pipeline)
{
    return envLabel + "/" + net + "/" + pipeline;
}

void
FleetPlan::validate() const
{
    SONIC_ASSERT(devices > 0, "fleet needs at least one device");
    SONIC_ASSERT(!nets.empty(), "empty fleet net distribution");
    SONIC_ASSERT(!impls.empty(), "empty fleet impl distribution");
    SONIC_ASSERT(!environments.empty(),
                 "empty fleet environment distribution");
    SONIC_ASSERT(horizonSeconds > 0.0,
                 "fleet horizon must be positive");
    auto &zoo = dnn::ModelZoo::instance();
    for (const auto &net : nets) {
        if (!zoo.contains(net))
            fatal("unknown model '", net,
                  "' in the fleet net distribution; registered "
                  "models: ",
                  zoo.availableList());
    }
    auto &registry = env::EnvRegistry::instance();
    for (const auto &ref : environments) {
        if (ref.empty() || !registry.contains(ref.env))
            fatal("unknown environment '", ref.env,
                  "' in the fleet environment distribution; "
                  "registered environments: ",
                  registry.availableList());
    }
    for (const auto impl : impls) {
        if (kernels::ImplRegistry::instance().find(impl) == nullptr)
            fatal("unregistered implementation id in the fleet impl "
                  "distribution");
    }
    SONIC_ASSERT(!pipelines.empty(),
                 "empty fleet pipeline distribution");
    auto &pipes = pipeline::PipelineRegistry::instance();
    for (const auto &name : pipelines) {
        if (!pipes.contains(name))
            fatal("unknown pipeline '", name,
                  "' in the fleet pipeline distribution; registered "
                  "pipelines:\n",
                  pipes.availableList());
    }

    if (implByCoordinate.empty())
        return;
    // A planned assignment must name a kernel from `impls` for EVERY
    // coordinate a device can land on — a partial plan would silently
    // fall back to hash-dealt kernels for the holes.
    u64 covered = 0;
    for (const auto &env : environments) {
        for (const auto &net : nets) {
            for (const auto &pipe : pipelines) {
                const auto key = coordinateKey(env.label(), net, pipe);
                const auto it = implByCoordinate.find(key);
                if (it == implByCoordinate.end())
                    fatal("planned assignment covers no coordinate '",
                          key, "' (the plan must assign a kernel to "
                          "every environment x net x pipeline cell)");
                if (std::find(impls.begin(), impls.end(), it->second)
                    == impls.end())
                    fatal("planned assignment at '", key,
                          "' names a kernel outside the plan's impl "
                          "distribution");
                ++covered;
            }
        }
    }
    if (covered != implByCoordinate.size())
        fatal("planned assignment has ",
              implByCoordinate.size() - covered,
              " coordinate(s) no device can land on (stale plan for "
              "a different scenario?)");
}

DeviceDeal
FleetPlan::dealFor(u32 device_index) const
{
    // A pure function of (baseSeed, deviceIndex) and the list sizes:
    // device 17 is the same deployment no matter how many threads race
    // over the fleet or which worker picks it up.
    const u64 h = mix64(mix64(baseSeed) ^ (0xf1ee7u + device_index));
    DeviceDeal d;
    d.netIndex = static_cast<u32>(mix64(h ^ 1) % nets.size());
    d.implIndex = static_cast<u32>(mix64(h ^ 2) % impls.size());
    d.envIndex = static_cast<u32>(mix64(h ^ 3) % environments.size());
    d.seed = mix64(h ^ 4);
    // h^5 keeps the net/impl/env/seed deals of pre-pipeline plans
    // byte-identical: a single-pipeline plan is the same fleet as
    // before, just with a named execution loop.
    d.pipelineIndex = static_cast<u32>(mix64(h ^ 5) % pipelines.size());
    return d;
}

u32
FleetPlan::plannedImplIndex(u32 env_index, u32 net_index,
                            u32 pipeline_index) const
{
    const auto it = implByCoordinate.find(
        coordinateKey(environments[env_index].label(), nets[net_index],
                      pipelines[pipeline_index]));
    SONIC_ASSERT(it != implByCoordinate.end(),
                 "planned assignment misses a coordinate "
                 "(validate() was skipped?)");
    const auto impl_pos = std::find(impls.begin(), impls.end(), it->second);
    SONIC_ASSERT(impl_pos != impls.end(),
                 "planned kernel outside the impl distribution");
    return static_cast<u32>(impl_pos - impls.begin());
}

DeviceAssignment
FleetPlan::assignmentFor(u32 device_index) const
{
    const DeviceDeal d = dealFor(device_index);
    DeviceAssignment a;
    a.deviceIndex = device_index;
    a.netIndex = d.netIndex;
    a.implIndex = d.implIndex;
    a.envIndex = d.envIndex;
    a.pipelineIndex = d.pipelineIndex;
    a.seed = d.seed;
    // A planned assignment overrides ONLY the kernel deal: the impl
    // lane (h^2) is independent of the env/net/pipeline/seed lanes, so
    // the devices landing on each coordinate — and their seeds — are
    // identical to the hash-dealt fleet's. That is the separability
    // the planner's beats-every-baseline guarantee rests on.
    if (!implByCoordinate.empty())
        a.implIndex =
            plannedImplIndex(a.envIndex, a.netIndex, a.pipelineIndex);
    a.net = nets[a.netIndex];
    a.impl = impls[a.implIndex];
    a.environment = environments[a.envIndex];
    a.pipeline = pipelines[a.pipelineIndex];
    return a;
}

// --- Device lifetime ------------------------------------------------

namespace
{

/** Execution context threaded through the memoizing device loop; all
 * pointers may be null (plain unmemoized simulation). */
struct SimContext
{
    RoundCache *roundCache = nullptr;
    LifetimeCache *lifetimeCache = nullptr;
    std::atomic<u64> *uncachedRounds = nullptr;
    bool verify = false;
    /** Event recorder when this device is trace-sampled; forces fully
     * unmemoized execution so cache state is untouched. */
    trace::TraceRecorder *recorder = nullptr;
};

/** A real round's full result: the clock-independent trace plus the
 * clock-dependent dead time it observed. */
struct RoundRun
{
    RoundTrace trace;
    f64 deadSeconds = 0.0;
};

void
verifyTracesMatch(const RoundTrace &cached, const RoundTrace &fresh,
                  const DeviceAssignment &a, u32 round_index)
{
    const auto die = [&](const char *field) {
        fatal("fleet round-cache divergence on '", field, "': device ",
              a.deviceIndex, " (", a.net, " / ",
              kernels::implName(a.impl), " / ",
              a.environment.label(), " / ", a.pipeline, "), round ",
              round_index,
              " — the memoized trace does not match re-execution");
    };
    if (cached.nvmDigest != fresh.nvmDigest)
        die("nvmDigest");
    if (cached.logitsDigest != fresh.logitsDigest)
        die("logitsDigest");
    if (cached.liveSeconds != fresh.liveSeconds)
        die("liveSeconds");
    if (cached.energyJ != fresh.energyJ)
        die("energyJ");
    if (cached.senseEnergyJ != fresh.senseEnergyJ)
        die("senseEnergyJ");
    if (cached.radioEnergyJ != fresh.radioEnergyJ)
        die("radioEnergyJ");
    if (cached.backoffSeconds != fresh.backoffSeconds)
        die("backoffSeconds");
    if (cached.endLevelNj != fresh.endLevelNj)
        die("endLevelNj");
    if (cached.reboots != fresh.reboots)
        die("reboots");
    if (cached.txAttempts != fresh.txAttempts
        || cached.txFailedAttempts != fresh.txFailedAttempts)
        die("txAccounting");
    if (cached.completed != fresh.completed
        || cached.nonTerminating != fresh.nonTerminating
        || cached.delivered != fresh.delivered
        || cached.txGaveUp != fresh.txGaveUp)
        die("flags");
    if (cached.liveDeltas != fresh.liveDeltas)
        die("liveDeltas");
}

void
verifyLifetimesMatch(const DeviceTelemetry &cached,
                     const DeviceTelemetry &fresh)
{
    const bool same = cached.inferencesCompleted
            == fresh.inferencesCompleted
        && cached.diedNonTerminating == fresh.diedNonTerminating
        && cached.failedIncomplete == fresh.failedIncomplete
        && cached.reboots == fresh.reboots
        && cached.liveSeconds == fresh.liveSeconds
        && cached.deadSeconds == fresh.deadSeconds
        && cached.energyJ == fresh.energyJ
        && cached.harvestedJ == fresh.harvestedJ
        && cached.resultsDelivered == fresh.resultsDelivered
        && cached.inferenceSeconds == fresh.inferenceSeconds
        && cached.deliverySeconds == fresh.deliverySeconds;
    if (!same)
        fatal("fleet lifetime-cache divergence: device ",
              fresh.assignment.deviceIndex,
              " does not replay its memoized always-on lifetime");
}

DeviceTelemetry
simulateDeviceImpl(const FleetPlan &plan, u32 device_index,
                   const SimContext &ctx)
{
    DeviceTelemetry t;
    t.assignment = plan.assignmentFor(device_index);

    const auto &entry = dnn::ModelZoo::instance().get(t.assignment.net);
    const auto &image = entry.lowered();
    const auto &data = entry.dataset();
    const auto &spec =
        pipeline::PipelineRegistry::instance().get(t.assignment.pipeline);
    auto supply = env::EnvRegistry::instance().make(
        t.assignment.environment, t.assignment.seed);

    // Memoization eligibility. Sharing across devices is sound only
    // when the round outcome cannot see the seed (ackInvariant) and
    // the supply's semantics are the exact ones the replay reproduces
    // — hence the exact-type checks: HarvestSupply is final, and the
    // typeid check excludes user-registered ContinuousPower
    // subclasses with unknown behavior.
    const bool ack_invariant = pipeline::ackInvariant(spec);
    auto *harvest = dynamic_cast<env::HarvestSupply *>(supply.get());
    // Traced devices run every round for real: replaying a memoized
    // round would produce telemetry but no events, and inserting their
    // rounds would be redundant — so sampling leaves the caches
    // exactly as an untraced run would populate them.
    const bool round_cacheable = ctx.recorder == nullptr
        && ctx.roundCache != nullptr
        && harvest != nullptr
        && ack_invariant;

    // Always-on supplies never reboot and never consult a clock: the
    // whole lifetime is one cache entry.
    const bool lifetime_cacheable = ctx.recorder == nullptr
        && ctx.lifetimeCache != nullptr
        && typeid(*supply) == typeid(arch::ContinuousPower)
        && ack_invariant;
    const LifetimeCache::Key life_key{
        t.assignment.netIndex, t.assignment.implIndex,
        t.assignment.envIndex, t.assignment.pipelineIndex};
    DeviceTelemetry memoized_lifetime;
    bool lifetime_hit = false;
    if (lifetime_cacheable
        && ctx.lifetimeCache->find(life_key, &memoized_lifetime)) {
        ctx.lifetimeCache->countHit();
        lifetime_hit = true;
        if (!ctx.verify) {
            memoized_lifetime.assignment = t.assignment;
            return memoized_lifetime;
        }
    }

    // One real (un-memoized) round against the lifetime supply,
    // recording the elapse walk so the trace can be replayed.
    const auto run_real_round = [&](u32 k, bool want_digest) {
        RoundRun run;
        {
            arch::Device dev(
                app::makeProfile(plan.profile),
                std::make_unique<RecordingSupply>(
                    supply.get(), &run.trace.liveDeltas));
            if (ctx.recorder != nullptr) {
                // Each round gets a fresh Device whose clocks restart
                // at zero; the base offsets lift its stamps onto the
                // lifetime timeline accrued so far.
                ctx.recorder->setBase(t.totalSeconds(), t.energyJ);
                dev.setProbe(ctx.recorder);
            }
            dnn::DeviceNetwork net(dev, image);
            const auto round = pipeline::runRound(
                net, t.assignment.impl,
                dnn::DeviceNetwork::quantizeInput(
                    data[k % data.size()].input),
                spec, t.assignment.seed, k);
            dev.power(); // settle the open lease back into the supply
            run.trace.liveSeconds = dev.liveSeconds();
            run.deadSeconds = dev.deadSeconds();
            run.trace.energyJ = dev.consumedJoules();
            const auto &stats = dev.stats();
            run.trace.senseEnergyJ =
                stats.opNanojoules(arch::Op::SenseSample) * 1e-9;
            run.trace.radioEnergyJ =
                (stats.opNanojoules(arch::Op::RadioWake) +
                 stats.opNanojoules(arch::Op::RadioTxByte) +
                 stats.opNanojoules(arch::Op::RadioRxAck)) * 1e-9;
            run.trace.backoffSeconds = round.backoffSeconds;
            run.trace.reboots = round.reboots;
            run.trace.txAttempts = round.txAttempts;
            run.trace.txFailedAttempts = round.txFailedAttempts;
            run.trace.completed = round.completed;
            run.trace.nonTerminating = round.nonTerminating;
            run.trace.delivered = round.delivered;
            run.trace.txGaveUp = round.txGaveUp;
            run.trace.logitsDigest = round.logitsDigest();
            if (want_digest)
                run.trace.nvmDigest = dev.nvmDigest();
        } // ~Device flushes the final elapse into liveDeltas
        run.trace.endLevelNj =
            harvest != nullptr ? harvest->levelNj() : 0.0;
        return run;
    };

    // Accrue one round (memoized or real) into the telemetry with the
    // exact operation sequence the pre-cache loop performed; false
    // means the lifetime ended (DNF or incomplete round).
    const auto accrue_round = [&t](const RoundTrace &tr,
                                   f64 round_dead) {
        t.liveSeconds += tr.liveSeconds;
        t.deadSeconds += round_dead + tr.backoffSeconds;
        t.txBackoffSeconds += tr.backoffSeconds;
        t.energyJ += tr.energyJ;
        t.reboots += tr.reboots;
        t.senseEnergyJ += tr.senseEnergyJ;
        t.radioEnergyJ += tr.radioEnergyJ;
        if (tr.nonTerminating) {
            t.diedNonTerminating = true;
            return false;
        }
        if (!tr.completed) {
            t.failedIncomplete = true;
            return false;
        }
        ++t.inferencesCompleted;
        const f64 round_seconds =
            (tr.liveSeconds + round_dead) + tr.backoffSeconds;
        t.inferenceSeconds.push_back(round_seconds);
        t.inferenceSecondsSum += round_seconds;
        t.txAttempts += tr.txAttempts;
        t.txRetries += tr.txFailedAttempts;
        if (tr.txGaveUp)
            ++t.txGaveUpRounds;
        if (tr.delivered) {
            ++t.resultsDelivered;
            t.deliverySeconds.push_back(round_seconds);
            t.deliverySecondsSum += round_seconds;
        }
        return true;
    };

    for (u32 k = 0; plan.maxInferencesPerDevice == 0
         || k < plan.maxInferencesPerDevice;
         ++k) {
        // Sleep until the harvester refills the buffer — the standard
        // charge-then-burst duty cycle. For the first round this is a
        // no-op (the device boots fully charged; a full buffer
        // recharges in exactly zero seconds), which puts round 0
        // through the identical horizon gate as every later round.
        // Dead time that would overshoot the deployment window is
        // clipped at the horizon, so telemetry never reports more
        // simulated time than the plan deployed.
        const f64 recharge_dead = supply->recharge();
        const f64 remaining = plan.horizonSeconds - t.totalSeconds();
        if (recharge_dead >= remaining) {
            t.deadSeconds += std::max(remaining, 0.0);
            // The horizon-clipped final sleep happens outside any
            // Device, so the recorder takes it directly.
            if (ctx.recorder != nullptr)
                ctx.recorder->record(trace::TraceEventKind::Recharge,
                                     0, t.totalSeconds(), t.energyJ,
                                     std::max(remaining, 0.0));
            break;
        }
        t.deadSeconds += recharge_dead;
        if (ctx.recorder != nullptr && recharge_dead > 0.0)
            ctx.recorder->record(trace::TraceEventKind::Recharge, 0,
                                 t.totalSeconds(), t.energyJ,
                                 recharge_dead);

        bool round_done = false;
        bool keep_going = true;
        RoundKey key;
        if (round_cacheable) {
            key.netIndex = t.assignment.netIndex;
            key.implIndex = t.assignment.implIndex;
            key.pipelineIndex = t.assignment.pipelineIndex;
            key.inputIndex = static_cast<u32>(k % data.size());
            key.capacityNjBits =
                std::bit_cast<u64>(harvest->capacityNj());
            if (const RoundTrace *hit = ctx.roundCache->find(key)) {
                ctx.roundCache->countHit();
                if (ctx.verify) {
                    // Paranoid mode: re-run the round for real and
                    // cross-check the whole trace (including the NVM
                    // digest) against the memoized entry.
                    RoundRun fresh = run_real_round(k, true);
                    verifyTracesMatch(*hit, fresh.trace, t.assignment,
                                      k);
                    keep_going =
                        accrue_round(fresh.trace, fresh.deadSeconds);
                } else {
                    const f64 round_dead =
                        replayRound(*harvest, *hit);
                    keep_going = accrue_round(*hit, round_dead);
                }
                round_done = true;
            }
        }
        if (!round_done) {
            // The FRAM digest is only ever compared by a verifying
            // hit, so only a verifying run pays for it on a miss.
            RoundRun fresh =
                run_real_round(k, round_cacheable && ctx.verify);
            if (round_cacheable) {
                ctx.roundCache->countMiss();
            } else if (!lifetime_cacheable
                       && ctx.recorder == nullptr
                       && ctx.uncachedRounds != nullptr
                       && (ctx.roundCache != nullptr
                           || ctx.lifetimeCache != nullptr)) {
                ctx.uncachedRounds->fetch_add(
                    1, std::memory_order_relaxed);
            }
            keep_going = accrue_round(fresh.trace, fresh.deadSeconds);
            if (round_cacheable)
                ctx.roundCache->insert(key, std::move(fresh.trace));
        }
        if (!keep_going)
            break;
    }

    t.harvestedJ = supply->harvestedNj() * 1e-9;

    if (lifetime_cacheable) {
        if (lifetime_hit) {
            verifyLifetimesMatch(memoized_lifetime, t);
        } else {
            ctx.lifetimeCache->countMiss();
            ctx.lifetimeCache->insert(life_key, t);
        }
    }
    return t;
}

} // namespace

DeviceTelemetry
simulateDevice(const FleetPlan &plan, u32 device_index)
{
    return simulateDeviceImpl(plan, device_index, SimContext{});
}

// --- FleetColumns ---------------------------------------------------

FleetColumns::FleetColumns(u64 devices)
    : inferencesCompleted(devices), status(devices), reboots(devices),
      liveSeconds(devices), deadSeconds(devices), energyJ(devices),
      harvestedJ(devices), resultsDelivered(devices),
      txGaveUpRounds(devices), txAttempts(devices), txRetries(devices),
      radioEnergyJ(devices), senseEnergyJ(devices),
      txBackoffSeconds(devices), inferenceSecondsSum(devices),
      deliverySecondsSum(devices)
{
}

void
FleetColumns::store(u64 i, const DeviceTelemetry &t)
{
    inferencesCompleted[i] = t.inferencesCompleted;
    status[i] = static_cast<u8>((t.diedNonTerminating ? 1u : 0u)
                                | (t.failedIncomplete ? 2u : 0u));
    reboots[i] = t.reboots;
    liveSeconds[i] = t.liveSeconds;
    deadSeconds[i] = t.deadSeconds;
    energyJ[i] = t.energyJ;
    harvestedJ[i] = t.harvestedJ;
    resultsDelivered[i] = t.resultsDelivered;
    txGaveUpRounds[i] = t.txGaveUpRounds;
    txAttempts[i] = t.txAttempts;
    txRetries[i] = t.txRetries;
    radioEnergyJ[i] = t.radioEnergyJ;
    senseEnergyJ[i] = t.senseEnergyJ;
    txBackoffSeconds[i] = t.txBackoffSeconds;
    inferenceSecondsSum[i] = t.inferenceSecondsSum;
    deliverySecondsSum[i] = t.deliverySecondsSum;
}

TelemetryRow
FleetColumns::row(u64 i) const
{
    return {
        .dnf = (status[i] & 1u) != 0,
        .failed = (status[i] & 2u) != 0,
        .inferences = inferencesCompleted[i],
        .reboots = reboots[i],
        .liveSeconds = liveSeconds[i],
        .deadSeconds = deadSeconds[i],
        .energyJ = energyJ[i],
        .harvestedJ = harvestedJ[i],
        .resultsDelivered = resultsDelivered[i],
        .txGaveUpRounds = txGaveUpRounds[i],
        .txAttempts = txAttempts[i],
        .txRetries = txRetries[i],
        .radioEnergyJ = radioEnergyJ[i],
        .senseEnergyJ = senseEnergyJ[i],
        .txBackoffSeconds = txBackoffSeconds[i],
    };
}

DeviceTelemetry
FleetColumns::materialize(const FleetPlan &plan, u64 i) const
{
    DeviceTelemetry t;
    t.assignment = plan.assignmentFor(static_cast<u32>(i));
    t.inferencesCompleted = inferencesCompleted[i];
    t.diedNonTerminating = (status[i] & 1u) != 0;
    t.failedIncomplete = (status[i] & 2u) != 0;
    t.reboots = reboots[i];
    t.liveSeconds = liveSeconds[i];
    t.deadSeconds = deadSeconds[i];
    t.energyJ = energyJ[i];
    t.harvestedJ = harvestedJ[i];
    t.resultsDelivered = resultsDelivered[i];
    t.txGaveUpRounds = txGaveUpRounds[i];
    t.txAttempts = txAttempts[i];
    t.txRetries = txRetries[i];
    t.radioEnergyJ = radioEnergyJ[i];
    t.senseEnergyJ = senseEnergyJ[i];
    t.txBackoffSeconds = txBackoffSeconds[i];
    t.inferenceSecondsSum = inferenceSecondsSum[i];
    t.deliverySecondsSum = deliverySecondsSum[i];
    return t;
}

// --- Sinks ----------------------------------------------------------

void
FleetCsvSink::begin(u64)
{
    os_ << "device,net,impl,environment,pipeline,seed,status,"
           "inferences,reboots,liveSeconds,deadSeconds,totalSeconds,"
           "energyJ,harvestedJ,inferencesPerDay,rebootsPerInference,"
           "deadFraction,energyPerInferenceJ,meanInferenceSeconds,"
           "resultsDelivered,txAttempts,txRetries,txGaveUpRounds,"
           "radioEnergyJ,senseEnergyJ,txBackoffSeconds,"
           "meanDeliverySeconds\n";
}

void
FleetCsvSink::add(const DeviceTelemetry &t)
{
    // f64 fields go through fmtF64 (shortest round-trip digits, see
    // util/fmt.hh): derived rates included, so recomputing them from
    // bit-exact stored fields reproduces the row byte-for-byte.
    std::ostringstream row;
    row << t.assignment.deviceIndex << ','
        << csvQuote(t.assignment.net) << ','
        << csvQuote(std::string(
               kernels::implName(t.assignment.impl)))
        << ',' << csvQuote(t.assignment.environment.label()) << ','
        << csvQuote(t.assignment.pipeline) << ','
        << t.assignment.seed << ','
        << (t.diedNonTerminating
                ? "dnf"
                : (t.failedIncomplete ? "fail" : "ok"))
        << ','
        << t.inferencesCompleted << ',' << t.reboots << ','
        << fmtF64(t.liveSeconds) << ',' << fmtF64(t.deadSeconds)
        << ',' << fmtF64(t.totalSeconds()) << ','
        << fmtF64(t.energyJ) << ',' << fmtF64(t.harvestedJ) << ','
        << fmtF64(t.inferencesPerDay()) << ','
        << fmtF64(t.rebootsPerInference()) << ','
        << fmtF64(t.deadFraction()) << ','
        << fmtF64(t.energyPerInferenceJ()) << ','
        << fmtF64(t.meanInferenceSeconds()) << ','
        << t.resultsDelivered << ',' << t.txAttempts << ','
        << t.txRetries << ',' << t.txGaveUpRounds << ','
        << fmtF64(t.radioEnergyJ) << ',' << fmtF64(t.senseEnergyJ)
        << ',' << fmtF64(t.txBackoffSeconds) << ','
        << fmtF64(t.meanDeliverySeconds()) << '\n';
    os_ << row.str();
}

void
FleetJsonSink::begin(u64)
{
    os_ << "[";
    first_ = true;
}

void
FleetJsonSink::add(const DeviceTelemetry &t)
{
    std::ostringstream obj;
    obj.precision(17);
    obj << (first_ ? "\n" : ",\n");
    first_ = false;
    obj << "  {\"device\": " << t.assignment.deviceIndex
        << ", \"net\": \"" << jsonEscape(t.assignment.net)
        << "\", \"impl\": \""
        << jsonEscape(std::string(
               kernels::implName(t.assignment.impl)))
        << "\", \"environment\": \""
        << jsonEscape(t.assignment.environment.label())
        << "\", \"pipeline\": \"" << jsonEscape(t.assignment.pipeline)
        << "\", \"seed\": " << t.assignment.seed
        << ", \"status\": \""
        << (t.diedNonTerminating
                ? "dnf"
                : (t.failedIncomplete ? "fail" : "ok"))
        << "\", \"inferences\": " << t.inferencesCompleted
        << ", \"reboots\": " << t.reboots
        << ", \"liveSeconds\": " << t.liveSeconds
        << ", \"deadSeconds\": " << t.deadSeconds
        << ", \"totalSeconds\": " << t.totalSeconds()
        << ", \"energyJ\": " << t.energyJ
        << ", \"harvestedJ\": " << t.harvestedJ
        << ", \"inferencesPerDay\": " << t.inferencesPerDay()
        << ", \"rebootsPerInference\": " << t.rebootsPerInference()
        << ", \"deadFraction\": " << t.deadFraction()
        << ", \"energyPerInferenceJ\": " << t.energyPerInferenceJ()
        << ", \"meanInferenceSeconds\": " << t.meanInferenceSeconds()
        << ", \"resultsDelivered\": " << t.resultsDelivered
        << ", \"txAttempts\": " << t.txAttempts
        << ", \"txRetries\": " << t.txRetries
        << ", \"txGaveUpRounds\": " << t.txGaveUpRounds
        << ", \"radioEnergyJ\": " << t.radioEnergyJ
        << ", \"senseEnergyJ\": " << t.senseEnergyJ
        << ", \"txBackoffSeconds\": " << t.txBackoffSeconds
        << ", \"meanDeliverySeconds\": " << t.meanDeliverySeconds()
        << "}";
    os_ << obj.str();
}

void
FleetJsonSink::end()
{
    os_ << "\n]\n";
}

// --- Aggregation ----------------------------------------------------

void
GroupStats::accumulateRow(const TelemetryRow &row)
{
    ++devices;
    if (row.dnf)
        ++dnfDevices;
    if (row.failed)
        ++failedDevices;
    inferences += row.inferences;
    reboots += row.reboots;
    liveSeconds += row.liveSeconds;
    deadSeconds += row.deadSeconds;
    energyJ += row.energyJ;
    harvestedJ += row.harvestedJ;
    resultsDelivered += row.resultsDelivered;
    if (row.txGaveUpRounds > 0)
        ++txGaveUpDevices;
    txAttempts += row.txAttempts;
    txRetries += row.txRetries;
    radioEnergyJ += row.radioEnergyJ;
    senseEnergyJ += row.senseEnergyJ;
    txBackoffSeconds += row.txBackoffSeconds;
}

namespace
{

f64
nearestRank(const std::vector<f64> &sorted, f64 percentile)
{
    if (sorted.empty())
        return 0.0;
    const u64 rank = static_cast<u64>(
        std::ceil(percentile / 100.0
                  * static_cast<f64>(sorted.size())));
    return sorted[std::min<u64>(rank > 0 ? rank - 1 : 0,
                                sorted.size() - 1)];
}

void
emitGroup(std::ostringstream &os, const GroupStats &g)
{
    os << "{\"devices\": " << g.devices
       << ", \"dnfDevices\": " << g.dnfDevices
       << ", \"failedDevices\": " << g.failedDevices
       << ", \"inferences\": " << g.inferences
       << ", \"reboots\": " << g.reboots
       << ", \"liveSeconds\": " << g.liveSeconds
       << ", \"deadSeconds\": " << g.deadSeconds
       << ", \"energyJ\": " << g.energyJ
       << ", \"harvestedJ\": " << g.harvestedJ
       << ", \"resultsDelivered\": " << g.resultsDelivered
       << ", \"txGaveUpDevices\": " << g.txGaveUpDevices
       << ", \"txAttempts\": " << g.txAttempts
       << ", \"txRetries\": " << g.txRetries
       << ", \"radioEnergyJ\": " << g.radioEnergyJ
       << ", \"senseEnergyJ\": " << g.senseEnergyJ
       << ", \"txBackoffSeconds\": " << g.txBackoffSeconds
       << ", \"inferencesPerDeviceDay\": " << g.inferencesPerDeviceDay()
       << ", \"rebootsPerInference\": " << g.rebootsPerInference()
       << ", \"deadFraction\": " << g.deadFraction()
       << ", \"energyPerInferenceJ\": " << g.energyPerInferenceJ()
       << ", \"deliveredPerDeviceDay\": " << g.deliveredPerDeviceDay()
       << ", \"retriesPerDelivered\": " << g.retriesPerDelivered()
       << ", \"radioEnergyFraction\": " << g.radioEnergyFraction()
       << "}";
}

void
emitGroupMap(std::ostringstream &os, const char *key,
             const std::map<std::string, GroupStats> &groups)
{
    os << ",\n  \"" << key << "\": {";
    bool first = true;
    for (const auto &[name, stats] : groups) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": ";
        emitGroup(os, stats);
        first = false;
    }
    os << (groups.empty() ? "}" : "\n  }");
}

} // namespace

std::string
FleetSummary::toJson() const
{
    // Note: `cache` is deliberately not emitted — the artifact must be
    // byte-identical between memoized and --no-cache runs.
    std::ostringstream os;
    os.precision(17);
    os << "{\n  \"devices\": " << devices
       << ",\n  \"horizonSeconds\": " << horizonSeconds
       << ",\n  \"baseSeed\": " << baseSeed
       << ",\n  \"latencyP50Seconds\": " << latencyP50Seconds
       << ",\n  \"latencyP95Seconds\": " << latencyP95Seconds
       << ",\n  \"latencyP99Seconds\": " << latencyP99Seconds
       << ",\n  \"deliveryP50Seconds\": " << deliveryP50Seconds
       << ",\n  \"deliveryP95Seconds\": " << deliveryP95Seconds
       << ",\n  \"deliveryP99Seconds\": " << deliveryP99Seconds
       << ",\n  \"total\": ";
    emitGroup(os, total);
    emitGroupMap(os, "byEnvironment", byEnvironment);
    emitGroupMap(os, "byImpl", byImpl);
    emitGroupMap(os, "byNet", byNet);
    emitGroupMap(os, "byPipeline", byPipeline);
    os << "\n}\n";
    return os.str();
}

// --- Fleet execution ------------------------------------------------

FleetSummary
runFleet(const FleetPlan &plan, FleetOptions options,
         const std::vector<FleetSink *> &sinks)
{
    plan.validate();

    // Warm the zoo cache before the fan-out so workers only read
    // immutable artifacts (same discipline as Engine::run).
    for (const auto &net : plan.nets) {
        const auto &entry = dnn::ModelZoo::instance().get(net);
        entry.lowered();
        entry.dataset();
    }

    const u64 total = plan.devices;
    u32 workers =
        options.threads > 0 ? options.threads : util::hardwareWorkers();
    workers = static_cast<u32>(std::min<u64>(workers, total));

    std::vector<FleetSink *> live_sinks;
    for (auto *sink : sinks)
        if (sink != nullptr)
            live_sinks.push_back(sink);
    for (auto *sink : live_sinks)
        sink->begin(total);

    FleetColumns columns(total);

    RoundCache round_cache;
    LifetimeCache lifetime_cache;
    std::atomic<u64> uncached_rounds{0};
    SimContext ctx;
    if (options.useCache) {
        ctx.roundCache = &round_cache;
        ctx.lifetimeCache = &lifetime_cache;
    }
    ctx.uncachedRounds = &uncached_rounds;
    ctx.verify = options.verifyCache;

    // Trace sampling: device i is traced iff i % traceEvery == 0, a
    // pure function of the index, so the sampled set (and the bytes
    // the collector later writes, in device order) is identical for
    // every thread count.
    const bool tracing =
        options.traces != nullptr && plan.traceEvery > 0;
    const auto context_for = [&](u64 i) {
        SimContext dev_ctx = ctx;
        if (tracing && i % plan.traceEvery == 0)
            dev_ctx.recorder = options.traces->recorderFor(i);
        return dev_ctx;
    };

    std::atomic<u64> devices_done{0};
    util::ProgressMeter progress("fleet", "devices", total,
                                 &devices_done, options.progress);

    // Worker-local latency buffers, merged and sorted after the join:
    // the percentile inputs form the same multiset under every
    // schedule, and sorting a multiset of finite f64s is a pure
    // function of its contents — so percentiles stay bit-identical
    // across thread counts without a serialized collection pass.
    std::vector<std::vector<f64>> worker_latencies(workers);
    std::vector<std::vector<f64>> worker_deliveries(workers);

    // Work stealing over device lifetimes: the shared cursor hands the
    // next device to whichever worker frees up first, so a fleet of
    // wildly uneven lifetimes (a solar device waiting out the night
    // next to a bench device) still load-balances. Sinks see devices
    // in index order.
    std::function<void(u64)> emit;
    if (!live_sinks.empty()) {
        emit = [&](u64 i) {
            const DeviceTelemetry view = columns.materialize(plan, i);
            for (auto *sink : live_sinks)
                sink->add(view);
        };
    }
    util::parallelFor(
        total, workers,
        [&](u64 i, u32 w) {
            const DeviceTelemetry t = simulateDeviceImpl(
                plan, static_cast<u32>(i), context_for(i));
            devices_done.fetch_add(1, std::memory_order_relaxed);
            columns.store(i, t);
            worker_latencies[w].insert(worker_latencies[w].end(),
                                       t.inferenceSeconds.begin(),
                                       t.inferenceSeconds.end());
            worker_deliveries[w].insert(worker_deliveries[w].end(),
                                        t.deliverySeconds.begin(),
                                        t.deliverySeconds.end());
        },
        emit);

    for (auto *sink : live_sinks)
        sink->end();

    // Sequential columnar reduction in device-index order: the summary
    // is a pure function of the per-device telemetry, so it is
    // bit-identical for every thread count. Devices are re-dealt (no
    // strings) and routed through one group slot per list position; a
    // slot joins its breakdown map on first use, so groups no device
    // lands in stay absent, and two positions with the same label
    // share one group.
    FleetSummary summary;
    summary.devices = plan.devices;
    summary.horizonSeconds = plan.horizonSeconds;
    summary.baseSeed = plan.baseSeed;
    const u64 n_nets = plan.nets.size();
    const u64 n_pipes = plan.pipelines.size();
    std::vector<u32> planned_impl;
    if (!plan.implByCoordinate.empty()) {
        planned_impl.resize(plan.environments.size() * n_nets * n_pipes);
        for (u32 e = 0; e < plan.environments.size(); ++e)
            for (u32 n = 0; n < n_nets; ++n)
                for (u32 p = 0; p < n_pipes; ++p)
                    planned_impl[(e * n_nets + n) * n_pipes + p] =
                        plan.plannedImplIndex(e, n, p);
    }
    std::vector<GroupStats *> env_slots(plan.environments.size());
    std::vector<GroupStats *> impl_slots(plan.impls.size());
    std::vector<GroupStats *> net_slots(n_nets);
    std::vector<GroupStats *> pipe_slots(n_pipes);
    const auto group = [](std::vector<GroupStats *> &slots, u32 index,
                          std::map<std::string, GroupStats> &groups,
                          const auto &name) -> GroupStats & {
        if (slots[index] == nullptr)
            slots[index] = &groups[name()];
        return *slots[index];
    };
    for (u64 i = 0; i < total; ++i) {
        const DeviceDeal d = plan.dealFor(static_cast<u32>(i));
        const u32 impl = planned_impl.empty()
            ? d.implIndex
            : planned_impl[(d.envIndex * n_nets + d.netIndex) * n_pipes
                           + d.pipelineIndex];
        const TelemetryRow row = columns.row(i);
        summary.total.accumulateRow(row);
        group(env_slots, d.envIndex, summary.byEnvironment, [&] {
            return plan.environments[d.envIndex].label();
        }).accumulateRow(row);
        group(impl_slots, impl, summary.byImpl, [&] {
            return std::string(kernels::implName(plan.impls[impl]));
        }).accumulateRow(row);
        group(net_slots, d.netIndex, summary.byNet, [&] {
            return plan.nets[d.netIndex];
        }).accumulateRow(row);
        group(pipe_slots, d.pipelineIndex, summary.byPipeline, [&] {
            return plan.pipelines[d.pipelineIndex];
        }).accumulateRow(row);
    }

    std::vector<f64> latencies;
    std::vector<f64> deliveries;
    for (u32 w = 0; w < workers; ++w) {
        latencies.insert(latencies.end(), worker_latencies[w].begin(),
                         worker_latencies[w].end());
        deliveries.insert(deliveries.end(),
                          worker_deliveries[w].begin(),
                          worker_deliveries[w].end());
    }
    std::sort(latencies.begin(), latencies.end());
    summary.latencyP50Seconds = nearestRank(latencies, 50.0);
    summary.latencyP95Seconds = nearestRank(latencies, 95.0);
    summary.latencyP99Seconds = nearestRank(latencies, 99.0);
    std::sort(deliveries.begin(), deliveries.end());
    summary.deliveryP50Seconds = nearestRank(deliveries, 50.0);
    summary.deliveryP95Seconds = nearestRank(deliveries, 95.0);
    summary.deliveryP99Seconds = nearestRank(deliveries, 99.0);

    summary.cache.roundHits = round_cache.hits();
    summary.cache.roundMisses = round_cache.misses();
    summary.cache.lifetimeHits = lifetime_cache.hits();
    summary.cache.lifetimeMisses = lifetime_cache.misses();
    summary.cache.uncachedRounds =
        uncached_rounds.load(std::memory_order_relaxed);
    return summary;
}

// --- Named scenarios ------------------------------------------------

const std::vector<FleetScenario> &
namedScenarios()
{
    static const std::vector<FleetScenario> scenarios = [] {
        std::vector<FleetScenario> out;
        {
            // The CI smoke fleet: small, seconds to run, but mixed
            // enough to cross every kernel with both trace
            // environments.
            FleetPlan plan;
            plan.devices = 200;
            plan.nets = {"MNIST", "HAR", "OkG"};
            plan.impls.assign(std::begin(kernels::kAllImpls),
                              std::end(kernels::kAllImpls));
            plan.environments = {{"trace-rf-office", 1e-3},
                                 {"trace-solar-cloudy", 1e-3},
                                 {"rf-paper", 100e-6},
                                 {"duty-cycle", 1e-3},
                                 {"continuous", 0.0}};
            plan.maxInferencesPerDevice = 2;
            out.push_back({"smoke-200",
                           "200 devices, all kernels, trace + "
                           "synthetic environments (CI smoke)",
                           plan});
        }
        {
            // The acceptance fleet: the paper's three workloads on
            // SONIC/TAILS under mixed solar + RF power. Scales to a
            // million devices with --devices thanks to round-trace
            // memoization.
            FleetPlan plan;
            plan.devices = 1000;
            plan.nets = {"MNIST", "HAR", "OkG"};
            plan.impls = {kernels::Impl::Sonic, kernels::Impl::Tails};
            plan.environments = {{"solar", 1e-3},
                                 {"solar", 100e-6},
                                 {"rf-paper", 1e-3},
                                 {"rf-paper", 100e-6},
                                 {"rf-bursty", 1e-3}};
            plan.maxInferencesPerDevice = 2;
            out.push_back({"mixed-1k",
                           "1,000 devices, MNIST/HAR/OkG x "
                           "SONIC/TAILS, solar + RF mixed power",
                           plan});
        }
        {
            // A day of wildlife cameras: the paper's motivating
            // deployment at fleet scale, solar-powered with
            // cloudy-trace variants.
            FleetPlan plan;
            plan.devices = 500;
            plan.nets = {"MNIST"};
            plan.impls = {kernels::Impl::Sonic, kernels::Impl::Tails,
                          kernels::Impl::Tile8};
            plan.environments = {{"solar", 1e-3},
                                 {"trace-solar-cloudy", 1e-3},
                                 {"trace-solar-cloudy", 100e-6}};
            plan.pipelines = {"wildlife"};
            plan.maxInferencesPerDevice = 3;
            out.push_back({"wildlife-day",
                           "500 solar wildlife cameras running the "
                           "full sense-infer-transmit pipeline, clear "
                           "vs cloudy traces",
                           plan});
        }
        return out;
    }();
    return scenarios;
}

} // namespace sonic::fleet
