#include "app/engine.hh"

#include <atomic>
#include <optional>
#include <ostream>
#include <sstream>

#include "arch/memory.hh"
#include "dnn/device_net.hh"
#include "util/fmt.hh"
#include "util/progress.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/table.hh"

namespace sonic::app
{

// --- Sinks ----------------------------------------------------------

void
MemorySink::begin(u64 totalRecords)
{
    records_.reserve(records_.size() + totalRecords);
}

void
MemorySink::add(const SweepRecord &record)
{
    records_.push_back(record);
}

void
CsvSink::begin(u64)
{
    os_ << "planIndex,net,impl,power,environment,profile,sample,seed,"
           "status,"
           "reboots,tasksExecuted,liveSeconds,deadSeconds,"
           "totalSeconds,energyJ,harvestedJ,predictedClass,"
           "tailsTileWords,scheduleLen,scheduleFired\n";
}

void
CsvSink::add(const SweepRecord &record)
{
    const auto &r = record.result;
    // f64 fields go through fmtF64 (shortest round-trip digits): a
    // fixed precision(12) dropped mantissa bits, so CSV could never be
    // a lossless artifact. See util/fmt.hh.
    std::ostringstream row;
    row << record.planIndex << ',' << csvQuote(record.spec.net) << ','
        << csvQuote(std::string(kernels::implName(record.spec.impl)))
        << ',' << powerName(record.spec.power) << ','
        << csvQuote(record.spec.environment.label()) << ','
        << profileName(record.spec.profile) << ','
        << record.spec.sampleIndex << ',' << record.spec.seed << ','
        << (r.completed ? "ok" : (r.nonTerminating ? "dnf" : "fail"))
        << ',' << r.reboots << ',' << r.tasksExecuted << ','
        << fmtF64(r.liveSeconds) << ',' << fmtF64(r.deadSeconds) << ','
        << fmtF64(r.totalSeconds) << ',' << fmtF64(r.energyJ) << ','
        << fmtF64(r.harvestedJ) << ',' << r.predictedClass << ','
        << r.tailsTileWords << ','
        << record.spec.failureSchedule.size() << ','
        << r.scheduleFired << '\n';
    os_ << row.str();
}

void
JsonSink::begin(u64)
{
    os_ << "[";
    first_ = true;
}

void
JsonSink::add(const SweepRecord &record)
{
    const auto &r = record.result;
    std::ostringstream obj;
    obj.precision(17);
    obj << (first_ ? "\n" : ",\n");
    first_ = false;
    obj << "  {\"planIndex\": " << record.planIndex
        << ", \"net\": \"" << jsonEscape(record.spec.net)
        << "\", \"impl\": \""
        << jsonEscape(std::string(
               kernels::implName(record.spec.impl)))
        << "\", \"power\": \"" << powerName(record.spec.power)
        << "\", \"environment\": \""
        << jsonEscape(record.spec.environment.label())
        << "\", \"profile\": \"" << profileName(record.spec.profile)
        << "\", \"sample\": " << record.spec.sampleIndex
        << ", \"seed\": " << record.spec.seed
        << ", \"completed\": " << (r.completed ? "true" : "false")
        << ", \"nonTerminating\": "
        << (r.nonTerminating ? "true" : "false")
        << ", \"reboots\": " << r.reboots
        << ", \"tasksExecuted\": " << r.tasksExecuted
        << ", \"liveSeconds\": " << r.liveSeconds
        << ", \"deadSeconds\": " << r.deadSeconds
        << ", \"totalSeconds\": " << r.totalSeconds
        << ", \"energyJ\": " << r.energyJ
        << ", \"harvestedJ\": " << r.harvestedJ
        << ", \"predictedClass\": " << r.predictedClass
        << ", \"tailsTileWords\": " << r.tailsTileWords;

    if (!record.spec.failureSchedule.empty()) {
        obj << ", \"failureSchedule\": [";
        for (u64 i = 0; i < record.spec.failureSchedule.size(); ++i)
            obj << (i ? ", " : "") << record.spec.failureSchedule[i];
        obj << "], \"scheduleFired\": " << r.scheduleFired;
    }
    if (record.spec.captureNvmDigests) {
        obj << ", \"finalNvmDigest\": " << r.finalNvmDigest
            << ", \"rebootDigests\": [";
        for (u64 i = 0; i < r.rebootDigests.size(); ++i)
            obj << (i ? ", " : "") << r.rebootDigests[i];
        obj << "]";
    }

    obj << ", \"layers\": [";
    for (u64 i = 0; i < r.layers.size(); ++i) {
        const auto &layer = r.layers[i];
        obj << (i ? ", " : "") << "{\"name\": \""
            << jsonEscape(layer.name)
            << "\", \"kernelSeconds\": " << layer.kernelSeconds
            << ", \"controlSeconds\": " << layer.controlSeconds
            << ", \"energyJ\": " << layer.energyJ << "}";
    }
    obj << "]";

    obj << ", \"energyByOp\": {";
    bool firstOp = true;
    for (const auto &[op, joules] : r.energyByOp) {
        obj << (firstOp ? "" : ", ") << "\"" << jsonEscape(op)
            << "\": " << joules;
        firstOp = false;
    }
    obj << "}";

    obj << ", \"logits\": [";
    for (u64 i = 0; i < r.logits.size(); ++i)
        obj << (i ? ", " : "") << r.logits[i];
    obj << "]}";
    os_ << obj.str();
}

void
JsonSink::end()
{
    os_ << "\n]\n";
}

// --- Engine ---------------------------------------------------------

Engine::Engine(EngineOptions options) : options_(options) {}

Engine::~Engine() = default;

u32
Engine::threadCount() const
{
    return options_.threads > 0 ? options_.threads
                                : util::hardwareWorkers();
}

const dnn::ModelEntry &
Engine::model(const dnn::NetRef &net)
{
    return dnn::ModelZoo::instance().get(net);
}

const dnn::NetworkSpec &
Engine::teacher(const dnn::NetRef &net)
{
    return model(net).teacher();
}

const dnn::NetworkSpec &
Engine::compressed(const dnn::NetRef &net)
{
    return model(net).compressed();
}

const dnn::Dataset &
Engine::dataset(const dnn::NetRef &net)
{
    return model(net).dataset();
}

ExperimentResult
Engine::runOne(const RunSpec &spec)
{
    // Supply precedence (makeSupply): an explicit failure-index trace
    // overrides the environment, which overrides the power-kind axis.
    std::unique_ptr<arch::PowerSupply> psu = makeSupply(spec);
    const auto *schedule_psu = spec.failureSchedule.empty()
        ? nullptr
        : static_cast<const arch::SchedulePower *>(psu.get());

    arch::Device dev(makeProfile(spec.profile), std::move(psu));
    ExperimentResult result;
    if (spec.captureNvmDigests) {
        dev.setRebootHook([&result](arch::Device &d, u64) {
            result.rebootDigests.push_back(d.nvmDigest());
        });
    }
    dnn::DeviceNetwork net(dev, model(spec.net).lowered());

    const dnn::Dataset &data = dataset(spec.net);
    const auto &sample = data[spec.sampleIndex % data.size()];
    net.loadInput(dnn::DeviceNetwork::quantizeInput(sample.input));

    const auto run = kernels::runInference(net, spec.impl);

    result.completed = run.completed;
    result.nonTerminating = run.nonTerminating;
    result.reboots = run.reboots;
    result.tasksExecuted = run.tasksExecuted;
    result.tailsTileWords = run.calibTileWords;
    result.liveSeconds = dev.liveSeconds();
    result.deadSeconds = dev.deadSeconds();
    result.totalSeconds = dev.totalSeconds();
    result.energyJ = dev.consumedJoules();
    result.harvestedJ = dev.power().harvestedNj() * 1e-9;
    if (schedule_psu != nullptr)
        result.scheduleFired = schedule_psu->firedCount();
    if (spec.captureNvmDigests)
        result.finalNvmDigest = dev.nvmDigest();

    const auto &stats = dev.stats();
    for (u32 o = 0; o < arch::kNumOps; ++o)
        result.opInstances += stats.opCount(static_cast<arch::Op>(o));
    const f64 hz = dev.config().clockHz;
    for (u16 l = 0; l < stats.numLayers(); ++l) {
        LayerBreakdown row;
        row.name = stats.layerName(l);
        row.kernelSeconds =
            static_cast<f64>(
                stats.bucket(l, arch::Part::Kernel).totalCycles())
            / hz;
        row.controlSeconds =
            static_cast<f64>(
                stats.bucket(l, arch::Part::Control).totalCycles())
            / hz;
        row.energyJ = stats.layerNanojoules(l) * 1e-9;
        result.layers.push_back(row);
    }
    for (u32 o = 0; o < arch::kNumOps; ++o) {
        const auto op = static_cast<arch::Op>(o);
        const f64 joules = stats.opNanojoules(op) * 1e-9;
        if (joules > 0.0)
            result.energyByOp[std::string(arch::opName(op))] = joules;
    }

    if (run.completed) {
        result.logits = run.logits;
        u32 best = 0;
        for (u32 i = 1; i < result.logits.size(); ++i)
            if (result.logits[i] > result.logits[best])
                best = i;
        result.predictedClass = best;
    }
    return result;
}

std::vector<SweepRecord>
Engine::run(const SweepPlan &plan,
            const std::vector<ResultSink *> &sinks)
{
    const auto specs = plan.expand();
    const u64 total = specs.size();

    // Warm the zoo cache before the fan-out, so workers only ever read
    // immutable artifacts (and so cache construction order — hence
    // content — is independent of the thread count).
    for (const auto &net : plan.netAxis()) {
        model(net).lowered();
        dataset(net);
    }

    MemorySink memory;
    std::vector<ResultSink *> allSinks;
    allSinks.push_back(&memory);
    for (auto *sink : sinks)
        if (sink != nullptr)
            allSinks.push_back(sink);

    for (auto *sink : allSinks)
        sink->begin(total);

    std::atomic<u64> specs_done{0};
    util::ProgressMeter progress("sweep", "coordinates", total,
                                 &specs_done, options_.progress);

    // Runs finish in any order; emit hands them to the sinks in plan
    // order so every sink sees a deterministic stream.
    std::vector<std::optional<SweepRecord>> done(total);
    util::parallelFor(
        total, threadCount(),
        [&](u64 i, u32) {
            SweepRecord record;
            record.planIndex = static_cast<u32>(i);
            record.spec = specs[i];
            record.result = runOne(specs[i]);
            done[i] = std::move(record);
            specs_done.fetch_add(1, std::memory_order_relaxed);
        },
        [&](u64 i) {
            for (auto *sink : allSinks)
                sink->add(*done[i]);
            done[i].reset();
        });

    for (auto *sink : allSinks)
        sink->end();
    return memory.take();
}

} // namespace sonic::app
