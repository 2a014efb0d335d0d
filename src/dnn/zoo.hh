/**
 * @file
 * The model zoo: a string-keyed registry of workloads, mirroring the
 * kernel ImplRegistry. A model is addressed everywhere — SweepPlan
 * axes, Engine caches, GENESIS, the verification oracle, the CLIs —
 * by its registered name (a NetRef); the registry lazily builds and
 * caches each model's ModelEntry (teacher network, compressed device
 * network, labelled synthetic dataset, metadata) on first use.
 *
 * As in the paper, where GENESIS compresses a network offline and the
 * device only ever holds the result (Sec. 4), an entry whose teacher
 * can be rebuilt (ModelDef::teacherSeed) does not keep it: the teacher
 * serves compression and dataset labelling, is freed, and is rebuilt
 * only if teacher() is asked for it.
 *
 * The paper's three workloads (MNIST/HAR/OkG, Table 2), the verify
 * subsystem's platform-stable integer-dyadic workload ("golden"), and
 * a family of NetworkBuilder-generated synthetic models pre-register;
 * new workloads plug in via ModelZoo::add() — or are loaded from a
 * serialized model file (dnn/model_io.hh) — with no edits to any
 * consumer:
 *
 *     dnn::ModelZoo::instance().add(
 *         "MyNet", {.paperAccuracy = 1.0, .family = "custom"},
 *         [] { return dnn::ModelDef{myTeacher(), myCompressed()}; });
 *     app::SweepPlan plan;
 *     plan.nets({"MyNet"}).allImpls();
 */

#ifndef SONIC_DNN_ZOO_HH
#define SONIC_DNN_ZOO_HH

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dnn/dataset.hh"
#include "dnn/networks.hh"
#include "dnn/spec.hh"
#include "util/types.hh"

namespace sonic::dnn
{

/**
 * A workload reference: the registered model name. Carried by
 * RunSpecs, sweep records and sinks; resolved through the ModelZoo.
 */
using NetRef = std::string;

struct LoweredNetwork; // dnn/device_net.hh

/** The paper's three evaluation workloads (the Fig. 9 sweep axis). */
inline const NetRef kPaperNets[] = {"MNIST", "HAR", "OkG"};

/** Per-model metadata (what used to be hard-coded switch tables). */
struct ModelMeta
{
    /**
     * The paper's reported accuracy for the workload's chosen
     * configuration; 1.0 for models without a published baseline.
     * Agreement-with-teacher measurements scale by this (the Table 2
     * accuracy substitution, see dnn/dataset.hh).
     */
    f64 paperAccuracy = 1.0;

    /** Provenance bucket: "paper", "synthetic", "verify", "loaded",
     * "custom". Informational (CLIs group listings by it). */
    std::string family = "custom";

    std::string description;

    /** Synthetic dataset shape (makeDataset inputs). */
    u32 datasetSamples = 64;
    u64 datasetSeed = 0xda7a;

    /** Agreement scaled by the paper's base accuracy. */
    f64
    scaledAccuracy(f64 agreement) const
    {
        return paperAccuracy * agreement;
    }
};

/** What a model builder returns; the zoo fills the optional pieces. */
struct ModelDef
{
    /** The reference network (labels datasets; GENESIS' input). */
    NetworkSpec teacher;

    /**
     * The device configuration. Leave the layer list empty to run the
     * teacher itself on-device (synthetic models are born feasible).
     */
    NetworkSpec compressed;

    /**
     * Rebuild the teacher at an explicit seed (GENESIS sweeps). When
     * unset, the registered teacher is returned for every seed (the
     * model has fixed weights — e.g. it was loaded from disk).
     */
    std::function<NetworkSpec(u64 seed)> teacherAt;

    /**
     * The seed `teacher` was built at: teacherAt(*teacherSeed) must
     * return it bit for bit. With teacherAt set, this lets the entry
     * free the teacher once dataset() has labelled from it and rebuild
     * it on the first teacher() call. When unset, the entry keeps the
     * teacher for the life of the process.
     */
    std::optional<u64> teacherSeed;

    /**
     * Knob-driven recompression of a teacher (GENESIS' search space;
     * the teacher is one teacherAt returned). When unset, the generic
     * compressor (dnn::compressGeneric) is used.
     */
    std::function<NetworkSpec(const NetworkSpec &teacher,
                              const CompressionKnobs &)>
        withKnobs;

    /**
     * Per-model dataset builder: how the model ships its own eval
     * inputs. When unset, the default synthetic generator
     * (makeDataset over the teacher, shaped by ModelMeta's
     * datasetSamples/datasetSeed) labels class-structured noise with
     * the teacher — the Table 2 substitution. A loaded or imported
     * model can instead provide its real samples here; the zoo caches
     * the result lazily exactly like the default.
     */
    std::function<Dataset(const NetworkSpec &teacher,
                          const ModelMeta &meta)>
        dataset;
};

/** One cached zoo row: everything consumers need about a model. */
class ModelEntry
{
  public:
    ModelEntry(std::string name, ModelMeta meta, ModelDef def);

    ModelEntry(const ModelEntry &) = delete;
    ModelEntry &operator=(const ModelEntry &) = delete;

    const std::string &name() const { return name_; }
    const ModelMeta &meta() const { return meta_; }

    /**
     * The uncompressed reference network. An entry with a teacher seed
     * (ModelDef::teacherSeed) rebuilds it here on the first call, once
     * (thread-safe), and keeps that copy: the one it was constructed
     * with only lives until dataset() has labelled from it.
     */
    const NetworkSpec &teacher() const;

    /** The on-device configuration. */
    const NetworkSpec &compressed() const { return compressed_; }

    /** compressed() lowered to its device image (lazily, once;
     * thread-safe). Every DeviceNetwork of this model shares it. */
    const std::shared_ptr<const LoweredNetwork> &lowered() const;

    /** The labelled synthetic dataset (lazily built, thread-safe).
     * Building it frees a rebuildable teacher (see teacher()). */
    const Dataset &dataset() const;

    /** Teacher rebuilt at an explicit seed (see ModelDef::teacherAt). */
    NetworkSpec teacherAt(u64 seed) const { return teacherAt_(seed); }

    /** Knob-driven compressed variant of teacherAt(seed) (see
     * ModelDef::withKnobs). */
    NetworkSpec
    withKnobs(const CompressionKnobs &knobs, u64 seed) const
    {
        return withKnobs_(teacherAt_(seed), knobs);
    }

    /** Knob-driven compressed variant of a teacher the caller already
     * holds (one teacherAt returned): GENESIS' grid points. */
    NetworkSpec
    withKnobs(const NetworkSpec &teacher,
              const CompressionKnobs &knobs) const
    {
        return withKnobs_(teacher, knobs);
    }

  private:
    std::string name_;
    ModelMeta meta_;
    /** The teacher the entry was built with. Kept for fixed-weight
     * models; otherwise read and then freed only by dataset(). */
    mutable NetworkSpec teacher_;
    std::optional<u64> teacherSeed_;
    NetworkSpec compressed_;
    std::function<NetworkSpec(u64)> teacherAt_;
    std::function<NetworkSpec(const NetworkSpec &,
                              const CompressionKnobs &)>
        withKnobs_;
    std::function<Dataset(const NetworkSpec &, const ModelMeta &)>
        datasetBuilder_;

    mutable std::once_flag datasetOnce_;
    mutable Dataset dataset_;

    mutable std::once_flag rebuiltOnce_;
    mutable NetworkSpec rebuilt_;

    mutable std::once_flag loweredOnce_;
    mutable std::shared_ptr<const LoweredNetwork> lowered_;
};

/**
 * The builder of a paper row (MNIST, HAR, OkG): the teacher at
 * kTeacherSeed, compressed with the Table 2 knobs, rebuildable at any
 * seed and recompressible with GENESIS' knobs.
 */
ModelDef paperModelDef(NetId id);

/**
 * The process-wide model registry. Thread-safe; entries are stable
 * once built (lookups return pointers that stay valid for the life of
 * the process).
 */
class ModelZoo
{
  public:
    /** The singleton, with the built-in models registered. */
    static ModelZoo &instance();

    /**
     * Register a model under a unique name. The builder runs lazily on
     * first lookup; re-registering an existing name panics.
     */
    void add(std::string name, ModelMeta meta,
             std::function<ModelDef()> build);

    /** Register a fixed, already-built network (teacher == device). */
    void add(std::string name, ModelMeta meta, NetworkSpec net);

    /** Whether a name is registered (no build triggered). */
    bool contains(std::string_view name) const;

    /** Registered metadata (no build triggered); nullptr if unknown.
     * The pointer stays valid for the life of the process. */
    const ModelMeta *meta(std::string_view name) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** Comma-separated names(), for error messages. */
    std::string availableList() const;

    /** Lookup, building and caching on first use; nullptr if unknown. */
    const ModelEntry *find(std::string_view name);

    /** As find(), but an unknown name is a fatal configuration error
     * reporting the available models. */
    const ModelEntry &get(std::string_view name);

  private:
    ModelZoo();

    struct Row
    {
        std::string name;
        ModelMeta meta;
        std::function<ModelDef()> build;
        std::unique_ptr<ModelEntry> entry;
    };

    Row *rowFor(std::string_view name);

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Row>> rows_;
};

} // namespace sonic::dnn

#endif // SONIC_DNN_ZOO_HH
