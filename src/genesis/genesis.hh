/**
 * @file
 * GENESIS (paper Sec. 5): automatic network compression that optimally
 * balances inference energy against detection accuracy.
 *
 * GENESIS sweeps separation (CP/SVD rank) and pruning knobs over a
 * workload's teacher network, evaluates each configuration's accuracy
 * (agreement with the teacher on held-out synthetic samples), counts
 * its parameters/MACs, checks device feasibility (FRAM footprint), and
 * maps everything through the Sec. 3 application model (Eq. 3) to pick
 * the feasible configuration that maximizes IMpJ — which, as the paper
 * stresses, is usually *not* the most accurate one.
 */

#ifndef SONIC_GENESIS_GENESIS_HH
#define SONIC_GENESIS_GENESIS_HH

#include <string>
#include <vector>

#include "dnn/dataset.hh"
#include "dnn/networks.hh"
#include "dnn/zoo.hh"
#include "genesis/impj.hh"
#include "util/types.hh"

namespace sonic::genesis
{

/** Which compression techniques a configuration uses (Fig. 4 legend). */
enum class Technique : u8
{
    SeparateAndPrune,
    SeparateOnly,
    PruneOnly
};

const char *techniqueName(Technique t);

/** One evaluated compression configuration. */
struct ConfigPoint
{
    Technique technique = Technique::SeparateAndPrune;
    dnn::CompressionKnobs knobs;

    u64 params = 0;
    u64 macs = 0;
    u64 framBytes = 0;
    bool feasible = false;

    f64 agreement = 0.0; ///< fraction matching teacher labels
    f64 accuracy = 0.0;  ///< agreement scaled by paper base accuracy
    f64 truePositive = 0.0;
    f64 trueNegative = 0.0;

    f64 inferJ = 0.0; ///< estimated energy per inference
    f64 impj = 0.0;   ///< Eq. 3 application performance
};

/** The FC rank scales (CompressionKnobs::fcRankScale) of the dense
 * grid; the sparse grid uses 1.0 only. */
inline constexpr f64 kDenseRankScales[] = {0.5, 1.0, 2.0};

/** Sweep options. */
struct GenesisOptions
{
    u32 evalSamples = 96;
    u64 seed = 0x5eed;

    /** FRAM available for weights + activations (capacity minus the
     * runtime's footprint). */
    u64 framBudgetBytes = 224 * 1024;

    /** Application-model energies (wildlife defaults, Sec. 3.2). */
    f64 senseJ = 10e-3;
    f64 commJ = 23.0;

    /** Per-MAC inference energy (calibrate from a measured run). */
    f64 joulesPerMac = 60e-9;

    /** Sweep density (smaller grids for tests). */
    bool denseGrid = true;
};

/** Full sweep result. */
struct GenesisResult
{
    dnn::NetRef net;
    std::vector<ConfigPoint> configs;
    ConfigPoint original;  ///< the uncompressed teacher (infeasible)
    u32 chosenIndex = 0;   ///< feasible config maximizing IMpJ
    u32 interestingClass = 0;

    const ConfigPoint &chosen() const { return configs[chosenIndex]; }
};

/**
 * Run the sweep for one registered workload. Paper workloads compress
 * through their Table 2 budgets; any other zoo model goes through the
 * generic knob compressor (see dnn::ModelDef::withKnobs).
 */
GenesisResult runGenesis(const dnn::NetRef &net,
                         const GenesisOptions &opts);

/**
 * Indices of the accuracy-vs-MACs Pareto frontier (maximize accuracy,
 * minimize MACs) within the subset matching `technique` (or all
 * configurations when technique is nullptr).
 */
std::vector<u32> paretoFrontier(const std::vector<ConfigPoint> &configs,
                                const Technique *technique);

/**
 * Evaluate one configuration of a teacher (entry.teacherAt at the
 * sweep's seed) against its labelled data (exposed for tests).
 */
ConfigPoint evaluateConfig(const dnn::ModelEntry &entry,
                           const dnn::NetworkSpec &teacher,
                           Technique technique,
                           const dnn::CompressionKnobs &knobs,
                           const dnn::Dataset &data,
                           const GenesisOptions &opts);

} // namespace sonic::genesis

#endif // SONIC_GENESIS_GENESIS_HH
