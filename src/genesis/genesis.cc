#include "genesis/genesis.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/parallel.hh"

namespace sonic::genesis
{

const char *
techniqueName(Technique t)
{
    switch (t) {
      case Technique::SeparateAndPrune: return "separate+prune";
      case Technique::SeparateOnly: return "separate-only";
      case Technique::PruneOnly: return "prune-only";
    }
    return "?";
}

ConfigPoint
evaluateConfig(const dnn::ModelEntry &entry, Technique technique,
               const dnn::CompressionKnobs &knobs,
               const dnn::NetworkSpec &teacher, const dnn::Dataset &data,
               u32 interesting_class, const GenesisOptions &opts)
{
    (void)teacher;
    ConfigPoint point;
    point.technique = technique;
    point.knobs = knobs;

    const dnn::NetworkSpec spec = entry.withKnobs(knobs, opts.seed);
    point.params = spec.paramCount();
    point.macs = spec.macCount();
    point.framBytes = spec.framBytesNeeded();
    point.feasible = point.framBytes <= opts.framBudgetBytes;

    point.agreement = dnn::agreement(spec, data);
    point.accuracy = entry.meta().scaledAccuracy(point.agreement);
    (void)interesting_class;
    // The application model uses the paper's Fig. 1/2 simplification
    // tp = tn = accuracy; per-class detection rates on the skewed
    // synthetic label distribution would let degenerate always-fire
    // configurations game Eq. 3.
    point.truePositive = point.accuracy;
    point.trueNegative = point.accuracy;

    point.inferJ = static_cast<f64>(point.macs) * opts.joulesPerMac;

    AppModel model;
    model.baseRate = 0.05;
    model.truePositive = point.truePositive;
    model.trueNegative = point.trueNegative;
    model.senseJ = opts.senseJ;
    model.commJ = opts.commJ;
    model.inferJ = point.inferJ;
    point.impj = impjInference(model);
    return point;
}

GenesisResult
runGenesis(const dnn::NetRef &net, const GenesisOptions &opts)
{
    const dnn::ModelEntry &model = dnn::ModelZoo::instance().get(net);
    GenesisResult result;
    result.net = net;

    const dnn::NetworkSpec teacher = model.teacherAt(opts.seed);
    const dnn::Dataset data =
        dnn::makeDataset(teacher, opts.evalSamples, opts.seed + 17);
    result.interestingClass =
        dnn::dominantClass(data, teacher.numClasses);

    // The uncompressed original, for the Fig. 4 "infeasible" marker.
    result.original.technique = Technique::PruneOnly;
    result.original.params = teacher.paramCount();
    result.original.macs = teacher.macCount();
    result.original.framBytes = teacher.framBytesNeeded();
    result.original.feasible =
        result.original.framBytes <= opts.framBudgetBytes;
    result.original.agreement = 1.0;
    result.original.accuracy = model.meta().paperAccuracy;
    result.original.inferJ =
        static_cast<f64>(result.original.macs) * opts.joulesPerMac;

    // Sweep grids.
    std::vector<f64> fc_keeps;
    std::vector<f64> conv_keeps;
    std::vector<f64> ranks;
    if (opts.denseGrid) {
        fc_keeps = {0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.5};
        conv_keeps = {0.3, 0.6, 1.0, 2.0};
        ranks = {0.5, 1.0, 2.0};
    } else {
        fc_keeps = {0.1, 0.5, 1.0};
        conv_keeps = {0.5, 1.0};
        ranks = {1.0};
    }

    // The grid in its fixed order; each point is evaluated below.
    std::vector<std::pair<Technique, dnn::CompressionKnobs>> grid;
    auto add = [&](Technique t, const dnn::CompressionKnobs &knobs) {
        grid.emplace_back(t, knobs);
    };

    // Separation + pruning.
    for (f64 fk : fc_keeps) {
        for (f64 ck : conv_keeps) {
            for (f64 rs : ranks) {
                dnn::CompressionKnobs knobs;
                knobs.separateConv = true;
                knobs.svdFc = true;
                knobs.fcKeep = fk;
                knobs.convKeep = ck;
                knobs.fcRankScale = rs;
                add(Technique::SeparateAndPrune, knobs);
            }
        }
    }
    // Separation only: factors retained in full.
    for (f64 rs : ranks) {
        dnn::CompressionKnobs knobs;
        knobs.separateConv = true;
        knobs.svdFc = true;
        knobs.fcKeep = 1e9;
        knobs.convKeep = 1e9;
        knobs.fcRankScale = rs;
        add(Technique::SeparateOnly, knobs);
    }
    // Pruning only.
    for (f64 fk : fc_keeps) {
        for (f64 ck : conv_keeps) {
            dnn::CompressionKnobs knobs;
            knobs.separateConv = false;
            knobs.svdFc = false;
            knobs.fcKeep = fk;
            knobs.convKeep = ck;
            add(Technique::PruneOnly, knobs);
        }
    }

    // Every knob point is a pure function of the shared teacher data,
    // so the grid fans out over the cores into indexed slots (each
    // point's own per-layer fan runs inline on its worker) and the
    // configs keep grid order.
    result.configs.resize(grid.size());
    util::parallelFor(grid.size(), util::hardwareWorkers(),
                      [&](u64 i, u32) {
                          result.configs[i] = evaluateConfig(
                              model, grid[i].first, grid[i].second,
                              teacher, data, result.interestingClass,
                              opts);
                      });

    // Choose the feasible configuration maximizing IMpJ.
    u32 best = 0;
    f64 best_impj = -1.0;
    for (u32 i = 0; i < result.configs.size(); ++i) {
        const auto &c = result.configs[i];
        if (c.feasible && c.impj > best_impj) {
            best = i;
            best_impj = c.impj;
        }
    }
    SONIC_ASSERT(best_impj >= 0.0, "no feasible configuration found");
    result.chosenIndex = best;
    return result;
}

std::vector<u32>
paretoFrontier(const std::vector<ConfigPoint> &configs,
               const Technique *technique)
{
    std::vector<u32> candidates;
    for (u32 i = 0; i < configs.size(); ++i)
        if (technique == nullptr || configs[i].technique == *technique)
            candidates.push_back(i);

    std::vector<u32> front;
    for (u32 i : candidates) {
        bool dominated = false;
        for (u32 j : candidates) {
            if (i == j)
                continue;
            const bool no_worse = configs[j].macs <= configs[i].macs
                && configs[j].accuracy >= configs[i].accuracy;
            const bool better = configs[j].macs < configs[i].macs
                || configs[j].accuracy > configs[i].accuracy;
            if (no_worse && better) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            front.push_back(i);
    }
    std::sort(front.begin(), front.end(), [&](u32 a, u32 b) {
        return configs[a].macs < configs[b].macs;
    });
    return front;
}

} // namespace sonic::genesis
