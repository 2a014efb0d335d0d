#include "dnn/dataset.hh"

#include <algorithm>
#include <type_traits>

#include "dnn/label_table.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace sonic::dnn
{

namespace
{

/** One box-blur pass along rows and columns of each channel. */
void
blurInPlace(tensor::FeatureMap &m)
{
    tensor::FeatureMap tmp = m;
    for (u32 c = 0; c < m.channels; ++c) {
        for (u32 y = 0; y < m.height; ++y) {
            for (u32 x = 0; x < m.width; ++x) {
                f64 acc = 0.0;
                u32 cnt = 0;
                for (int dy = -1; dy <= 1; ++dy) {
                    for (int dx = -1; dx <= 1; ++dx) {
                        const int yy = static_cast<int>(y) + dy;
                        const int xx = static_cast<int>(x) + dx;
                        if (yy >= 0 && xx >= 0
                            && yy < static_cast<int>(m.height)
                            && xx < static_cast<int>(m.width)) {
                            acc += tmp.at(c, static_cast<u32>(yy),
                                          static_cast<u32>(xx));
                            ++cnt;
                        }
                    }
                }
                m.at(c, y, x) = acc / static_cast<f64>(cnt);
            }
        }
    }
}

/** Smooth class prototype with per-class deterministic structure. */
tensor::FeatureMap
makePrototype(const ActShape &shape, u32 cls, u64 seed)
{
    Rng rng = Rng(seed).fork(1000 + cls);
    tensor::FeatureMap proto(shape.c, shape.h, shape.w);
    for (auto &v : proto.data)
        v = rng.gaussian();
    blurInPlace(proto);
    blurInPlace(proto);
    // Normalize to unit RMS so all classes have comparable energy.
    f64 rms = 0.0;
    for (f64 v : proto.data)
        rms += v * v;
    rms = std::sqrt(rms / static_cast<f64>(proto.size()));
    if (rms > 1e-12)
        for (auto &v : proto.data)
            v /= rms;
    return proto;
}

} // namespace

Dataset
makeDataset(const NetworkSpec &teacher, u32 n, u64 seed)
{
    const u32 classes = teacher.numClasses;
    std::vector<tensor::FeatureMap> protos;
    protos.reserve(classes);
    for (u32 c = 0; c < classes; ++c)
        protos.push_back(makePrototype(teacher.input, c, seed));

    // The inputs come off one RNG stream, so they are drawn serially;
    // each label is then a pure function of its input, computed on the
    // cold-start workers.
    Rng rng = Rng(seed).fork(7);
    Dataset data(n);
    for (auto &sample : data) {
        const u32 proto_cls = static_cast<u32>(rng.below(classes));
        tensor::FeatureMap x(teacher.input.c, teacher.input.h,
                             teacher.input.w);
        for (u64 e = 0; e < x.size(); ++e) {
            const f64 v = 0.45 + 0.42 * protos[proto_cls].data[e]
                        + 0.10 * rng.gaussian();
            x.data[e] = std::clamp(v, -1.0, 1.0);
        }
        sample.input = std::move(x);
    }
    const u64 key = labelKey(teacher, data);
    for (const TabledLabels &tabled : tabledLabels()) {
        if (tabled.key == key && tabled.count == n) {
            for (u32 i = 0; i < n; ++i)
                data[i].label = tabled.labels[i];
            return data;
        }
    }
    util::parallelFor(n, util::coldStartWorkers(), [&](u64 i, u32) {
        data[i].label = teacher.classify(data[i].input);
    });
    return data;
}

u64
labelKey(const NetworkSpec &teacher, const Dataset &data)
{
    u64 h = kDigestBasis;
    const auto words = [&h](std::initializer_list<u64> values) {
        for (u64 v : values)
            h = wordDigest(v, h);
    };
    const auto vec = [&h](const std::vector<f64> &v) {
        h = wordDigest(v.size(), h);
        h = wordDigest(v.data(), v.size(), h);
    };
    words({teacher.input.c, teacher.input.h, teacher.input.w,
           teacher.numClasses, teacher.layers.size()});
    for (const auto &layer : teacher.layers) {
        words({layer.op.index(), layer.reluAfter, layer.poolAfter});
        std::visit(
            [&](const auto &op) {
                using Op = std::decay_t<decltype(op)>;
                if constexpr (std::is_same_v<Op, FactoredConvLayer>) {
                    vec(op.mix);
                    vec(op.col);
                    vec(op.row);
                    vec(op.scale);
                } else if constexpr (requires { op.filters; }) {
                    words({op.filters.outChannels, op.filters.inChannels,
                           op.filters.kh, op.filters.kw});
                    vec(op.filters.data);
                } else {
                    words({op.weights.rows(), op.weights.cols()});
                    vec(op.weights.data());
                }
            },
            layer.op);
    }
    words({data.size()});
    for (const auto &sample : data) {
        words({sample.input.channels, sample.input.height,
               sample.input.width});
        vec(sample.input.data);
    }
    return h;
}

f64
agreement(const NetworkSpec &net, const Dataset &data)
{
    SONIC_ASSERT(!data.empty());
    u64 correct = 0;
    for (const auto &s : data)
        if (net.classify(s.input) == s.label)
            ++correct;
    return static_cast<f64>(correct) / static_cast<f64>(data.size());
}

Rates
detectionRates(const NetworkSpec &net, const Dataset &data,
               u32 interesting_class)
{
    u64 pos = 0, neg = 0, tp = 0, tn = 0;
    for (const auto &s : data) {
        const u32 pred = net.classify(s.input);
        const bool actual = s.label == interesting_class;
        const bool detected = pred == interesting_class;
        if (actual) {
            ++pos;
            if (detected)
                ++tp;
        } else {
            ++neg;
            if (!detected)
                ++tn;
        }
    }
    Rates r;
    r.truePositive = pos ? static_cast<f64>(tp) / static_cast<f64>(pos)
                         : 1.0;
    r.trueNegative = neg ? static_cast<f64>(tn) / static_cast<f64>(neg)
                         : 1.0;
    r.baseRate = static_cast<f64>(pos)
               / static_cast<f64>(data.size());
    return r;
}

u32
dominantClass(const Dataset &data, u32 num_classes)
{
    std::vector<u64> counts(num_classes, 0);
    for (const auto &s : data)
        ++counts[s.label];
    return static_cast<u32>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
}

} // namespace sonic::dnn
