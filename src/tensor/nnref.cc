#include "tensor/nnref.hh"

#include <algorithm>
#include <cstddef>

#include "util/logging.hh"

namespace sonic::tensor
{

u64
FilterBank::nonZeroCount() const
{
    u64 count = 0;
    for (f64 v : data)
        if (v != 0.0)
            ++count;
    return count;
}

u64
FilterBank::macs(u32 in_h, u32 in_w) const
{
    SONIC_ASSERT(in_h >= kh && in_w >= kw);
    const u64 out_h = in_h - kh + 1;
    const u64 out_w = in_w - kw + 1;
    return out_h * out_w * outChannels * inChannels * kh * kw;
}

namespace
{

/** Outputs per register strip in conv2dValid. */
constexpr u32 kStrip = 8;

/** A non-zero filter tap and the offset of its input element. */
struct Tap
{
    f64 w;
    u64 offset; ///< of in(ic, fy, fx) from in(0, 0, 0)
};

/**
 * Sum every tap into one strip of kStrip outputs (at s0 -> d0) or,
 * with Two, into a second strip (s1 -> d1) in the same pass. The
 * accumulators are named scalars so they stay in registers across all
 * taps at any optimization level; s + tap.offset is the input under a
 * strip's first output for that tap.
 */
template <bool Two>
void
convStrips(const std::vector<Tap> &taps, const f64 *s0, const f64 *s1,
           f64 *d0, f64 *d1)
{
    static_assert(kStrip == 8, "one accumulator per strip output");
    f64 a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    f64 a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
    f64 b0 = 0.0, b1 = 0.0, b2 = 0.0, b3 = 0.0;
    f64 b4 = 0.0, b5 = 0.0, b6 = 0.0, b7 = 0.0;
    for (const Tap &tap : taps) {
        const f64 w = tap.w;
        const f64 *x = s0 + tap.offset;
        a0 += w * x[0];
        a1 += w * x[1];
        a2 += w * x[2];
        a3 += w * x[3];
        a4 += w * x[4];
        a5 += w * x[5];
        a6 += w * x[6];
        a7 += w * x[7];
        if constexpr (Two) {
            const f64 *y = s1 + tap.offset;
            b0 += w * y[0];
            b1 += w * y[1];
            b2 += w * y[2];
            b3 += w * y[3];
            b4 += w * y[4];
            b5 += w * y[5];
            b6 += w * y[6];
            b7 += w * y[7];
        }
    }
    d0[0] = a0;
    d0[1] = a1;
    d0[2] = a2;
    d0[3] = a3;
    d0[4] = a4;
    d0[5] = a5;
    d0[6] = a6;
    d0[7] = a7;
    if constexpr (Two) {
        d1[0] = b0;
        d1[1] = b1;
        d1[2] = b2;
        d1[3] = b3;
        d1[4] = b4;
        d1[5] = b5;
        d1[6] = b6;
        d1[7] = b7;
    }
}

} // namespace

FeatureMap
conv2dValid(const FeatureMap &in, const FilterBank &filters)
{
    SONIC_ASSERT(in.channels == filters.inChannels,
                 "conv2dValid channel mismatch");
    SONIC_ASSERT(in.height >= filters.kh && in.width >= filters.kw,
                 "conv2dValid input smaller than kernel");
    const u32 oh = in.height - filters.kh + 1;
    const u32 ow = in.width - filters.kw + 1;
    FeatureMap out(filters.outChannels, oh, ow);

    // Each output element sums w * in over its filter's non-zero taps
    // in ascending (ic, fy, fx) order, starting from 0.0; pruned (zero)
    // taps are skipped, so sparse banks cost O(nnz * positions). Rows
    // are cut into kStrip-wide strips, two summed at a time; a row
    // whose width is not a multiple of kStrip ends with a strip that
    // overlaps the one before it, which is exact because each
    // element's sum is the same whichever strip computes it.
    std::vector<Tap> taps;
    std::vector<const f64 *> src;
    std::vector<f64 *> dst;
    const f64 *weights = filters.data.data();
    for (u32 oc = 0; oc < filters.outChannels; ++oc) {
        taps.clear();
        for (u32 ic = 0; ic < filters.inChannels; ++ic)
            for (u32 fy = 0; fy < filters.kh; ++fy)
                for (u32 fx = 0; fx < filters.kw; ++fx) {
                    const f64 w = *weights++;
                    if (w != 0.0)
                        taps.push_back(
                            {w, (u64{ic} * in.height + fy) * in.width
                                    + fx});
                }
        if (ow < kStrip) {
            for (u32 y = 0; y < oh; ++y)
                for (u32 x = 0; x < ow; ++x) {
                    const f64 *at = in.data.data() + u64{y} * in.width + x;
                    f64 acc = 0.0;
                    for (const Tap &tap : taps)
                        acc += tap.w * at[tap.offset];
                    out.at(oc, y, x) = acc;
                }
            continue;
        }
        src.clear();
        dst.clear();
        for (u32 y = 0; y < oh; ++y)
            for (u32 x0 = 0; x0 < ow; x0 += kStrip) {
                const u32 x = std::min(x0, ow - kStrip);
                src.push_back(in.data.data() + u64{y} * in.width + x);
                dst.push_back(&out.at(oc, y, x));
            }
        std::size_t i = 0;
        for (; i + 2 <= src.size(); i += 2)
            convStrips<true>(taps, src[i], src[i + 1], dst[i],
                             dst[i + 1]);
        if (i < src.size())
            convStrips<false>(taps, src[i], nullptr, dst[i], nullptr);
    }
    return out;
}

FeatureMap
convRows(const FeatureMap &in, const std::vector<f64> &kernel)
{
    const u32 kw = static_cast<u32>(kernel.size());
    SONIC_ASSERT(in.width >= kw);
    FeatureMap out(in.channels, in.height, in.width - kw + 1);
    for (u32 c = 0; c < in.channels; ++c)
        for (u32 y = 0; y < out.height; ++y)
            for (u32 x = 0; x < out.width; ++x) {
                f64 acc = 0.0;
                for (u32 k = 0; k < kw; ++k)
                    acc += kernel[k] * in.at(c, y, x + k);
                out.at(c, y, x) = acc;
            }
    return out;
}

FeatureMap
convCols(const FeatureMap &in, const std::vector<f64> &kernel)
{
    const u32 kh = static_cast<u32>(kernel.size());
    SONIC_ASSERT(in.height >= kh);
    FeatureMap out(in.channels, in.height - kh + 1, in.width);
    for (u32 c = 0; c < in.channels; ++c)
        for (u32 y = 0; y < out.height; ++y)
            for (u32 x = 0; x < out.width; ++x) {
                f64 acc = 0.0;
                for (u32 k = 0; k < kh; ++k)
                    acc += kernel[k] * in.at(c, y + k, x);
                out.at(c, y, x) = acc;
            }
    return out;
}

FeatureMap
channelMix(const FeatureMap &in, const std::vector<f64> &w)
{
    SONIC_ASSERT(w.size() == in.channels, "channelMix weight mismatch");
    FeatureMap out(1, in.height, in.width);
    for (u32 c = 0; c < in.channels; ++c)
        for (u32 y = 0; y < in.height; ++y)
            for (u32 x = 0; x < in.width; ++x)
                out.at(0, y, x) += w[c] * in.at(c, y, x);
    return out;
}

FeatureMap
channelScale(const FeatureMap &in, const std::vector<f64> &s)
{
    SONIC_ASSERT(in.channels == 1, "channelScale expects one channel");
    FeatureMap out(static_cast<u32>(s.size()), in.height, in.width);
    for (u32 c = 0; c < out.channels; ++c)
        for (u32 y = 0; y < in.height; ++y)
            for (u32 x = 0; x < in.width; ++x)
                out.at(c, y, x) = s[c] * in.at(0, y, x);
    return out;
}

FeatureMap
relu(const FeatureMap &in)
{
    FeatureMap out = in;
    for (f64 &v : out.data)
        v = std::max(0.0, v);
    return out;
}

std::vector<f64>
relu(const std::vector<f64> &in)
{
    std::vector<f64> out = in;
    for (f64 &v : out)
        v = std::max(0.0, v);
    return out;
}

FeatureMap
maxPool2x2(const FeatureMap &in)
{
    FeatureMap out(in.channels, in.height / 2, in.width / 2);
    for (u32 c = 0; c < in.channels; ++c)
        for (u32 y = 0; y < out.height; ++y)
            for (u32 x = 0; x < out.width; ++x) {
                const f64 a = in.at(c, 2 * y, 2 * x);
                const f64 b = in.at(c, 2 * y, 2 * x + 1);
                const f64 d = in.at(c, 2 * y + 1, 2 * x);
                const f64 e = in.at(c, 2 * y + 1, 2 * x + 1);
                out.at(c, y, x) = std::max(std::max(a, b), std::max(d, e));
            }
    return out;
}

std::vector<f64>
flatten(const FeatureMap &in)
{
    return in.data;
}

u32
argmax(const std::vector<f64> &v)
{
    SONIC_ASSERT(!v.empty());
    return static_cast<u32>(
        std::max_element(v.begin(), v.end()) - v.begin());
}

} // namespace sonic::tensor
