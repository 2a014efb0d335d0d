/**
 * @file
 * Reference (host, f64) neural-network primitives on CHW feature maps.
 * These are the golden model: GENESIS evaluates compressed-network
 * accuracy with them, and every device kernel is tested against them.
 */

#ifndef SONIC_TENSOR_NNREF_HH
#define SONIC_TENSOR_NNREF_HH

#include <vector>

#include "tensor/matrix.hh"
#include "util/types.hh"

namespace sonic::tensor
{

/** Channels x height x width feature map, flat CHW storage. */
struct FeatureMap
{
    u32 channels = 0;
    u32 height = 0;
    u32 width = 0;
    std::vector<f64> data;

    FeatureMap() = default;

    FeatureMap(u32 c, u32 h, u32 w)
        : channels(c), height(h), width(w), data(u64{c} * h * w, 0.0)
    {
    }

    u64 size() const { return data.size(); }

    f64 &
    at(u32 c, u32 y, u32 x)
    {
        return data[(u64{c} * height + y) * width + x];
    }

    f64
    at(u32 c, u32 y, u32 x) const
    {
        return data[(u64{c} * height + y) * width + x];
    }
};

/** 4-D filter bank for dense convolution, [oc][ic][kh][kw] flat. */
struct FilterBank
{
    u32 outChannels = 0;
    u32 inChannels = 0;
    u32 kh = 0;
    u32 kw = 0;
    std::vector<f64> data;

    FilterBank() = default;

    FilterBank(u32 oc, u32 ic, u32 h, u32 w)
        : outChannels(oc), inChannels(ic), kh(h), kw(w),
          data(u64{oc} * ic * h * w, 0.0)
    {
    }

    u64 size() const { return data.size(); }

    f64 &
    at(u32 oc, u32 ic, u32 y, u32 x)
    {
        return data[((u64{oc} * inChannels + ic) * kh + y) * kw + x];
    }

    f64
    at(u32 oc, u32 ic, u32 y, u32 x) const
    {
        return data[((u64{oc} * inChannels + ic) * kh + y) * kw + x];
    }

    u64 nonZeroCount() const;

    /** MACs for a valid convolution over an h x w input. */
    u64 macs(u32 in_h, u32 in_w) const;
};

/**
 * Dense valid convolution, stride 1. Each output element sums its
 * non-zero taps in ascending (ic, fy, fx) order from 0.0; that order
 * is pinned (see tensor/decompose.hh).
 */
FeatureMap conv2dValid(const FeatureMap &in, const FilterBank &filters);

/** Per-map 1-D convolutions (same channel count in and out). */
FeatureMap convRows(const FeatureMap &in, const std::vector<f64> &kernel);
FeatureMap convCols(const FeatureMap &in, const std::vector<f64> &kernel);

/** Weighted channel combine: out(h,w) = sum_c w[c] * in_c(h,w). */
FeatureMap channelMix(const FeatureMap &in, const std::vector<f64> &w);

/** Broadcast a single channel to n scaled copies: out_i = s[i] * in. */
FeatureMap channelScale(const FeatureMap &in, const std::vector<f64> &s);

/** Element-wise max(0, x). */
FeatureMap relu(const FeatureMap &in);
std::vector<f64> relu(const std::vector<f64> &in);

/** 2x2 max pooling, stride 2 (odd trailing row/col dropped). */
FeatureMap maxPool2x2(const FeatureMap &in);

/** Flatten CHW (the order device FC layers consume). */
std::vector<f64> flatten(const FeatureMap &in);

/** Index of the maximum element (first on ties). */
u32 argmax(const std::vector<f64> &v);

} // namespace sonic::tensor

#endif // SONIC_TENSOR_NNREF_HH
