/**
 * @file
 * Declarative network construction. NetworkBuilder is a fluent API for
 * assembling a NetworkSpec layer by layer — with explicit weights or
 * with deterministic synthetic weights drawn on the Q7.8 dyadic grid
 * (k/256, exactly representable in both f64 and device fixed point, so
 * built networks are bit-stable across hosts like the verify golden
 * workload) — plus parameterized generators that make whole synthetic
 * model families one-liners:
 *
 *     auto net = NetworkBuilder("TinyCNN", {1, 12, 12})
 *                    .factoredConv("conv1", 4, 3, 3).relu().pool()
 *                    .sparseFc("fc", 16, 0.5).relu()
 *                    .fc("out", 6)
 *                    .build();
 *
 *     auto deep = deepFcNet("DeepFC-6", 32, 6, 24, 8);
 *
 * Shape propagation is automatic (valid convolutions, 2x2 pooling, FC
 * flattening); mismatches are fatal at build() with the offending
 * layer named. The class count is the final layer's output size.
 */

#ifndef SONIC_DNN_BUILDER_HH
#define SONIC_DNN_BUILDER_HH

#include <string>

#include "dnn/spec.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace sonic::dnn
{

/** The default weight seed of the builder and the synthetic families
 * (the zoo's synthetic rows are built at it). */
inline constexpr u64 kBuilderSeed = 0x5eed;

/** Fluent layer-by-layer NetworkSpec assembly. */
class NetworkBuilder
{
  public:
    NetworkBuilder(std::string name, ActShape input, u64 seed = kBuilderSeed);

    /** @name Synthetic-weight layers (deterministic dyadic weights
     * derived from the builder seed and the layer index; weight
     * magnitudes are scaled down by powers of two as fan-in grows so
     * accumulations stay inside the device's Q7.8 range). */
    /// @{
    /** Dense 2-D convolution, `oc` filters of kh x kw. */
    NetworkBuilder &conv(std::string name, u32 oc, u32 kh, u32 kw);
    /** Pruned 2-D convolution keeping ~density of the taps. */
    NetworkBuilder &sparseConv(std::string name, u32 oc, u32 kh, u32 kw,
                               f64 density);
    /** Separated conv: channel mix + col/row 1-D taps + oc scales. */
    NetworkBuilder &factoredConv(std::string name, u32 oc, u32 kh,
                                 u32 kw);
    /** Dense fully-connected layer to `outputs` units. */
    NetworkBuilder &fc(std::string name, u32 outputs);
    /** Pruned fully-connected layer keeping ~density of the weights. */
    NetworkBuilder &sparseFc(std::string name, u32 outputs, f64 density);
    /// @}

    /** @name Explicit-weight layers. */
    /// @{
    NetworkBuilder &conv(std::string name, tensor::FilterBank filters);
    NetworkBuilder &sparseConv(std::string name,
                               tensor::FilterBank filters);
    NetworkBuilder &factoredConv(std::string name,
                                 FactoredConvLayer layer);
    NetworkBuilder &fc(std::string name, tensor::Matrix weights);
    NetworkBuilder &sparseFc(std::string name, tensor::Matrix weights);
    /// @}

    /** Fuse a ReLU onto the last added layer. */
    NetworkBuilder &relu();

    /** Fuse a 2x2 max pool onto the last added layer (convs only). */
    NetworkBuilder &pool();

    /** Activation shape after the layers added so far. */
    ActShape currentShape() const { return shape_; }

    /**
     * Finish: the class count is the final layer's output element
     * count. At least one layer is required.
     */
    NetworkSpec build() const;

  private:
    NetworkBuilder &append(std::string name, LayerOp op);
    Rng layerRng();

    NetworkSpec net_;
    ActShape shape_;
    u64 seed_;
    u32 layerIndex_ = 0;
};

/** @name Synthetic model families (each a NetworkBuilder one-liner).
 * Deterministic in (name, shape parameters, seed); weights dyadic. */
/// @{

/** `depth` dense FC layers of `width` units over a flat input. */
NetworkSpec deepFcNet(const std::string &name, u32 inputDim, u32 depth,
                      u32 width, u32 classes, u64 seed = kBuilderSeed);

/** One wide sparse hidden FC layer (pruned to `density`). */
NetworkSpec wideFcNet(const std::string &name, u32 inputDim, u32 width,
                      f64 density, u32 classes, u64 seed = kBuilderSeed);

/** `depth` stacked factored (depthwise-separable-style) convolutions
 * over a `channels` x `hw` x `hw` input, then a sparse FC head. */
NetworkSpec depthwiseConvNet(const std::string &name, u32 channels,
                             u32 hw, u32 depth, u32 classes,
                             u64 seed = kBuilderSeed);
/// @}

} // namespace sonic::dnn

#endif // SONIC_DNN_BUILDER_HH
