/**
 * @file
 * The device-resident form of a network: Q7.8 weights in FRAM arrays
 * (sparse forms store index lists, matching the paper's memory
 * accounting), plus the activation buffers the kernels operate on:
 * two map-sized ping-pong buffers and three single-channel scratch
 * slices (the loop-ordered double buffers).
 *
 * Building a DeviceNetwork is "flashing": a spec is lowered once into an
 * immutable image of quantized weight arrays (LoweredNetwork), which
 * is then copied (uncharged) into each device's FRAM; all runtime
 * access by kernels is charged.
 */

#ifndef SONIC_DNN_DEVICE_NET_HH
#define SONIC_DNN_DEVICE_NET_HH

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "arch/memory.hh"
#include "dnn/spec.hh"
#include "util/types.hh"

namespace sonic::dnn
{

/** A sparse vector in FRAM: parallel (index, value) arrays. */
struct DevSparseVec
{
    std::unique_ptr<arch::NvArray<i16>> idx;
    std::unique_ptr<arch::NvArray<i16>> val;
    u32 nnz = 0;
};

/** Factored conv stages (empty nnz = stage skipped). */
struct DevFactoredConv
{
    DevSparseVec mix;   ///< ic -> 1 channel combine
    DevSparseVec col;   ///< kh x 1 conv taps
    DevSparseVec row;   ///< 1 x kw conv taps
    DevSparseVec scale; ///< 1 -> oc broadcast scales
};

/** Pruned 2-D conv as per-output-channel tap lists (CSR by oc). */
struct DevSparseConv
{
    std::unique_ptr<arch::NvArray<i16>> ocPtr; ///< oc+1 entries
    std::unique_ptr<arch::NvArray<i16>> tapIc;
    std::unique_ptr<arch::NvArray<i16>> tapKy;
    std::unique_ptr<arch::NvArray<i16>> tapKx;
    std::unique_ptr<arch::NvArray<i16>> tapW;
    /** Flash-time precomputed flat source offset of each tap
     * (ic * inPlane + ky * inW + kx) — element-major traversals pay a
     * single add per tap instead of 3-D address arithmetic. */
    std::unique_ptr<arch::NvArray<i16>> tapOff;
    u32 kh = 0;
    u32 kw = 0;
    u32 nnz = 0;
};

/** Dense FC weights, row-major m x n. */
struct DevDenseFc
{
    std::unique_ptr<arch::NvArray<i16>> w;
    u32 m = 0;
    u32 n = 0;
};

/** Sparse FC in CSC form (the device traversal order). */
struct DevSparseFc
{
    std::unique_ptr<arch::NvArray<i16>> colPtr; ///< n+1 entries
    std::unique_ptr<arch::NvArray<i16>> rowIdx;
    std::unique_ptr<arch::NvArray<i16>> val;
    u32 m = 0;
    u32 n = 0;
    u32 nnz = 0;
};

using DevLayerOp =
    std::variant<DevFactoredConv, DevSparseConv, DevDenseFc, DevSparseFc>;

/** One device layer with shapes and attribution resolved. */
struct DevLayer
{
    std::string name;
    u16 statLayer = 0; ///< Device stats layer id
    DevLayerOp op;
    bool reluAfter = false;
    bool poolAfter = false;
    ActShape in;
    ActShape out; ///< before pool
};

/**
 * A spec's device image: the name and quantized contents of every FRAM
 * weight array a DeviceNetwork allocates, in allocation order, plus
 * each layer's shapes. Lowering walks the float weights once; the
 * image is immutable afterwards, so one image is shared by every
 * Device that runs the network (the zoo holds one per model, read by
 * engine and fleet workers at once).
 */
struct LoweredNetwork
{
    /** One weight array: its handle name and flashed contents. */
    struct Array
    {
        std::string name;
        u64 size = 0;          ///< elements allocated (>= data.size())
        std::vector<i16> data; ///< the leading elements (nnz for lists)
    };

    /** One layer: a DevLayer without its arrays. */
    struct Layer
    {
        std::string name;
        /** Index of the first layer with this name: layers that
         * share a name share one stats attribution bucket. */
        u32 statOwner = 0;
        /** Which DevLayerOp the layer flashes into. */
        enum class Kind : u8 { Factored, SparseConv, DenseFc, SparseFc };
        Kind kind = Kind::Factored;
        bool reluAfter = false;
        bool poolAfter = false;
        ActShape in;
        ActShape out;
        u32 kh = 0; ///< sparse conv kernel
        u32 kw = 0;
        u32 m = 0;  ///< FC rows x cols
        u32 n = 0;
    };

    ActShape input;
    u32 numClasses = 0;
    u64 mapElems = 0;   ///< ping-pong activation buffer size
    u64 sliceElems = 0; ///< scratch slice size
    std::vector<Layer> layers;
    std::vector<Array> arrays; ///< every layer's, in allocation order
};

/** Quantize and lay out a spec's weights (see LoweredNetwork). */
std::shared_ptr<const LoweredNetwork> lowerNetwork(const NetworkSpec &spec);

/**
 * A network flashed onto a device. Owns weight arrays, activation
 * ping-pong buffers and scratch slices. Kernels (Base / Tiled / SONIC /
 * TAILS) operate on this structure.
 */
class DeviceNetwork
{
  public:
    /** Flash a lowered image: allocate every array in the image's
     * order and bulk-copy its contents. */
    DeviceNetwork(arch::Device &dev,
                  std::shared_ptr<const LoweredNetwork> image);

    /** Lower spec (lowerNetwork) and flash it. */
    DeviceNetwork(arch::Device &dev, const NetworkSpec &spec);

    arch::Device &dev() { return dev_; }

    std::vector<DevLayer> &layers() { return layers_; }
    const std::vector<DevLayer> &layers() const { return layers_; }

    /** Map-sized ping-pong activation buffers. */
    arch::NvArray<i16> &act(u32 which) { return *acts_[which]; }

    /** Single-channel scratch slices (loop-ordered double buffers). */
    arch::NvArray<i16> &scratch(u32 which) { return *scratch_[which]; }

    u32 numClasses() const { return image_->numClasses; }

    /**
     * Flash an input activation (uncharged: sensing/DMA-from-sensor is
     * outside the inference measurement, identical for all runtimes).
     */
    void loadInput(const std::vector<i16> &input_q78);

    /** Which act buffer layer li reads / writes (static schedule). */
    u32 inputBufferOf(u32 layer_index) const;
    u32 outputBufferOf(u32 layer_index) const;

    /** Read back the logits (uncharged host verification). */
    std::vector<i16> peekLogits() const;

    /** Quantize a host feature map into Q7.8 device input order. */
    static std::vector<i16> quantizeInput(const tensor::FeatureMap &in);

  private:
    arch::Device &dev_;
    std::shared_ptr<const LoweredNetwork> image_;
    std::vector<DevLayer> layers_;
    std::unique_ptr<arch::NvArray<i16>> acts_[2];
    std::unique_ptr<arch::NvArray<i16>> scratch_[3];
};

} // namespace sonic::dnn

#endif // SONIC_DNN_DEVICE_NET_HH
