#include "dnn/device_net.hh"

#include <algorithm>

#include "fixed/fixed.hh"
#include "util/logging.hh"

namespace sonic::dnn
{

namespace
{

using fixed::Q78;
using Array = LoweredNetwork::Array;
using Kind = LoweredNetwork::Layer::Kind;

/** Append an array of max(1, n) elements holding src. */
void
addArray(std::vector<Array> &out, std::string name, std::vector<i16> src)
{
    const u64 size = std::max<u64>(1, src.size());
    out.push_back({std::move(name), size, std::move(src)});
}

void
lowerSparseVec(std::vector<Array> &out, const std::vector<f64> &v,
               const std::string &name)
{
    std::vector<i16> idx;
    std::vector<i16> val;
    for (u32 i = 0; i < v.size(); ++i) {
        if (v[i] != 0.0) {
            idx.push_back(static_cast<i16>(i));
            val.push_back(Q78::fromFloat(v[i]).raw());
        }
    }
    addArray(out, name + ".idx", std::move(idx));
    addArray(out, name + ".val", std::move(val));
}

void
lowerFactored(std::vector<Array> &out, const FactoredConvLayer &f,
              const std::string &name)
{
    lowerSparseVec(out, f.mix, name + ".mix");
    lowerSparseVec(out, f.col, name + ".col");
    lowerSparseVec(out, f.row, name + ".row");
    lowerSparseVec(out, f.scale, name + ".scale");
}

void
lowerSparseConv(std::vector<Array> &out, const tensor::FilterBank &bank,
                const ActShape &in, const std::string &name)
{
    std::vector<i16> oc_ptr(bank.outChannels + 1, 0);
    std::vector<i16> ic, ky, kx, w, off;
    const u32 in_plane = in.h * in.w;
    for (u32 oc = 0; oc < bank.outChannels; ++oc) {
        for (u32 c = 0; c < bank.inChannels; ++c)
            for (u32 y = 0; y < bank.kh; ++y)
                for (u32 x = 0; x < bank.kw; ++x) {
                    const f64 v = bank.at(oc, c, y, x);
                    if (v != 0.0) {
                        ic.push_back(static_cast<i16>(c));
                        ky.push_back(static_cast<i16>(y));
                        kx.push_back(static_cast<i16>(x));
                        w.push_back(Q78::fromFloat(v).raw());
                        const u32 flat =
                            c * in_plane + y * in.w + x;
                        SONIC_ASSERT(flat <= 0x7fff,
                                     "tap offset exceeds 16 bits");
                        off.push_back(static_cast<i16>(flat));
                    }
                }
        SONIC_ASSERT(w.size() <= 0x7fff);
        oc_ptr[oc + 1] = static_cast<i16>(w.size());
    }
    addArray(out, name + ".ocPtr", std::move(oc_ptr));
    addArray(out, name + ".ic", std::move(ic));
    addArray(out, name + ".ky", std::move(ky));
    addArray(out, name + ".kx", std::move(kx));
    addArray(out, name + ".w", std::move(w));
    addArray(out, name + ".off", std::move(off));
}

void
lowerDenseFc(std::vector<Array> &out, const tensor::Matrix &m,
             const std::string &name)
{
    std::vector<i16> w;
    w.reserve(u64{m.rows()} * m.cols());
    for (u32 r = 0; r < m.rows(); ++r)
        for (u32 c = 0; c < m.cols(); ++c)
            w.push_back(Q78::fromFloat(m.at(r, c)).raw());
    // Exactly m * n elements, even when that is 0.
    out.push_back({name + ".w", w.size(), std::move(w)});
}

void
lowerSparseFc(std::vector<Array> &out, const tensor::Matrix &m,
              const std::string &name)
{
    std::vector<i16> col_ptr(m.cols() + 1, 0);
    std::vector<i16> row_idx, val;
    for (u32 c = 0; c < m.cols(); ++c) {
        for (u32 r = 0; r < m.rows(); ++r) {
            if (m.at(r, c) != 0.0) {
                row_idx.push_back(static_cast<i16>(r));
                val.push_back(Q78::fromFloat(m.at(r, c)).raw());
            }
        }
        SONIC_ASSERT(val.size() <= 0x7fff);
        col_ptr[c + 1] = static_cast<i16>(val.size());
    }
    addArray(out, name + ".colPtr", std::move(col_ptr));
    addArray(out, name + ".rowIdx", std::move(row_idx));
    addArray(out, name + ".val", std::move(val));
}

} // namespace

std::shared_ptr<const LoweredNetwork>
lowerNetwork(const NetworkSpec &spec)
{
    auto image = std::make_shared<LoweredNetwork>();
    image->input = spec.input;
    image->numClasses = spec.numClasses;
    image->mapElems = spec.maxActivationElems();
    image->sliceElems = spec.maxScratchElems();

    auto &arrays = image->arrays;
    ActShape shape = spec.input;
    for (u32 li = 0; li < spec.layers.size(); ++li) {
        const auto &layer = spec.layers[li];
        LoweredNetwork::Layer ll;
        ll.name = layer.name;
        ll.statOwner = li;
        for (u32 prev = 0; prev < li; ++prev) {
            if (image->layers[prev].name == layer.name) {
                ll.statOwner = prev;
                break;
            }
        }
        ll.reluAfter = layer.reluAfter;
        ll.poolAfter = layer.poolAfter;
        ll.in = shape;
        ll.out = opOutputShape(layer.op, shape);

        const std::string base = spec.name + "." + layer.name + "."
                               + std::to_string(li);
        if (const auto *f = std::get_if<FactoredConvLayer>(&layer.op)) {
            ll.kind = Kind::Factored;
            lowerFactored(arrays, *f, base);
        } else if (const auto *s = std::get_if<SparseConvLayer>(&layer.op)) {
            ll.kind = Kind::SparseConv;
            ll.kh = s->filters.kh;
            ll.kw = s->filters.kw;
            lowerSparseConv(arrays, s->filters, ll.in, base);
        } else if (const auto *d = std::get_if<DenseConvLayer>(&layer.op)) {
            // Uncompressed convs are lowered as sparse convs with all
            // taps present (they rarely fit on-device anyway).
            ll.kind = Kind::SparseConv;
            ll.kh = d->filters.kh;
            ll.kw = d->filters.kw;
            lowerSparseConv(arrays, d->filters, ll.in, base);
        } else if (const auto *fc = std::get_if<DenseFcLayer>(&layer.op)) {
            ll.kind = Kind::DenseFc;
            ll.m = fc->weights.rows();
            ll.n = fc->weights.cols();
            lowerDenseFc(arrays, fc->weights, base);
        } else if (const auto *sfc = std::get_if<SparseFcLayer>(&layer.op)) {
            ll.kind = Kind::SparseFc;
            ll.m = sfc->weights.rows();
            ll.n = sfc->weights.cols();
            lowerSparseFc(arrays, sfc->weights, base);
        }
        image->layers.push_back(std::move(ll));

        shape = image->layers.back().out;
        if (layer.poolAfter) {
            shape.h /= 2;
            shape.w /= 2;
        }
    }
    return image;
}

DeviceNetwork::DeviceNetwork(arch::Device &dev,
                             std::shared_ptr<const LoweredNetwork> image)
    : dev_(dev), image_(std::move(image))
{
    acts_[0] = std::make_unique<arch::NvArray<i16>>(
        dev, image_->mapElems, "act.ping");
    acts_[1] = std::make_unique<arch::NvArray<i16>>(
        dev, image_->mapElems, "act.pong");
    for (u32 s = 0; s < 3; ++s)
        scratch_[s] = std::make_unique<arch::NvArray<i16>>(
            dev, image_->sliceElems, "scratch" + std::to_string(s));

    // Allocate the image's arrays in its order (the FRAM layout the
    // NVM digest walks) and copy each one's contents in bulk; nnz, if
    // asked for, receives the array's stored element count.
    const Array *next = image_->arrays.data();
    const Array *const end = next + image_->arrays.size();
    const auto flash = [&](u32 *nnz = nullptr) {
        SONIC_ASSERT(next != end, "lowered image is short of arrays");
        const Array &a = *next++;
        auto arr = std::make_unique<arch::NvArray<i16>>(dev, a.size,
                                                        a.name);
        arr->pokeRange(0, a.data.size(), a.data.data());
        if (nnz != nullptr)
            *nnz = static_cast<u32>(a.data.size());
        return arr;
    };
    const auto sparse_vec = [&] {
        DevSparseVec v;
        v.idx = flash(&v.nnz);
        v.val = flash();
        return v;
    };

    layers_.reserve(image_->layers.size());
    for (u32 li = 0; li < image_->layers.size(); ++li) {
        const auto &ll = image_->layers[li];
        DevLayer dl;
        dl.name = ll.name;
        dl.statLayer = ll.statOwner == li
            ? dev.registerLayer(ll.name)
            : layers_[ll.statOwner].statLayer;
        dl.reluAfter = ll.reluAfter;
        dl.poolAfter = ll.poolAfter;
        dl.in = ll.in;
        dl.out = ll.out;
        if (ll.kind == Kind::Factored) {
            DevFactoredConv f;
            f.mix = sparse_vec();
            f.col = sparse_vec();
            f.row = sparse_vec();
            f.scale = sparse_vec();
            dl.op = std::move(f);
        } else if (ll.kind == Kind::SparseConv) {
            DevSparseConv c;
            c.kh = ll.kh;
            c.kw = ll.kw;
            c.ocPtr = flash();
            c.tapIc = flash();
            c.tapKy = flash();
            c.tapKx = flash();
            c.tapW = flash(&c.nnz);
            c.tapOff = flash();
            dl.op = std::move(c);
        } else if (ll.kind == Kind::DenseFc) {
            DevDenseFc fc;
            fc.m = ll.m;
            fc.n = ll.n;
            fc.w = flash();
            dl.op = std::move(fc);
        } else {
            SONIC_ASSERT(ll.kind == Kind::SparseFc);
            DevSparseFc fc;
            fc.m = ll.m;
            fc.n = ll.n;
            fc.colPtr = flash();
            fc.rowIdx = flash(&fc.nnz);
            fc.val = flash();
            dl.op = std::move(fc);
        }
        layers_.push_back(std::move(dl));
    }
    SONIC_ASSERT(next == end, "lowered image has extra arrays");
}

DeviceNetwork::DeviceNetwork(arch::Device &dev, const NetworkSpec &spec)
    : DeviceNetwork(dev, lowerNetwork(spec))
{
}

void
DeviceNetwork::loadInput(const std::vector<i16> &input_q78)
{
    SONIC_ASSERT(input_q78.size() == image_->input.elems(),
                 "input size mismatch");
    acts_[inputBufferOf(0)]->pokeRange(0, input_q78.size(),
                                       input_q78.data());
}

u32
DeviceNetwork::inputBufferOf(u32 layer_index) const
{
    u32 cur = 0;
    for (u32 li = 0; li < layer_index; ++li) {
        if (!layers_[li].poolAfter)
            cur = 1 - cur;
        // Pooled layers write back into `cur` (conv -> 1-cur, pool ->
        // cur), leaving the schedule unchanged.
    }
    return cur;
}

u32
DeviceNetwork::outputBufferOf(u32 layer_index) const
{
    const u32 in = inputBufferOf(layer_index);
    return layers_[layer_index].poolAfter ? in : 1 - in;
}

std::vector<i16>
DeviceNetwork::peekLogits() const
{
    const u32 last = static_cast<u32>(layers_.size()) - 1;
    const u32 buf = outputBufferOf(last);
    std::vector<i16> logits(image_->numClasses);
    for (u32 i = 0; i < logits.size(); ++i)
        logits[i] = acts_[buf]->peek(i);
    return logits;
}

std::vector<i16>
DeviceNetwork::quantizeInput(const tensor::FeatureMap &in)
{
    std::vector<i16> out;
    out.reserve(in.size());
    for (f64 v : in.data)
        out.push_back(Q78::fromFloat(v).raw());
    return out;
}

} // namespace sonic::dnn
