#include "network_plan.hh"

#include <algorithm>
#include <sstream>
#include <string>

#include "bce/bce.hh"
#include "bce/simd_kernels.hh"
#include "core/conv_front.hh"
#include "sim/cpuid.hh"
#include "sim/logging.hh"
#include "verify/plan_verifier.hh"

namespace bfree::core {

NetworkWeights
random_weights(const dnn::Network &net, sim::Rng &rng, double scale)
{
    NetworkWeights all;
    all.reserve(net.layers().size());
    for (const dnn::Layer &l : net.layers()) {
        LayerWeights w;
        std::size_t count = 0;
        std::size_t biases = 0;
        switch (l.kind) {
          case dnn::LayerKind::Conv:
            count = std::size_t(l.outChannels) * l.input.c * l.kernelH
                    * l.kernelW;
            biases = l.outChannels;
            break;
          case dnn::LayerKind::Fc:
            count = std::size_t(l.inFeatures) * l.outFeatures;
            biases = l.outFeatures;
            break;
          case dnn::LayerKind::LstmCell:
            count = std::size_t(4) * (l.lstmInput + l.lstmHidden)
                    * l.lstmHidden;
            biases = std::size_t(4) * l.lstmHidden;
            break;
          case dnn::LayerKind::Attention:
            count = std::size_t(4) * l.dModel * l.dModel;
            biases = 0;
            break;
          default:
            break;
        }
        w.weights.resize(count);
        w.bias.resize(biases);
        for (float &v : w.weights)
            v = static_cast<float>(rng.uniformReal(-scale, scale));
        for (float &v : w.bias)
            v = static_cast<float>(rng.uniformReal(-scale, scale) * 0.1);
        all.push_back(std::move(w));
    }
    return all;
}

std::size_t
matmul_scratch_bytes(std::size_t m, std::size_t k, std::size_t n,
                     unsigned bits, std::size_t ldb)
{
    using dnn::TensorArena;
    if (bits > 8)
        return TensorArena::paddedBytes<std::int32_t>(m * k);
    return TensorArena::paddedBytes<std::int8_t>(m * std::max(k, ldb))
           + TensorArena::paddedBytes<std::int32_t>(m * n)
           + TensorArena::paddedBytes<std::uint32_t>(
               bce::Bce::tileScratchWords(k));
}

std::size_t
conv_row_scratch_bytes(const dnn::Layer &layer)
{
    using dnn::TensorArena;
    const dnn::FeatureShape o = layer.outputShape();
    return TensorArena::paddedBytes<std::int8_t>(patch_row_bytes(layer))
           + TensorArena::paddedBytes<std::int32_t>(std::size_t(o.w) * o.c)
           + TensorArena::paddedBytes<std::uint32_t>(
               tap_feature_words(layer))
           + TensorArena::paddedBytes<std::uint32_t>(
               tap_feature_scratch_words(layer));
}

const char *
act_layout_name(ActLayout l)
{
    return l == ActLayout::Hwc ? "hwc" : "chw";
}

void
relayout(const Relayout &r, const float *src, float *dst, std::size_t p0,
         std::size_t p1)
{
    const std::size_t c = r.shape.c;
    const std::size_t hw = std::size_t(r.shape.h) * r.shape.w;
    // Blocks of 64 positions: a block's channels-last side (64 * c
    // floats) stays in cache while each channel's 64 contiguous floats
    // stream past it.
    constexpr std::size_t block = 64;
    for (std::size_t b0 = p0; b0 < p1; b0 += block) {
        const std::size_t b1 = std::min(p1, b0 + block);
        for (std::size_t ch = 0; ch < c; ++ch) {
            if (r.to == ActLayout::Hwc)
                for (std::size_t p = b0; p < b1; ++p)
                    dst[p * c + ch] = src[ch * hw + p];
            else
                for (std::size_t p = b0; p < b1; ++p)
                    dst[ch * hw + p] = src[p * c + ch];
        }
    }
}

namespace {

using dnn::TensorArena;

/** True when (c, h, w) is laid out differently in CHW and HWC. */
bool
needs_relayout(const dnn::FeatureShape &s)
{
    return s.c > 1 && std::size_t(s.h) * s.w > 1;
}

/**
 * Freeze the weight side of the tile: the class-feature column sums of
 * the rows x k frozen tile @p qw, with the range word the tile's 4-bit
 * domain check reads, and the per-row sums the VNNI GEMM core
 * subtracts its activation bias with. Only int8-stored (4- and 8-bit)
 * weights take the tile path, so wider precisions keep no sums.
 */
void
freeze_features(dnn::QuantizedWeights &qw, std::size_t rows, std::size_t k)
{
    if (!qw.narrow())
        return;
    // Padded rows are summed over their stride: the zero columns past
    // k add nothing to a row sum, their features are dropped below,
    // and the range word already holds 0.
    const std::size_t ldb = qw.rowStride(k);
    qw.features.resize(bce::Bce::tileScratchWords(ldb));
    bce::simd::class_feature_sums(qw.tile(), rows, ldb, qw.features.data());
    if (ldb != k) {
        for (std::size_t f = 1; f < bce::simd::feature_count; ++f)
            std::copy_n(qw.features.begin() + f * ldb, k,
                        qw.features.begin() + f * k);
        qw.features[bce::simd::feature_count * k] =
            qw.features[bce::simd::feature_count * ldb];
        qw.features.resize(bce::Bce::tileScratchWords(k));
        qw.features.shrink_to_fit();
    }
    qw.rowSums.resize(rows);
    bce::simd::weight_row_sums(qw.tile(), rows, ldb, qw.rowSums.data());
}

/**
 * Pack the frozen filters @p qw of conv @p layer into the AMX core's B
 * panel, one group per kernel row (bce::simd::pack_panel), wherever
 * the host can run the AmxInt8 level, whatever level is active: a
 * level forced after compile still finds the panel, and every other
 * level ignores it.
 */
void
freeze_panel(dnn::QuantizedWeights &qw, const dnn::Layer &layer)
{
    const bce::simd::ConvRows g = conv_rows(layer);
    const std::size_t bytes =
        bce::simd::panel_bytes(g.filters, g.kernelH, g.run());
    if (!qw.narrow() || bytes == 0
        || !sim::simd_level_compiled(sim::SimdLevel::AmxInt8)
        || !sim::simd_level_supported(sim::SimdLevel::AmxInt8))
        return;
    qw.panel.resize(bytes / sizeof(dnn::QuantizedWeights::PanelLine));
    bce::simd::pack_panel(qw.q8.data(), g.filters, g.kernelH, g.run(),
                          qw.panel.front().bytes);
}

/** Report a planning failure: fatal by default, or recorded in @p err
 *  (returning false) when the caller asked for a non-fatal probe. */
template <typename... Args>
bool
plan_fail(std::string *err, Args &&...args)
{
    if (err) {
        std::ostringstream os;
        (os << ... << args);
        *err = os.str();
        return false;
    }
    bfree_fatal(args...);
    return false;
}

/**
 * The dry planning pass: walk the layers tracking activation shape and
 * element counts, and record each layer's scratch requirement through
 * the exact same TensorArena::paddedBytes the runtime allocates with.
 * Fills layer/in/out/scratch/layout fields of @p out (weights
 * untouched), the output's transpose in @p outRelayout and the
 * whole-plan sizing in @p ps. Returns false (diagnostics in @p err)
 * when the network cannot be planned; with @p err null a planning
 * failure is fatal.
 */
bool
plan_shapes(const dnn::Network &net, unsigned bits,
            std::vector<PlannedLayer> &out, std::size_t &inElems,
            std::size_t &outElems, std::vector<std::size_t> &outShape,
            std::optional<Relayout> &outRelayout, PlanStats &ps,
            std::string *err = nullptr)
{
    ps = PlanStats{};

    std::vector<std::size_t> shape = {net.input().c, net.input().h,
                                      net.input().w};
    std::size_t elems = net.input().elements();
    inElems = elems;
    ps.maxActivationElems = elems;
    // The arriving activation: its layout and its (c, h, w).
    ActLayout layout = ActLayout::Chw;
    dnn::FeatureShape act = net.input();

    out.clear();
    out.reserve(net.layers().size());
    for (const dnn::Layer &layer : net.layers()) {
        PlannedLayer pl;
        pl.layer = layer;
        pl.inElems = elems;

        // The layout this layer reads, and the shape it reads it
        // under: convs and pools their own input shape, channels-last;
        // elementwise layers whatever arrives; the rest flat CHW.
        ActLayout want = ActLayout::Chw;
        dnn::FeatureShape as = act;
        switch (layer.kind) {
          case dnn::LayerKind::Conv:
          case dnn::LayerKind::MaxPool:
          case dnn::LayerKind::AvgPool:
            want = ActLayout::Hwc;
            as = layer.input;
            break;
          case dnn::LayerKind::Relu:
          case dnn::LayerKind::Sigmoid:
          case dnn::LayerKind::Tanh:
            want = layout;
            break;
          default:
            break;
        }
        bool chw = layout == ActLayout::Chw;
        if (!chw && (want == ActLayout::Chw || !(as == act))) {
            if (needs_relayout(act))
                pl.relayouts.push_back({ActLayout::Chw, act});
            chw = true;
        }
        if (want == ActLayout::Hwc && chw && needs_relayout(as))
            pl.relayouts.push_back({ActLayout::Hwc, as});
        pl.layout = layout = want;
        ps.relayouts += pl.relayouts.size();

        switch (layer.kind) {
          case dnn::LayerKind::Conv: {
            if (elems != layer.input.elements())
                return plan_fail(err, "plan: conv '", layer.name,
                                 "' expects ", layer.input.elements(),
                                 " input elements, got ", elems);
            const dnn::FeatureShape o = layer.outputShape();
            const std::size_t patch_len = std::size_t(layer.input.c)
                                          * layer.kernelH * layer.kernelW;
            if (bits > 8) {
                // Wide precision: one wide span per filter over an
                // int32 patch walked from the CHW input; no int8 plane.
                pl.scratchBytes =
                    TensorArena::paddedBytes<std::int32_t>(patch_len);
                shape = {o.c, o.h, o.w};
                elems = o.elements();
                break;
            }
            // The channels-last front: the staged HWC plane and the
            // layer's activation features, through the exact
            // paddedBytes expressions runConvInto allocates with. The
            // per-thread scratch lives in the executor's row arena
            // (conv_row_scratch_bytes, rowScratchBytes).
            pl.scratchBytes =
                TensorArena::paddedBytes<std::int8_t>(
                    plane_buffer_bytes(layer))
                + TensorArena::paddedBytes<std::uint32_t>(
                    bce::simd::feature_count * patch_len);
            ps.rowScratchBytes =
                std::max(ps.rowScratchBytes, conv_row_scratch_bytes(layer));
            shape = {o.c, o.h, o.w};
            elems = o.elements();
            break;
          }
          case dnn::LayerKind::Fc: {
            if (elems != layer.inFeatures)
                return plan_fail(err, "plan: fc '", layer.name,
                                 "': flattened input of ", elems,
                                 " != ", layer.inFeatures);
            pl.scratchBytes = matmul_scratch_bytes(
                1, layer.inFeatures, layer.outFeatures, bits);
            shape = {layer.outFeatures, std::size_t(1), std::size_t(1)};
            elems = layer.outFeatures;
            break;
          }
          case dnn::LayerKind::Relu:
            // A Relu right after a Conv or FC runs in that layer's
            // dequantize store, at every precision.
            if (!out.empty()
                && (out.back().layer.kind == dnn::LayerKind::Conv
                    || out.back().layer.kind == dnn::LayerKind::Fc)) {
                out.back().foldedRelu = true;
                ps.foldedRelus += 1;
            }
            break;
          case dnn::LayerKind::Sigmoid:
          case dnn::LayerKind::Tanh:
            // One PWL span over a double copy; shape preserved.
            pl.scratchBytes = TensorArena::paddedBytes<double>(elems);
            break;
          case dnn::LayerKind::MaxPool:
          case dnn::LayerKind::AvgPool: {
            if (elems != layer.input.elements())
                return plan_fail(err, "plan: pool '", layer.name,
                                 "' expects ", layer.input.elements(),
                                 " input elements, got ", elems);
            // Bce::poolQ8 walks the windows in place: no scratch.
            const dnn::FeatureShape o = layer.outputShape();
            shape = {o.c, o.h, o.w};
            elems = o.elements();
            break;
          }
          case dnn::LayerKind::Softmax:
            pl.scratchBytes =
                TensorArena::paddedBytes<double>(elems);
            break;
          case dnn::LayerKind::LstmCell: {
            // Standalone execution only (runLstmStep), which runs in
            // this layer's scratch: the [x, h] row, the gate row and
            // the double row of the PWL spans; at <= 8 bits the
            // quantized row at the gate rows' padded stride and the
            // gate accumulators, plus one row-arena slot per thread
            // for a slice's activation features; wider, the matmul
            // body's own.
            const std::size_t cols =
                std::size_t(layer.lstmInput) + layer.lstmHidden;
            const std::size_t gates = std::size_t(4) * layer.lstmHidden;
            pl.scratchBytes = TensorArena::paddedBytes<float>(cols)
                              + TensorArena::paddedBytes<float>(gates)
                              + TensorArena::paddedBytes<double>(gates);
            if (bits > 8) {
                pl.scratchBytes += matmul_scratch_bytes(1, cols, gates, bits);
            } else {
                pl.scratchBytes +=
                    TensorArena::paddedBytes<std::int8_t>(
                        dnn::padded_stride(cols))
                    + TensorArena::paddedBytes<std::int32_t>(gates);
                ps.rowScratchBytes = std::max(
                    ps.rowScratchBytes,
                    TensorArena::paddedBytes<std::uint32_t>(
                        bce::Bce::tileScratchWords(cols)));
            }
            shape = {layer.lstmHidden, std::size_t(1), std::size_t(1)};
            elems = layer.lstmHidden;
            break;
          }
          case dnn::LayerKind::Attention:
            shape = {layer.seqLen, layer.dModel};
            elems = std::size_t(layer.seqLen) * layer.dModel;
            break;
          default:
            return plan_fail(err, "plan does not cover layer kind '",
                             dnn::layer_kind_name(layer.kind), "'");
        }

        pl.outElems = elems;
        act = shape.size() == 3
                  ? dnn::FeatureShape{static_cast<unsigned>(shape[0]),
                                      static_cast<unsigned>(shape[1]),
                                      static_cast<unsigned>(shape[2])}
                  : dnn::FeatureShape{static_cast<unsigned>(elems), 1, 1};
        ps.maxActivationElems =
            std::max(ps.maxActivationElems, elems);
        ps.peakScratchBytes =
            std::max(ps.peakScratchBytes, pl.scratchBytes);
        out.push_back(std::move(pl));
    }

    outElems = elems;
    outShape = std::move(shape);
    outRelayout.reset();
    if (layout == ActLayout::Hwc && needs_relayout(act)) {
        outRelayout = Relayout{ActLayout::Chw, act};
        ps.relayouts += 1;
    }
    ps.activationBytes =
        2 * TensorArena::paddedBytes<float>(ps.maxActivationElems);
    ps.arenaBytes = ps.activationBytes + ps.peakScratchBytes;
    return true;
}

} // namespace

PlanStats
NetworkPlan::estimate(const dnn::Network &net, unsigned bits)
{
    std::vector<PlannedLayer> layers;
    std::size_t in = 0, outn = 0;
    std::vector<std::size_t> shape;
    std::optional<Relayout> outRelayout;
    PlanStats ps;
    plan_shapes(net, bits, layers, in, outn, shape, outRelayout, ps);
    return ps;
}

bool
NetworkPlan::tryEstimate(const dnn::Network &net, unsigned bits,
                         PlanStats &out)
{
    std::vector<PlannedLayer> layers;
    std::size_t in = 0, outn = 0;
    std::vector<std::size_t> shape;
    std::optional<Relayout> outRelayout;
    std::string err;
    return plan_shapes(net, bits, layers, in, outn, shape, outRelayout, out,
                       &err);
}

NetworkPlan
NetworkPlan::compile(const dnn::Network &net,
                     const NetworkWeights &weights, unsigned bits)
{
    if (weights.size() != net.layers().size())
        bfree_fatal("plan compile: expected ", net.layers().size(),
                    " weight entries, got ", weights.size());

    NetworkPlan plan;
    plan.net_ = net;
    plan.bits_ = bits;
    plan_shapes(net, bits, plan.layers_, plan.inElems_, plan.outElems_,
                plan.outShape_, plan.outRelayout_, plan.stats_);

    for (std::size_t i = 0; i < plan.layers_.size(); ++i) {
        PlannedLayer &pl = plan.layers_[i];
        const dnn::Layer &layer = pl.layer;
        const LayerWeights &w = weights[i];

        switch (layer.kind) {
          case dnn::LayerKind::Conv: {
            const std::size_t patch_len = std::size_t(layer.input.c)
                                          * layer.kernelH * layer.kernelW;
            const std::size_t count =
                std::size_t(layer.outChannels) * patch_len;
            if (w.weights.size() != count)
                bfree_fatal("plan: conv '", layer.name, "' expects ",
                            count, " weights, got ", w.weights.size());
            if (w.bias.size() != layer.outChannels)
                bfree_fatal("plan: conv '", layer.name, "' expects ",
                            layer.outChannels, " biases");
            // Channels-last filters, (ky, kx, c), the order of a patch
            // copied from the staged plane; 16-bit keeps storage order.
            pl.frozen.push_back(
                dnn::freeze_conv_weights(layer, w.weights.data(), bits));
            freeze_features(pl.frozen.back(), layer.outChannels,
                            patch_len);
            freeze_panel(pl.frozen.back(), layer);
            break;
          }
          case dnn::LayerKind::Fc: {
            const std::size_t count =
                std::size_t(layer.inFeatures) * layer.outFeatures;
            if (w.weights.size() != count)
                bfree_fatal("plan: fc '", layer.name, "' expects ",
                            count, " weights, got ", w.weights.size());
            if (w.bias.size() != layer.outFeatures)
                bfree_fatal("plan: fc '", layer.name, "' expects ",
                            layer.outFeatures, " biases");
            // [outFeatures][inFeatures] storage IS the transposed-B
            // GEMM tile — freeze in place.
            pl.frozen.push_back(
                dnn::freeze_weights(w.weights.data(), count, bits));
            freeze_features(pl.frozen.back(), layer.outFeatures,
                            layer.inFeatures);
            break;
          }
          case dnn::LayerKind::LstmCell: {
            const unsigned cols = layer.lstmInput + layer.lstmHidden;
            const std::size_t count =
                std::size_t(4) * layer.lstmHidden * cols;
            if (w.weights.size() != count)
                bfree_fatal("plan: lstm '", layer.name, "' expects ",
                            count, " weights, got ", w.weights.size());
            if (w.bias.size() != std::size_t(4) * layer.lstmHidden)
                bfree_fatal("plan: lstm '", layer.name, "' expects ",
                            std::size_t(4) * layer.lstmHidden, " biases");
            // The row-major [4*hid][cols] gate matrix is already the
            // transposed tile of the [cols][4*hid] gate matmul: the
            // legacy path transposed it and the GEMM transposed it
            // back. Freeze in place, no transpose, then give every row
            // whole cache lines: each step's pool slot streams the same
            // gate rows, from its own L2.
            const std::size_t rows = std::size_t(4) * layer.lstmHidden;
            pl.frozen.push_back(dnn::freeze_weights_padded(
                w.weights.data(), rows, cols, bits));
            freeze_features(pl.frozen.back(), rows, cols);
            break;
          }
          case dnn::LayerKind::Attention: {
            const std::size_t dd =
                std::size_t(layer.dModel) * layer.dModel;
            if (w.weights.size() != 4 * dd)
                bfree_fatal("plan: attention '", layer.name,
                            "' weights must pack wq|wk|wv|wo");
            // Four independent d x d projections, each with its own
            // scale (matching the legacy per-projection qMatmul), each
            // frozen into the transposed tile.
            for (unsigned b = 0; b < 4; ++b) {
                pl.frozen.push_back(dnn::freeze_weights_transposed(
                    w.weights.data() + b * dd, layer.dModel,
                    layer.dModel, bits));
                freeze_features(pl.frozen.back(), layer.dModel,
                                layer.dModel);
            }
            break;
          }
          default:
            if (!w.weights.empty() || !w.bias.empty())
                bfree_fatal("plan: layer '", layer.name,
                            "' takes no weights");
            break;
        }

        pl.bias = w.bias;
        for (const dnn::QuantizedWeights &f : pl.frozen) {
            plan.stats_.frozenWeightBytes += f.frozenBytes();
            plan.stats_.frozenValues += f.count();
        }
    }

    // Verify-on-compile, mirroring KernelCompiler: the whole-plan
    // auditor records its findings instead of aborting; callers read
    // them from diagnostics().
    plan.diagnostics_ =
        verify::PlanVerifier{tech::CacheGeometry{}}.verify(plan);
    return plan;
}

} // namespace bfree::core
