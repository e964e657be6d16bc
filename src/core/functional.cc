#include "functional.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "bce/simd_kernels.hh"
#include "core/conv_front.hh"
#include "mem/micro_op_energy.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace bfree::core {

FunctionalExecutor::FunctionalExecutor(const tech::CacheGeometry &geom,
                                       const tech::TechParams &tech,
                                       bce::ExecTier tier, unsigned threads)
    : geom(geom), tech(tech), subarray(geom, tech, account),
      bce(subarray, tech, account), divisionLut(4),
      sigmoidTable(lut::make_sigmoid_table()),
      tanhTable(lut::make_tanh_table()),
      expTable(lut::make_exp_table()), pool_(threads),
      slots_(pool_.threads())
{
    bce.setTier(tier);
    bce.loadMultLutImage();
}

namespace {

/**
 * Spread the dense m x k int8 rows at @p q out to a row stride of
 * @p ldb >= k, zeros from k on, in place (the buffer holds m * ldb
 * bytes): the activation side of a GEMM against rows dnn::pad_rows
 * laid out. Rows move last first, so none is overwritten unread.
 */
void
pad_operand_rows(std::int8_t *q, std::size_t m, std::size_t k,
                 std::size_t ldb)
{
    if (ldb == k)
        return;
    for (std::size_t i = m; i-- > 0;) {
        std::memmove(q + i * ldb, q + i * k, k);
        std::fill(q + i * ldb + k, q + (i + 1) * ldb, std::int8_t{0});
    }
}

} // namespace

// Symmetric per-tensor quantization lives in dnn::SymQuant /
// dnn::choose_sym, shared by every executor path so all of them
// quantize (and so dequantize) bit-identically. Weight-side quantization
// is frozen at plan compile (dnn::freeze_weights); only the
// input-dependent activation side is quantized here.
using dnn::SymQuant;
using dnn::choose_sym;

void
FunctionalExecutor::runConvInto(const PlannedLayer &pl, unsigned bits,
                                const float *in, float *out)
{
    const dnn::Layer &layer = pl.layer;
    const dnn::FeatureShape o = layer.outputShape();
    const dnn::QuantizedWeights &fw = pl.frozen[0];

    // The max-abs scan, split over the pool: max is order-free and
    // NaN-skipping in every chunk, so the peak is the serial one.
    const std::size_t n = pl.inElems;
    const std::size_t scanChunks = std::max<std::size_t>(
        1, std::min<std::size_t>(slots_.size(), n / minScanElemsPerChunk));
    for (RowSlot &rs : slots_)
        rs.peak = 1e-9f;
    pool_.parallelFor(scanChunks, [&](std::size_t c, unsigned slot) {
        const std::size_t b = c * n / scanChunks;
        const std::size_t e = (c + 1) * n / scanChunks;
        slots_[slot].peak = dnn::peak_abs(in + b, e - b, slots_[slot].peak);
    });
    float peak = 1e-9f;
    for (const RowSlot &rs : slots_)
        peak = std::max(peak, rs.peak);
    const SymQuant qi = dnn::sym_for_peak(peak, bits);

    bce.setMode(bce::BceMode::Conv);

    const std::size_t patch_len =
        std::size_t(layer.input.c) * layer.kernelH * layer.kernelW;
    const std::size_t outRow = std::size_t(o.w) * o.c;

    if (bits <= 8) {
        // The channels-last front (core/conv_front.hh), sized at plan
        // compile through the same expressions: the pool quantizes the
        // HWC input into the zero-padded HWC plane, one span per input
        // row, classifying each staged row for the layer's activation
        // features as it goes; then every output row is one GEMM into a
        // row-major [o.w][o.c] tile (its patch tiles loaded from the
        // plane, or its patches copied first: bce::simd::conv_row_gemm)
        // and one contiguous store per output position.
        const HwcPlane hp = hwc_plane(layer);
        const bce::simd::ConvRows rows = conv_rows(layer);
        std::int8_t *plane =
            arena_.alloc<std::int8_t>(plane_buffer_bytes(layer));
        const lut::DatapathTable *table =
            bce.tileTable(bits, patch_len, fw.featureSums(), qi.limit);

        rowArena_.reset();
        for (RowSlot &rs : slots_) {
            rs.patch = rowArena_.alloc<std::int8_t>(patch_row_bytes(layer));
            rs.accs = rowArena_.alloc<std::int32_t>(outRow);
            rs.taps =
                rowArena_.alloc<std::uint32_t>(tap_feature_words(layer));
            rs.tapScratch = rowArena_.alloc<std::uint32_t>(
                tap_feature_scratch_words(layer));
            if (table != nullptr)
                std::fill_n(rs.taps, tap_feature_words(layer), 0u);
        }
        const std::size_t stageChunks =
            std::min<std::size_t>(slots_.size(), hp.rows);
        pool_.parallelFor(stageChunks, [&](std::size_t c, unsigned slot) {
            RowSlot &rs = slots_[slot];
            const std::size_t r0 = c * hp.rows / stageChunks;
            const std::size_t r1 = (c + 1) * hp.rows / stageChunks;
            stage_hwc_rows(layer, qi, in, r0, r1, plane);
            if (table != nullptr)
                classify_hwc_rows(layer, plane, r0, r1, rs.taps,
                                  rs.tapScratch);
        });

        // Row oh's tile holds position ow's o.c filter outputs at
        // accs + ow * o.c, the layout of the HWC output row: each
        // position dequantized as one run against the filter biases,
        // with a folded ReLU applied in the same pass.
        const auto storeRow = [&](unsigned oh, const std::int32_t *accs) {
            float *dst = out + std::size_t(oh) * outRow;
            for (std::size_t p = 0; p < outRow; p += o.c)
                bce::simd::dequantize_store(accs + p, o.c, fw.scale.scale,
                                            qi.scale, pl.bias.data(), 1,
                                            pl.foldedRelu, dst + p);
        };

        if (table == nullptr) {
            // The per-span loop books as it goes: one row at a time on
            // the calling thread.
            RowSlot &rs = slots_[0];
            for (unsigned oh = 0; oh < o.h; ++oh) {
                bce::simd::copy_patch_row(rows, plane, oh, rs.patch);
                bce.convTile(rs.patch, fw.q8.data(), rs.accs, o.w,
                             patch_len, o.c, bits, fw.featureSums(),
                             fw.rowSumData());
                storeRow(oh, rs.accs);
            }
            return;
        }

        // The whole layer's tally, from its activation features and
        // the frozen filter features, booked once. The threads'
        // accumulators are summed into slot 0's over disjoint word
        // ranges, at most one per pool thread.
        std::uint32_t *fx = arena_.alloc<std::uint32_t>(
            bce::simd::feature_count * patch_len);
        const std::size_t words = tap_feature_words(layer);
        const std::size_t sumChunks = std::max<std::size_t>(
            1, std::min(slots_.size(), words / minSumWordsPerChunk));
        pool_.parallelFor(sumChunks, [&](std::size_t c, unsigned) {
            const std::size_t w0 = c * words / sumChunks;
            const std::size_t w1 = (c + 1) * words / sumChunks;
            for (std::size_t s = 1; s < slots_.size(); ++s)
                sum_tap_features(slots_[0].taps, slots_[s].taps, w0, w1);
        });
        tap_features(layer, slots_[0].taps, fx);
        bce.bookTile(bce::Bce::foldTile(*table, std::size_t(o.h) * o.w,
                                        patch_len, o.c, fx, fw.featureSums()),
                     patch_len, bits);

        // Contiguous row chunks, one per pool thread at most; each runs
        // its rows' GEMMs on its own slot.
        const std::size_t chunks =
            std::min<std::size_t>(slots_.size(), o.h);
        pool_.parallelFor(chunks, [&](std::size_t c, unsigned slot) {
            RowSlot &rs = slots_[slot];
            const auto begin = static_cast<unsigned>(c * o.h / chunks);
            const auto end = static_cast<unsigned>((c + 1) * o.h / chunks);
            for (unsigned oh = begin; oh < end; ++oh) {
                std::fill_n(rs.accs, outRow, 0);
                bce::simd::conv_row_gemm(rows, plane, oh, fw.q8.data(),
                                         fw.rowSumData(), fw.panelData(),
                                         rs.patch, rs.accs);
                storeRow(oh, rs.accs);
            }
        });
        return;
    }

    // 16-bit operands exceed the int8 patch element: walk an int32
    // patch per output position, in the (c, ky, kx) order the 16-bit
    // filters keep, from the HWC input, and run each filter as one
    // wide span.
    const std::size_t inC = layer.input.c;
    const std::size_t inW = layer.input.w;
    std::int32_t *patch = arena_.alloc<std::int32_t>(patch_len);
    for (unsigned oh = 0; oh < o.h; ++oh) {
        for (unsigned ow = 0; ow < o.w; ++ow) {
            std::size_t p = 0;
            for (unsigned c = 0; c < layer.input.c; ++c) {
                for (unsigned r = 0; r < layer.kernelH; ++r) {
                    for (unsigned s = 0; s < layer.kernelW; ++s, ++p) {
                        const int ih = static_cast<int>(
                                           oh * layer.strideH + r)
                                       - static_cast<int>(layer.padH);
                        const int iw = static_cast<int>(
                                           ow * layer.strideW + s)
                                       - static_cast<int>(layer.padW);
                        const bool inside =
                            ih >= 0 && iw >= 0
                            && ih < static_cast<int>(layer.input.h)
                            && iw < static_cast<int>(layer.input.w);
                        patch[p] =
                            inside ? qi.q(in[(ih * inW + iw) * inC + c])
                                   : 0;
                    }
                }
            }
            for (unsigned k = 0; k < o.c; ++k) {
                const std::int64_t acc = bce.dotSpanWide(
                    fw.q32.data() + std::size_t(k) * patch_len, patch,
                    patch_len, bits);
                const float y =
                    static_cast<float>(acc * fw.scale.scale * qi.scale)
                    + pl.bias[k];
                out[std::size_t(oh) * outRow + std::size_t(ow) * o.c + k] =
                    pl.foldedRelu ? bce::simd::relu_q8(y) : y;
            }
        }
    }
}

void
FunctionalExecutor::matmulInto(const float *a, std::size_t m,
                               std::size_t k, std::size_t n,
                               const dnn::QuantizedWeights &wt,
                               bool weightScaleFirst, const float *bias,
                               bool relu, float *out)
{
    const unsigned bits = wt.bits;
    const SymQuant qa = choose_sym(a, m * k, bits);
    // The two scales multiply in the caller's order: it changes low
    // bits. A missing bias adds -0.0f, which leaves every float as is.
    const double s0 = weightScaleFirst ? wt.scale.scale : qa.scale;
    const double s1 = weightScaleFirst ? qa.scale : wt.scale.scale;
    static constexpr float noBias = -0.0f;
    const std::size_t biasStride = bias != nullptr ? 1 : 0;
    if (bias == nullptr)
        bias = &noBias;

    bce.setMode(bce::BceMode::Matmul);
    if (bits <= 8) {
        // One blocked GEMM tile over the LUT datapath against the
        // frozen B^T tile, its feature and row sums. A tile frozen with
        // padded rows (dnn::pad_rows) is multiplied over its row
        // stride ldb, against activation rows zero-padded to match.
        const std::size_t ldb = wt.rowStride(k);
        std::int8_t *qa8 = arena_.alloc<std::int8_t>(m * ldb);
        dnn::quantize_span(qa, a, m * k, qa8);
        std::int32_t *accs = arena_.alloc<std::int32_t>(m * n);
        std::fill(accs, accs + m * n, 0);
        std::uint32_t *aFeatures =
            arena_.alloc<std::uint32_t>(bce::Bce::tileScratchWords(k));
        const std::int8_t *w = wt.tile();
        const std::int32_t *rowSums = wt.rowSumData();
        const std::uint32_t *wFeatures = wt.featureSums();
        // Weights frozen outside a plan, without feature sums, run the
        // whole tile on the calling thread.
        const lut::DatapathTable *table =
            wFeatures != nullptr ? bce.tileTable(bits, k, wFeatures, qa.limit)
                                 : nullptr;
        if (table == nullptr && ldb == k) {
            bce.matmulTile(qa8, w, accs, m, k, n, bits, wFeatures, rowSums,
                           aFeatures);
        } else if (table == nullptr) {
            // Padded rows always carry frozen sums: this is the per-span
            // loop matmulTile falls back to, over the row stride.
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < n; ++j)
                    accs[i * n + j] +=
                        bce.matmulDotSpan(qa8 + i * k, w + j * ldb, k, bits);
        } else {
            // The activation features and the tally fold are computed
            // once; the GEMM splits over contiguous blocks of weight
            // rows, four-column aligned (the GEMM cores' register
            // block), each worth minMatmulMacsPerBlock MACs or more.
            bce::simd::class_feature_sums(qa8, m, k, aFeatures);
            const bce::Bce::TileTally tally =
                bce::Bce::foldTile(*table, m, k, n, aFeatures, wFeatures);
            pad_operand_rows(qa8, m, k, ldb);
            const std::size_t quads = (n + 3) / 4;
            const std::size_t blocks = std::max<std::size_t>(
                1, std::min({m * k * n / minMatmulMacsPerBlock,
                             std::size_t{pool_.threads()}, quads}));
            pool_.parallelFor(blocks, [&](std::size_t b, unsigned) {
                const std::size_t j0 = b * quads / blocks * 4;
                const std::size_t j1 =
                    std::min(n, (b + 1) * quads / blocks * 4);
                bce::simd::gemm_i8(qa8, w + j0 * ldb, accs + j0, m, ldb,
                                   j1 - j0,
                                   rowSums != nullptr ? rowSums + j0
                                                      : nullptr,
                                   n);
            });
            bce.bookTile(tally, k, bits);
        }
        for (std::size_t i = 0; i < m; ++i)
            bce::simd::dequantize_store(accs + i * n, n, s0, s1, bias,
                                        biasStride, relu, out + i * n);
        return;
    }

    // 16-bit operands exceed the int8 tile element: one wide span per
    // output.
    std::int32_t *qa32 = arena_.alloc<std::int32_t>(m * k);
    for (std::size_t p = 0; p < m * k; ++p)
        qa32[p] = qa.q(a[p]);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const std::int64_t acc = bce.dotSpanWide(
                qa32 + i * k, wt.q32.data() + j * k, k, bits);
            const float y = static_cast<float>(acc * s0 * s1)
                            + bias[j * biasStride];
            out[i * n + j] = relu ? bce::simd::relu_q8(y) : y;
        }
    }
}

void
FunctionalExecutor::runActivationInto(const PlannedLayer &pl,
                                      const float *in, float *out)
{
    const std::size_t n = pl.inElems;
    const lut::PwlTable *table = nullptr;
    switch (pl.layer.kind) {
      case dnn::LayerKind::Relu:
        bce.reluQ8(in, out, n);
        return;
      case dnn::LayerKind::Sigmoid:
        table = &sigmoidTable;
        break;
      case dnn::LayerKind::Tanh:
        table = &tanhTable;
        break;
      default:
        bfree_panic("unsupported activation in functional path");
    }
    // One PWL span over the layer in double scratch (plan_shapes).
    double *x = arena_.alloc<double>(n);
    std::copy(in, in + n, x);
    bce.evaluatePwlSpan(*table, x, x, n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<float>(x[i]);
}

void
FunctionalExecutor::runPoolInto(const PlannedLayer &pl, const float *in,
                                float *out)
{
    const dnn::Layer &layer = pl.layer;
    const dnn::FeatureShape o = layer.outputShape();
    const bce::PoolShape shape{
        .channels = o.c, .inH = layer.input.h, .inW = layer.input.w,
        .outH = o.h, .outW = o.w, .kernelH = layer.kernelH,
        .kernelW = layer.kernelW, .strideH = layer.strideH,
        .strideW = layer.strideW, .padH = layer.padH, .padW = layer.padW};
    bce.poolQ8(shape, layer.kind == dnn::LayerKind::AvgPool, divisionLut,
               in, out, &pool_);
}

void
FunctionalExecutor::runSoftmaxInto(const PlannedLayer &pl,
                                   const float *in, float *out)
{
    const std::size_t n = pl.inElems;
    double *logits = arena_.alloc<double>(n);
    for (std::size_t i = 0; i < n; ++i)
        logits[i] = in[i];
    lut::MicroOpCounts counts;
    lut::lut_softmax_into(logits, n, logits, expTable, divisionLut,
                          &counts);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<float>(logits[i]);
}

void
FunctionalExecutor::runInto(const NetworkPlan &plan, const float *input,
                            std::size_t inElems, float *output,
                            std::size_t outElems)
{
    if (inElems != plan.inputElems())
        bfree_fatal("plan run: input of ", inElems, " elements, plan "
                    "expects ", plan.inputElems());
    if (outElems != plan.outputElems())
        bfree_fatal("plan run: output of ", outElems, " elements, plan "
                    "produces ", plan.outputElems());

    const PlanStats &ps = plan.stats();
    arena_.reserve(ps.arenaBytes);
    rowArena_.reserve(slots_.size() * ps.rowScratchBytes);
    arena_.reset();
    // Restart the high-water mark so highWater() reports the peak of
    // the plan actually run: a smaller plan run after a larger one
    // must show its own peak, not the earlier plan's.
    arena_.resetHighWater();
    float *cur = arena_.alloc<float>(ps.maxActivationElems);
    float *next = arena_.alloc<float>(ps.maxActivationElems);

    // A layer's transposes (PlannedLayer::relayouts) run between the
    // two activation buffers, split by positions over the pool at the
    // scan's grain; layer 0's read the caller's input, in place of the
    // copy into the first buffer, and the plan output's write the
    // caller's output.
    const auto transpose = [&](const Relayout &r, const float *from,
                               float *to) {
        const std::size_t positions = std::size_t(r.shape.h) * r.shape.w;
        const std::size_t chunks = std::max<std::size_t>(
            1, std::min<std::size_t>(slots_.size(),
                                     r.shape.elements()
                                         / minScanElemsPerChunk));
        pool_.parallelFor(chunks, [&](std::size_t c, unsigned) {
            relayout(r, from, to, c * positions / chunks,
                     (c + 1) * positions / chunks);
        });
    };
    const auto relayoutInto = [&](const std::vector<Relayout> &rs,
                                  const float *from) {
        for (const Relayout &r : rs) {
            transpose(r, from, next);
            std::swap(cur, next);
            from = cur;
        }
    };
    const std::vector<PlannedLayer> &layers = plan.layers();
    if (layers.empty() || layers[0].relayouts.empty())
        std::copy(input, input + inElems, cur);
    else
        relayoutInto(layers[0].relayouts, input);

    const unsigned bits = plan.bits();
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const PlannedLayer &pl = layers[i];
        if (i > 0)
            relayoutInto(pl.relayouts, cur);
        if (i > 0 && layers[i - 1].foldedRelu) {
            // The producer's store already applied this ReLU: book its
            // statistics, and leave the activations where they are.
            bce.bookRelu(pl.inElems);
            continue;
        }
        const dnn::TensorArena::Marker marker = arena_.mark();
        switch (pl.layer.kind) {
          case dnn::LayerKind::Conv:
            runConvInto(pl, bits, cur, next);
            break;
          case dnn::LayerKind::Fc:
            // The frozen [outFeatures][inFeatures] matrix already is
            // the transposed-B tile: the layer is one matmul product.
            matmulInto(cur, 1, pl.layer.inFeatures, pl.layer.outFeatures,
                       pl.frozen[0], true, pl.bias.data(), pl.foldedRelu,
                       next);
            break;
          case dnn::LayerKind::Relu:
          case dnn::LayerKind::Sigmoid:
          case dnn::LayerKind::Tanh:
            runActivationInto(pl, cur, next);
            break;
          case dnn::LayerKind::MaxPool:
          case dnn::LayerKind::AvgPool:
            runPoolInto(pl, cur, next);
            break;
          case dnn::LayerKind::Softmax:
            runSoftmaxInto(pl, cur, next);
            break;
          default:
            bfree_fatal("functional path does not execute layer kind '",
                        dnn::layer_kind_name(pl.layer.kind), "'");
        }
        arena_.release(marker);
        std::swap(cur, next);
    }

    if (plan.outputRelayout())
        transpose(*plan.outputRelayout(), cur, output);
    else
        std::copy(cur, cur + outElems, output);
    plan.noteRun();
}

FunctionalResult
FunctionalExecutor::run(const NetworkPlan &plan,
                        const dnn::FloatTensor &input)
{
    dnn::FloatTensor out(plan.outputShape());
    runInto(plan, input.data(), input.size(), out.data(), out.size());
    return FunctionalResult{std::move(out), bce.stats()};
}

dnn::FloatTensor
FunctionalExecutor::qMatmulFrozen(const dnn::FloatTensor &a,
                                  const dnn::QuantizedWeights &wt,
                                  std::size_t k, std::size_t n)
{
    if (a.rank() != 2 || a.dim(1) != k)
        bfree_panic("qMatmulFrozen: a must be [m][k]");
    if (wt.count() != k * n)
        bfree_panic("qMatmulFrozen: expected an n x k tile of ", k * n,
                    " values, got ", wt.count());
    const std::size_t m = a.dim(0);
    dnn::FloatTensor out({m, n});
    // No plan run holds the arena here: size it for this product.
    arena_.reset();
    arena_.reserve(matmul_scratch_bytes(m, k, n, wt.bits, wt.rowStride(k)));
    matmulInto(a.data(), m, k, n, wt, false, nullptr, false, out.data());
    return out;
}

dnn::LstmState
FunctionalExecutor::runLstmStep(const NetworkPlan &plan,
                                std::size_t layerIndex,
                                const std::vector<float> &x,
                                const dnn::LstmState &prev)
{
    if (layerIndex >= plan.layers().size())
        bfree_fatal("runLstmStep: layer index ", layerIndex,
                    " out of range");
    const PlannedLayer &pl = plan.layers()[layerIndex];
    if (pl.layer.kind != dnn::LayerKind::LstmCell)
        bfree_fatal("runLstmStep: layer '", pl.layer.name,
                    "' is not an LSTM cell");
    plan.noteRun();

    const unsigned in = pl.layer.lstmInput;
    const unsigned hid = pl.layer.lstmHidden;
    const unsigned cols = in + hid;
    if (x.size() != in || prev.h.size() != hid)
        bfree_fatal("runLstmStep: state size mismatch");

    // The step runs in the LstmCell's planned arena scratch and, at
    // <= 8 bits, one row-arena slot per thread (plan_shapes). The
    // returned state is the only heap allocation.
    const dnn::QuantizedWeights &wt = pl.frozen[0];
    const unsigned bits = wt.bits;
    const std::size_t gateN = std::size_t(4) * hid;
    arena_.reserve(pl.scratchBytes);
    arena_.reset();
    arena_.resetHighWater();
    float *xh = arena_.alloc<float>(cols);
    float *gates = arena_.alloc<float>(gateN);
    double *act = arena_.alloc<double>(gateN);
    std::copy(x.begin(), x.end(), xh);
    std::copy(prev.h.begin(), prev.h.end(), xh + in);

    // Units [u0, u1) from their dequantized gates [i, f, g, o]: the
    // gates as PWL spans in place, then c' = f * c + i * g over g and
    // h' = o * tanh(c'). Every element depends on its own unit only,
    // and the caller books the 5 * hid PWL evaluations once.
    dnn::LstmState next;
    next.h.resize(hid);
    next.c.resize(hid);
    const auto cell = [&](std::size_t u0, std::size_t u1) {
        const std::size_t len = u1 - u0;
        for (std::size_t g = 0; g < 4; ++g)
            std::copy_n(gates + g * hid + u0, len, act + g * hid + u0);
        double *const ig = act + u0;
        double *const fg = act + hid + u0;
        double *const gg = act + 2 * std::size_t(hid) + u0;
        double *const og = act + 3 * std::size_t(hid) + u0;
        bce.pwlValues(sigmoidTable, ig, ig, len);
        bce.pwlValues(sigmoidTable, fg, fg, len);
        bce.pwlValues(tanhTable, gg, gg, len);
        bce.pwlValues(sigmoidTable, og, og, len);
        for (std::size_t j = 0; j < len; ++j) {
            const double c_new = fg[j] * prev.c[u0 + j] + ig[j] * gg[j];
            next.c[u0 + j] = static_cast<float>(c_new);
            gg[j] = c_new;
        }
        bce.pwlValues(tanhTable, gg, gg, len);
        for (std::size_t j = 0; j < len; ++j)
            next.h[u0 + j] = static_cast<float>(og[j] * gg[j]);
    };

    // The packed gate matvec on the broadcast datapath, [1][cols] x
    // [cols][4*hid]: the frozen row-major [4*hid][cols] gate matrix is
    // exactly the transposed tile that product wants. The gate bias is
    // added in the dequantize store.
    const SymQuant qa = choose_sym(xh, cols, bits);
    bce.setMode(bce::BceMode::Matmul);
    if (!wt.narrow()) {
        // 16-bit cells: the matmul body's wide spans, then every unit.
        matmulInto(xh, 1, cols, gateN, wt, false, pl.bias.data(), false,
                   gates);
        cell(0, hid);
        bce.bookPwl(5 * std::size_t(hid));
        return next;
    }

    // The [x, h] row is quantized once, zero-padded to the gate rows'
    // stride (dnn::freeze_weights_padded).
    const std::size_t ldb = wt.rowStride(cols);
    std::int8_t *qa8 = arena_.alloc<std::int8_t>(ldb);
    dnn::quantize_span(qa, xh, cols, qa8);
    std::fill(qa8 + cols, qa8 + ldb, std::int8_t{0});
    std::int32_t *accs = arena_.alloc<std::int32_t>(gateN);
    const std::int8_t *w = wt.tile();
    const std::uint32_t *wFeatures = wt.featureSums();
    const std::int32_t *rowSums = wt.rowSumData();
    const auto store = [&](std::size_t u0, std::size_t u1) {
        for (std::size_t g = 0; g < 4; ++g) {
            const std::size_t r0 = g * hid + u0;
            bce::simd::dequantize_store(accs + r0, u1 - u0, qa.scale,
                                        wt.scale.scale, &pl.bias[r0], 1,
                                        false, gates + r0);
        }
    };

    const lut::DatapathTable *table =
        bce.tileTable(bits, cols, wFeatures, qa.limit);
    if (table == nullptr) {
        // The per-span loop (the Legacy tier) books as it goes, on
        // this thread.
        for (std::size_t j = 0; j < gateN; ++j)
            accs[j] = bce.matmulDotSpan(qa8, w + j * ldb, cols, bits);
        store(0, hid);
        cell(0, hid);
        bce.bookPwl(5 * std::size_t(hid));
        return next;
    }

    // One fork per step. Index b is slice b of the hidden units, in
    // 16-unit groups, so the pool's owner-first claims hand the same
    // thread the same four gate row ranges every step and those rows
    // stay in its core's L2. Each slice also classifies and folds
    // column range b of the [x, h] row against the frozen weight
    // features; the folds are summed here in slice order, and the tile
    // and the PWL evaluations are booked once.
    const PlanStats &ps = plan.stats();
    rowArena_.reserve(slots_.size() * ps.rowScratchBytes);
    rowArena_.reset();
    for (RowSlot &rs : slots_)
        rs.features = rowArena_.alloc<std::uint32_t>(
            bce::Bce::tileScratchWords(cols));
    const std::size_t groups = (std::size_t(hid) + 15) / 16;
    const std::size_t slices = std::min<std::size_t>(slots_.size(), groups);
    pool_.parallelFor(slices, [&](std::size_t b, unsigned slot) {
        const std::size_t k0 = b * cols / slices;
        const std::size_t k1 = (b + 1) * cols / slices;
        std::uint32_t *fx = slots_[slot].features;
        bce::simd::class_feature_sums(qa8 + k0, 1, k1 - k0, fx);
        slots_[b].fold = bce::simd::fold_tile_features(
            fx, wFeatures + k0, k1 - k0, table->cyclesFactor(), cols);

        const std::size_t u0 = b * groups / slices * 16;
        const std::size_t u1 =
            std::min<std::size_t>(hid, (b + 1) * groups / slices * 16);
        for (std::size_t g = 0; g < 4; ++g) {
            const std::size_t r0 = g * hid + u0;
            std::fill(accs + r0, accs + r0 + (u1 - u0), 0);
            bce::simd::gemm_i8(qa8, w + r0 * ldb, accs + r0, 1, ldb,
                               u1 - u0, rowSums + r0);
        }
        store(u0, u1);
        cell(u0, u1);
    });
    bce::Bce::TileTally tally{{}, gateN};
    for (std::size_t b = 0; b < slices; ++b) {
        const bce::simd::SpanSums &f = slots_[b].fold;
        tally.sums.lookups += f.lookups;
        tally.sums.shifts += f.shifts;
        tally.sums.adds += f.adds;
        tally.sums.cycles += f.cycles;
    }
    bce.bookTile(tally, cols, bits);
    bce.bookPwl(5 * std::size_t(hid));
    return next;
}

dnn::FloatTensor
FunctionalExecutor::runAttention(const NetworkPlan &plan,
                                 std::size_t layerIndex,
                                 const dnn::FloatTensor &input)
{
    if (layerIndex >= plan.layers().size())
        bfree_fatal("runAttention: layer index ", layerIndex,
                    " out of range");
    const PlannedLayer &pl = plan.layers()[layerIndex];
    if (pl.layer.kind != dnn::LayerKind::Attention)
        bfree_fatal("runAttention: layer '", pl.layer.name,
                    "' is not an attention block");
    plan.noteRun();

    const unsigned s = pl.layer.seqLen;
    const unsigned d = pl.layer.dModel;
    if (input.rank() != 2 || input.dim(0) != s || input.dim(1) != d)
        bfree_fatal("runAttention: input must be [seq][d]");

    const std::vector<dnn::QuantizedWeights> &proj = pl.frozen;
    const dnn::FloatTensor q = qMatmulFrozen(input, proj[0], d, d);
    const dnn::FloatTensor k = qMatmulFrozen(input, proj[1], d, d);
    const dnn::FloatTensor v = qMatmulFrozen(input, proj[2], d, d);

    // Scores: Q x K^T, scaled; softmax per row through the LUT path.
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    dnn::FloatTensor context({s, d});
    std::vector<double> row(s);
    for (unsigned i = 0; i < s; ++i) {
        for (unsigned j = 0; j < s; ++j) {
            float acc = 0.0f;
            for (unsigned p = 0; p < d; ++p)
                acc += q.at(i, p) * k.at(j, p);
            row[j] = acc * scale;
        }
        lut::MicroOpCounts counts;
        const std::vector<double> probs =
            lut::lut_softmax(row, expTable, divisionLut, &counts);
        for (unsigned p = 0; p < d; ++p) {
            double acc = 0.0;
            for (unsigned j = 0; j < s; ++j)
                acc += probs[j] * v.at(j, p);
            context.at(i, p) = static_cast<float>(acc);
        }
    }
    return qMatmulFrozen(context, proj[3], d, d);
}

BatchResult
run_functional_batch(const NetworkPlan &plan,
                     const std::vector<dnn::FloatTensor> &inputs,
                     const BatchOptions &opts)
{
    std::vector<const dnn::FloatTensor *> borrowed;
    borrowed.reserve(inputs.size());
    for (const dnn::FloatTensor &in : inputs)
        borrowed.push_back(&in);
    return run_functional_batch(plan, borrowed, opts);
}

BatchResult
run_functional_batch(const NetworkPlan &plan,
                     const std::vector<const dnn::FloatTensor *> &inputs,
                     const BatchOptions &opts)
{
    BatchResult result;
    const std::size_t n = inputs.size();
    result.outputs.reserve(n);
    for (const dnn::FloatTensor *in : inputs) {
        if (in == nullptr)
            bfree_fatal("null input tensor in batch dispatch");
        if (in->size() != plan.inputElems())
            bfree_fatal("batch input of ", in->size(), " elements, plan "
                        "expects ", plan.inputElems());
        // The executor quantizes these user buffers straight into
        // 64-byte-aligned arena spans; the float loads themselves only
        // need natural alignment, but a buffer that misses even that
        // points at a caller-side lifetime or aliasing bug — refuse it
        // here with a usable message rather than faulting in a kernel.
        if (reinterpret_cast<std::uintptr_t>(in->data())
                % alignof(float) != 0)
            bfree_fatal("batch input tensor data at ",
                        static_cast<const void *>(in->data()),
                        " is not aligned for float access; pass "
                        "naturally-aligned buffers to "
                        "run_functional_batch");
        result.outputs.emplace_back(plan.outputShape());
    }
    if (n == 0)
        return result;

    const unsigned threads = sim::resolve_threads(opts.threads);
    const std::size_t chunks = std::min<std::size_t>(threads, n);
    const std::size_t per = (n + chunks - 1) / chunks;
    // The batch's threads are shared out: each chunk's executor splits
    // its layers over its share, so the total stays at threads.
    const auto execThreads =
        static_cast<unsigned>(std::max<std::size_t>(1, threads / chunks));

    // Contiguous chunks, one long-lived executor each: the memoized
    // datapath tables and the arena are paid once per worker. Each
    // input's BCE activity is captured as a snapshot delta into its
    // own slot, then reduced in input order below — integer sums in a
    // fixed order, so the totals cannot depend on scheduling.
    std::vector<bce::BceStats> perInput(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * per;
        const std::size_t end = std::min(n, begin + per);
        if (begin >= end)
            break;
        tasks.push_back([&plan, &inputs, &result, &perInput, &opts,
                         execThreads, begin, end] {
            FunctionalExecutor exec(opts.geom, opts.tech,
                                    bce::ExecTier::Tiered, execThreads);
            if (begin == 0)
                result.executorThreads = exec.threads();
            for (std::size_t i = begin; i < end; ++i) {
                const bce::BceStats before = exec.stats();
                exec.runInto(plan, inputs[i]->data(), inputs[i]->size(),
                             result.outputs[i].data(),
                             result.outputs[i].size());
                // Park the datapath back in conv mode INSIDE the
                // measured window: the delta then includes the
                // return-to-conv switch and every input starts from
                // the same mode, making the per-input delta
                // independent of the input's position in its chunk —
                // which is what keeps batch statistics bit-identical
                // across thread counts.
                exec.parkDatapath();
                perInput[i] = exec.stats() - before;
            }
        });
    }
    sim::ThreadPool pool(threads);
    pool.run(std::move(tasks));

    for (const bce::BceStats &s : perInput)
        result.stats += s;

    // One bulk energy conversion from the summed integer tallies — the
    // same closed-form deposit Bce::flushEnergy performs, so the batch
    // energy equals a sequential run's datapath energy exactly. The
    // per-worker LUT-image load is deliberately excluded (fixed
    // per-executor setup, not batch work).
    mem::BceEnergyTallies tallies;
    tallies.romLookups = result.stats.counts.romLookups;
    tallies.lutReadsPim = result.stats.lutReadsPim;
    tallies.lutReadsCache = result.stats.lutReadsCache;
    tallies.specialLutEvents = result.stats.specialLutEvents;
    tallies.cyclesByMode = result.stats.cyclesByMode;
    mem::MicroOpEnergyModel(opts.tech).deposit(tallies, result.energy);
    return result;
}

} // namespace bfree::core
