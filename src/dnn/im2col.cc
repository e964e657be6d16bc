#include "im2col.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace bfree::dnn {

namespace {

/**
 * The clipped column window of one kernel row at horizontal output
 * position @p ow: taps [s0, s1) land inside the source row, the rest
 * is padding. iw0 is the (possibly negative) source column of tap 0.
 */
struct RowRun
{
    int iw0;
    int s0;
    int s1;
};

RowRun
row_run(const Layer &layer, unsigned ow)
{
    RowRun rr;
    rr.iw0 = static_cast<int>(ow * layer.strideW)
             - static_cast<int>(layer.padW);
    const int kw = static_cast<int>(layer.kernelW);
    const int inw = static_cast<int>(layer.input.w);
    rr.s0 = std::clamp(-rr.iw0, 0, kw);
    rr.s1 = std::clamp(inw - rr.iw0, rr.s0, kw);
    return rr;
}

} // namespace

FloatTensor
im2col(const Layer &layer, const FloatTensor &input)
{
    if (layer.kind != LayerKind::Conv)
        bfree_panic("im2col requires a convolution layer");

    const FeatureShape out = layer.outputShape();
    const std::size_t rows = std::size_t(out.h) * out.w;
    const std::size_t cols =
        std::size_t(layer.input.c) * layer.kernelH * layer.kernelW;
    const std::size_t inW = layer.input.w;
    const std::size_t inHW = std::size_t(layer.input.h) * inW;
    const std::size_t kW = layer.kernelW;

    // Each (channel, kernel-row) of a patch is one contiguous span of
    // the source row (plus zero padding at the clipped edges), so the
    // unroll is row-run copies, not a per-element index walk. An
    // all-bits-zero float is 0.0f, so the pad fill can be memset.
    FloatTensor matrix({rows, cols});
    const float *in = input.data();
    float *dst = matrix.data();
    for (unsigned oh = 0; oh < out.h; ++oh) {
        for (unsigned ow = 0; ow < out.w; ++ow) {
            const RowRun rr = row_run(layer, ow);
            for (unsigned c = 0; c < layer.input.c; ++c) {
                const float *plane = in + c * inHW;
                for (unsigned r = 0; r < layer.kernelH; ++r, dst += kW) {
                    const int ih =
                        static_cast<int>(oh * layer.strideH + r)
                        - static_cast<int>(layer.padH);
                    if (ih < 0
                        || ih >= static_cast<int>(layer.input.h)) {
                        std::memset(dst, 0, kW * sizeof(float));
                        continue;
                    }
                    if (rr.s0 > 0)
                        std::memset(dst, 0, rr.s0 * sizeof(float));
                    if (rr.s1 > rr.s0)
                        std::memcpy(dst + rr.s0,
                                    plane + std::size_t(ih) * inW
                                        + rr.iw0 + rr.s0,
                                    (rr.s1 - rr.s0) * sizeof(float));
                    if (static_cast<int>(kW) > rr.s1)
                        std::memset(dst + rr.s1, 0,
                                    (kW - rr.s1) * sizeof(float));
                }
            }
        }
    }
    return matrix;
}

void
im2col_patch_i8(const Layer &layer, const std::int8_t *qin, unsigned oh,
                unsigned ow, std::int8_t *patch)
{
    const std::size_t inW = layer.input.w;
    const std::size_t inHW = std::size_t(layer.input.h) * inW;
    const std::size_t kW = layer.kernelW;
    const RowRun rr = row_run(layer, ow);

    for (unsigned c = 0; c < layer.input.c; ++c) {
        const std::int8_t *plane = qin + c * inHW;
        for (unsigned r = 0; r < layer.kernelH; ++r, patch += kW) {
            const int ih = static_cast<int>(oh * layer.strideH + r)
                           - static_cast<int>(layer.padH);
            if (ih < 0 || ih >= static_cast<int>(layer.input.h)) {
                std::memset(patch, 0, kW);
                continue;
            }
            if (rr.s0 > 0)
                std::memset(patch, 0, rr.s0);
            if (rr.s1 > rr.s0)
                std::memcpy(patch + rr.s0,
                            plane + std::size_t(ih) * inW + rr.iw0
                                + rr.s0,
                            rr.s1 - rr.s0);
            if (static_cast<int>(kW) > rr.s1)
                std::memset(patch + rr.s1, 0, kW - rr.s1);
        }
    }
}

FloatTensor
weights_to_matrix(const Layer &layer, const std::vector<float> &weights)
{
    const std::size_t cols = layer.outChannels;
    const std::size_t rows =
        std::size_t(layer.input.c) * layer.kernelH * layer.kernelW;
    if (weights.size() != rows * cols)
        bfree_panic("weights_to_matrix: weight count mismatch");

    FloatTensor matrix({rows, cols});
    for (unsigned k = 0; k < layer.outChannels; ++k)
        for (std::size_t r = 0; r < rows; ++r)
            matrix.at(r, k) = weights[std::size_t(k) * rows + r];
    return matrix;
}

double
storage_expansion(const Layer &layer)
{
    if (layer.kind != LayerKind::Conv)
        return 1.0;
    const FeatureShape out = layer.outputShape();
    const double unrolled = static_cast<double>(out.h) * out.w
                            * layer.input.c * layer.kernelH
                            * layer.kernelW;
    return unrolled / static_cast<double>(layer.input.elements());
}

std::uint64_t
unrolled_input_bytes(const Layer &layer)
{
    const FeatureShape out = layer.outputShape();
    return std::uint64_t(out.h) * out.w * layer.input.c * layer.kernelH
           * layer.kernelW * (layer.precisionBits <= 8 ? 1 : 2);
}

} // namespace bfree::dnn
