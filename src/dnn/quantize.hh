/**
 * @file
 * Tensor quantization and per-layer precision configuration.
 *
 * The paper executes networks at 8-bit, 4-bit, or layer-wise mixed
 * precision (learned with the competitive-collaborative method of Khan
 * et al.; Fig. 14 shows ~50% execution-time reduction on VGG-16 when
 * most layers drop to 4-bit with ~1% accuracy loss). This module
 * quantizes tensors for the functional path and builds the precision
 * assignments the timing model consumes.
 */

#ifndef BFREE_DNN_QUANTIZE_HH
#define BFREE_DNN_QUANTIZE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lut/fixed_point.hh"
#include "network.hh"
#include "tensor.hh"

namespace bfree::dnn {

/**
 * Symmetric per-tensor quantizer: round-to-nearest onto
 * [-limit, limit] with a data-derived scale. Every quantize path of
 * the functional executor either calls q() or reproduces it exactly
 * (quantize_span), which is what makes the outputs bit-identical at
 * every SIMD level and thread count (same rounding, same clamp, same
 * dequant arithmetic).
 */
struct SymQuant
{
    double scale = 1.0;
    std::int32_t limit = 127;

    /**
     * lround(v / scale) clamped to [-limit, limit], the division in
     * double: ties round away from zero. Quotients at or past +-limit
     * (infinities included) saturate without reaching lround, whose
     * result past the long range is unspecified, and a NaN quotient
     * gives -limit.
     */
    std::int32_t
    q(float v) const
    {
        const double x = v / scale;
        if (x >= limit)
            return limit;
        if (!(x > -limit))
            return -limit;
        return static_cast<std::int32_t>(std::lround(x));
    }
};

/** Pick the symmetric quantizer for @p n floats at @p bits precision:
 *  sym_for_peak(peak_abs(data, n, 1e-9f), bits). */
SymQuant choose_sym(const float *data, std::size_t n, unsigned bits);

/**
 * max(peak, |data[i]|) over the non-NaN elements (a NaN is skipped as
 * std::max(peak, NaN) skips it), dispatched on the active SIMD level
 * and bit-identical at every level. max is order-free, so the peak of
 * a span split into chunks is the max of the chunks' peaks.
 */
float peak_abs(const float *data, std::size_t n, float peak);

/** The symmetric quantizer of a tensor whose peak_abs is @p peak. */
SymQuant sym_for_peak(float peak, unsigned bits);

/**
 * Quantize @p n floats through @p sq into int8, the vectorized span
 * form of calling SymQuant::q element by element. Dispatches on the
 * active SIMD level (sim/cpuid) and is byte-identical to the scalar
 * loop at every level: the SIMD variants reproduce lround's
 * round-half-away-from-zero in double precision exactly (truncate,
 * then step by the sign where |fraction| >= 0.5 — note that adding
 * 0.5 before truncating would double-round near ties). The AVX-512
 * levels first multiply in float by the reciprocal of the scale and
 * keep that result wherever it provably rounds as the double quotient
 * does (DESIGN.md, the conv front); a vector with any lane near a
 * half-integer takes the double divide. Source and destination may be
 * arbitrarily aligned. Requires limit <= 127 (the int8 freeze domain).
 */
void quantize_span(const SymQuant &sq, const float *src, std::size_t n,
                   std::int8_t *dst);

/**
 * A weight tensor frozen at compile time: the chosen symmetric scale
 * plus every element pushed through SymQuant::q once, up front. q() is
 * a pure function, so consuming the frozen values is bit-identical to
 * re-quantizing at every use — that identity is what lets the
 * execution-plan layer hoist all weight quantization out of the
 * steady-state path. Narrow precisions (<= 8 bits) land in q8; wider
 * ones in q32 (the layouts the batched BCE kernels consume).
 */
struct QuantizedWeights
{
    SymQuant scale;
    unsigned bits = 8;
    std::vector<std::int8_t> q8;    ///< bits <= 8 (int8 span kernels).
    std::vector<std::int32_t> q32;  ///< bits > 8 (scalar datapath).
    /**
     * Class-feature column sums of q8 viewed as the rows x k tile the
     * kernels consume (bce::simd::class_feature_sums, trailing operand
     * range word included): the frozen weight side of the tile tally
     * and its domain check. Filled at plan compile for 4- and 8-bit
     * weights; empty otherwise, and then a tile computes it per call.
     */
    std::vector<std::uint32_t> features;
    /**
     * Per-row sums of the same tile (bce::simd::weight_row_sums), one
     * word per weight row: the bias correction of the VNNI GEMM core.
     * Frozen, and left empty, together with features.
     */
    std::vector<std::int32_t> rowSums;
    /** One 64-byte line of panel, aligned to a cache line. */
    struct alignas(64) PanelLine
    {
        std::int8_t bytes[64];
    };
    /**
     * The same tile packed into the AMX conv core's B panel, one
     * zero-padded group per kernel row (bce::simd::pack_panel).
     * Frozen for conv filters on hosts that can run the AmxInt8
     * level; empty otherwise.
     */
    std::vector<PanelLine> panel;

    /** The frozen feature sums, or null when none were frozen. */
    const std::uint32_t *
    featureSums() const
    {
        return features.empty() ? nullptr : features.data();
    }

    /** The frozen row sums, or null when none were frozen. */
    const std::int32_t *
    rowSumData() const
    {
        return rowSums.empty() ? nullptr : rowSums.data();
    }

    /**
     * The layout freeze_weights_padded gave q8, or all zero for dense
     * rows: row r of the rows x cols tile starts at tile() + r *
     * stride, stride is a multiple of 64 with zeros from cols on, and
     * tile() = q8.data() + offset sits on a 64-byte line (q8 holds
     * stride * rows + 63 bytes). A copy keeps the layout but not, in
     * general, the line alignment.
     */
    struct RowPadding
    {
        std::size_t rows = 0, cols = 0, stride = 0, offset = 0;
    } pad;

    /** The frozen B panel, or null when none was packed. */
    const std::int8_t *
    panelData() const
    {
        return panel.empty() ? nullptr : panel.front().bytes;
    }

    /** Row 0 of the int8 tile. */
    const std::int8_t *tile() const { return q8.data() + pad.offset; }

    /** Elements between rows of the int8 tile of rows of @p k. */
    std::size_t
    rowStride(std::size_t k) const
    {
        return pad.stride != 0 ? pad.stride : k;
    }

    bool narrow() const { return bits <= 8; }
    /** Weights frozen: rows x cols, padding not counted. */
    std::size_t
    count() const
    {
        if (pad.stride != 0)
            return pad.rows * pad.cols;
        return narrow() ? q8.size() : q32.size();
    }
    /** Everything frozen for this tensor: the quantized values plus
     *  the feature and row sums and the panel frozen beside them. */
    std::size_t frozenBytes() const
    {
        return (narrow() ? q8.size() : q32.size() * sizeof(std::int32_t))
               + features.size() * sizeof(std::uint32_t)
               + rowSums.size() * sizeof(std::int32_t)
               + panel.size() * sizeof(PanelLine);
    }
};

/**
 * Freeze @p n weights in storage order. The scale is chosen by
 * choose_sym over exactly this span (order-independent: it only reads
 * the peak magnitude).
 */
QuantizedWeights freeze_weights(const float *w, std::size_t n,
                                unsigned bits);

/**
 * freeze_weights of a row-major rows x cols matrix, with the int8 rows
 * laid out at a multiple-of-64 stride, zero-padded past cols, and row
 * 0 on a 64-byte line (QuantizedWeights::pad): a row-sliced GEMM then
 * streams whole cache lines from the start of every row, and the
 * padded K needs no tail. The values and the scale are freeze_weights'
 * own, frozen straight into place with no dense copy. Wider precisions
 * keep the dense q32 of freeze_weights.
 */
QuantizedWeights freeze_weights_padded(const float *w, std::size_t rows,
                                       std::size_t cols, unsigned bits);

/** The row stride freeze_weights_padded gives rows of @p cols: cols
 *  rounded up to a multiple of 64. */
constexpr std::size_t
padded_stride(std::size_t cols)
{
    return (cols + 63) / 64 * 64;
}

/**
 * Freeze a row-major [k][n] matrix into the transposed-B layout the
 * blocked matmul tile consumes: element (j, p) of the result is
 * q(w[p * n + j]), rows contiguous per output column. The scale is
 * chosen over the same k * n floats as the in-order variant.
 */
QuantizedWeights freeze_weights_transposed(const float *w, std::size_t k,
                                           std::size_t n, unsigned bits);

/**
 * Freeze the [outC][inC][kH][kW] weights of conv @p layer. At <= 8
 * bits q8 holds each filter channels-last, in (ky, kx, c) order:
 * element (f, c, ky, kx) lands at f * K + (ky * kW + kx) * inC + c,
 * the order of a patch copied from a channels-last plane. Wider
 * precisions keep storage order in q32. The scale is chosen over all
 * the weights, as freeze_weights chooses it.
 */
QuantizedWeights freeze_conv_weights(const Layer &layer, const float *w,
                                     unsigned bits);

/** A tensor together with its quantization parameters. */
struct QuantizedTensor
{
    Int8Tensor values{};
    lut::QuantParams qp;
};

/** Quantize a float tensor to @p bits with range taken from the data. */
QuantizedTensor quantize_tensor(const FloatTensor &input, unsigned bits);

/** Quantize a flat weight vector. */
std::vector<std::int8_t> quantize_weights(const std::vector<float> &w,
                                          lut::QuantParams &qp,
                                          unsigned bits);

/** Dequantize back to float. */
FloatTensor dequantize_tensor(const QuantizedTensor &input);

/**
 * Apply the paper's mixed-precision policy to @p net: layers stay
 * 8-bit when they are range-sensitive (first/last compute layers),
 * everything else drops to 4-bit.
 */
void apply_mixed_precision(Network &net);

/** Fraction of MACs executed at 4-bit under the current assignment. */
double fraction_macs_at_4bit(const Network &net);

} // namespace bfree::dnn

#endif // BFREE_DNN_QUANTIZE_HH
