/**
 * @file
 * Vectorized span kernels over the SoA datapath tables.
 *
 * These kernels are the steady-state inner loops of the tiered
 * execution engine: given two int8 operand spans and a memoized
 * lut::DatapathTable, they produce the wrapped int32 accumulator plus
 * the summed micro-op tallies — exactly the values the scalar tiered
 * loop in bce.cc used to accumulate element by element, so the caller
 * books identical statistics (and therefore identical energy) no
 * matter which ISA variant ran.
 *
 * One tally strategy serves every x86 level: products come from a
 * SIMD widening multiply and the micro-op tallies from the table's
 * verified 256-bin class-pair collapse (DatapathTable::pairDeltas).
 * The fold is computed in factored form — four per-class feature dot
 * products accumulated with byte shuffles and maddubs, mathematically
 * identical to materializing the 256-bin histogram and folding it
 * against pairDeltas(), but without the store-forwarding stalls a
 * binned counter array suffers on skewed class distributions. It
 * serves any table that reports productsExact() AND histogramExact(),
 * at 8 and 4 bits: 4-bit spans clamp (conv) or range-check (matmul)
 * their operands in registers first. Anything else — a poisoned LUT
 * row, a reference whose counts defeat the class collapse — runs the
 * scalar loop over the delta and product planes, which is also the
 * test oracle. NEON keeps its own widening-multiply kernel.
 *
 * Variant selection is runtime CPU dispatch (sim/cpuid): one binary
 * carries scalar, SSE4.2, AVX2, AVX-512, AVX512-VNNI, AMX-INT8 and
 * NEON paths,
 * and CI pins each via BFREE_FORCE_SCALAR / BFREE_FORCE_ISA to
 * differentially verify them all on one host.
 */

#ifndef BFREE_BCE_SIMD_KERNELS_HH
#define BFREE_BCE_SIMD_KERNELS_HH

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "lut/datapath_table.hh"
#include "lut/pwl.hh"

namespace bfree::bce::simd {

/** Everything a span kernel accumulates. */
struct SpanSums
{
    /** Wrapped int32 sum of per-pair products (identical to the
     *  truncated int64 accumulation of the scalar loop). */
    std::int32_t acc = 0;
    std::uint64_t lookups = 0; ///< LUT-row or ROM reads (table source).
    std::uint64_t shifts = 0;
    std::uint64_t adds = 0;    ///< Intra-multiply adds only.
    std::uint64_t cycles = 0;
    /** False when MatmulStrict found an out-of-domain operand; the
     *  caller must reproduce the legacy analyzer panic. */
    bool inRange = true;
    std::size_t firstOutOfRange = 0;
};

/** Domain handling for operands outside [-2^(bits-1), +2^(bits-1)]. */
enum class SpanSemantics
{
    /** Conv spans clamp 4-bit operands to [-8, 7] like the legacy
     *  dotProduct. */
    ConvClamp,
    /** Matmul spans must refuse out-of-domain operands (the legacy
     *  analyzer panics); the kernel reports the first offender. */
    MatmulStrict,
};

/**
 * Run the dispatched span kernel: sum of products and micro-op
 * tallies for a[i] * b[i], i in [0, len), served from @p table.
 * The table must be valid and cover both operand spans' precision.
 */
SpanSums run_span(const lut::DatapathTable &table, const std::int8_t *a,
                  const std::int8_t *b, std::size_t len,
                  SpanSemantics semantics);

/**
 * The gate of the gather-free tally, shared by span and tile dispatch:
 * productsExact() and histogramExact(). The Bce tile entry points take
 * the GEMM tile when this holds and both operand sides lie in the
 * table's domain (features_in_domain); run_span takes its histogram
 * kernels when this holds, handling the 4-bit domain itself.
 * Everything else runs the scalar (or NEON) span loop.
 */
bool histogram_eligible(const lut::DatapathTable &table);

// ---------------------------------------------------------------------
// M x N tile kernels (the Bce conv/matmul tile entry points)
// ---------------------------------------------------------------------
//
// A tile is M activation rows against N weight rows, all of length K
// and K-contiguous. Its micro-op tallies come from a rank-1 identity:
// each tally is bilinear in four per-operand class features f in
// {p, o, l, z} (see DatapathTable), so
//
//   sum_{m,n} sum_k f(x_mk) * f(w_nk) = sum_k F_x(k) * F_w(k)
//
// with F_x(k) = sum_m f(x_mk) and F_w(k) = sum_n f(w_nk). F_w of frozen
// weights is computed once at plan compile; F_x once per tile.
//
// The identity holds for any table whose deltas the class collapse
// verifies (histogramExact), but the GEMM only reproduces the per-span
// path when no operand needs the span's domain handling: 4-bit conv
// spans clamp to [-8, 7] and 4-bit matmul spans refuse anything
// outside [-8, 8]. The same pass that sums the features therefore also
// records the operand range, in one trailing word per array.

/** Class features per operand (p, o, l, z): the stride of the
 *  feature-sum arrays is feature_count * k words. */
constexpr std::size_t feature_count = 4;

/**
 * Column sums of the class features of a rows x k row-major int8 tile:
 * sums[f * k + c] = sum over rows r of feature f of tile[r][c], for
 * f = p, o, l, z in that order, then the operand range in
 * sums[feature_count * k] (feature_count * k + 1 words, overwritten).
 * The range is measured in-register in the same pass and always
 * includes 0. Dispatched on the active SIMD level through the
 * in-register classifier the histogram span kernels use.
 */
void class_feature_sums(const std::int8_t *tile, std::size_t rows,
                        std::size_t k, std::uint32_t *sums);

/**
 * True when every operand the class_feature_sums array @p sums (of a
 * k-column tile) was computed over lies in [lo, hi].
 */
bool features_in_domain(const std::uint32_t *sums, std::size_t k,
                        std::int32_t lo, std::int32_t hi);

/**
 * The micro-op tallies of a whole tile from its two feature-sum
 * arrays: lookups = L, shifts = P - O, adds = P - Z (intra-multiply
 * adds only) and cycles = cyclesFactor * P, where P, O, L, Z are the
 * feature dot products sum_k F_x(k) * F_w(k). acc stays 0.
 *
 * Feature f of @p fw is read at fw[f * fwStride + c], fwStride 0
 * meaning k, so columns [c0, c0 + k) of weight features frozen over
 * K columns fold as fold_tile_features(fx, fw + c0, k, factor, K).
 * Every tally is linear in the feature sums (wrapping mod 2^64), so
 * the folds of disjoint column ranges add up to the whole tile's.
 */
SpanSums fold_tile_features(const std::uint32_t *fx,
                            const std::uint32_t *fw, std::size_t k,
                            std::uint32_t cyclesFactor,
                            std::size_t fwStride = 0);

/**
 * Row sums of a rows x k row-major int8 tile, wrapped mod 2^32:
 * sums[r] = sum_c tile[r][c]. The bias correction of the VNNI GEMM
 * core, frozen per weight row at plan compile beside the class
 * features.
 */
void weight_row_sums(const std::int8_t *tile, std::size_t rows,
                     std::size_t k, std::int32_t *sums);

/**
 * Register-blocked int8 GEMM over K-contiguous operands:
 * out[i * rowStride + j] += sum_p a[i * k + p] * b[j * k + p], wrapped
 * mod 2^32 exactly like the span kernels' accumulators. Ragged K is
 * handled with masked or zero-filled tails, never by reading past a
 * row. One core per x86 level: AVX512-VNNI and AMX-INT8 run a 4x4
 * vpdpbusd block over the activation side biased to u8 (a + 128) and
 * subtract 128 * rowsum(b_j) afterwards; AVX-512 (4x4), AVX2 and
 * SSE4.2 (2x4) widen both sides to int16 and sum with madd; a scalar
 * loop serves the rest, NEON included. (The AMX tiles serve the conv
 * rows of conv_row_gemm.)
 *
 * @p bRowSums, when not null, holds weight_row_sums of the n rows of
 * b (frozen at plan compile); null makes the VNNI core compute them
 * per call. The other cores ignore it. @p rowStride 0 means n, the
 * row-major m x n output: the conv tile's [o.w][o.c] layout, each
 * output position's filters one contiguous run of its channels-last
 * output row. A block of columns [j0, j0 + n) of a wider row-major
 * output is gemm_i8(a, b + j0 * k, out + j0, m, k, n, sums + j0,
 * width).
 */
void gemm_i8(const std::int8_t *a, const std::int8_t *b,
             std::int32_t *out, std::size_t m, std::size_t k,
             std::size_t n, const std::int32_t *bRowSums = nullptr,
             std::size_t rowStride = 0);

// ---------------------------------------------------------------------
// The conv row GEMM over a channels-last int8 plane
// ---------------------------------------------------------------------
//
// A conv's input is staged as a zero-padded channels-last int8 plane
// (core/conv_front.hh). Output row oh's patch at position ow is
// kernelH runs of kernelW * C bytes, run ky at
//
//     plane + (oh sH + ky) rowBytes + ow sW C,
//
// so a 16-row AMX patch tile of kernel row ky and 64-byte step j is a
// strided load straight from the plane: row i at
// plane + (oh sH + ky) rowBytes + (ow0 + i) sW C + 64 j, stride sW C.
// The B panel holds the filters in the same order, kernelH groups of
// ceil(kernelW C / 64) zero-padded steps, so bytes past kernelW C in a
// step meet zero weights whatever the plane holds there.

/** Weight rows (filters) per B panel, and rows per AMX patch tile. */
constexpr std::size_t panel_width = 16;
/** K bytes per AMX step: one 64-byte patch-tile row. */
constexpr std::size_t panel_k_step = 64;
/** One panel step: 16 k-quads x 16 weight rows x 4 bytes. */
constexpr std::size_t panel_block_bytes = panel_width * panel_k_step;

/** The shape of one conv's output rows over its staged plane. */
struct ConvRows
{
    std::size_t channels = 0; ///< C: bytes per plane column.
    std::size_t rowBytes = 0; ///< Plane row stride.
    std::size_t kernelH = 0, kernelW = 0;
    std::size_t strideH = 0, strideW = 0;
    std::size_t outW = 0;    ///< Positions per output row: the GEMM's m.
    std::size_t filters = 0; ///< The GEMM's n.

    /** Bytes of one kernel row of a patch: kernelW * C. */
    std::size_t run() const { return kernelW * channels; }
    /** Patch length: kernelH * run(). */
    std::size_t k() const { return kernelH * run(); }
    /** 64-byte steps of one kernel row's panel group. */
    std::size_t
    groupSteps() const
    {
        return (run() + panel_k_step - 1) / panel_k_step;
    }
};

/**
 * Bytes past the start of plane row oh * sH that conv_row_gemm may
 * read for output row oh: the last patch tile's row, ceil(outW / 16) *
 * 16 - 1, at kernel row kernelH - 1 and through its last 64-byte step.
 * The plane buffer of a conv with o.h output rows spans at least
 * (o.h - 1) * sH * rowBytes plus this. The bytes past the staged plane
 * may hold anything: they meet zero panel bytes or feed tile rows past
 * outW, whose outputs are not stored.
 */
std::size_t conv_row_reach(const ConvRows &g);

/**
 * Bytes of the B panel of n filters of @p groups runs of @p run bytes:
 * ceil(n / 16) panels of groups * ceil(run / 64) steps of
 * panel_block_bytes.
 */
std::size_t panel_bytes(std::size_t n, std::size_t groups, std::size_t run);

/**
 * Pack the n filters @p b, each groups * run contiguous bytes, into
 * the B panel the AMX conv core reads (panel_bytes(n, groups, run)
 * bytes at @p panel). Byte p of group y of filter j is panel K byte
 * P = (y * ceil(run / 64)) * 64 + p, at panel j / 16, step P / 64, row
 * (P % 64) / 4, byte 4 (j % 16) + P % 4. Bytes past run in a group's
 * last step and rows past n are zero. Where run is a multiple of 64
 * the layout is the filters' K order itself.
 */
void pack_panel(const std::int8_t *b, std::size_t n, std::size_t groups,
                std::size_t run, std::int8_t *panel);

/**
 * The o.w patches of output row @p oh copied from @p plane: patch ow
 * is k() bytes at patches + ow * k(), kernelH runs of run() bytes
 * each, in (ky, kx, c) order. Reads only bytes of the plane's rows.
 */
void copy_patch_row(const ConvRows &g, const std::int8_t *plane,
                    std::size_t oh, std::int8_t *patches);

/**
 * True when conv_row_gemm, called with @p bPanel, loads its patch
 * tiles straight from the plane: the active level is AmxInt8 and the
 * conv has a panel. Otherwise it copies patch rows.
 */
bool conv_rows_read_plane(const std::int8_t *bPanel);

/**
 * Output row @p oh of a conv as one GEMM: out[ow * filters + j] +=
 * dot(patch ow, filter j), wrapped mod 2^32, for the g.outW patches of
 * the row and the g.filters filters @p b (k() bytes each). Where
 * conv_rows_read_plane(bPanel) holds, the AMX core runs 2x2 blocks of
 * 16 x 16 tdpbssd tiles with its patch tiles loaded straight from
 * @p plane (which must span conv_row_reach past row oh * sH). Every
 * other level copies the row's patches into @p patches (outW * k()
 * bytes) and runs gemm_i8 with @p bRowSums.
 */
void conv_row_gemm(const ConvRows &g, const std::int8_t *plane,
                   std::size_t oh, const std::int8_t *b,
                   const std::int32_t *bRowSums, const std::int8_t *bPanel,
                   std::int8_t *patches, std::int32_t *out);

// ---------------------------------------------------------------------
// Q8 epilogue kernels: ReLU, the conv/FC dequantize store, 2x2 max pool
// ---------------------------------------------------------------------
//
// The special-mode datapath works on activations in Q8 fixed point.
// The scalar forms below are the specification; the dispatched span
// kernels have an AVX-512 variant (every sim::has_avx512 level) and
// fall back to these loops everywhere else. Lanes the vector q8 cannot round in
// registers (|x * 256| >= 2^31, or NaN) take the scalar q8 per lane.

/**
 * static_cast<int32_t>(std::lround(x * 256)), the Q8 value of an
 * activation, without the libm call on the common path. Inside
 * (-2^31, 2^31) truncation is exact and so is the fractional part
 * (float(t) is exact: |t| < 2^24, or x * 256 is already integral), so
 * stepping away from zero on |frac| >= 0.5 is lround's
 * round-half-away. Everything else (huge, infinite, NaN) takes lround
 * itself, wrap-around included.
 */
inline std::int32_t
q8(float x)
{
    const float f = x * 256.0f;
    if (f > -2147483648.0f && f < 2147483648.0f) {
        const auto t = static_cast<std::int32_t>(f);
        const float frac = f - static_cast<float>(t);
        return t + (frac >= 0.5f) - (frac <= -0.5f);
    }
    return static_cast<std::int32_t>(std::lround(f));
}

/** ReLU in Q8: max(0, q8(x)) / 256. */
inline float
relu_q8(float x)
{
    const std::int32_t q = q8(x);
    return static_cast<float>(q > 0 ? q : 0) / 256.0f;
}

/** out[i] = relu_q8(in[i]) for i in [0, n); in == out is allowed. */
void relu_q8_span(const float *in, float *out, std::size_t n);

/**
 * The dequantize store of one contiguous run of a conv or FC tile: for
 * i in [0, n),
 *
 *   y = float((double(acc[i]) * wScale) * xScale) + bias[i * biasStride]
 *
 * in exactly that order (folding wScale * xScale first changes low
 * bits), and out[i] = y, or relu_q8(y) when @p relu (a ReLU folded
 * into the producer at plan compile). @p biasStride is 0 (one bias
 * for the run, a conv filter's) or 1 (one per element, FC).
 */
void dequantize_store(const std::int32_t *acc, std::size_t n,
                      double wScale, double xScale, const float *bias,
                      std::size_t biasStride, bool relu, float *out);

/**
 * Unpadded 2x2 / stride-2 max pooling in Q8 over channels-last (HWC)
 * activations: @p rows output rows from the 2 * rows input rows of
 * inW * channels floats at @p in,
 * out[(oh * outW + ow) * channels + c] = q8(max of the window) / 256
 * with outW = inW / 2 (an odd last column is dropped; the caller drops
 * an odd last row). A window's four taps are four contiguous runs of
 * the channels, so one step takes the elementwise max of four
 * 16-channel loads. Equal to the max of the four q8 values because q8
 * is monotone non-decreasing inside (-2^31, 2^31); a step holding NaN
 * or a value outside that range takes the per-tap scalar walk. Rows
 * are independent: disjoint row ranges may run on different threads.
 * Returns false, writing nothing, when the active level has no vector
 * form: the caller runs its generic window loop.
 */
bool max_pool_2x2_q8(const float *in, std::size_t rows, std::size_t inW,
                     std::size_t channels, float *out);

// ---------------------------------------------------------------------
// PWL span: sigmoid / tanh / exp over a run of activations
// ---------------------------------------------------------------------

/**
 * out[i] = table.evaluate(in[i]) for i in [0, n), bit for bit, NaN
 * lanes included (in == out is allowed), and true, at every
 * sim::has_avx512 level for n >= 8: eight lanes of the oracle's steps
 * with a gather of alpha and beta and a masked tail. Otherwise false and nothing
 * written: the caller (Bce::evaluatePwlSpan) runs the oracle loop.
 * Books nothing: the caller does.
 */
bool pwl_span(const lut::PwlTable &table, const double *in, double *out,
              std::size_t n);

} // namespace bfree::bce::simd

#endif // BFREE_BCE_SIMD_KERNELS_HH
