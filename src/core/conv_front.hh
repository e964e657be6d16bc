/**
 * @file
 * The channels-last front of the <= 8-bit conv.
 *
 * The paper lays a conv's operands out with the channels along the
 * reduction ("filters across columns, channels across rows"). The
 * executor does the same on the host: activations travel between the
 * plan's spatial layers channels-last (HWC floats, NetworkPlan's
 * ActLayout), so a conv quantizes each input row with one contiguous
 * span into a zero-padded HWC int8 plane, and kernel row
 * ky of the patch at output column ow is one contiguous run of
 * kernelW * inC bytes. The frozen filters are stored in the same
 * (ky, kx, c) order (dnn::freeze_conv_weights). Each output row is one
 * bce::simd::conv_row_gemm: at the AMX level its patch tiles are
 * strided loads straight from the plane, row i of kernel row ky's
 * tile at plane + (oh sH + ky) rowBytes + (ow0 + i) sW inC, against
 * a filter panel of kernelH zero-padded 64-byte groups (so the plane
 * buffer carries the loads' read slack, plane_buffer_bytes); every
 * other level copies the row's patches, kernelH runs each, and meets
 * patch and filter as two K-contiguous rows.
 *
 * The activation side of the tile tally is computed once per layer
 * from the staged plane instead of once per copied patch row. The
 * feature sum of tap (ky, kx, c) over every output position is
 *
 *     F_x(ky, kx, c) = sum_{oh, ow} f(plane[ky + oh sH][kx + ow sW][c])
 *
 * A staged row is G column groups of sW columns. With kx = q sW + phi,
 * the columns kx + ow sW are the phase-phi columns of groups q ..
 * q + oW - 1, so F_x is the phase-phi sum over all G groups minus the
 * phase-phi columns of the q groups before and of the groups after
 * them: the row's few edge columns. Each staged row is classified
 * once: bands of consecutive rows read by the same kernel rows (every
 * interior row at stride 1) take one bce::simd::class_feature_sums
 * call over the band viewed as groups of sW * inC bytes, and one over
 * its edge columns, and the sums go to the accumulator of every kernel
 * row that reads the band. The sums are integer and the tally is
 * bilinear in them, so one fold per layer books exactly what one fold
 * per patch row booked. Padding is staged as literal zeros and
 * contributes f(0) on its own.
 */

#ifndef BFREE_CORE_CONV_FRONT_HH
#define BFREE_CORE_CONV_FRONT_HH

#include <cstddef>
#include <cstdint>

#include "bce/simd_kernels.hh"
#include "dnn/layer.hh"
#include "dnn/quantize.hh"

namespace bfree::core {

/** Shape of the channels-last staging plane of one conv layer. */
struct HwcPlane
{
    /** inH + 2 padH: plane rows, the padding rows included. */
    std::size_t rows = 0;
    /** Columns per row: inW + 2 padW, widened to oW * strideW when a
     *  kernel narrower than its stride leaves the last window short,
     *  and rounded up to whole strideW groups (the feature pass reads
     *  whole groups). The widening is zero bytes no patch reads. */
    std::size_t cols = 0;
    /** inC: bytes per column. */
    std::size_t channels = 0;

    std::size_t rowBytes() const { return cols * channels; }
    std::size_t bytes() const { return rows * rowBytes(); }
};

/** The staging plane of conv @p layer. */
HwcPlane hwc_plane(const dnn::Layer &layer);

/**
 * Quantize through @p q and stage plane rows [r0, r1) of @p layer
 * into @p plane from the channels-last input @p in: padding rows and
 * columns as zero bytes, and between them input row r - padH, one
 * dnn::quantize_span over its inW * inC contiguous floats. Disjoint
 * row ranges may be staged on different threads.
 */
void stage_hwc_rows(const dnn::Layer &layer, const dnn::SymQuant &q,
                    const float *in, std::size_t r0, std::size_t r1,
                    std::int8_t *plane);

/** The GEMM shape of @p layer's output rows over its staged plane. */
bce::simd::ConvRows conv_rows(const dnn::Layer &layer);

/**
 * Bytes of the plane buffer of @p layer: the staged plane and, past
 * it, the read slack of the AMX core's patch tiles
 * (bce::simd::conv_row_reach from the last output row's top plane
 * row). The slack is never staged; what it holds reaches no output.
 */
std::size_t plane_buffer_bytes(const dnn::Layer &layer);

/** Bytes of one output row's patch buffer: the o.w patches
 *  bce::simd::copy_patch_row writes. */
std::size_t patch_row_bytes(const dnn::Layer &layer);

/** Words of one thread's tap-feature accumulator (classify_hwc_rows). */
std::size_t tap_feature_words(const dnn::Layer &layer);

/** Scratch words classify_hwc_rows takes beside the accumulator. */
std::size_t tap_feature_scratch_words(const dnn::Layer &layer);

/**
 * Classify the staged plane rows [r0, r1) of @p layer and add their
 * phase and edge-column feature sums into the accumulator @p acc
 * (tap_feature_words, zeroed by the caller before the first call) of
 * every kernel row whose output rows read them. Rows no output reads
 * are skipped. One accumulator per thread, summed by
 * sum_tap_features.
 */
void classify_hwc_rows(const dnn::Layer &layer, const std::int8_t *plane,
                       std::size_t r0, std::size_t r1, std::uint32_t *acc,
                       std::uint32_t *scratch);

/**
 * @p acc += @p other over the words [w0, w1) of two tap-feature
 * accumulators (tap_feature_words each), mod 2^32. The sums are
 * order-free, so disjoint word ranges may be summed on different
 * threads.
 */
void sum_tap_features(std::uint32_t *acc, const std::uint32_t *other,
                      std::size_t w0, std::size_t w1);

/**
 * F_x of the whole layer from the summed accumulator @p acc:
 * fx[f * K + (ky * kernelW + kx) * inC + c] for the four class
 * features f, the activation-side feature sums a tile of all oH * oW
 * patches would have (bce::simd::class_feature_sums without its range
 * word).
 */
void tap_features(const dnn::Layer &layer, const std::uint32_t *acc,
                  std::uint32_t *fx);

} // namespace bfree::core

#endif // BFREE_CORE_CONV_FRONT_HH
