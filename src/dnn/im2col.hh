/**
 * @file
 * Convolution-to-matrix-multiplication transformation (Section IV-B).
 *
 * BFree chooses between direct convolution and the im2col matrix
 * formulation per layer: the matrix form exploits the matmul-mode BCE
 * (4 MACs/cycle) but replicates input elements, costing storage
 * proportional to kernel area / stride^2. The mapping layer uses
 * storage_expansion() for the mode decision; the functional transform
 * backs the conv == matmul equivalence tests.
 *
 * The int8 conv front end has one form, im2col elision: the executor
 * quantizes the input plane once per image and addresses every patch
 * in place through a strided bce::simd::SpanView (elision_layout,
 * stage_plane_i8, elided_offsets), compacting one output row of
 * patches per Bce::convTile. im2col_patch_i8, the row-run patch copy,
 * is the byte oracle the elided addressing is tested against.
 */

#ifndef BFREE_DNN_IM2COL_HH
#define BFREE_DNN_IM2COL_HH

#include <cstdint>
#include <vector>

#include "layer.hh"
#include "tensor.hh"

namespace bfree::dnn {

/**
 * Unroll the input feature map of @p layer into the im2col matrix of
 * shape [outH*outW][inC*kH*kW] (each row holds the receptive field of
 * one output position).
 */
FloatTensor im2col(const Layer &layer, const FloatTensor &input);

/**
 * Fill one im2col patch (length inC*kH*kW) for output position
 * (@p oh, @p ow) from a pre-quantized [c][h][w] int8 feature map.
 * Each (channel, kernel-row) contributes one contiguous kernelW-byte
 * run of the source row — copied as a span, with zero-fill where the
 * receptive field hangs over the padding — so the extraction is
 * memory-bandwidth work instead of a per-element index walk. Combined
 * with quantize_span over the whole input once, this is byte-identical
 * to the per-element quantize-in-the-loop patch fill (the quantizer is
 * a pure function, and a padded tap quantizes to 0). The test oracle
 * of the elided front end.
 */
void im2col_patch_i8(const Layer &layer, const std::int8_t *qin,
                     unsigned oh, unsigned ow, std::int8_t *patch);

// ---------------------------------------------------------------------
// Im2col elision: strided patch addressing over the quantized plane
// ---------------------------------------------------------------------

/**
 * Shape of the elided front end for one conv layer: every patch is
 * nRuns runs of runLen bytes, each run a window into an addressed
 * plane — the quantized input itself for pad-free layers, or a
 * zero-padded copy staged ONCE per image for padded ones. Run i of
 * the patch at output position (oh, ow) starts at plane byte
 *
 *     offsets[i] + oh * strideH * rowBytes + ow * strideW
 *
 * with offsets filled once per layer by elided_offsets: the (oh, ow)
 * shift is uniform across runs, so per output row only the view base
 * moves — no per-row staging or offset rebuild. The executor sizes
 * its arena scratch from these fields; plan_shapes uses the same
 * struct so the ledger cannot disagree.
 */
struct ElisionLayout
{
    /** True when padding forces the reads through a staged zero-padded
     *  plane copy (padded columns and clipped rows become literal zero
     *  bytes there). Pad-free layers read the plane in place. */
    bool staged = false;
    /** Row stride of the addressed plane: inW + 2*padW staged, inW
     *  in place. */
    std::size_t rowBytes = 0;
    /** Rows per channel of the addressed plane: inH + 2*padH staged,
     *  inH in place. */
    std::size_t planeRows = 0;
    std::size_t nRuns = 0;       ///< inC * kernelH runs per patch.
    std::size_t runLen = 0;      ///< kernelW bytes per run.
    /** inC * planeRows * rowBytes when staged, else 0. */
    std::size_t stagingBytes = 0;
};

/** The elided addressing shape of @p layer (conv only). */
ElisionLayout elision_layout(const Layer &layer);

/**
 * Stage the whole zero-padded plane once per image: for each channel,
 * planeRows rows of rowBytes with the padW columns and padH rows as
 * literal zero bytes around the quantized input rows. Only meaningful
 * for staged layouts.
 */
void stage_plane_i8(const Layer &layer, const std::int8_t *qin,
                    std::int8_t *staging);

/**
 * Fill the per-run byte offsets of the (oh, ow) = (0, 0) patch into
 * the addressed plane: offsets[i = (c, r)] = (c * planeRows + r) *
 * rowBytes. Valid for staged and in-place layouts alike (rowBytes and
 * planeRows differ); output position (oh, ow) adds the uniform
 * oh * strideH * rowBytes + ow * strideW.
 */
void elided_offsets(const Layer &layer, std::int32_t *offsets);

/**
 * Reshape conv weights [outC][inC][kH][kW] into the [inC*kH*kW][outC]
 * matrix used by the matmul formulation.
 */
FloatTensor weights_to_matrix(const Layer &layer,
                              const std::vector<float> &weights);

/**
 * Ratio of unrolled input storage to the original feature map
 * (>= 1; the wasted-copies factor the paper mentions in Fig. 9(c)).
 */
double storage_expansion(const Layer &layer);

/** Bytes of the unrolled input matrix at the layer's precision. */
std::uint64_t unrolled_input_bytes(const Layer &layer);

} // namespace bfree::dnn

#endif // BFREE_DNN_IM2COL_HH
