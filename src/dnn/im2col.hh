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
 * The executor's int8 conv front is channels-last
 * (core/conv_front.hh). im2col_patch_i8, the CHW row-run patch copy,
 * is the byte oracle it is tested against, permuted to (ky, kx, c).
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
 * of the channels-last front.
 */
void im2col_patch_i8(const Layer &layer, const std::int8_t *qin,
                     unsigned oh, unsigned ow, std::int8_t *patch);

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
