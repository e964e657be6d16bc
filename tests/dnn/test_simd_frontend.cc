/**
 * @file
 * Differential proof that the vectorized front half of the tiered
 * datapath — quantize_span and the row-run im2col patch extraction —
 * is byte-identical to the scalar reference at every SIMD level this
 * binary carries: random and tie-boundary values, ragged span lengths
 * straddling every vector width, misaligned buffers, and conv shapes
 * with odd extents and stride/pad edges. Exactness here is what lets
 * the whole pipeline claim bit-parity with the legacy path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bce/simd_kernels.hh"
#include "dnn/im2col.hh"
#include "dnn/layer.hh"
#include "dnn/quantize.hh"
#include "dnn/tensor.hh"
#include "sim/cpuid.hh"
#include "sim/random.hh"
#include "simd_levels.hh"

using namespace bfree;
using namespace bfree::dnn;
using bfree::test::for_each_runnable_level;

namespace {

/** Element-by-element scalar reference of quantize_span. */
std::vector<std::int8_t>
quantize_scalar(const SymQuant &sq, const float *in, std::size_t n)
{
    std::vector<std::int8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::int8_t>(sq.q(in[i]));
    return out;
}

void
expect_span_matches_scalar(const SymQuant &sq,
                           const std::vector<float> &in,
                           const std::string &ctx)
{
    const std::vector<std::int8_t> want =
        quantize_scalar(sq, in.data(), in.size());
    std::vector<std::int8_t> got(in.size() + 1, 127);
    quantize_span(sq, in.data(), in.size(), got.data());
    for (std::size_t i = 0; i < in.size(); ++i)
        ASSERT_EQ(want[i], got[i]) << ctx << " element " << i << " = "
                                   << in[i];
    EXPECT_EQ(127, got[in.size()]) << ctx << " wrote past the span";
}

} // namespace

// ---------------------------------------------------------------------
// quantize_span
// ---------------------------------------------------------------------

TEST(QuantizeSpan, RandomValuesExactAtEveryLevel)
{
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        sim::Rng rng(91);
        for (const double scale : {0.013, 1.0, 0.7311}) {
            SymQuant sq;
            sq.scale = scale;
            std::vector<float> in(1000);
            for (float &v : in)
                v = static_cast<float>(rng.uniformReal(-3.0, 3.0));
            expect_span_matches_scalar(sq, in, ctx);
        }
    });
}

TEST(QuantizeSpan, TieBoundariesExactAtEveryLevel)
{
    // Values landing exactly on .5 multiples of the scale are where a
    // naive add-then-truncate rounding diverges from lround; pin them
    // alongside signed zeros and clamp-edge values.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        SymQuant sq;
        sq.scale = 0.25; // ties representable exactly in binary
        std::vector<float> in;
        for (int k = -300; k <= 300; ++k)
            in.push_back(static_cast<float>(k) * 0.125f);
        in.push_back(0.0f);
        in.push_back(-0.0f);
        in.push_back(1000.0f);  // far past the clamp
        in.push_back(-1000.0f);
        expect_span_matches_scalar(sq, in, ctx);
    });
}

TEST(QuantizeSpan, RaggedLengthsExactAtEveryLevel)
{
    // Lengths 0..67 straddle the 4/8/16-lane widths and every tail
    // remainder shape.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        sim::Rng rng(92);
        SymQuant sq;
        sq.scale = 0.05;
        for (std::size_t len = 0; len <= 67; ++len) {
            std::vector<float> in(len);
            for (float &v : in)
                v = static_cast<float>(rng.uniformReal(-8.0, 8.0));
            expect_span_matches_scalar(
                sq, in, ctx + " len " + std::to_string(len));
        }
    });
}

TEST(QuantizeSpan, MisalignedBuffersExactAtEveryLevel)
{
    // The span contract promises arbitrary alignment: shift both the
    // float source and the int8 destination off every natural
    // boundary.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        sim::Rng rng(93);
        SymQuant sq;
        sq.scale = 0.031;
        std::vector<float> backing(256 + 16);
        for (float &v : backing)
            v = static_cast<float>(rng.uniformReal(-4.0, 4.0));
        for (std::size_t off = 0; off < 8; ++off) {
            const float *src = backing.data() + off;
            const std::size_t n = 128 + off;
            const std::vector<std::int8_t> want =
                quantize_scalar(sq, src, n);
            std::vector<std::int8_t> sink(n + 16, 0);
            std::int8_t *dst = sink.data() + (off % 5) + 1;
            quantize_span(sq, src, n, dst);
            ASSERT_EQ(0, std::memcmp(want.data(), dst, n))
                << ctx << " offset " << off;
        }
    });
}

TEST(ChooseSym, MaxAbsScanExactAtEveryLevel)
{
    // The vector max-abs scan must pick the scale the scalar
    // std::max(peak, |x|) loop picks: NaN skipped, -0.0 and denormals
    // below the 1e-9 floor, inf winning, in every lane and ragged tail
    // (lengths 0-40), and in the four-accumulator loop (64 and up).
    const auto scalar_peak = [](const std::vector<float> &v) {
        float peak = 1e-9f;
        for (const float x : v)
            peak = std::max(peak, std::abs(x));
        return peak;
    };
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              -0.0f,
                              std::numeric_limits<float>::denorm_min(),
                              -1e-39f,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
    sim::Rng rng(31);
    for_each_runnable_level([&](sim::SimdLevel level) {
        std::vector<std::size_t> lengths;
        for (std::size_t n = 0; n <= 40; ++n)
            lengths.push_back(n);
        for (const std::size_t n : {63, 64, 65, 130, 200})
            lengths.push_back(n);
        for (const std::size_t n : lengths) {
            std::vector<float> v(n);
            for (float &x : v)
                x = static_cast<float>(rng.uniformReal(-1.0, 1.0));
            // Every special at every position, one at a time, then
            // a vector of nothing but the non-infinite ones.
            for (std::size_t k = 0; k <= std::size(specials); ++k) {
                for (std::size_t at = 0; at < std::max<std::size_t>(n, 1);
                     ++at) {
                    std::vector<float> w = v;
                    if (k < std::size(specials) && n > 0)
                        w[at] = specials[k];
                    else if (k == std::size(specials))
                        for (std::size_t i = 0; i < n; ++i)
                            w[i] = specials[i % 5];
                    for (const unsigned bits : {4u, 8u, 16u}) {
                        const SymQuant got =
                            choose_sym(w.data(), w.size(), bits);
                        const std::int32_t limit = (1 << (bits - 1)) - 1;
                        const double want = scalar_peak(w) / limit;
                        ASSERT_EQ(got.limit, limit);
                        std::uint64_t x, y;
                        std::memcpy(&x, &got.scale, 8);
                        std::memcpy(&y, &want, 8);
                        ASSERT_EQ(x, y)
                            << sim::simd_level_name(level) << " n=" << n
                            << " special " << k << " at " << at;
                    }
                }
            }
        }
    });
}

TEST(QuantizeSpanDeath, WideLimitPanics)
{
    // The int8 span form cannot represent 16-bit quantization; the
    // caller keeps the legacy truncating loop there instead.
    SymQuant sq;
    sq.limit = 32767;
    const float v = 1.0f;
    std::int8_t out = 0;
    EXPECT_DEATH(quantize_span(sq, &v, 1, &out),
                 "exceeds the int8 domain");
}

// ---------------------------------------------------------------------
// im2col patch extraction
// ---------------------------------------------------------------------

namespace {

/**
 * The legacy per-element patch fill the row-run form replaced: walk
 * (c, kh, kw), quantizing each in-bounds tap and zeroing padding.
 * Padded taps quantize to 0 because q(0) == 0 for every scale.
 */
void
reference_patch(const Layer &l, const SymQuant &sq, const float *in,
                unsigned oh, unsigned ow, std::int8_t *patch)
{
    std::size_t idx = 0;
    for (unsigned c = 0; c < l.input.c; ++c) {
        for (unsigned r = 0; r < l.kernelH; ++r) {
            for (unsigned s = 0; s < l.kernelW; ++s) {
                const int ih = static_cast<int>(oh * l.strideH + r)
                               - static_cast<int>(l.padH);
                const int iw = static_cast<int>(ow * l.strideW + s)
                               - static_cast<int>(l.padW);
                float v = 0.0f;
                if (ih >= 0 && ih < static_cast<int>(l.input.h)
                    && iw >= 0 && iw < static_cast<int>(l.input.w))
                    v = in[(static_cast<std::size_t>(c) * l.input.h
                            + static_cast<std::size_t>(ih))
                               * l.input.w
                           + static_cast<std::size_t>(iw)];
                patch[idx++] = static_cast<std::int8_t>(sq.q(v));
            }
        }
    }
}

void
expect_patches_match(const Layer &l, const std::string &ctx)
{
    sim::Rng rng(94);
    const std::size_t in_elems = l.input.elements();
    std::vector<float> in(in_elems);
    for (float &v : in)
        v = static_cast<float>(rng.uniformReal(-2.0, 2.0));

    SymQuant sq;
    sq.scale = 0.02;

    // The production pipeline: quantize the whole plane once, then
    // extract int8 patches with the row-run copies.
    std::vector<std::int8_t> qin(in_elems);
    quantize_span(sq, in.data(), in_elems, qin.data());

    const std::size_t patch_len =
        std::size_t(l.input.c) * l.kernelH * l.kernelW;
    std::vector<std::int8_t> got(patch_len), want(patch_len);
    const FeatureShape out = l.outputShape();
    for (unsigned oh = 0; oh < out.h; ++oh) {
        for (unsigned ow = 0; ow < out.w; ++ow) {
            im2col_patch_i8(l, qin.data(), oh, ow, got.data());
            reference_patch(l, sq, in.data(), oh, ow, want.data());
            ASSERT_EQ(0,
                      std::memcmp(want.data(), got.data(), patch_len))
                << ctx << " patch (" << oh << ", " << ow << ")";
        }
    }
}

} // namespace

TEST(Im2ColPatchI8, RaggedShapesExactAtEveryLevel)
{
    // Odd extents, stride/pad edges, kernels larger than the padded
    // border, channel counts off every lane multiple, and asymmetric
    // kernels. Each case runs at every SIMD level because the
    // quantized plane feeding the patch walk comes from quantize_span.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        const Layer cases[] = {
            make_conv("odd", {3, 7, 7}, 4, 3, 1, 1),
            make_conv("stride", {5, 9, 9}, 4, 3, 2, 0),
            make_conv("pad2", {2, 5, 5}, 4, 5, 1, 2),
            make_conv("tiny", {1, 1, 1}, 1, 1, 1, 0),
            make_conv("lanes", {17, 6, 6}, 4, 3, 1, 1),
            make_conv("wide-pad", {3, 4, 4}, 2, 4, 3, 3),
            make_conv("k-gt-input", {2, 3, 3}, 2, 5, 1, 2),
            make_conv("stride3", {3, 11, 11}, 2, 2, 3, 0),
            make_conv2("asym", {3, 8, 5}, 2, 1, 7, 1, 0, 3),
            make_conv2("asym2", {2, 9, 9}, 2, 7, 1, 2, 3, 0),
            make_conv2("asym-pad", {2, 6, 6}, 2, 3, 3, 2, 2, 0),
        };
        for (const Layer &l : cases)
            expect_patches_match(l, ctx + " " + l.name);
    });
}

TEST(Im2ColFloat, RowRunMatchesElementwiseReferenceExactly)
{
    // The float im2col must stay bitwise equal to the elementwise
    // walk (memcpy moves the very same values), not merely close.
    const Layer cases[] = {
        make_conv("c1", {3, 7, 7}, 4, 3, 1, 1),
        make_conv("c2", {2, 5, 5}, 4, 5, 2, 2),
        make_conv2("c3", {3, 8, 5}, 2, 1, 7, 1, 0, 3),
    };
    for (const Layer &l : cases) {
        sim::Rng rng(95);
        FloatTensor input({l.input.c, l.input.h, l.input.w});
        input.fillUniform(rng, -1.0, 1.0);

        const FloatTensor got = im2col(l, input);

        const FeatureShape out = l.outputShape();
        const std::size_t patch_len =
            std::size_t(l.input.c) * l.kernelH * l.kernelW;
        for (unsigned oh = 0; oh < out.h; ++oh) {
            for (unsigned ow = 0; ow < out.w; ++ow) {
                const std::size_t row =
                    std::size_t(oh) * out.w + ow;
                std::size_t idx = 0;
                for (unsigned c = 0; c < l.input.c; ++c) {
                    for (unsigned r = 0; r < l.kernelH; ++r) {
                        for (unsigned s = 0; s < l.kernelW; ++s) {
                            const int ih =
                                static_cast<int>(oh * l.strideH + r)
                                - static_cast<int>(l.padH);
                            const int iw =
                                static_cast<int>(ow * l.strideW + s)
                                - static_cast<int>(l.padW);
                            float want = 0.0f;
                            if (ih >= 0
                                && ih < static_cast<int>(l.input.h)
                                && iw >= 0
                                && iw < static_cast<int>(l.input.w))
                                want = input.at(
                                    c, static_cast<unsigned>(ih),
                                    static_cast<unsigned>(iw));
                            ASSERT_EQ(want, got.at(row, idx))
                                << l.name << " (" << oh << "," << ow
                                << ") tap " << idx;
                            ++idx;
                        }
                    }
                }
                ASSERT_EQ(patch_len, idx);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Elided addressing: SpanView materialization over the staged plane
// ---------------------------------------------------------------------

namespace {

/** The conv shapes the elided addressing must reproduce: stride > 1,
 *  stride > kernel (disjoint windows), asymmetric kernels AND
 *  paddings, kernels larger than the input, 1x1, and lane-straddling
 *  channel counts. */
std::vector<Layer>
frontend_cases()
{
    return {
        make_conv("odd", {3, 7, 7}, 4, 3, 1, 1),
        make_conv("stride", {5, 9, 9}, 4, 3, 2, 0),
        make_conv("stride3", {3, 11, 11}, 2, 2, 3, 0),
        make_conv("pad2", {2, 5, 5}, 4, 5, 1, 2),
        make_conv("tiny", {1, 1, 1}, 1, 1, 1, 0),
        make_conv("one-by-one", {9, 5, 5}, 3, 1, 1, 0),
        make_conv("lanes", {17, 6, 6}, 4, 3, 1, 1),
        make_conv("k-gt-input", {2, 3, 3}, 2, 5, 1, 2),
        make_conv2("asym", {3, 8, 5}, 2, 1, 7, 1, 0, 3),
        make_conv2("asym-pad", {2, 6, 6}, 2, 3, 3, 2, 2, 0),
    };
}

using bce::simd::SpanView;

/** Run the whole elided pipeline for @p l and compare every patch of
 *  the row-block materialize_span_block against im2col_patch_i8. */
void
expect_elision_matches(const Layer &l, const std::string &ctx)
{
    constexpr std::size_t slack = SpanView::slackBytes;
    sim::Rng rng(97);
    const std::size_t in_elems = l.input.elements();
    std::vector<float> in(in_elems);
    for (float &v : in)
        v = static_cast<float>(rng.uniformReal(-2.0, 2.0));

    SymQuant sq;
    sq.scale = 0.02;
    std::vector<std::int8_t> qin(in_elems + slack, 0);
    quantize_span(sq, in.data(), in_elems, qin.data());

    const ElisionLayout el = elision_layout(l);
    std::vector<std::int8_t> staging;
    const std::int8_t *plane = qin.data();
    if (el.staged) {
        staging.assign(el.stagingBytes + slack, 55);
        stage_plane_i8(l, qin.data(), staging.data());
        plane = staging.data();
    }
    std::vector<std::int32_t> offsets(el.nRuns);
    elided_offsets(l, offsets.data());

    SpanView view;
    view.offsets = offsets.data();
    view.nRuns = el.nRuns;
    view.runLen = el.runLen;

    const std::size_t patch_len =
        std::size_t(l.input.c) * l.kernelH * l.kernelW;
    ASSERT_EQ(patch_len, view.len()) << ctx;
    const FeatureShape out = l.outputShape();
    std::vector<std::int8_t> want(patch_len);
    std::vector<std::int8_t> row(std::size_t(out.w) * patch_len
                                 + slack);
    for (unsigned oh = 0; oh < out.h; ++oh) {
        view.base = plane
                    + std::size_t(oh) * l.strideH * el.rowBytes;
        bce::simd::materialize_span_block(view, out.w, l.strideW,
                                          row.data(), patch_len);
        for (unsigned ow = 0; ow < out.w; ++ow) {
            im2col_patch_i8(l, qin.data(), oh, ow, want.data());
            ASSERT_EQ(0,
                      std::memcmp(want.data(),
                                  row.data()
                                      + std::size_t(ow) * patch_len,
                                  patch_len))
                << ctx << " " << l.name << " block (" << oh << ","
                << ow << ")";
        }
    }
}

} // namespace

TEST(SpanViewElision, ReproducesPatchBytesAtEveryLevel)
{
    // Staged (padded) and in-place layouts, against the row-run patch
    // copies the span kernels otherwise consume.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        for (const Layer &l : frontend_cases())
            expect_elision_matches(l, ctx);
    });
}

TEST(SpanViewBlock, SpillStaysInsidePatchSlots)
{
    // The transposed block loop's regression shape: 3-byte runs in a
    // 9-byte patch slot (one input channel, 3x3, stride 2), where an
    // 8-byte copy from run 1 on would cross into the NEXT patch's
    // already-written bytes. Every byte of every slot must match
    // im2col_patch_i8.
    const Layer l = make_conv("spill", {1, 11, 11}, 1, 3, 2, 0);
    constexpr std::size_t slack = SpanView::slackBytes;
    const ElisionLayout el = elision_layout(l);
    ASSERT_FALSE(el.staged);
    ASSERT_EQ(el.runLen, 3u);
    std::vector<std::int8_t> plane(l.input.elements() + slack);
    for (std::size_t i = 0; i < plane.size(); ++i)
        plane[i] = static_cast<std::int8_t>(i * 7 + 3);
    std::vector<std::int32_t> offsets(el.nRuns);
    elided_offsets(l, offsets.data());

    SpanView view;
    view.base = plane.data();
    view.offsets = offsets.data();
    view.nRuns = el.nRuns;
    view.runLen = el.runLen;

    const std::size_t patchLen = view.len();
    const std::size_t nPatches = l.outputShape().w;
    std::vector<std::int8_t> got(nPatches * patchLen + slack, 0);
    bce::simd::materialize_span_block(view, nPatches, l.strideW,
                                      got.data(), patchLen);
    std::vector<std::int8_t> want(patchLen);
    for (std::size_t ow = 0; ow < nPatches; ++ow) {
        im2col_patch_i8(l, plane.data(), 0, ow, want.data());
        ASSERT_EQ(0, std::memcmp(want.data(), &got[ow * patchLen],
                                 patchLen))
            << "patch " << ow;
    }
}
