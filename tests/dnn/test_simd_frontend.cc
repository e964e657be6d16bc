/**
 * @file
 * Differential proof that the vectorized front half of the tiered
 * datapath — quantize_span, the row-run im2col patch extraction and
 * the channels-last front (staged plane, Kh-run patch copies, per-layer
 * tap features) — is byte-identical to the scalar reference at every
 * SIMD level this binary carries: random and tie-boundary values,
 * ragged span lengths straddling every vector width, misaligned
 * buffers, and conv shapes with odd extents and stride/pad edges.
 * Exactness here is what lets the whole pipeline claim bit-parity with
 * the legacy path.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bce/simd_kernels.hh"
#include "core/conv_front.hh"
#include "core/network_plan.hh"
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
    // remainder shape. Lengths 0..33 also rotate a .5 tie, a value one
    // ulp either side of it and a clamped value through each lane, so
    // every width's tail step meets each of them, at the int8 and the
    // 4-bit clamp.
    std::vector<float> pool;
    for (int k = -9; k <= 9; k += 2) {
        const float tie = static_cast<float>(k) * 0.125f; // x = k / 2
        pool.push_back(tie);
        pool.push_back(std::nextafter(tie, 0.0f));
        pool.push_back(std::nextafter(tie, 2.0f * tie));
    }
    for (const float v : {31.875f, -31.875f, 1000.0f, -1000.0f, 0.0f,
                          -0.0f})
        pool.push_back(v);
    for_each_runnable_level([&](sim::SimdLevel level) {
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
        sq.scale = 0.25;
        for (const std::int32_t limit : {127, 7}) {
            sq.limit = limit;
            for (std::size_t len = 0; len <= 33; ++len) {
                for (std::size_t r = 0; r < pool.size(); ++r) {
                    std::vector<float> in(len);
                    for (std::size_t i = 0; i < len; ++i)
                        in[i] = pool[(i + r) % pool.size()];
                    expect_span_matches_scalar(
                        sq, in,
                        ctx + " limit " + std::to_string(limit) + " len "
                            + std::to_string(len) + " rotation "
                            + std::to_string(r));
                }
            }
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

TEST(QuantizeSpan, GuardBandNeighboursExactAtEveryLevel)
{
    // The AVX-512 core rounds v times the float reciprocal of the scale
    // and keeps it outside a guard band around each half-integer; this
    // pins the band at the scales sym_for_peak gives (peak / 127 and
    // peak / 7, none a power of two): values within 3 ulp of
    // (k + 1/2) * scale for every k through the clamp, each alone in
    // every lane of a 16-lane vector among values far from any tie, and
    // in ragged tails; plus NaN, infinities, subnormals and values far
    // past the peak, which take the double divide.
    const float peaks[] = {1e-9f, 0.37f, 1.0f, 2.718f, 123.456f, 6.1e4f};
    for_each_runnable_level([&](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        for (const float peak : peaks) {
            for (const unsigned bits : {8u, 4u}) {
                const SymQuant sq = sym_for_peak(peak, bits);
                std::vector<float> pool;
                for (int k = -sq.limit - 2; k <= sq.limit + 1; ++k) {
                    float v = static_cast<float>((k + 0.5) * sq.scale);
                    for (int u = 0; u < 3; ++u)
                        v = std::nextafter(v, -INFINITY);
                    for (int u = -3; u <= 3; ++u) {
                        pool.push_back(v);
                        v = std::nextafter(v, INFINITY);
                    }
                }
                const float inf = std::numeric_limits<float>::infinity();
                for (const float v :
                     {std::numeric_limits<float>::quiet_NaN(),
                      -std::numeric_limits<float>::quiet_NaN(), inf, -inf,
                      std::numeric_limits<float>::denorm_min(),
                      -std::numeric_limits<float>::denorm_min(), 1e-40f,
                      -1e-41f, std::numeric_limits<float>::min(),
                      std::numeric_limits<float>::max(),
                      -std::numeric_limits<float>::max(), peak * 1.01f,
                      -peak * 2.0f, peak * 1e3f, -peak * 1e30f})
                    pool.push_back(v);
                // Whole multiples of the scale: a quarter from every
                // half-integer, outside any band.
                const auto calm = [&](std::size_t i) {
                    return static_cast<float>(
                        (static_cast<int>(i % 9) - 4) * sq.scale);
                };
                std::vector<float> in;
                for (const float v : pool)
                    for (std::size_t lane = 0; lane < 16; ++lane)
                        for (std::size_t i = 0; i < 16; ++i)
                            in.push_back(i == lane ? v : calm(i + lane));
                const std::string where = ctx + " peak "
                                          + std::to_string(peak) + " bits "
                                          + std::to_string(bits);
                expect_span_matches_scalar(sq, in, where);
                // Ragged tails: one whole vector, then t < 16 pool values.
                for (std::size_t t = 1; t < 16; ++t)
                    for (std::size_t at = 0; at < pool.size(); at += t) {
                        std::vector<float> span;
                        for (std::size_t i = 0; i < 16; ++i)
                            span.push_back(calm(i));
                        for (std::size_t i = at;
                             i < std::min(at + t, pool.size()); ++i)
                            span.push_back(pool[i]);
                        expect_span_matches_scalar(
                            sq, span,
                            where + " tail " + std::to_string(t) + " at "
                                + std::to_string(at));
                    }
            }
        }
    });
}

TEST(QuantizeSpan, NonFiniteAndHugeSaturateAsTheScalarQuantizer)
{
    // SymQuant::q saturates quotients at or past the limit, infinities
    // included, and sends NaN to -limit; every level agrees.
    SymQuant sq;
    sq.scale = 0.5;
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(127, sq.q(inf));
    EXPECT_EQ(-127, sq.q(-inf));
    EXPECT_EQ(127, sq.q(1e30f));
    EXPECT_EQ(-127, sq.q(-1e30f));
    EXPECT_EQ(-127, sq.q(std::numeric_limits<float>::quiet_NaN()));
    EXPECT_EQ(127, sq.q(63.25f));
    EXPECT_EQ(126, sq.q(62.99f));
    EXPECT_EQ(-1, sq.q(-0.25f)); // -0.5 rounds away from zero
    for_each_runnable_level([&](sim::SimdLevel level) {
        expect_span_matches_scalar(
            sq,
            {inf, -inf, 1e30f, -1e30f,
             std::numeric_limits<float>::quiet_NaN(), 63.25f, 62.99f,
             -0.25f, 0.25f, 3e38f, -3e38f},
            sim::simd_level_name(level));
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
// The channels-last front: staged plane, Kh-run patch copies and the
// per-layer tap features
// ---------------------------------------------------------------------

namespace {

/** The conv shapes the channels-last front must reproduce: stride > 1,
 *  stride > kernel (disjoint windows, and a last column group past the
 *  padded row), pad = kernel - 1 with stride 2, asymmetric kernels AND
 *  paddings, kernels larger than the input, 1x1, and lane-straddling
 *  channel counts. */
std::vector<Layer>
frontend_cases()
{
    std::vector<Layer> ls{
        make_conv("odd", {3, 7, 7}, 4, 3, 1, 1),
        make_conv("stride", {5, 9, 9}, 4, 3, 2, 0),
        make_conv("stride3", {3, 11, 11}, 2, 2, 3, 0),
        make_conv("s2-pad-k-1", {5, 9, 8}, 3, 3, 2, 2),
        make_conv("k1-s2", {4, 5, 5}, 2, 1, 2, 0),
        make_conv("pad2", {2, 5, 5}, 4, 5, 1, 2),
        make_conv("tiny", {1, 1, 1}, 1, 1, 1, 0),
        make_conv("one-by-one", {9, 5, 5}, 3, 1, 1, 0),
        make_conv("lanes", {17, 6, 6}, 4, 3, 1, 1),
        make_conv("wide", {70, 5, 6}, 2, 3, 1, 1),
        make_conv("k-gt-input", {2, 3, 3}, 2, 5, 1, 2),
        make_conv2("asym", {3, 8, 5}, 2, 1, 7, 1, 0, 3),
        make_conv2("asym-pad", {2, 6, 6}, 2, 3, 3, 2, 2, 0),
    };
    Layer mixed = make_conv2("mixed-strides", {6, 9, 10}, 2, 3, 2, 1, 2, 1);
    mixed.strideH = 2;
    mixed.strideW = 3;
    ls.push_back(mixed);
    return ls;
}

/** A channels-last plane of @p l staged from the CHW input @p in,
 *  transposed to the HWC activation the executor hands a conv, through
 *  @p sq in @p chunks row ranges (as the executor's threads stage it),
 *  over bytes poisoned first so an unwritten byte shows. */
std::vector<std::int8_t>
staged_plane(const Layer &l, const SymQuant &sq, const std::vector<float> &in,
             std::size_t chunks)
{
    std::vector<float> hwc(in.size());
    bfree::core::relayout({bfree::core::ActLayout::Hwc, l.input}, in.data(),
                          hwc.data(), 0, std::size_t(l.input.h) * l.input.w);
    const bfree::core::HwcPlane hp = bfree::core::hwc_plane(l);
    std::vector<std::int8_t> plane(hp.bytes(), 55);
    for (std::size_t c = 0; c < chunks; ++c)
        bfree::core::stage_hwc_rows(l, sq, hwc.data(), c * hp.rows / chunks,
                                    (c + 1) * hp.rows / chunks, plane.data());
    return plane;
}

std::vector<float>
random_input(const Layer &l)
{
    sim::Rng rng(97);
    std::vector<float> in(l.input.elements());
    for (float &v : in)
        v = static_cast<float>(rng.uniformReal(-2.0, 2.0));
    return in;
}

/** Every patch of @p l, copied row by row from the staged plane (in
 *  (ky, kx, c) order): rows = oH * oW, K bytes each. */
std::vector<std::int8_t>
hwc_patches(const Layer &l, const std::vector<std::int8_t> &plane)
{
    const FeatureShape o = l.outputShape();
    const std::size_t k = std::size_t(l.input.c) * l.kernelH * l.kernelW;
    std::vector<std::int8_t> all(std::size_t(o.h) * o.w * k);
    for (unsigned oh = 0; oh < o.h; ++oh)
        bce::simd::copy_patch_row(bfree::core::conv_rows(l), plane.data(), oh,
                                  all.data() + std::size_t(oh) * o.w * k);
    return all;
}

/** Patch byte (c, ky, kx) of im2col's CHW order sits at (ky, kx, c)
 *  in a channels-last patch. */
std::size_t
hwc_index(const Layer &l, std::size_t c, std::size_t ky, std::size_t kx)
{
    return (ky * l.kernelW + kx) * l.input.c + c;
}

} // namespace

TEST(HwcFront, PatchRowsMatchIm2colAtEveryLevel)
{
    // The staged plane and the Kh-run copies, permuted back to CHW
    // order, against the row-run patch oracle on the quantized CHW
    // plane, staged whole and in ragged row chunks.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        for (const Layer &l : frontend_cases()) {
            const std::vector<float> in = random_input(l);
            SymQuant sq;
            sq.scale = 0.02;
            std::vector<std::int8_t> qin(in.size());
            quantize_span(sq, in.data(), in.size(), qin.data());
            const FeatureShape o = l.outputShape();
            const std::size_t k =
                std::size_t(l.input.c) * l.kernelH * l.kernelW;
            std::vector<std::int8_t> want(k);
            for (const std::size_t chunks : {1u, 3u}) {
                const std::vector<std::int8_t> got =
                    hwc_patches(l, staged_plane(l, sq, in, chunks));
                for (unsigned oh = 0; oh < o.h; ++oh) {
                    for (unsigned ow = 0; ow < o.w; ++ow) {
                        im2col_patch_i8(l, qin.data(), oh, ow, want.data());
                        const std::int8_t *patch =
                            &got[(std::size_t(oh) * o.w + ow) * k];
                        std::size_t p = 0;
                        for (unsigned c = 0; c < l.input.c; ++c)
                            for (unsigned ky = 0; ky < l.kernelH; ++ky)
                                for (unsigned kx = 0; kx < l.kernelW;
                                     ++kx, ++p)
                                    ASSERT_EQ(want[p],
                                              patch[hwc_index(l, c, ky, kx)])
                                        << ctx << " " << l.name << " ("
                                        << oh << "," << ow << ") tap " << p;
                    }
                }
            }
        }
    });
}

TEST(HwcFront, TapFeaturesMatchPatchFeaturesAtEveryLevel)
{
    // The per-layer F_x from classifying each staged row once must
    // equal class_feature_sums over every materialized patch: strided,
    // disjoint and padded windows, split over several accumulators the
    // way the executor's threads split it.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        for (const Layer &l : frontend_cases()) {
            const std::vector<float> in = random_input(l);
            SymQuant sq;
            sq.scale = 0.01; // saturates some taps at +-127
            const std::vector<std::int8_t> plane = staged_plane(l, sq, in, 1);
            const FeatureShape o = l.outputShape();
            const std::size_t k =
                std::size_t(l.input.c) * l.kernelH * l.kernelW;
            const std::size_t words = bce::simd::feature_count * k;

            std::vector<std::uint32_t> want(words + 1);
            bce::simd::class_feature_sums(hwc_patches(l, plane).data(),
                                          std::size_t(o.h) * o.w, k,
                                          want.data());

            const bfree::core::HwcPlane hp = bfree::core::hwc_plane(l);
            const std::size_t accWords = bfree::core::tap_feature_words(l);
            std::vector<std::uint32_t> scratch(
                bfree::core::tap_feature_scratch_words(l));
            for (const std::size_t chunks : {1u, 2u, 5u}) {
                std::vector<std::vector<std::uint32_t>> accs(
                    chunks, std::vector<std::uint32_t>(accWords, 0));
                for (std::size_t c = 0; c < chunks; ++c)
                    bfree::core::classify_hwc_rows(
                        l, plane.data(), c * hp.rows / chunks,
                        (c + 1) * hp.rows / chunks, accs[c].data(),
                        scratch.data());
                // Summed over word ranges, as the executor's threads
                // sum them.
                for (std::size_t c = 1; c < chunks; ++c)
                    for (std::size_t r = 0; r < chunks; ++r)
                        bfree::core::sum_tap_features(
                            accs[0].data(), accs[c].data(),
                            r * accWords / chunks,
                            (r + 1) * accWords / chunks);
                std::vector<std::uint32_t> got(words);
                bfree::core::tap_features(l, accs[0].data(), got.data());
                for (std::size_t w = 0; w < words; ++w)
                    ASSERT_EQ(want[w], got[w])
                        << ctx << " " << l.name << " word " << w
                        << " chunks " << chunks;
            }
        }
    });
}
