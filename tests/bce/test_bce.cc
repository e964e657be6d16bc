/**
 * @file
 * The BCE: functional exactness through the LUT datapath, the paper's
 * throughput rates, and energy accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "bce/bce.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "simd_levels.hh"

using namespace bfree::bce;
using bfree::mem::EnergyAccount;
using bfree::mem::EnergyCategory;
using bfree::mem::Subarray;
using bfree::tech::CacheGeometry;
using bfree::tech::TechParams;
using bfree::test::for_each_runnable_level;

namespace {

struct Fixture
{
    CacheGeometry geom;
    TechParams tech;
    EnergyAccount energy;
    Subarray sa{geom, tech, energy};
    Bce bce{sa, tech, energy};
};

} // namespace

TEST(BceRates, PaperThroughputs)
{
    // Conv mode: 0.5 8-bit MAC/cycle; matmul mode: 4 8-bit MAC/cycle;
    // 4-bit doubles both (Section V-D).
    EXPECT_DOUBLE_EQ(Bce::macsPerCycle(BceMode::Conv, 8), 0.5);
    EXPECT_DOUBLE_EQ(Bce::macsPerCycle(BceMode::Conv, 4), 1.0);
    EXPECT_DOUBLE_EQ(Bce::macsPerCycle(BceMode::Matmul, 8), 4.0);
    EXPECT_DOUBLE_EQ(Bce::macsPerCycle(BceMode::Matmul, 4), 8.0);
    EXPECT_DOUBLE_EQ(Bce::macsPerCycle(BceMode::Conv, 16), 0.25);
    EXPECT_DOUBLE_EQ(Bce::macsPerCycle(BceMode::Matmul, 16), 2.0);
}

TEST(BceMultiply, MatmulModeExhaustiveInt8)
{
    Fixture f;
    f.bce.setMode(BceMode::Matmul);
    for (int a = -128; a <= 127; a += 3)
        for (int b = -128; b <= 127; b += 5)
            ASSERT_EQ(f.bce.multiply(a, b, 8),
                      static_cast<std::int64_t>(a) * b);
}

TEST(BceMultiply, ConvModeThroughSubarrayLut)
{
    Fixture f;
    f.bce.loadMultLutImage();
    f.bce.setMode(BceMode::Conv);
    for (int a = -128; a <= 127; a += 7)
        for (int b = -128; b <= 127; b += 11)
            ASSERT_EQ(f.bce.multiply(a, b, 8),
                      static_cast<std::int64_t>(a) * b);
    // Conv mode actually read the LUT rows.
    EXPECT_GT(f.sa.stats().lutReads, 0u);
}

TEST(BceMultiply, ConvMode4And16Bit)
{
    Fixture f;
    f.bce.loadMultLutImage();
    f.bce.setMode(BceMode::Conv);
    for (int a = -8; a <= 7; ++a)
        for (int b = -8; b <= 7; ++b)
            ASSERT_EQ(f.bce.multiply(a, b, 4),
                      static_cast<std::int64_t>(a) * b);
    bfree::sim::Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const auto a =
            static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
        const auto b =
            static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
        ASSERT_EQ(f.bce.multiply(a, b, 16),
                  static_cast<std::int64_t>(a) * b);
    }
}

TEST(BceDotProduct, MatchesReference)
{
    Fixture f;
    f.bce.loadMultLutImage();
    f.bce.setMode(BceMode::Conv);

    bfree::sim::Rng rng(11);
    const std::size_t len = 64;
    std::vector<std::int8_t> weights(len);
    std::vector<std::int8_t> inputs(len);
    std::int32_t expected = 0;
    for (std::size_t i = 0; i < len; ++i) {
        weights[i] =
            static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        inputs[i] = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        expected += std::int32_t(weights[i]) * inputs[i];
    }
    // Weights live in the sub-array at offset 256.
    f.sa.write(256, reinterpret_cast<std::uint8_t *>(weights.data()),
               len);

    const std::int32_t got =
        f.bce.dotProduct(256, inputs.data(), len, 8);
    EXPECT_EQ(got, expected);
}

TEST(BceDotProduct, CyclesMatchConvRate)
{
    Fixture f;
    f.bce.loadMultLutImage();
    f.bce.setMode(BceMode::Conv);

    std::vector<std::int8_t> weights(32, 3);
    std::vector<std::int8_t> inputs(32, 5);
    f.sa.write(0, reinterpret_cast<std::uint8_t *>(weights.data()), 32);

    const std::uint64_t before = f.bce.cycles();
    f.bce.dotProduct(0, inputs.data(), 32, 8);
    // 32 8-bit MACs at 0.5 MAC/cycle = 64 cycles.
    EXPECT_EQ(f.bce.cycles() - before, 64u);
    EXPECT_EQ(f.bce.macs(), 32u);
}

TEST(BceDotProduct, WideSpanBooksWhatTheNarrowPathsBook)
{
    // 16-bit operands: conv mode against dotProduct's sub-array fetch,
    // matmul mode against single-lane broadcastMac steps. Same sum,
    // same statistics.
    bfree::sim::Rng rng(12);
    const std::size_t len = 40;
    std::vector<std::int32_t> w(len), x(len);
    std::vector<std::int8_t> x8(len);
    std::vector<std::uint8_t> bytes(2 * len);
    std::int64_t expected = 0;
    for (std::size_t i = 0; i < len; ++i) {
        w[i] = static_cast<std::int32_t>(rng.uniformInt(-32767, 32767));
        x8[i] = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        x[i] = x8[i];
        bytes[2 * i] = static_cast<std::uint8_t>(w[i] & 0xFF);
        bytes[2 * i + 1] = static_cast<std::uint8_t>((w[i] >> 8) & 0xFF);
        expected += std::int64_t{w[i]} * x[i];
    }

    Fixture narrow, wide;
    for (Fixture *f : {&narrow, &wide})
        f->bce.loadMultLutImage();
    narrow.sa.write(0, bytes.data(), bytes.size());
    EXPECT_EQ(narrow.bce.dotProduct(0, x8.data(), len, 16), expected);
    EXPECT_EQ(wide.bce.dotSpanWide(w.data(), x.data(), len, 16), expected);

    for (Fixture *f : {&narrow, &wide})
        f->bce.setMode(BceMode::Matmul);
    std::int64_t lanes = 0;
    for (std::size_t i = 0; i < len; ++i) {
        std::int32_t lane = 0;
        narrow.bce.broadcastMac(w[i], &x8[i], 1, &lane, 16);
        lanes += lane;
    }
    EXPECT_EQ(lanes, expected);
    EXPECT_EQ(wide.bce.dotSpanWide(w.data(), x.data(), len, 16), expected);

    const BceStats &a = narrow.bce.stats();
    const BceStats &b = wide.bce.stats();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cyclesByMode, b.cyclesByMode);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.counts.lutLookups, b.counts.lutLookups);
    EXPECT_EQ(a.counts.romLookups, b.counts.romLookups);
    EXPECT_EQ(a.counts.shifts, b.counts.shifts);
    EXPECT_EQ(a.counts.adds, b.counts.adds);
    EXPECT_EQ(a.counts.cycles, b.counts.cycles);
    EXPECT_EQ(a.lutReadsPim, b.lutReadsPim);
    EXPECT_EQ(a.lutReadsCache, b.lutReadsCache);
}

TEST(BceBroadcastMac, EightLanesInTwoCycles)
{
    Fixture f;
    f.bce.setMode(BceMode::Matmul);

    const std::int8_t b[8] = {1, -2, 3, -4, 5, -6, 7, -8};
    std::int32_t acc[8] = {};
    const std::uint64_t before = f.bce.cycles();
    f.bce.broadcastMac(9, b, 8, acc, 8);
    // One LS-4 pass + one MS-4 pass (Fig. 7).
    EXPECT_EQ(f.bce.cycles() - before, 2u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(acc[i], 9 * b[i]);
}

TEST(BceBroadcastMac, AccumulatesOverSteps)
{
    Fixture f;
    f.bce.setMode(BceMode::Matmul);
    const std::int8_t b[4] = {10, 20, 30, 40};
    std::int32_t acc[4] = {};
    f.bce.broadcastMac(2, b, 4, acc, 8);
    f.bce.broadcastMac(-1, b, 4, acc, 8);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(acc[i], 2 * b[i] - b[i]);
}

TEST(BceSpecial, MaxReduceAndAvgPool)
{
    Fixture f;
    bfree::lut::DivisionLut div(4);
    const std::int32_t values[5] = {3, -7, 12, 0, 9};
    EXPECT_EQ(f.bce.maxReduce(values, 5), 12);

    const std::int32_t window[4] = {10, 20, 30, 40};
    EXPECT_NEAR(f.bce.avgPool(window, 4, div), 25.0, 25.0 * 0.02);
}

namespace {

void
expect_same_special_stats(const BceStats &a, const BceStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.cyclesByMode, b.cyclesByMode);
    EXPECT_EQ(a.counts.adds, b.counts.adds);
    EXPECT_EQ(a.counts.shifts, b.counts.shifts);
    EXPECT_EQ(a.counts.lutLookups, b.counts.lutLookups);
    EXPECT_EQ(a.counts.romLookups, b.counts.romLookups);
    EXPECT_EQ(a.counts.cycles, b.counts.cycles);
    EXPECT_EQ(a.specialLutEvents, b.specialLutEvents);
}

/** Bit-exact float comparison (NaN-safe, -0 distinct from +0). */
void
expect_same_bits(const std::vector<float> &a, const std::vector<float> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint32_t x, y;
        std::memcpy(&x, &a[i], 4);
        std::memcpy(&y, &b[i], 4);
        EXPECT_EQ(x, y) << "element " << i << ": " << a[i] << " vs "
                        << b[i];
    }
}

} // namespace

TEST(BceSpecial, ReluSpanEqualsPerElementMaxReduce)
{
    // Rounding ties, both signs, the int32 wrap of huge values and the
    // non-finite inputs lround handles specially.
    std::vector<float> in = {0.0f, -0.0f, 1.0f / 512, -1.0f / 512,
                             3.0f / 512, 1.0f / 256, 0.49f / 256,
                             -2.5f, 2.5f, 1e-30f, 7.99609375f,
                             8388607.0f, 8388608.5f, 1e7f, -1e7f, 1e30f,
                             -1e30f, std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN()};
    bfree::sim::Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        in.push_back(static_cast<float>(rng.uniformReal(-4.0, 4.0)));

    // The vector q8's range edge: |x * 256| = 2^31 and its neighbours.
    for (const float edge : {8388608.0f, -8388608.0f, 8388607.5f,
                             -8388607.5f, 8388608.5f, -8388609.0f})
        in.push_back(edge);

    for_each_runnable_level([&](bfree::sim::SimdLevel) {
        // Every length up to a few vector widths, so each ragged tail
        // and each lane position of the slow lanes is covered.
        for (std::size_t n : {std::size_t(0), std::size_t(1),
                              std::size_t(15), std::size_t(17),
                              std::size_t(33), in.size()}) {
            Fixture span, ref;
            span.bce.setMode(BceMode::Matmul);
            ref.bce.setMode(BceMode::Matmul);
            std::vector<float> got(n), want(n);
            span.bce.reluQ8(in.data(), got.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
                const std::int32_t vals[2] = {
                    0,
                    static_cast<std::int32_t>(std::lround(in[i] * 256.0f))};
                want[i] =
                    static_cast<float>(ref.bce.maxReduce(vals, 2)) / 256.0f;
            }
            expect_same_bits(want, got);
            expect_same_special_stats(ref.bce.stats(), span.bce.stats());
            // In place (the standalone layer's ping-pong never aliases,
            // but the kernel allows it).
            std::vector<float> inplace(in.begin(), in.begin() + n);
            span.bce.reluQ8(inplace.data(), inplace.data(), n);
            expect_same_bits(want, inplace);
        }
    });
}

namespace {

/** poolQ8 over the channels-last @p in against one maxReduce /
 *  avgPool call per clipped window and channel, in outputs and
 *  statistics, at every runnable SIMD level, on the calling thread and
 *  split over a three-thread pool. */
void
expect_pool_matches_reductions(const PoolShape &g, bool average,
                               const std::vector<float> &in)
{
    const bfree::lut::DivisionLut div(4);
    Fixture ref;
    std::vector<float> want(g.channels * g.outH * g.outW);
    for (std::size_t c = 0; c < g.channels; ++c) {
        for (std::size_t oh = 0; oh < g.outH; ++oh) {
            for (std::size_t ow = 0; ow < g.outW; ++ow) {
                std::vector<std::int32_t> window;
                for (unsigned r = 0; r < g.kernelH; ++r) {
                    for (unsigned s = 0; s < g.kernelW; ++s) {
                        const long ih =
                            long(oh * g.strideH + r) - long(g.padH);
                        const long iw =
                            long(ow * g.strideW + s) - long(g.padW);
                        if (ih < 0 || iw < 0 || ih >= long(g.inH)
                            || iw >= long(g.inW))
                            continue;
                        window.push_back(
                            static_cast<std::int32_t>(std::lround(
                                in[(ih * g.inW + iw) * g.channels + c]
                                * 256.0f)));
                    }
                }
                want[(oh * g.outW + ow) * g.channels + c] =
                    average
                        ? static_cast<float>(ref.bce.avgPool(
                              window.data(), window.size(), div))
                              / 256.0f
                        : static_cast<float>(ref.bce.maxReduce(
                              window.data(), window.size()))
                              / 256.0f;
            }
        }
    }
    bfree::sim::ThreadPool threads(3);
    bfree::sim::ThreadPool *const pools[] = {nullptr, &threads};
    for_each_runnable_level([&](bfree::sim::SimdLevel) {
        for (bfree::sim::ThreadPool *p : pools) {
            Fixture span;
            std::vector<float> got(want.size());
            span.bce.poolQ8(g, average, div, in.data(), got.data(), p);
            expect_same_bits(want, got);
            expect_same_special_stats(ref.bce.stats(), span.bce.stats());
        }
    });
}

PoolShape
pool_shape(std::size_t channels, std::size_t inH, std::size_t inW,
           unsigned kernel, unsigned stride, unsigned pad)
{
    PoolShape g;
    g.channels = channels;
    g.inH = inH;
    g.inW = inW;
    g.kernelH = g.kernelW = kernel;
    g.strideH = g.strideW = stride;
    g.padH = g.padW = pad;
    g.outH = (g.inH + 2 * g.padH - g.kernelH) / g.strideH + 1;
    g.outW = (g.inW + 2 * g.padW - g.kernelW) / g.strideW + 1;
    return g;
}

} // namespace

TEST(BceSpecial, PoolSpanEqualsPerWindowReductions)
{
    // A padded, overlapping 3x3/stride-2 window walk over a ragged
    // 7 x 6 x 2 input: edge windows clip to 4 or 6 taps.
    const PoolShape g = pool_shape(2, 7, 6, 3, 2, 1);
    bfree::sim::Rng rng(11);
    std::vector<float> in(g.channels * g.inH * g.inW);
    for (float &v : in)
        v = static_cast<float>(rng.uniformReal(-3.0, 3.0));
    for (const bool average : {false, true})
        expect_pool_matches_reductions(g, average, in);
}

TEST(BceSpecial, MaxPool2x2EdgesEqualPerWindowReductions)
{
    // The unpadded 2x2/stride-2 max pool has its own vector path: 16
    // channels of one window per step with masked tails, and any step
    // holding a NaN or a value outside q8's register range on the
    // per-tap walk. Channel counts below, at and past one step.
    constexpr float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {0.5f / 256,   -0.5f / 256,  1.5f / 256,
                              -1.5f / 256,  8388608.0f,   -8388608.0f,
                              8388607.5f,   -8388607.5f,  inf,
                              -inf,         std::numeric_limits<float>::quiet_NaN(),
                              -0.0f,        1e-40f};
    bfree::sim::Rng rng(29);
    for (const auto &[outW, channels] :
         {std::pair<std::size_t, std::size_t>{1, 3}, {7, 3}, {15, 16},
          {16, 17}, {17, 3}, {112, 3}, {7, 64}, {3, 33}}) {
        // An odd inH and, for odd outW, an odd inW: the last row and
        // column are dropped.
        const std::size_t inW = 2 * outW + (outW % 2);
        const PoolShape g = pool_shape(channels, 5, inW, 2, 2, 0);
        std::vector<float> in(g.channels * g.inH * g.inW);
        for (float &v : in)
            v = static_cast<float>(rng.uniformReal(-2.0, 2.0));
        // Exact ties (multiples of 1/512) on the whole of channel 0.
        for (std::size_t i = 0; i < g.inH * g.inW; ++i)
            in[i * g.channels] =
                static_cast<float>(rng.uniformInt(-2048, 2048)) / 512;
        expect_pool_matches_reductions(g, false, in);

        // Channel 2 salted with the special values, one per step at a
        // varying position.
        for (std::size_t k = 0; k < std::size(specials); ++k) {
            std::vector<float> salted = in;
            salted[(k * 37) % (g.inH * g.inW) * g.channels + 2] =
                specials[k];
            expect_pool_matches_reductions(g, false, salted);
        }
    }
}

TEST(BceSpecial, PwlEvaluationViaLutRows)
{
    Fixture f;
    const bfree::lut::PwlTable table = bfree::lut::make_sigmoid_table(32);
    const double y = f.bce.evaluatePwl(table, 0.0);
    EXPECT_NEAR(y, 0.5, 0.02);
    f.bce.flushEnergy();
    EXPECT_GT(f.energy.joules(EnergyCategory::LutAccess), 0.0);
}

TEST(BceSpecial, DivideAndRequantize)
{
    Fixture f;
    bfree::lut::DivisionLut div(4);
    EXPECT_NEAR(f.bce.divide(20.0, 4.0, div), 5.0, 0.1);

    const auto scale = bfree::lut::compute_requant_scale(0.05);
    const std::int32_t q = f.bce.requantize(1000, scale, 0, 8);
    EXPECT_NEAR(q, 50, 1);
}

TEST(BceEnergy, MatmulMacsChargeRomEnergy)
{
    Fixture f;
    f.bce.setMode(BceMode::Matmul);
    f.bce.flushEnergy();
    const double before = f.energy.joules(EnergyCategory::BceCompute);
    (void)f.bce.multiply(77, -55, 8);
    f.bce.flushEnergy();
    EXPECT_GT(f.energy.joules(EnergyCategory::BceCompute), before);
}

TEST(BceEnergy, MatmulModeCostsMorePerCycleThanConv)
{
    const TechParams t;
    EXPECT_GT(t.bceEnergyPerCyclePj(t.bceMatmulModeMw),
              t.bceEnergyPerCyclePj(t.bceConvModeMw));
}

TEST(BceConfig, LoadConfigTakesOneCycleAndStores)
{
    Fixture f;
    ConfigBlock cb;
    cb.opcode = PimOpcode::Conv;
    cb.iterations = 99;
    const std::uint64_t before = f.bce.cycles();
    f.bce.loadConfig(cb);
    EXPECT_EQ(f.bce.cycles() - before, 1u);
    EXPECT_EQ(f.bce.config().iterations, 99);
    EXPECT_EQ(f.bce.stats().configLoads, 1u);
}

TEST(BceDeath, ConvMultiplyWithoutLutImagePanics)
{
    Fixture f;
    f.bce.setMode(BceMode::Conv);
    EXPECT_DEATH((void)f.bce.multiply(3, 5, 8), "LUT image");
}

TEST(BceDeath, WrongModePanics)
{
    Fixture f;
    f.bce.loadMultLutImage();
    f.bce.setMode(BceMode::Matmul);
    std::int8_t inputs[4] = {1, 2, 3, 4};
    EXPECT_DEATH((void)f.bce.dotProduct(0, inputs, 4, 8),
                 "requires conv mode");

    EXPECT_DEATH((void)f.bce.dotProductSpan(inputs, inputs, 4, 8),
                 "dotProduct requires conv mode");
    std::int32_t out[1] = {};
    EXPECT_DEATH(f.bce.convTile(inputs, inputs, out, 1, 4, 1, 8),
                 "convTile requires conv mode");

    f.bce.setMode(BceMode::Conv);
    std::int32_t acc[4] = {};
    EXPECT_DEATH(f.bce.broadcastMac(1, inputs, 4, acc, 8),
                 "broadcastMac requires matmul mode");
    EXPECT_DEATH((void)f.bce.matmulDotSpan(inputs, inputs, 4, 8),
                 "matmulDotSpan requires matmul mode");
    EXPECT_DEATH(f.bce.matmulTile(inputs, inputs, out, 1, 4, 1, 8),
                 "matmulTile requires matmul mode");

    f.bce.setMode(BceMode::Special);
    const std::int32_t wide[4] = {1, 2, 3, 4};
    EXPECT_DEATH((void)f.bce.dotSpanWide(wide, wide, 4, 16),
                 "dotSpanWide requires conv or matmul mode");
}
