/**
 * @file
 * Seeded conv and FC geometry fuzzer. A conv seed draws a chain of
 * one or two convs over awkward geometry: 1-16 input channels; square,
 * 1xk and kx1 kernels from 1 to 7; strides up to and past the kernel
 * (disjoint windows) per axis; paddings up to kernel - 1; and outputs
 * shorter than the executor's thread count. Two conv chains in three
 * end in an FC, or an FC and a narrow head; a flat seed draws the same
 * FC tail from a flat input instead. A pooled seed draws the same conv
 * chain, then a pool (2x2/s2 max, 3x3/s1/p1 max, or average over a
 * padded or strided window), maybe an unfolded Relu or Sigmoid, and
 * then a Softmax, a narrow FC or nothing: every boundary where the
 * executor's channels-last activations meet a channel-plane reader, or
 * the plan's output, transposes there. Every conv or FC may fold a
 * ReLU. An
 * FC's width is drawn around the executor's matmul split: 1/2 to 9/2
 * blocks of minMatmulMacsPerBlock MACs, just below or just above each
 * multiple, so 2-4 threads run it unsplit, partly split and fully
 * split; its K is often not a multiple of 16 or 64, and some FCs have
 * fewer four-row quads than threads. Each net is compiled to one plan
 * and run at 4 and 8 bits:
 *
 *  - on the Tiered tier at every runnable SIMD level and at 1-4
 *    executor threads, against the Legacy tier (the full scalar
 *    decomposition): outputs, BceStats and energy byte for byte;
 *  - against the float reference (dnn/reference), within the
 *    quantization bound derived in reference_bound().
 *
 * The seed list is fixed so a failure reproduces; the geometry of the
 * failing net is printed with it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/functional.hh"
#include "dnn/reference.hh"
#include "sim/random.hh"
#include "simd_levels.hh"

using namespace bfree;
using bce::ExecTier;
using core::FunctionalExecutor;
using core::NetworkPlan;
using core::NetworkWeights;
using dnn::FeatureShape;
using dnn::FloatTensor;
using dnn::Layer;
using dnn::LayerKind;

namespace {

constexpr std::uint64_t kSeeds[] = {1,  2,  3,  5,  8,  13, 21, 34,
                                    55, 89, 144, 233, 377, 610, 987,
                                    1597, 2584, 4181, 6765, 10946};

/** Seeds of the FC chains from a flat input. */
constexpr std::uint64_t kFlatSeeds[] = {3, 7, 11, 18, 47, 123};

/** Seeds of the conv chains that end in a pool and its tail. */
constexpr std::uint64_t kPoolSeeds[] = {4,   6,   9,   12,  17,  77, 300,
                                        305, 308, 312, 314, 316, 320};

/** What a seed generates. */
enum class Family
{
    Conv,   ///< convs, then maybe FCs
    Flat,   ///< FCs from a flat input
    Pooled, ///< convs, a pool, maybe an activation, then a tail
};

/** One generated net: its seed and family. */
struct FuzzCase
{
    std::uint64_t seed;
    Family family;
};

/** The conv seeds, then the flat and the pooled seeds. */
std::vector<FuzzCase>
fuzz_cases()
{
    std::vector<FuzzCase> cases;
    for (const std::uint64_t seed : kSeeds)
        cases.push_back({seed, Family::Conv});
    for (const std::uint64_t seed : kFlatSeeds)
        cases.push_back({seed, Family::Flat});
    for (const std::uint64_t seed : kPoolSeeds)
        cases.push_back({seed, Family::Pooled});
    return cases;
}

/** A generated net, its weights and input, and a printable shape. */
struct FuzzNet
{
    dnn::Network net{"", FeatureShape{}};
    NetworkWeights weights;
    FloatTensor input;
    std::string desc;
};

/** Cap on a conv's MACs, so the Legacy tier stays quick. One filter
 *  of the largest first conv (14 x 14 outputs, 16 x 7 x 7 taps) fits. */
constexpr std::uint64_t kMaxMacs = 160000;

/**
 * Draw one conv over @p in: a kernel shape, per-axis strides and pads
 * with the edges (stride >= kernel, pad = kernel - 1) drawn often.
 */
Layer
draw_conv(sim::Rng &rng, const std::string &name, const FeatureShape &in)
{
    unsigned kh = 1, kw = 1;
    switch (rng.uniformInt(0, 2)) {
      case 0:
        kh = kw = static_cast<unsigned>(rng.uniformInt(1, 7));
        break;
      case 1:
        kw = static_cast<unsigned>(rng.uniformInt(2, 7));
        break;
      default:
        kh = static_cast<unsigned>(rng.uniformInt(2, 7));
        break;
    }
    const auto axis = [&](unsigned k, unsigned &stride, unsigned &pad) {
        stride = rng.uniformInt(0, 2) == 0
                     ? k + static_cast<unsigned>(rng.uniformInt(0, 1))
                     : static_cast<unsigned>(rng.uniformInt(1, 3));
        pad = rng.uniformInt(0, 2) == 0
                  ? k - 1
                  : static_cast<unsigned>(rng.uniformInt(0, k - 1));
    };
    unsigned sh = 1, sw = 1, ph = 0, pw = 0;
    axis(kh, sh, ph);
    axis(kw, sw, pw);
    const unsigned outC = static_cast<unsigned>(rng.uniformInt(1, 9));
    Layer l = dnn::make_conv2(name, in, outC, kh, kw, 1, ph, pw);
    l.strideH = sh;
    l.strideW = sw;
    return l;
}

/** Cap on an FC's weight rows, so an FC over a narrow K (a small conv
 *  output) stays small; only a wide K reaches the split. */
constexpr std::size_t kMaxFcRows = 1024;

/**
 * Draw an FC over @p k inputs. A head (@p head) or one FC in four has
 * 1-9 weight rows (fewer four-row quads than threads); else its k x n
 * MACs land just below or just above a multiple of half a matmul
 * block, from 1/2 to 9/2 blocks, at most kMaxFcRows rows.
 */
Layer
draw_fc(sim::Rng &rng, const std::string &name, unsigned k, bool head)
{
    std::size_t n = 0;
    if (head || rng.uniformInt(0, 3) == 0) {
        n = static_cast<std::size_t>(rng.uniformInt(1, 9));
    } else {
        const std::size_t macs =
            static_cast<std::size_t>(rng.uniformInt(1, 9))
            * FunctionalExecutor::minMatmulMacsPerBlock / 2;
        n = std::clamp<std::size_t>(
            macs / k + static_cast<std::size_t>(rng.uniformInt(0, 1)), 1,
            kMaxFcRows);
    }
    return dnn::make_fc(name, k, static_cast<unsigned>(n));
}

/** A flat FC input width: a multiple of 64, of 16 but not 64, or any
 *  width up to 3000. */
unsigned
draw_flat_width(sim::Rng &rng)
{
    switch (rng.uniformInt(0, 3)) {
      case 0:
        return 64 * static_cast<unsigned>(rng.uniformInt(1, 40));
      case 1:
        return 64 * static_cast<unsigned>(rng.uniformInt(0, 40))
               + 16 * static_cast<unsigned>(rng.uniformInt(1, 3));
      default:
        return static_cast<unsigned>(rng.uniformInt(1, 3000));
    }
}

/**
 * Draw a pool over @p in: a 2x2/s2 max pool (the vector path), a
 * 3x3/s1/p1 max pool, or an average pool of kernel 2-3, stride 1-3 and
 * pad below the kernel (clipped edge windows). A 2x2 window the input
 * is too small for falls back to the 3x3/s1/p1 one, an average window
 * to the widest pad, kernel - 1, which any input fits.
 */
Layer
draw_pool(sim::Rng &rng, const std::string &name, const FeatureShape &in)
{
    const auto fits = [&](unsigned k, unsigned pad) {
        return in.h + 2 * pad >= k && in.w + 2 * pad >= k;
    };
    switch (rng.uniformInt(0, 2)) {
      case 0:
        if (fits(2, 0))
            return dnn::make_pool(name, LayerKind::MaxPool, in, 2, 2, 0);
        break;
      case 1:
        break;
      default: {
        const auto k = static_cast<unsigned>(rng.uniformInt(2, 3));
        const auto stride = static_cast<unsigned>(rng.uniformInt(1, 3));
        const auto pad = static_cast<unsigned>(rng.uniformInt(0, k - 1));
        return dnn::make_pool(name, LayerKind::AvgPool, in, k, stride,
                              fits(k, pad) ? pad : k - 1);
      }
    }
    return dnn::make_pool(name, LayerKind::MaxPool, in, 3, 1, 1);
}

std::string
describe(const Layer &l)
{
    std::ostringstream os;
    switch (l.kind) {
      case LayerKind::Fc:
        os << l.name << " " << l.inFeatures << " -> " << l.outFeatures;
        return os.str();
      case LayerKind::MaxPool:
      case LayerKind::AvgPool:
        os << l.name << " " << dnn::layer_kind_name(l.kind) << " "
           << l.input.c << "x" << l.input.h << "x" << l.input.w << " k"
           << l.kernelH << " s" << l.strideH << " p" << l.padH;
        return os.str();
      case LayerKind::Conv:
        break;
      default:
        return l.name;
    }
    os << l.name << " " << l.input.c << "x" << l.input.h << "x"
       << l.input.w << " -> " << l.outChannels << " k" << l.kernelH
       << "x" << l.kernelW << " s" << l.strideH << "x" << l.strideW
       << " p" << l.padH << "x" << l.padW;
    return os.str();
}

/**
 * Add a pooled seed's tail after its convs: the pool, then an unfolded
 * Relu or Sigmoid one time in three each, then a Softmax, a narrow FC
 * or nothing (a channels-last plan output), drawn from @p rng.
 */
void
add_pool_tail(sim::Rng &rng, FuzzNet &f, FeatureShape shape)
{
    const Layer pool = draw_pool(rng, "pool", shape);
    f.net.add(pool);
    f.desc += describe(pool) + "; ";
    shape = pool.outputShape();
    switch (rng.uniformInt(0, 2)) {
      case 1:
        f.net.add(dnn::make_activation("pool/relu", LayerKind::Relu, shape));
        f.desc += "relu; ";
        break;
      case 2:
        f.net.add(dnn::make_activation("pool/sigmoid", LayerKind::Sigmoid,
                                       shape));
        f.desc += "sigmoid; ";
        break;
      default:
        break;
    }
    switch (rng.uniformInt(0, 2)) {
      case 0:
        f.net.add(dnn::make_activation("prob", LayerKind::Softmax, shape));
        f.desc += "softmax";
        break;
      case 1: {
        const Layer fc = draw_fc(rng, "head",
                                 static_cast<unsigned>(shape.elements()),
                                 true);
        f.net.add(fc);
        f.desc += describe(fc);
        break;
      }
      default:
        break;
    }
}

/** The input extent along one axis: an output of 1-3 rows (below the
 *  largest thread count) one time in three, else of 1-14. */
unsigned
draw_extent(sim::Rng &rng, unsigned k, unsigned s, unsigned pad)
{
    const int outs = rng.uniformInt(0, 2) == 0
                         ? static_cast<int>(rng.uniformInt(1, 3))
                         : static_cast<int>(rng.uniformInt(1, 14));
    // (in + 2 * pad - k) / s + 1 = outs, and at least one row.
    return static_cast<unsigned>(std::max(
        1, (outs - 1) * static_cast<int>(s) + static_cast<int>(k)
               - 2 * static_cast<int>(pad)));
}

FuzzNet
make_fuzz_net(const FuzzCase &c)
{
    const std::uint64_t seed = c.seed;
    sim::Rng rng(seed * 7919 + 11);
    // The FC draws take their own stream, so the conv geometry of a
    // seed is what it was before FCs joined the fuzzer.
    sim::Rng fcRng(seed * 104729 + 5);
    FuzzNet f;
    const bool flat = c.family == Family::Flat;
    const unsigned convs =
        flat ? 0 : static_cast<unsigned>(rng.uniformInt(1, 2));
    FeatureShape shape{static_cast<unsigned>(rng.uniformInt(1, 16)), 1, 1};
    if (flat)
        shape = {draw_flat_width(fcRng), 1, 1};

    std::vector<Layer> layers;
    for (unsigned i = 0; i < convs; ++i) {
        const std::string name = "conv" + std::to_string(i);
        // Draw the window first with a placeholder extent, then size
        // the first conv's input to it; later convs take what they get.
        Layer l = draw_conv(rng, name, shape);
        if (i == 0) {
            shape.h = draw_extent(rng, l.kernelH, l.strideH, l.padH);
            shape.w = draw_extent(rng, l.kernelW, l.strideW, l.padW);
            l.input = shape;
        } else if (shape.h + 2 * l.padH < l.kernelH
                   || shape.w + 2 * l.padW < l.kernelW) {
            break; // the first conv left too little for this window
        }
        // Keep the Legacy tier quick: shrink the filter count first.
        while (l.outChannels > 1 && l.macs() > kMaxMacs)
            --l.outChannels;
        if (l.macs() > kMaxMacs)
            break; // only a second conv can get here
        layers.push_back(l);
        shape = l.outputShape();
    }
    // No FC after a conv one time in three; else one, or one and a
    // narrow head. A flat chain has one, or one and a head. A pooled
    // chain takes its tail after the pool instead.
    const unsigned fcs =
        c.family == Family::Pooled
            ? 0
            : static_cast<unsigned>(fcRng.uniformInt(flat ? 1 : 0, 2));
    for (unsigned i = 0; i < fcs; ++i) {
        layers.push_back(draw_fc(fcRng, "fc" + std::to_string(i),
                                 static_cast<unsigned>(shape.elements()),
                                 i == 1));
        shape = layers.back().outputShape();
    }
    const char *family = flat                            ? "flat"
                         : c.family == Family::Pooled ? "pooled"
                                                      : "fuzz";
    f.net = dnn::Network(family + std::to_string(seed), layers[0].input);
    for (const Layer &l : layers) {
        f.net.add(l);
        f.desc += describe(l) + "; ";
        if (rng.uniformInt(0, 1) == 0) {
            f.net.add(dnn::make_activation(l.name + "/relu", LayerKind::Relu,
                                           l.outputShape()));
            f.desc += "relu; ";
        }
    }
    if (c.family == Family::Pooled) {
        // Its own stream, like the FC draws.
        sim::Rng poolRng(seed * 15485863 + 3);
        add_pool_tail(poolRng, f, shape);
    }
    f.weights = core::random_weights(f.net, rng);
    const FeatureShape in = f.net.input();
    f.input = FloatTensor({in.c, in.h, in.w});
    f.input.fillUniform(rng, -1.0, 1.0);
    return f;
}

/** Everything one run leaves that the tiers must agree on. */
struct Outcome
{
    std::vector<float> out;
    bce::BceStats stats;
    double energy = 0.0;
};

Outcome
run_plan(const NetworkPlan &plan, const FloatTensor &input, ExecTier tier,
         unsigned threads)
{
    FunctionalExecutor ex({}, {}, tier, threads);
    const FloatTensor o = ex.run(plan, input).output;
    return {std::vector<float>(o.data(), o.data() + o.size()), ex.stats(),
            ex.energy().total()};
}

void
expect_same(const Outcome &a, const Outcome &b, const std::string &what)
{
    ASSERT_EQ(a.out.size(), b.out.size()) << what;
    EXPECT_EQ(0, std::memcmp(a.out.data(), b.out.data(),
                             a.out.size() * sizeof(float)))
        << what;
    const bce::BceStats &x = a.stats;
    const bce::BceStats &y = b.stats;
    EXPECT_EQ(x.cycles, y.cycles) << what;
    EXPECT_EQ(x.macs, y.macs) << what;
    EXPECT_EQ(x.configLoads, y.configLoads) << what;
    EXPECT_EQ(x.counts.lutLookups, y.counts.lutLookups) << what;
    EXPECT_EQ(x.counts.romLookups, y.counts.romLookups) << what;
    EXPECT_EQ(x.counts.shifts, y.counts.shifts) << what;
    EXPECT_EQ(x.counts.adds, y.counts.adds) << what;
    EXPECT_EQ(x.counts.cycles, y.counts.cycles) << what;
    EXPECT_EQ(x.cyclesByMode, y.cyclesByMode) << what;
    EXPECT_EQ(x.lutReadsPim, y.lutReadsPim) << what;
    EXPECT_EQ(x.lutReadsCache, y.lutReadsCache) << what;
    EXPECT_EQ(x.specialLutEvents, y.specialLutEvents) << what;
    EXPECT_EQ(a.energy, b.energy) << what;
}

float
peak(const std::vector<float> &v)
{
    float m = 0.0f;
    for (float x : v)
        m = std::max(m, std::abs(x));
    return m;
}

/**
 * The float reference of @p f's chain and, per output element, the
 * bound the quantized run must stay within. Per conv or FC with K taps,
 * weight peak mw and scale sw = mw / limit, a reference input peak mx
 * and an input already off by at most e (the previous layer's bound),
 * the executor quantizes an input of peak at most mx + e, so with
 * sx = (mx + e) / limit each tap's product is off by at most
 *
 *     mw * (sx / 2 + e) + mx * sw / 2
 *
 * (|w^| <= mw, |x^ - x'| <= sx / 2, |x' - x| <= e, |w^ - w| <= sw / 2),
 * and the layer's output by K times that. A ReLU, folded or not, adds
 * its Q8 rounding, 1/512, and so does a max pool (the max of inputs
 * off by e is off by e). An average pool sums the Q8 taps (1/512) and
 * divides through the LUT, whose relative error d is twice
 * DivisionLut::errorBound(), so it adds 1/512 + d (mx + e + 1/512).
 * A Sigmoid is 1/4-Lipschitz and its 32-segment table on [-8, 8] is
 * off by at most h^2/8 max|f''| = 0.0031 inside (h = 1/2) and by
 * 1 - sigmoid(8) < 3.4e-4 past it: e / 4 + 0.004. A Softmax output p
 * moves by a factor within e^(+-2e) for inputs off by e; the exp
 * table's chords (h = 1/2 on [-16, 0], convex) overshoot by a
 * relative h^2/8 e^h < 0.052 at most, and the division by d, so it is
 * off by p ((1.052)^2 e^(2e) (1 + d) - 1), plus 1.2e-7 per logit for
 * the clamp at -16 (a Softmax only ends a chain). Float summation
 * order adds a relative 1e-5.
 */
std::pair<std::vector<float>, std::vector<double>>
reference_bound(const FuzzNet &f, unsigned bits)
{
    const double limit = (1 << (bits - 1)) - 1;
    const double d = 2 * lut::DivisionLut(4).errorBound() + 1e-6;
    FloatTensor act = f.input;
    double e = 0.0;
    // A Softmax bounds each output relative to its own value instead.
    double softmaxFactor = 0.0;
    for (std::size_t i = 0; i < f.net.layers().size(); ++i) {
        const Layer &l = f.net.layers()[i];
        const std::vector<float> in(act.data(), act.data() + act.size());
        const double mx = peak(in);
        switch (l.kind) {
          case LayerKind::Relu:
            act = dnn::reference_activation(LayerKind::Relu, act);
            e += 1.0 / 512;
            continue;
          case LayerKind::Sigmoid:
            act = dnn::reference_activation(LayerKind::Sigmoid, act);
            e = e / 4 + 0.004;
            continue;
          case LayerKind::MaxPool:
            act = dnn::reference_max_pool(l, act);
            e += 1.0 / 512;
            continue;
          case LayerKind::AvgPool:
            act = dnn::reference_avg_pool(l, act);
            e += 1.0 / 512 + d * (mx + e + 1.0 / 512);
            continue;
          case LayerKind::Softmax:
            act = dnn::reference_softmax(act);
            softmaxFactor = 1.052 * 1.052 * std::exp(2 * e) * (1 + d) - 1;
            e = 1.2e-7 * double(act.size());
            continue;
          default:
            break;
        }
        const double mw = peak(f.weights[i].weights);
        const double sw = mw / limit;
        const double sx = (mx + e) / limit;
        const bool fc = l.kind == LayerKind::Fc;
        const double k = fc ? double(l.inFeatures)
                            : double(l.input.c) * l.kernelH * l.kernelW;
        act = fc ? dnn::reference_fc(l, act, f.weights[i].weights,
                                     f.weights[i].bias)
                 : dnn::reference_conv(l, act, f.weights[i].weights,
                                       f.weights[i].bias);
        e = k * (mw * (sx / 2 + e) + mx * sw / 2);
    }
    std::vector<float> ref(act.data(), act.data() + act.size());
    std::vector<double> bound(ref.size());
    for (std::size_t j = 0; j < ref.size(); ++j)
        bound[j] = e + softmaxFactor * std::abs(ref[j])
                   + 1e-5 * (1.0 + std::abs(ref[j]));
    return {std::move(ref), std::move(bound)};
}

} // namespace

TEST(ConvFuzz, TieredMatchesLegacyAtEveryLevelAndThreadCount)
{
    for (const FuzzCase &c : fuzz_cases()) {
        const FuzzNet f = make_fuzz_net(c);
        SCOPED_TRACE(f.net.name() + ": " + f.desc);
        for (const unsigned bits : {4u, 8u}) {
            SCOPED_TRACE(std::to_string(bits) + " bits");
            const NetworkPlan plan =
                NetworkPlan::compile(f.net, f.weights, bits);
            ASSERT_TRUE(plan.diagnostics().ok());
            const Outcome legacy =
                run_plan(plan, f.input, ExecTier::Legacy, 1);
            test::for_each_runnable_level([&](sim::SimdLevel) {
                expect_same(legacy,
                            run_plan(plan, f.input, ExecTier::Legacy, 1),
                            "legacy");
                for (const unsigned threads : {1u, 2u, 3u, 4u})
                    expect_same(legacy,
                                run_plan(plan, f.input, ExecTier::Tiered,
                                         threads),
                                "tiered, " + std::to_string(threads)
                                    + " threads");
            });
        }
    }
}

TEST(ConvFuzz, QuantizedRunTracksTheFloatReference)
{
    for (const FuzzCase &c : fuzz_cases()) {
        const FuzzNet f = make_fuzz_net(c);
        SCOPED_TRACE(f.net.name() + ": " + f.desc);
        for (const unsigned bits : {4u, 8u}) {
            SCOPED_TRACE(std::to_string(bits) + " bits");
            const NetworkPlan plan =
                NetworkPlan::compile(f.net, f.weights, bits);
            const Outcome got = run_plan(plan, f.input, ExecTier::Tiered, 0);
            const auto [ref, bound] = reference_bound(f, bits);
            ASSERT_EQ(got.out.size(), ref.size());
            for (std::size_t j = 0; j < ref.size(); ++j)
                ASSERT_LE(std::abs(double(got.out[j]) - ref[j]), bound[j])
                    << "element " << j << ": " << got.out[j] << " vs "
                    << ref[j];
        }
    }
}

TEST(ConvFuzz, SeedsCoverTheEdges)
{
    // The generator must keep reaching the shapes it exists for.
    bool disjoint = false, maxPad = false, shortOut = false, oneByK = false,
         wide = false, narrow = false, twoConvs = false;
    bool fcAfterConv = false, flatFc = false, twoFcs = false,
         fewRows = false, k64 = false, k16Not64 = false, kRagged = false;
    // The pools and every layout boundary after them.
    bool maxPool2x2 = false, maxPool3x3 = false, avgPool = false,
         reluAfterPool = false, sigmoidAfterPool = false,
         softmaxAfterPool = false, fcAfterPool = false,
         spatialOutput = false;
    // Per thread count 2-4: an FC run unsplit, one split over fewer
    // blocks than threads and one split over all of them.
    constexpr std::size_t block = FunctionalExecutor::minMatmulMacsPerBlock;
    bool unsplit[5] = {}, partly[5] = {}, fully[5] = {};
    for (const FuzzCase &c : fuzz_cases()) {
        const FuzzNet f = make_fuzz_net(c);
        unsigned convs = 0, fcs = 0;
        const std::vector<Layer> &ls = f.net.layers();
        for (std::size_t i = 0; i < ls.size(); ++i) {
            const Layer &l = ls[i];
            const LayerKind prev =
                i > 0 ? ls[i - 1].kind : LayerKind::Relu;
            const bool afterPool = prev == LayerKind::MaxPool
                                   || prev == LayerKind::AvgPool;
            switch (l.kind) {
              case LayerKind::MaxPool:
                maxPool2x2 |= l.kernelH == 2 && l.strideH == 2;
                maxPool3x3 |= l.kernelH == 3 && l.strideH == 1
                              && l.padH == 1;
                break;
              case LayerKind::AvgPool:
                avgPool = true;
                break;
              case LayerKind::Relu:
                reluAfterPool |= afterPool;
                break;
              case LayerKind::Sigmoid:
                sigmoidAfterPool |= afterPool;
                break;
              case LayerKind::Softmax:
                softmaxAfterPool |= afterPool;
                break;
              case LayerKind::Fc:
                fcAfterPool |= afterPool;
                break;
              default:
                break;
            }
            if (i + 1 == ls.size())
                spatialOutput |= l.outputShape().c > 1
                                 && l.outputShape().h * l.outputShape().w
                                        > 1;
            if (l.kind == LayerKind::Fc) {
                ++fcs;
                fcAfterConv |= convs > 0;
                flatFc |= convs == 0 && fcs == 1;
                const std::size_t k = l.inFeatures, n = l.outFeatures;
                fewRows |= n < 9;
                k64 |= k % 64 == 0;
                k16Not64 |= k % 16 == 0 && k % 64 != 0;
                kRagged |= k % 16 != 0 && k > 16;
                for (std::size_t t = 2; t <= 4; ++t) {
                    const std::size_t blocks =
                        std::min({k * n / block, t, (n + 3) / 4});
                    unsplit[t] |= blocks <= 1;
                    partly[t] |= blocks > 1 && blocks < t;
                    fully[t] |= blocks == t;
                }
                continue;
            }
            if (l.kind != LayerKind::Conv)
                continue;
            ++convs;
            disjoint |= l.strideH >= l.kernelH && l.strideW >= l.kernelW
                        && l.kernelH * l.kernelW > 1;
            maxPad |= l.padH == l.kernelH - 1 && l.padH > 0;
            shortOut |= l.outputShape().h < 4;
            oneByK |= l.kernelH != l.kernelW;
            wide |= l.input.c >= 12;
            narrow |= l.input.c <= 2;
        }
        twoConvs |= convs == 2;
        twoFcs |= fcs == 2;
    }
    EXPECT_TRUE(disjoint);
    EXPECT_TRUE(maxPad);
    EXPECT_TRUE(shortOut);
    EXPECT_TRUE(oneByK);
    EXPECT_TRUE(wide);
    EXPECT_TRUE(narrow);
    EXPECT_TRUE(twoConvs);
    EXPECT_TRUE(fcAfterConv);
    EXPECT_TRUE(flatFc);
    EXPECT_TRUE(twoFcs);
    EXPECT_TRUE(fewRows);
    EXPECT_TRUE(k64);
    EXPECT_TRUE(k16Not64);
    EXPECT_TRUE(kRagged);
    EXPECT_TRUE(maxPool2x2);
    EXPECT_TRUE(maxPool3x3);
    EXPECT_TRUE(avgPool);
    EXPECT_TRUE(reluAfterPool);
    EXPECT_TRUE(sigmoidAfterPool);
    EXPECT_TRUE(softmaxAfterPool);
    EXPECT_TRUE(fcAfterPool);
    EXPECT_TRUE(spatialOutput);
    for (std::size_t t = 2; t <= 4; ++t) {
        EXPECT_TRUE(unsplit[t]) << t << " threads";
        EXPECT_TRUE(partly[t] || t == 2) << t << " threads";
        EXPECT_TRUE(fully[t]) << t << " threads";
    }
}
