/**
 * @file
 * Functional end-to-end: quantized inference through the real LUT
 * datapath matches the float reference within quantization tolerance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/functional.hh"
#include "dnn/model_zoo.hh"

using namespace bfree::core;
using namespace bfree::dnn;

namespace {

/** Float reference run of the networks the functional path supports. */
FloatTensor
reference_run(const Network &net, const FloatTensor &input,
              const NetworkWeights &weights)
{
    FloatTensor act = input;
    for (std::size_t i = 0; i < net.layers().size(); ++i) {
        const Layer &l = net.layers()[i];
        switch (l.kind) {
          case LayerKind::Conv:
            act = reference_conv(l, act, weights[i].weights,
                                 weights[i].bias);
            break;
          case LayerKind::Fc: {
            FloatTensor flat({l.inFeatures, 1, 1});
            for (std::size_t j = 0; j < act.size(); ++j)
                flat[j] = act[j];
            act = reference_fc(l, flat, weights[i].weights,
                               weights[i].bias);
            break;
          }
          case LayerKind::Relu:
          case LayerKind::Sigmoid:
          case LayerKind::Tanh:
            act = reference_activation(l.kind, act);
            break;
          case LayerKind::MaxPool:
            act = reference_max_pool(l, act);
            break;
          case LayerKind::AvgPool:
            act = reference_avg_pool(l, act);
            break;
          case LayerKind::Softmax:
            act = reference_softmax(act);
            break;
          default:
            ADD_FAILURE() << "unsupported layer";
        }
    }
    return act;
}

std::size_t
argmax(const FloatTensor &t)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < t.size(); ++i)
        if (t[i] > t[best])
            best = i;
    return best;
}

} // namespace

TEST(Functional, TinyCnnMatchesReferenceAt8Bit)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(2024);
    const NetworkWeights weights = random_weights(net, rng);
    FloatTensor input({1, 8, 8});
    input.fillUniform(rng, 0.0, 1.0);

    FunctionalExecutor exec;
    const FunctionalResult got =
        exec.run(NetworkPlan::compile(net, weights, 8), input);
    const FloatTensor expected = reference_run(net, input, weights);

    ASSERT_EQ(got.output.size(), expected.size());
    // Probabilities after softmax: close element-wise, same argmax.
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_NEAR(got.output[i], expected[i], 0.08) << i;
    EXPECT_EQ(argmax(got.output), argmax(expected));
}

TEST(Functional, DatapathActuallyUsedLutsAndRom)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(7);
    const NetworkWeights weights = random_weights(net, rng);
    FloatTensor input({1, 8, 8});
    input.fillUniform(rng, 0.0, 1.0);

    FunctionalExecutor exec;
    const FunctionalResult r =
        exec.run(NetworkPlan::compile(net, weights, 8), input);
    EXPECT_GT(r.stats.macs, 0u);
    EXPECT_GT(r.stats.cycles, 0u);
    // Conv layers hit the sub-array LUT; the FC hit the ROM.
    EXPECT_GT(r.stats.counts.lutLookups, 0u);
    EXPECT_GT(r.stats.counts.romLookups, 0u);
    EXPECT_GT(exec.energy().total(), 0.0);
}

TEST(Functional, FourBitDegradesGracefully)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(99);
    const NetworkWeights weights = random_weights(net, rng);
    FloatTensor input({1, 8, 8});
    input.fillUniform(rng, 0.0, 1.0);

    FunctionalExecutor exec8;
    FunctionalExecutor exec4;
    const FloatTensor expected = reference_run(net, input, weights);
    const FunctionalResult got4 =
        exec4.run(NetworkPlan::compile(net, weights, 4), input);

    // 4-bit is coarser but must stay a valid distribution.
    float sum = 0.0f;
    for (std::size_t i = 0; i < got4.output.size(); ++i) {
        EXPECT_GE(got4.output[i], -0.01f);
        sum += got4.output[i];
    }
    EXPECT_NEAR(sum, 1.0f, 0.1f);
    (void)expected;
}

TEST(Functional, ConvOnlyNetworkExact)
{
    // With weights/inputs that are exactly representable under the
    // symmetric quantizer, the LUT conv is nearly exact.
    Network net("conv-only", {1, 4, 4});
    net.add(make_conv("c", {1, 4, 4}, 2, 3, 1, 1));

    NetworkWeights weights(1);
    weights[0].weights.assign(18, 0.0f);
    weights[0].weights[0] = 1.0f;
    weights[0].weights[4] = -1.0f;
    weights[0].weights[9] = 0.5f;
    weights[0].bias = {0.0f, 0.25f};

    bfree::sim::Rng rng(4);
    FloatTensor input({1, 4, 4});
    input.fillUniform(rng, -1.0, 1.0);

    FunctionalExecutor exec;
    const FunctionalResult got =
        exec.run(NetworkPlan::compile(net, weights, 8), input);
    const FloatTensor expected =
        reference_run(net, input, weights);
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_NEAR(got.output[i], expected[i], 0.05) << i;
}

TEST(Functional, SixteenBitTracksReferenceTightly)
{
    // Higher precision, tighter agreement: the 16-bit quantizer should
    // land much closer to the float reference than the 8-bit one, on
    // the conv's patch spans and the FC's matmul spans alike.
    Network conv("conv16", {1, 6, 6});
    conv.add(make_conv("c", {1, 6, 6}, 3, 3, 1, 1));
    Network fc("fc16", {32, 1, 1});
    fc.add(make_fc("f", 32, 8));

    for (const Network &net : {conv, fc}) {
        bfree::sim::Rng rng(314);
        const NetworkWeights weights = random_weights(net, rng);
        FloatTensor input(
            {net.input().c, net.input().h, net.input().w});
        input.fillUniform(rng, -1.0, 1.0);

        FunctionalExecutor exec8;
        FunctionalExecutor exec16;
        const FloatTensor expected = reference_run(net, input, weights);
        const FunctionalResult got8 =
            exec8.run(NetworkPlan::compile(net, weights, 8), input);
        const FunctionalResult got16 =
            exec16.run(NetworkPlan::compile(net, weights, 16), input);

        float worst8 = 0.0f;
        float worst16 = 0.0f;
        for (std::size_t i = 0; i < expected.size(); ++i) {
            worst8 = std::max(worst8,
                              std::abs(got8.output[i] - expected[i]));
            worst16 = std::max(worst16,
                               std::abs(got16.output[i] - expected[i]));
        }
        EXPECT_LT(worst16, worst8 + 1e-6f) << net.name();
        EXPECT_LT(worst16, 1e-3f) << net.name();
    }
}

TEST(Functional, SixteenBitConvBooksEveryMac)
{
    // The 16-bit conv books what Bce::dotProduct books per filter
    // span: one MAC and bits/4 = 4 conv cycles per element, each
    // multiply's micro-ops, and len - 1 accumulator adds.
    Network net("conv16", {1, 5, 5});
    net.add(make_conv("c", {1, 5, 5}, 2, 3, 1, 0));
    bfree::sim::Rng rng(17);
    const NetworkWeights weights = random_weights(net, rng);
    FloatTensor input({1, 5, 5});
    input.fillUniform(rng, -1.0, 1.0);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 16);
    FunctionalExecutor exec;
    const FunctionalResult r = exec.run(plan, input);

    EXPECT_EQ(r.stats.macs, net.layers()[0].macs());
    EXPECT_EQ(r.stats.cycles, 4 * r.stats.macs);

    bfree::tech::CacheGeometry geom;
    bfree::tech::TechParams tech;
    bfree::mem::EnergyAccount account;
    bfree::mem::Subarray subarray(geom, tech, account);
    bfree::bce::Bce ref(subarray, tech, account);
    ref.loadMultLutImage();
    const SymQuant qi = choose_sym(input.data(), input.size(), 16);
    const QuantizedWeights &fw = plan.layers()[0].frozen[0];
    std::uint64_t spans = 0;
    for (unsigned f = 0; f < 2; ++f, spans += 9)
        for (unsigned oh = 0; oh < 3; ++oh)
            for (unsigned ow = 0; ow < 3; ++ow)
                for (unsigned k = 0; k < 9; ++k)
                    (void)ref.multiply(
                        fw.q32[f * 9 + k],
                        qi.q(input[(oh + k / 3) * 5 + ow + k % 3]), 16);
    EXPECT_EQ(r.stats.counts.adds, ref.stats().counts.adds + spans * 8);
    EXPECT_EQ(r.stats.counts.lutLookups, ref.stats().counts.lutLookups);
}

TEST(Functional, RandomWeightsAreReproducible)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng1(55);
    bfree::sim::Rng rng2(55);
    const NetworkWeights w1 = random_weights(net, rng1);
    const NetworkWeights w2 = random_weights(net, rng2);
    ASSERT_EQ(w1.size(), w2.size());
    for (std::size_t i = 0; i < w1.size(); ++i)
        EXPECT_EQ(w1[i].weights, w2[i].weights);
}

TEST(FunctionalDeath, WeightCountMismatch)
{
    const Network net = make_tiny_cnn();
    FunctionalExecutor exec;
    FloatTensor input({1, 8, 8});
    EXPECT_DEATH((void)exec.run(
                     NetworkPlan::compile(net, NetworkWeights{}, 8), input),
                 "weight entries");
}
