/**
 * @file
 * Functional LSTM and attention through the LUT datapath vs the float
 * references — the RNN/transformer counterpart of the CNN end-to-end
 * test.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/functional.hh"
#include "dnn/model_zoo.hh"

using namespace bfree::core;
using namespace bfree::dnn;

namespace {

LayerWeights
lstm_weights(const Layer &cell, bfree::sim::Rng &rng)
{
    LayerWeights w;
    w.weights.resize(std::size_t(4) * cell.lstmHidden
                     * (cell.lstmInput + cell.lstmHidden));
    w.bias.resize(std::size_t(4) * cell.lstmHidden);
    for (float &v : w.weights)
        v = static_cast<float>(rng.uniformReal(-0.4, 0.4));
    for (float &v : w.bias)
        v = static_cast<float>(rng.uniformReal(-0.1, 0.1));
    return w;
}

/** A one-layer plan: the executor's LSTM and attention entry points
 *  run compiled plans. */
NetworkPlan
one_layer_plan(const Layer &layer, const LayerWeights &w, unsigned bits)
{
    Network net(layer.name, layer.input);
    net.add(layer);
    return NetworkPlan::compile(net, {w}, bits);
}

} // namespace

TEST(FunctionalLstm, StepTracksReference)
{
    // 16-bit gates stay inside the 8-bit bounds.
    const Layer cell = make_lstm_cell("cell", 6, 12);
    for (const unsigned bits : {8u, 16u}) {
        bfree::sim::Rng rng(31);
        const LayerWeights w = lstm_weights(cell, rng);
        const NetworkPlan plan = one_layer_plan(cell, w, bits);

        LstmState ref_state;
        ref_state.h.assign(12, 0.0f);
        ref_state.c.assign(12, 0.0f);
        LstmState lut_state = ref_state;

        FunctionalExecutor exec;
        for (int t = 0; t < 5; ++t) {
            std::vector<float> x(6);
            for (float &v : x)
                v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
            ref_state = reference_lstm_step(cell, x, ref_state,
                                            w.weights, w.bias);
            lut_state = exec.runLstmStep(plan, 0, x, lut_state);

            for (unsigned j = 0; j < 12; ++j) {
                EXPECT_NEAR(lut_state.h[j], ref_state.h[j], 0.12)
                    << bits << " bits t=" << t << " j=" << j;
                EXPECT_NEAR(lut_state.c[j], ref_state.c[j], 0.15)
                    << bits << " bits t=" << t << " j=" << j;
            }
        }
    }
}

TEST(FunctionalLstm, StateStaysBounded)
{
    const Layer cell = make_lstm_cell("cell", 4, 8);
    bfree::sim::Rng rng(32);
    const LayerWeights w = lstm_weights(cell, rng);

    const NetworkPlan plan = one_layer_plan(cell, w, 8);

    FunctionalExecutor exec;
    LstmState state;
    state.h.assign(8, 0.0f);
    state.c.assign(8, 0.0f);
    std::vector<float> x = {0.5f, -0.5f, 0.25f, -0.25f};
    for (int t = 0; t < 20; ++t) {
        state = exec.runLstmStep(plan, 0, x, state);
        for (float h : state.h)
            EXPECT_LT(std::abs(h), 1.05f);
    }
}

TEST(FunctionalLstm, UsesTheRomAndPwlTables)
{
    const Layer cell = make_lstm_cell("cell", 4, 8);
    bfree::sim::Rng rng(33);
    const LayerWeights w = lstm_weights(cell, rng);

    const NetworkPlan plan = one_layer_plan(cell, w, 8);

    FunctionalExecutor exec;
    LstmState state;
    state.h.assign(8, 0.0f);
    state.c.assign(8, 0.0f);
    exec.runLstmStep(plan, 0, {0.1f, 0.2f, 0.3f, 0.4f}, state);

    EXPECT_GT(exec.stats().counts.romLookups, 0u); // gate matvecs
    EXPECT_GT(exec.stats().counts.lutLookups, 0u); // PWL fetches
    EXPECT_GT(exec.stats().macs, 0u);
}

TEST(FunctionalAttention, TracksReference)
{
    const Layer attn = make_attention("attn", 6, 8, 1);
    bfree::sim::Rng rng(41);

    FloatTensor input({6, 8});
    input.fillUniform(rng, -1.0, 1.0);

    const std::size_t dd = 64;
    LayerWeights w;
    w.weights.resize(4 * dd);
    for (float &v : w.weights)
        v = static_cast<float>(rng.uniformReal(-0.35, 0.35));

    const std::vector<float> wq(w.weights.begin(), w.weights.begin() + dd);
    const std::vector<float> wk(w.weights.begin() + dd,
                                w.weights.begin() + 2 * dd);
    const std::vector<float> wv(w.weights.begin() + 2 * dd,
                                w.weights.begin() + 3 * dd);
    const std::vector<float> wo(w.weights.begin() + 3 * dd,
                                w.weights.end());
    const FloatTensor expected =
        reference_attention(attn, input, wq, wk, wv, wo);

    // 16-bit projections stay inside the 8-bit bounds.
    for (const unsigned bits : {8u, 16u}) {
        FunctionalExecutor exec;
        const FloatTensor got =
            exec.runAttention(one_layer_plan(attn, w, bits), 0, input);

        ASSERT_EQ(got.shape(), expected.shape());
        float worst = 0.0f;
        for (std::size_t i = 0; i < got.size(); ++i)
            worst = std::max(worst, std::abs(got[i] - expected[i]));
        EXPECT_LT(worst, 0.25f) << bits;

        // Correlation sanity: the quantized output must track the
        // reference direction, not just its magnitude.
        double dot = 0.0;
        double na = 0.0;
        double nb = 0.0;
        for (std::size_t i = 0; i < got.size(); ++i) {
            dot += double(got[i]) * expected[i];
            na += double(got[i]) * got[i];
            nb += double(expected[i]) * expected[i];
        }
        EXPECT_GT(dot / (std::sqrt(na) * std::sqrt(nb) + 1e-12), 0.98)
            << bits;
    }
}

TEST(FunctionalAttention, SoftmaxRowsDistributeAttention)
{
    // With identity projections the context rows are convex
    // combinations of the input rows: bounded by input extremes.
    const Layer attn = make_attention("attn", 4, 4, 1);
    bfree::sim::Rng rng(42);
    FloatTensor input({4, 4});
    input.fillUniform(rng, -1.0, 1.0);

    LayerWeights w;
    w.weights.assign(4 * 16, 0.0f);
    for (unsigned block = 0; block < 4; ++block)
        for (unsigned i = 0; i < 4; ++i)
            w.weights[block * 16 + i * 4 + i] = 1.0f;

    FunctionalExecutor exec;
    const FloatTensor out =
        exec.runAttention(one_layer_plan(attn, w, 8), 0, input);
    float lo = 1e9f;
    float hi = -1e9f;
    for (std::size_t i = 0; i < input.size(); ++i) {
        lo = std::min(lo, input[i]);
        hi = std::max(hi, input[i]);
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_GE(out[i], lo - 0.2f);
        EXPECT_LE(out[i], hi + 0.2f);
    }
}

TEST(FunctionalQMatmul, MatchesFloatWithinQuantization)
{
    bfree::sim::Rng rng(43);
    FloatTensor a({5, 7});
    a.fillUniform(rng, -1.0, 1.0);
    std::vector<float> w(7 * 3);
    for (float &v : w)
        v = static_cast<float>(rng.uniformReal(-1.0, 1.0));

    // 16-bit products stay inside the 8-bit bound.
    for (const unsigned bits : {8u, 16u}) {
        FunctionalExecutor exec;
        const FloatTensor got = exec.qMatmulFrozen(
            a, freeze_weights_transposed(w.data(), 7, 3, bits), 7, 3);

        for (std::size_t i = 0; i < 5; ++i) {
            for (std::size_t j = 0; j < 3; ++j) {
                float ref = 0.0f;
                for (std::size_t p = 0; p < 7; ++p)
                    ref += a.at(i, p) * w[p * 3 + j];
                EXPECT_NEAR(got.at(i, j), ref, 0.08)
                    << bits << " bits " << i << "," << j;
            }
        }
    }
}
