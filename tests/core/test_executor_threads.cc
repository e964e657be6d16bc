/**
 * @file
 * Executor thread invariance: one inference split over 1, 2, 3 or 4
 * executor threads (conv output rows in contiguous chunks, matmul
 * weight rows in contiguous blocks) must give byte-identical outputs,
 * BceStats and energy. The shapes are chosen so the splits are ragged,
 * leave some threads without rows, and cross the matmul split
 * threshold.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bce/simd_kernels.hh"
#include "core/functional.hh"
#include "dnn/model_zoo.hh"

using namespace bfree;
using bce::ExecTier;
using core::FunctionalExecutor;
using core::NetworkPlan;
using dnn::FloatTensor;

namespace {

constexpr unsigned kThreads[] = {1, 2, 3, 4};

/** Everything an inference leaves behind that must not depend on the
 *  executor's thread count. */
struct Outcome
{
    std::vector<float> out;
    bce::BceStats stats;
    double energy = 0.0;
};

Outcome
outcome(FunctionalExecutor &ex, std::vector<float> out)
{
    return {std::move(out), ex.stats(), ex.energy().total()};
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

/**
 * Convs whose output heights split raggedly: 7 rows (3 threads take
 * 2, 2 and 3), then 3 and 2 rows, which leave threads without rows.
 * Then an FC of 192 x 8190 MACs, which splits into blocks with a
 * ragged last one, with its ReLU folded, and a small FC that does not
 * split.
 */
dnn::Network
ragged_net()
{
    dnn::Network net("ragged", {3, 7, 9});
    const dnn::Layer a = dnn::make_conv("conv_a", net.input(), 8, 3, 1, 1);
    net.add(a);
    net.add(dnn::make_activation("relu_a", dnn::LayerKind::Relu,
                                 a.outputShape()));
    const dnn::Layer b =
        dnn::make_conv("conv_b", a.outputShape(), 16, 3, 2, 0);
    net.add(b);
    const dnn::Layer c =
        dnn::make_conv("conv_c", b.outputShape(), 32, 2, 1, 0);
    net.add(c);
    const dnn::FeatureShape s = c.outputShape();
    const unsigned flat = s.c * s.h * s.w;
    net.add(dnn::make_fc("fc_wide", flat, 8190));
    net.add(dnn::make_activation("relu_fc", dnn::LayerKind::Relu,
                                 {8190, 1, 1}));
    net.add(dnn::make_fc("fc_out", 8190, 10));
    return net;
}

/** Run @p net at @p bits on @p tier at every thread count (two
 *  inferences each, the second on warm tables) against one thread. */
void
expect_plan_invariant(const dnn::Network &net, unsigned bits,
                      ExecTier tier, std::uint64_t seed)
{
    sim::Rng rng(seed);
    const NetworkPlan plan =
        NetworkPlan::compile(net, core::random_weights(net, rng), bits);
    const dnn::FeatureShape in = net.input();
    std::vector<FloatTensor> inputs;
    for (int i = 0; i < 2; ++i) {
        FloatTensor t({in.c, in.h, in.w});
        t.fillUniform(rng, -1.0, 1.0);
        inputs.push_back(std::move(t));
    }

    Outcome one;
    for (const unsigned threads : kThreads) {
        FunctionalExecutor ex({}, {}, tier, threads);
        ASSERT_EQ(ex.threads(), threads);
        std::vector<float> out;
        for (const FloatTensor &t : inputs) {
            const FloatTensor o = ex.run(plan, t).output;
            out.insert(out.end(), o.data(), o.data() + o.size());
        }
        const Outcome got = outcome(ex, std::move(out));
        if (threads == 1)
            one = got;
        else
            expect_same(one, got,
                        net.name() + " at " + std::to_string(bits)
                            + " bits, " + std::to_string(threads)
                            + " threads, tier "
                            + (tier == ExecTier::Tiered ? "Tiered"
                                                        : "Legacy"));
    }
}

} // namespace

TEST(ExecutorThreads, RaggedSplitsMatchOneThread)
{
    // The wide FC must cross the split threshold at every thread count
    // under test, or its split would go untested.
    ASSERT_GE(192u * 8190u, 4 * FunctionalExecutor::minMatmulMacsPerBlock);
    for (const unsigned bits : {8u, 4u})
        for (const ExecTier tier : {ExecTier::Tiered, ExecTier::Legacy})
            expect_plan_invariant(ragged_net(), bits, tier, 11 + bits);
}

TEST(ExecutorThreads, TinyCnnMatchesOneThread)
{
    for (const unsigned bits : {8u, 4u})
        for (const ExecTier tier : {ExecTier::Tiered, ExecTier::Legacy})
            expect_plan_invariant(dnn::make_tiny_cnn(), bits, tier,
                                  23 + bits);
}

TEST(ExecutorThreads, QMatmulFrozenMatchesOneThread)
{
    // m = 3 activation rows against n = 2046 weight rows (a ragged last
    // block), frozen with and without the plan's feature and row sums.
    constexpr std::size_t m = 3, k = 256, n = 2046;
    ASSERT_GE(m * k * n, 4 * FunctionalExecutor::minMatmulMacsPerBlock);
    sim::Rng rng(31);
    std::vector<float> w(k * n);
    for (float &v : w)
        v = static_cast<float>(rng.uniformReal(-0.5, 0.5));
    FloatTensor a({m, k});
    a.fillUniform(rng, -1.0, 1.0);

    for (const unsigned bits : {8u, 4u}) {
        dnn::QuantizedWeights bare =
            dnn::freeze_weights_transposed(w.data(), k, n, bits);
        dnn::QuantizedWeights summed = bare;
        summed.features.resize(bce::Bce::tileScratchWords(k));
        bce::simd::class_feature_sums(summed.q8.data(), n, k,
                                      summed.features.data());
        summed.rowSums.resize(n);
        bce::simd::weight_row_sums(summed.q8.data(), n, k,
                                   summed.rowSums.data());

        for (const dnn::QuantizedWeights *wt : {&bare, &summed}) {
            Outcome one;
            for (const unsigned threads : kThreads) {
                FunctionalExecutor ex({}, {}, ExecTier::Tiered, threads);
                const FloatTensor o = ex.qMatmulFrozen(a, *wt, k, n);
                const Outcome got = outcome(
                    ex, std::vector<float>(o.data(), o.data() + o.size()));
                if (threads == 1)
                    one = got;
                else
                    expect_same(one, got,
                                "qMatmulFrozen at " + std::to_string(bits)
                                    + " bits, " + std::to_string(threads)
                                    + " threads"
                                    + (wt == &bare ? ", bare" : ""));
            }
        }
    }
}

TEST(ExecutorThreads, QMatmulFrozenOverPaddedRowsMatchesDense)
{
    // The same n x k tile frozen dense and with 64-byte padded rows
    // (k = 250 pads to 256, the layout of the LSTM gate matrix): every
    // tier and thread count must give the dense tile's bytes, through
    // the split GEMM on m = 1 and m = 3 rows and the per-span loop.
    constexpr std::size_t k = 250, n = 2050;
    sim::Rng rng(43);
    std::vector<float> w(n * k);
    for (float &v : w)
        v = static_cast<float>(rng.uniformReal(-0.5, 0.5));
    for (const unsigned bits : {8u, 4u}) {
        dnn::QuantizedWeights dense =
            dnn::freeze_weights(w.data(), n * k, bits);
        dense.features.resize(bce::Bce::tileScratchWords(k));
        bce::simd::class_feature_sums(dense.q8.data(), n, k,
                                      dense.features.data());
        dense.rowSums.resize(n);
        bce::simd::weight_row_sums(dense.q8.data(), n, k,
                                   dense.rowSums.data());
        dnn::QuantizedWeights padded =
            dnn::freeze_weights_padded(w.data(), n, k, bits);
        ASSERT_EQ(padded.rowStride(k), 256u);
        ASSERT_EQ(padded.count(), dense.count());
        padded.features = dense.features;
        padded.rowSums = dense.rowSums;
        for (const std::size_t m : {1u, 3u}) {
            FloatTensor a({m, k});
            a.fillUniform(rng, -1.0, 1.0);
            for (const ExecTier tier : {ExecTier::Tiered, ExecTier::Legacy}) {
                FunctionalExecutor ref({}, {}, tier, 1);
                const FloatTensor r = ref.qMatmulFrozen(a, dense, k, n);
                const Outcome want = outcome(
                    ref, std::vector<float>(r.data(), r.data() + r.size()));
                for (const unsigned threads : kThreads) {
                    FunctionalExecutor ex({}, {}, tier, threads);
                    const FloatTensor o = ex.qMatmulFrozen(a, padded, k, n);
                    expect_same(want,
                                outcome(ex, std::vector<float>(
                                                o.data(), o.data() + o.size())),
                                "padded qMatmulFrozen at "
                                    + std::to_string(bits) + " bits, m = "
                                    + std::to_string(m) + ", "
                                    + std::to_string(threads) + " threads, "
                                    + (tier == ExecTier::Tiered ? "Tiered"
                                                                : "Legacy"));
                }
            }
        }
    }
}

namespace {

/** h and c of every step of @p xs from a zero state, appended. */
std::vector<float>
lstm_steps(FunctionalExecutor &ex, const NetworkPlan &plan,
           const std::vector<std::vector<float>> &xs)
{
    const dnn::Layer &cell = plan.layers()[0].layer;
    dnn::LstmState s{std::vector<float>(cell.lstmHidden),
                     std::vector<float>(cell.lstmHidden)};
    std::vector<float> out;
    for (const std::vector<float> &x : xs) {
        s = ex.runLstmStep(plan, 0, x, s);
        out.insert(out.end(), s.h.begin(), s.h.end());
        out.insert(out.end(), s.c.begin(), s.c.end());
    }
    return out;
}

/** Three random inputs for the cell of @p net. */
std::vector<std::vector<float>>
lstm_inputs(const dnn::Network &net, sim::Rng &rng)
{
    std::vector<std::vector<float>> xs(
        3, std::vector<float>(net.layers()[0].lstmInput));
    for (std::vector<float> &x : xs)
        for (float &v : x)
            v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    return xs;
}

} // namespace

TEST(ExecutorThreads, LstmStepMatchesOneThread)
{
    // 4 x 512 gate rows of 39 + 512 columns, the step's fork at every
    // count; then 300 hidden units (19 groups of 16 and a ragged last
    // group, which neither 3 nor 4 threads divide evenly) at 383, 384
    // and 385 columns, around a multiple of the 64-byte row stride.
    struct Shape
    {
        unsigned in, hid;
    };
    for (const Shape shape : {Shape{39, 512}, Shape{83, 300},
                              Shape{84, 300}, Shape{85, 300}}) {
        const dnn::Network net = dnn::make_lstm(shape.in, shape.hid, 3);
        sim::Rng rng(47 + shape.in);
        const NetworkPlan plan = NetworkPlan::compile(
            net, core::random_weights(net, rng, 0.05), 8);
        const std::vector<std::vector<float>> xs = lstm_inputs(net, rng);
        // The Legacy tier (the PWL oracle, the per-span matmul) on one
        // thread is the reference for the Tiered step at every count.
        FunctionalExecutor ref({}, {}, ExecTier::Legacy, 1);
        const Outcome legacy = outcome(ref, lstm_steps(ref, plan, xs));
        for (const unsigned threads : kThreads) {
            FunctionalExecutor ex({}, {}, ExecTier::Tiered, threads);
            expect_same(legacy, outcome(ex, lstm_steps(ex, plan, xs)),
                        "runLstmStep " + std::to_string(shape.in) + " + "
                            + std::to_string(shape.hid) + ", "
                            + std::to_string(threads)
                            + " threads vs Legacy");
        }
    }
}

TEST(ExecutorThreads, TwoLstmExecutorsAtOnceMatchLegacy)
{
    // Two executors of four threads each step one shared plan at the
    // same time from two threads: eight pool threads on a four-CPU
    // host, where owners are often late and their slices stolen. Each
    // must still give the Legacy bytes.
    const dnn::Network net = dnn::make_lstm(39, 256, 3);
    sim::Rng rng(53);
    const NetworkPlan plan = NetworkPlan::compile(
        net, core::random_weights(net, rng, 0.05), 8);
    const std::vector<std::vector<float>> xs = lstm_inputs(net, rng);
    FunctionalExecutor ref({}, {}, ExecTier::Legacy, 1);
    const Outcome legacy = outcome(ref, lstm_steps(ref, plan, xs));

    constexpr int rounds = 20;
    std::vector<Outcome> got[2];
    const auto client = [&](int c) {
        for (int r = 0; r < rounds; ++r) {
            FunctionalExecutor ex({}, {}, ExecTier::Tiered, 4);
            got[c].push_back(outcome(ex, lstm_steps(ex, plan, xs)));
        }
    };
    std::thread other(client, 1);
    client(0);
    other.join();
    for (int c = 0; c < 2; ++c)
        for (int r = 0; r < rounds; ++r)
            expect_same(legacy, got[c][r],
                        "client " + std::to_string(c) + ", round "
                            + std::to_string(r));
}
