/**
 * @file
 * Execution-plan parity and steady-state guarantees: a compiled
 * NetworkPlan (weights frozen once) must match a freshly compiled one
 * float-for-float on every reuse, the batch runner must be
 * bit-identical to a sequential loop for any thread count, and the
 * steady-state path must make zero heap allocations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bce/simd_kernels.hh"
#include "core/conv_front.hh"
#include "core/functional.hh"
#include "dnn/im2col.hh"
#include "dnn/model_zoo.hh"
#include "simd_levels.hh"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps
// g_heap_allocs, so a test can assert that a code region allocated
// nothing. Counting is the only change; allocation still comes from
// malloc and failure still throws.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void *
counted_alloc(std::size_t n)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}
} // namespace

void *operator new(std::size_t n) { return counted_alloc(n); }
void *operator new[](std::size_t n) { return counted_alloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(a),
                                     (n + static_cast<std::size_t>(a) - 1)
                                         / static_cast<std::size_t>(a)
                                         * static_cast<std::size_t>(a)))
        return p;
    throw std::bad_alloc{};
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace bfree::core;
using namespace bfree::dnn;

namespace {

void
expect_stats_eq(const bfree::bce::BceStats &a,
                const bfree::bce::BceStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.configLoads, b.configLoads);
    EXPECT_EQ(a.counts.lutLookups, b.counts.lutLookups);
    EXPECT_EQ(a.counts.romLookups, b.counts.romLookups);
    EXPECT_EQ(a.counts.shifts, b.counts.shifts);
    EXPECT_EQ(a.counts.adds, b.counts.adds);
    EXPECT_EQ(a.counts.cycles, b.counts.cycles);
    for (std::size_t m = 0; m < a.cyclesByMode.size(); ++m)
        EXPECT_EQ(a.cyclesByMode[m], b.cyclesByMode[m]) << "mode " << m;
    EXPECT_EQ(a.lutReadsPim, b.lutReadsPim);
    EXPECT_EQ(a.lutReadsCache, b.lutReadsCache);
    EXPECT_EQ(a.specialLutEvents, b.specialLutEvents);
}

void
expect_bitwise_eq(const FloatTensor &a, const FloatTensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             a.size() * sizeof(float)));
}

} // namespace

TEST(NetworkPlan, EstimateMatchesCompileSizing)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(11);
    const NetworkWeights weights = random_weights(net, rng);

    for (unsigned bits : {4u, 8u, 16u}) {
        const PlanStats est = NetworkPlan::estimate(net, bits);
        const NetworkPlan plan = NetworkPlan::compile(net, weights, bits);
        EXPECT_EQ(est.arenaBytes, plan.stats().arenaBytes) << bits;
        EXPECT_EQ(est.activationBytes, plan.stats().activationBytes);
        EXPECT_EQ(est.peakScratchBytes, plan.stats().peakScratchBytes);
        EXPECT_EQ(est.maxActivationElems,
                  plan.stats().maxActivationElems);
        EXPECT_GT(plan.stats().frozenValues, 0u);
        EXPECT_GT(plan.stats().frozenWeightBytes, 0u);
        EXPECT_EQ(plan.inputElems(), net.input().elements());
        EXPECT_EQ(plan.layers().size(), net.layers().size());
    }
}

TEST(NetworkPlan, FrozenBytesCountFeatureAndRowSums)
{
    // The frozen footprint is everything compile froze: the quantized
    // values plus, for tile precisions, one feature array per weight
    // tensor and one row sum per weight row, and for tile-precision
    // convs on a host that runs the AMX core, the filters' B panel.
    const bool amx =
        bfree::sim::simd_level_compiled(bfree::sim::SimdLevel::AmxInt8)
        && bfree::sim::simd_level_supported(bfree::sim::SimdLevel::AmxInt8);
    // An LSTM's gate rows are frozen padded, and the padding counts
    // (LstmGateRowsFrozenPaddedInPlace checks the layout).
    for (const Network &net : {make_tiny_cnn(), make_lstm(39, 70, 1)}) {
        bfree::sim::Rng rng(13);
        const NetworkWeights weights = random_weights(net, rng);
        for (unsigned bits : {4u, 8u, 16u}) {
            const NetworkPlan plan = NetworkPlan::compile(net, weights, bits);
            std::size_t total = 0;
            for (const PlannedLayer &pl : plan.layers()) {
                for (const QuantizedWeights &qw : pl.frozen) {
                    const std::size_t values =
                        qw.narrow() ? qw.q8.size()
                                    : qw.q32.size() * sizeof(std::int32_t);
                    EXPECT_EQ(qw.narrow(), !qw.rowSums.empty()) << bits;
                    const bool panel = amx && qw.narrow()
                                       && pl.layer.kind == LayerKind::Conv;
                    EXPECT_EQ(panel, !qw.panel.empty())
                        << pl.layer.name << " at " << bits << " bits";
                    if (panel) {
                        // One panel group per kernel row.
                        const bfree::bce::simd::ConvRows g =
                            bfree::core::conv_rows(pl.layer);
                        EXPECT_EQ(bfree::bce::simd::panel_bytes(
                                      g.filters, g.kernelH, g.run()),
                                  qw.panel.size() * 64);
                    }
                    EXPECT_EQ(qw.frozenBytes(),
                              values
                                  + qw.features.size() * sizeof(std::uint32_t)
                                  + qw.rowSums.size() * sizeof(std::int32_t)
                                  + qw.panel.size() * 64)
                        << pl.layer.name << " at " << bits << " bits";
                    total += qw.frozenBytes();
                }
            }
            EXPECT_EQ(plan.stats().frozenWeightBytes, total) << bits;
        }
    }
}

TEST(NetworkPlan, LstmGateRowsFrozenPaddedInPlace)
{
    // The gate matrix is frozen once, straight into rows at a 64-byte
    // multiple stride with row 0 on a cache line and zeros past cols:
    // the dense values, scale, feature and row sums, no second copy.
    for (const unsigned hid : {70u, 25u}) {
        const Network net = make_lstm(39, hid, 1);
        bfree::sim::Rng rng(17);
        const NetworkWeights weights = random_weights(net, rng);
        const std::size_t cols = 39 + hid;
        const std::size_t rows = std::size_t(4) * hid;
        for (const unsigned bits : {4u, 8u}) {
            const NetworkPlan plan = NetworkPlan::compile(net, weights, bits);
            const QuantizedWeights &qw = plan.layers()[0].frozen[0];
            const QuantizedWeights dense = bfree::dnn::freeze_weights(
                weights[0].weights.data(), rows * cols, bits);
            const std::size_t stride = qw.rowStride(cols);
            EXPECT_EQ(stride % 64, 0u);
            EXPECT_GE(stride, cols);
            EXPECT_LT(stride, cols + 64);
            EXPECT_EQ(reinterpret_cast<std::uintptr_t>(qw.tile()) % 64, 0u);
            EXPECT_EQ(qw.q8.size(), rows * stride + 63);
            EXPECT_EQ(qw.count(), rows * cols);
            EXPECT_EQ(plan.stats().frozenValues, rows * cols);
            EXPECT_EQ(qw.scale.scale, dense.scale.scale);
            for (std::size_t r = 0; r < rows; ++r) {
                ASSERT_EQ(0, std::memcmp(qw.tile() + r * stride,
                                         dense.q8.data() + r * cols, cols))
                    << "row " << r;
                for (std::size_t c = cols; c < stride; ++c)
                    ASSERT_EQ(qw.tile()[r * stride + c], 0)
                        << "row " << r << " pad " << c;
            }
            std::vector<std::uint32_t> features(
                bfree::bce::Bce::tileScratchWords(cols));
            bfree::bce::simd::class_feature_sums(dense.q8.data(), rows, cols,
                                                 features.data());
            EXPECT_EQ(qw.features, features) << bits;
            std::vector<std::int32_t> rowSums(rows);
            bfree::bce::simd::weight_row_sums(dense.q8.data(), rows, cols,
                                              rowSums.data());
            EXPECT_EQ(qw.rowSums, rowSums) << bits;
        }
    }
}

TEST(NetworkPlan, TinyCnnPlanReuseMatchesFreshCompile)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(2024);
    const NetworkWeights weights = random_weights(net, rng);

    for (unsigned bits : {4u, 8u, 16u}) {
        const NetworkPlan plan = NetworkPlan::compile(net, weights, bits);
        for (int trial = 0; trial < 3; ++trial) {
            FloatTensor input({1, 8, 8});
            input.fillUniform(rng, 0.0, 1.0);

            // The plan (weights frozen once, reused across trials)
            // against a plan compiled afresh for this one input.
            FunctionalExecutor planned;
            FunctionalExecutor fresh;
            const FunctionalResult a = planned.run(plan, input);
            const FunctionalResult b =
                fresh.run(NetworkPlan::compile(net, weights, bits), input);

            expect_bitwise_eq(a.output, b.output);
            expect_stats_eq(a.stats, b.stats);
            EXPECT_EQ(planned.energy().total(), fresh.energy().total());
        }
        EXPECT_EQ(plan.runsServed(), 3u);
    }
}

TEST(NetworkPlanBatch, BitIdenticalToSequentialAtAnyThreadCount)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(77);
    const NetworkWeights weights = random_weights(net, rng);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 8);

    std::vector<FloatTensor> inputs;
    for (int i = 0; i < 7; ++i) {
        FloatTensor in({1, 8, 8});
        in.fillUniform(rng, 0.0, 1.0);
        inputs.push_back(std::move(in));
    }

    // Sequential reference: one long-lived executor, parked after every
    // input exactly like the batch runner, keeping per-input deltas.
    std::vector<FloatTensor> seq_outputs;
    std::vector<bfree::bce::BceStats> seq_deltas;
    {
        FunctionalExecutor exec;
        for (const FloatTensor &in : inputs) {
            const bfree::bce::BceStats before = exec.stats();
            seq_outputs.push_back(exec.run(plan, in).output);
            exec.parkDatapath();
            seq_deltas.push_back(exec.stats() - before);
        }
    }

    // The whole batch, and a prefix shorter than the largest thread
    // count: there each chunk's executor gets more than one thread, so
    // executor-level threads are under test as well.
    for (const std::size_t n : {inputs.size(), std::size_t{3}}) {
        const std::vector<FloatTensor> batch(inputs.begin(),
                                             inputs.begin() + n);
        bfree::bce::BceStats seq_stats;
        for (std::size_t i = 0; i < n; ++i)
            seq_stats += seq_deltas[i];

        double energy_at_one = -1.0;
        for (unsigned threads : {1u, 2u, 8u}) {
            BatchOptions opts;
            opts.threads = threads;
            const BatchResult got = run_functional_batch(plan, batch, opts);

            // The batch's threads are shared out over its chunks.
            const std::size_t chunks = std::min<std::size_t>(threads, n);
            EXPECT_EQ(got.executorThreads,
                      std::max<std::size_t>(1, threads / chunks))
                << n << " inputs, " << threads << " threads";

            ASSERT_EQ(got.outputs.size(), n) << threads;
            for (std::size_t i = 0; i < n; ++i)
                expect_bitwise_eq(got.outputs[i], seq_outputs[i]);
            expect_stats_eq(got.stats, seq_stats);

            if (energy_at_one < 0.0)
                energy_at_one = got.energy.total();
            else
                EXPECT_EQ(got.energy.total(), energy_at_one) << threads;
        }
    }
    EXPECT_GE(plan.runsServed(), inputs.size());
}

TEST(NetworkPlanBatchDeath, RejectsWrongSizeAndNullInputs)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(77);
    const NetworkWeights weights = random_weights(net, rng);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 8);

    // One well-formed input ahead of the bad one: every input is checked
    // before any runs.
    const std::vector<FloatTensor> inputs{FloatTensor({1, 8, 8}),
                                          FloatTensor({1, 8, 7})};
    ASSERT_EQ(inputs[0].size(), plan.inputElems());
    EXPECT_DEATH((void)run_functional_batch(plan, inputs),
                 "batch input of 56 elements, plan expects 64");

    const std::vector<const FloatTensor *> borrowed{&inputs[0], nullptr};
    EXPECT_DEATH((void)run_functional_batch(plan, borrowed),
                 "null input tensor");
}

TEST(NetworkPlan, SteadyStateMakesZeroHeapAllocations)
{
    // At both tile precisions: a plan without frozen weight features
    // (range word included) or row sums (read by the VNNI GEMM core)
    // would heap-allocate them per tile call. At one and four executor
    // threads: the fork/join and the workers' row scratch must not
    // allocate either.
    for (const unsigned threads : {1u, 4u})
    for (const unsigned bits : {4u, 8u}) {
        const Network net = make_tiny_cnn();
        bfree::sim::Rng rng(55);
        const NetworkWeights weights = random_weights(net, rng);
        const NetworkPlan plan = NetworkPlan::compile(net, weights, bits);
        for (const PlannedLayer &pl : plan.layers())
            for (const QuantizedWeights &qw : pl.frozen)
                EXPECT_TRUE(qw.featureSums() != nullptr
                            && qw.rowSumData() != nullptr)
                    << pl.layer.name << " at " << bits << " bits";

        FloatTensor input({1, 8, 8});
        input.fillUniform(rng, 0.0, 1.0);
        std::vector<float> output(plan.outputElems());

        FunctionalExecutor exec({}, {}, bfree::bce::ExecTier::Tiered,
                                threads);
        ASSERT_EQ(exec.threads(), threads);
        // First run sizes the arenas and seeds the memoized datapath
        // tables.
        exec.runInto(plan, input.data(), plan.inputElems(), output.data(),
                     output.size());

        const std::uint64_t before =
            g_heap_allocs.load(std::memory_order_relaxed);
        const std::uint64_t arena_before = exec.arena().allocCount();
        exec.runInto(plan, input.data(), plan.inputElems(), output.data(),
                     output.size());
        const std::uint64_t after =
            g_heap_allocs.load(std::memory_order_relaxed);

        EXPECT_EQ(after - before, 0u)
            << "steady-state runInto must not touch the heap at " << bits
            << " bits, " << threads << " threads";
        // The scratch really is served by the arena, not skipped.
        EXPECT_GT(exec.arena().allocCount(), arena_before) << bits;
        // And the planning pass sized it exactly: the run fills the
        // arena to the byte, never beyond.
        EXPECT_EQ(exec.arena().capacity(), plan.stats().arenaBytes) << bits;
        EXPECT_EQ(exec.arena().highWater(), plan.stats().arenaBytes)
            << bits;
        // The conv row scratch is one exact slot per thread.
        const std::size_t rows = threads * plan.stats().rowScratchBytes;
        EXPECT_GT(rows, 0u);
        EXPECT_EQ(exec.rowArena().capacity(), rows) << bits;
        EXPECT_EQ(exec.rowArena().highWater(), rows) << bits;
    }
}

TEST(NetworkPlan, WarmLstmStepAllocatesOnlyTheReturnedState)
{
    // The step's rows and the PWL spans' double row live in the
    // LstmCell's planned arena scratch: a warm step's only heap
    // allocations are the returned state's h and c. 39 -> 512 splits
    // the gate matvec over four threads, so the fork/join is covered.
    const Network net = make_lstm(39, 512, 1);
    bfree::sim::Rng rng(61);
    const NetworkWeights weights = random_weights(net, rng, 0.05);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 8);
    const PlannedLayer &cell = plan.layers()[0];
    std::vector<float> x(cell.layer.lstmInput);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = 0.05f * static_cast<float>(i % 7) - 0.15f;
    for (const unsigned threads : {1u, 4u}) {
        FunctionalExecutor exec({}, {}, bfree::bce::ExecTier::Tiered,
                                threads);
        ASSERT_EQ(exec.threads(), threads);
        LstmState s{std::vector<float>(cell.layer.lstmHidden),
                    std::vector<float>(cell.layer.lstmHidden)};
        s = exec.runLstmStep(plan, 0, x, s);

        const std::uint64_t before =
            g_heap_allocs.load(std::memory_order_relaxed);
        const LstmState next = exec.runLstmStep(plan, 0, x, s);
        const std::uint64_t after =
            g_heap_allocs.load(std::memory_order_relaxed);
        EXPECT_EQ(after - before, 2u) << threads << " threads";
        EXPECT_EQ(next.h.size(), cell.layer.lstmHidden);
        EXPECT_EQ(exec.arena().highWater(), cell.scratchBytes)
            << threads << " threads";
    }
}

TEST(NetworkPlan, HighWaterTracksThePlanActuallyRun)
{
    // Re-running a smaller plan through the same executor must report
    // that plan's own peak, not a stale high-water from a larger one —
    // the arena ledger is per-plan, so the mark resets per run.
    Network big("big", {3, 8, 8});
    big.add(make_conv("b", {3, 8, 8}, 4, 3, 1, 1));
    Network small("small", {4, 4, 4});
    small.add(make_conv("s", {4, 4, 4}, 2, 2, 2, 0));
    bfree::sim::Rng rng(13);
    const NetworkWeights bw = random_weights(big, rng);
    const NetworkWeights sw = random_weights(small, rng);
    const NetworkPlan bp = NetworkPlan::compile(big, bw, 8);
    const NetworkPlan sp = NetworkPlan::compile(small, sw, 8);
    ASSERT_LT(sp.stats().arenaBytes, bp.stats().arenaBytes);

    FunctionalExecutor exec;
    FloatTensor bin({3, 8, 8});
    bin.fillUniform(rng, -1.0, 1.0);
    std::vector<float> bout(bp.outputElems());
    exec.runInto(bp, bin.data(), bp.inputElems(), bout.data(),
                 bout.size());
    EXPECT_EQ(exec.arena().highWater(), bp.stats().arenaBytes);

    FloatTensor sin({4, 4, 4});
    sin.fillUniform(rng, -1.0, 1.0);
    std::vector<float> sout(sp.outputElems());
    exec.runInto(sp, sin.data(), sp.inputElems(), sout.data(),
                 sout.size());
    EXPECT_EQ(exec.arena().highWater(), sp.stats().arenaBytes)
        << "high-water must shrink to the smaller plan's own peak";
}

namespace {

/**
 * The conv-and-folded-ReLU chain of @p plan (every Relu folded into
 * the conv before it) recomputed from its frozen weights through
 * im2col_patch_i8 and plain integer dot products, dequantized by the
 * store's specified formula: the oracle for the channels-last front.
 * The frozen filters are channels-last: CHW patch tap (c, ky, kx)
 * meets filter byte (ky * kW + kx) * inC + c.
 */
std::vector<float>
patch_oracle(const NetworkPlan &plan, unsigned bits, const float *input)
{
    std::vector<float> act(input, input + plan.inputElems());
    for (const PlannedLayer &pl : plan.layers()) {
        if (pl.layer.kind != LayerKind::Conv)
            continue; // a folded Relu passes its input through
        const Layer &l = pl.layer;
        const FeatureShape o = l.outputShape();
        const QuantizedWeights &fw = pl.frozen[0];
        const SymQuant qi = choose_sym(act.data(), act.size(), bits);
        std::vector<std::int8_t> qin(act.size());
        quantize_span(qi, act.data(), act.size(), qin.data());
        const std::size_t k =
            std::size_t(l.input.c) * l.kernelH * l.kernelW;
        std::vector<std::int8_t> patch(k);
        std::vector<float> next(o.elements());
        for (unsigned oh = 0; oh < o.h; ++oh) {
            for (unsigned ow = 0; ow < o.w; ++ow) {
                im2col_patch_i8(l, qin.data(), oh, ow, patch.data());
                for (unsigned f = 0; f < o.c; ++f) {
                    std::int32_t acc = 0;
                    std::size_t p = 0;
                    for (unsigned c = 0; c < l.input.c; ++c)
                        for (unsigned ky = 0; ky < l.kernelH; ++ky)
                            for (unsigned kx = 0; kx < l.kernelW; ++kx, ++p)
                                acc += fw.q8[f * k
                                             + (ky * l.kernelW + kx)
                                                   * l.input.c
                                             + c]
                                       * patch[p];
                    const float y =
                        static_cast<float>(acc * fw.scale.scale * qi.scale)
                        + pl.bias[f];
                    next[(std::size_t(f) * o.h + oh) * o.w + ow] =
                        pl.foldedRelu ? bfree::bce::simd::relu_q8(y) : y;
                }
            }
        }
        act = std::move(next);
    }
    return act;
}

} // namespace

TEST(NetworkPlan, TieredPlanMatchesLegacyTierAtEveryLevel)
{
    // The exactness contract through a compiled plan: the tiered
    // datapath (channels-last front, GEMM tile, histogram tallies) must
    // reproduce the full scalar Legacy tier in outputs, BceStats and
    // energy, bit for bit, on every conv window shape — disjoint
    // (stride >= kernel on one or both axes), 1x1 and padded
    // overlapping — each with a ReLU folded into its store. Both tiers
    // share the front end, so the outputs are also held to the
    // row-run patch oracle.
    const FeatureShape in{3, 18, 36};
    Layer strided = make_conv2("c1x3w3", in, 4, 1, 3, 1, 0, 0);
    strided.strideW = 3;
    const std::vector<Layer> convs = [&] {
        std::vector<Layer> ls{strided};
        ls.push_back(make_conv("c2x2s2", ls.back().outputShape(), 6, 2, 2, 0));
        ls.push_back(make_conv("c3x3s3", ls.back().outputShape(), 5, 3, 3, 0));
        ls.push_back(make_conv("c1x1", ls.back().outputShape(), 7, 1, 1, 0));
        ls.push_back(make_conv("c3x3p1", ls.back().outputShape(), 3, 3, 1, 1));
        return ls;
    }();
    Network net("windows", in);
    for (const Layer &c : convs) {
        net.add(c);
        net.add(make_activation(c.name + "/relu", LayerKind::Relu,
                                c.outputShape()));
    }
    bfree::sim::Rng rng(17);
    const NetworkWeights weights = random_weights(net, rng);
    FloatTensor input({in.c, in.h, in.w});
    input.fillUniform(rng, -1.0, 1.0);

    bfree::test::for_each_runnable_level([&](bfree::sim::SimdLevel) {
        for (unsigned bits : {4u, 8u}) {
            SCOPED_TRACE(bits);
            const NetworkPlan plan =
                NetworkPlan::compile(net, weights, bits);
            EXPECT_EQ(plan.stats().foldedRelus, 5u);
            FunctionalExecutor te({}, {}, bfree::bce::ExecTier::Tiered);
            FunctionalExecutor le({}, {}, bfree::bce::ExecTier::Legacy);
            const FunctionalResult tr = te.run(plan, input);
            const FunctionalResult lr = le.run(plan, input);
            expect_bitwise_eq(tr.output, lr.output);
            expect_stats_eq(tr.stats, lr.stats);
            EXPECT_EQ(te.energy().total(), le.energy().total());
            const std::vector<float> want =
                patch_oracle(plan, bits, input.data());
            ASSERT_EQ(want.size(), tr.output.size());
            EXPECT_EQ(0, std::memcmp(want.data(), tr.output.data(),
                                     want.size() * sizeof(float)));
        }
    });
}

namespace {

/** conv -> relu -> conv -> relu -> 2x2 maxpool -> fc -> relu -> fc, on
 *  an odd-sized input so the pool drops a row. */
Network
make_vgg_block()
{
    Network net("vgg-block", {3, 9, 10});
    net.add(make_conv("c1", {3, 9, 10}, 8, 3, 1, 1));
    net.add(make_activation("r1", LayerKind::Relu, {8, 9, 10}));
    net.add(make_conv("c2", {8, 9, 10}, 8, 3, 1, 1));
    net.add(make_activation("r2", LayerKind::Relu, {8, 9, 10}));
    net.add(make_pool("p", LayerKind::MaxPool, {8, 9, 10}, 2, 2, 0));
    net.add(make_fc("f1", 8 * 4 * 5, 24));
    net.add(make_activation("r3", LayerKind::Relu, {24, 1, 1}));
    net.add(make_fc("f2", 24, 5));
    return net;
}

/** conv -> relu -> 2x2 maxpool -> softmax: the softmax reads the
 *  pool's channels-last output back in channel-plane order. */
Network
make_pool_softmax()
{
    Network net("pool-softmax", {3, 10, 12});
    net.add(make_conv("c", {3, 10, 12}, 8, 3, 1, 1));
    net.add(make_activation("r", LayerKind::Relu, {8, 10, 12}));
    net.add(make_pool("p", LayerKind::MaxPool, {8, 10, 12}, 2, 2, 0));
    net.add(make_activation("prob", LayerKind::Softmax, {8, 5, 6}));
    return net;
}

/** conv -> relu -> conv reading the first conv's 4 x 4 x 6 output as
 *  6 x 4 x 4: the executor goes through channel planes between them. */
Network
make_reshape()
{
    Network net("reshape", {2, 4, 6});
    net.add(make_conv("c1", {2, 4, 6}, 4, 3, 1, 1));
    net.add(make_activation("r", LayerKind::Relu, {4, 4, 6}));
    net.add(make_conv("c2", {6, 4, 4}, 3, 3, 1, 1));
    return net;
}

/**
 * @p net run whole, its Relus folded into their producers, against
 * the same layers run as a chain of one-layer plans, which never
 * fold, each on its own executor, all at @p threads executor threads:
 * outputs, BceStats and energy must be bit-identical. The whole plan
 * keeps its activations channels-last from conv to pool; each
 * one-layer plan transposes its own input and output.
 */
void
expect_folding_invisible(const Network &net, const NetworkWeights &weights,
                         const FloatTensor &input, unsigned bits,
                         unsigned threads)
{
    const NetworkPlan whole = NetworkPlan::compile(net, weights, bits);
    EXPECT_GT(whole.stats().foldedRelus, 0u);
    FunctionalExecutor we({}, {}, bfree::bce::ExecTier::Tiered, threads);
    const FunctionalResult wr = we.run(whole, input);

    FunctionalExecutor ce({}, {}, bfree::bce::ExecTier::Tiered, threads);
    std::vector<float> act(input.data(), input.data() + input.size());
    for (std::size_t i = 0; i < net.layers().size(); ++i) {
        const Layer &l = net.layers()[i];
        Network one(net.name() + "/" + l.name, l.input);
        one.add(l);
        const NetworkPlan p =
            NetworkPlan::compile(one, NetworkWeights{weights[i]}, bits);
        ASSERT_EQ(p.stats().foldedRelus, 0u);
        std::vector<float> next(p.outputElems());
        ce.runInto(p, act.data(), act.size(), next.data(), next.size());
        act = std::move(next);
    }

    ASSERT_EQ(act.size(), wr.output.size());
    EXPECT_EQ(0, std::memcmp(act.data(), wr.output.data(),
                             act.size() * sizeof(float)))
        << net.name() << " at " << bits << " bits, " << threads
        << " threads";
    expect_stats_eq(wr.stats, ce.stats());
    EXPECT_EQ(we.energy().total(), ce.energy().total());
}

} // namespace

TEST(NetworkPlan, FoldedReluMatchesUnfoldedChain)
{
    const Network vgg = make_vgg_block();
    const Network tiny = make_tiny_cnn();
    const Network soft = make_pool_softmax();
    bfree::sim::Rng rng(41);
    const NetworkWeights vw = random_weights(vgg, rng);
    const NetworkWeights tw = random_weights(tiny, rng);
    FloatTensor vin({3, 9, 10});
    vin.fillUniform(rng, -1.0, 1.0);
    FloatTensor tin({1, 8, 8});
    tin.fillUniform(rng, 0.0, 1.0);
    const NetworkWeights sw = random_weights(soft, rng);
    FloatTensor sin({3, 10, 12});
    sin.fillUniform(rng, -1.0, 1.0);
    const Network reshape = make_reshape();
    const NetworkWeights rw = random_weights(reshape, rng);
    FloatTensor rin({2, 4, 6});
    rin.fillUniform(rng, -1.0, 1.0);

    // Biases past 2^31 / 256 in both directions: the store's ReLU
    // sends those lanes down lround's wrapping path.
    NetworkWeights huge = vw;
    huge[0].bias[1] = 1e7f;
    huge[0].bias[2] = -1e7f;
    huge[2].bias[5] = 3e9f;
    huge[5].bias[0] = 8388608.0f;

    // Non-finite activations: an infinite input makes the first scale
    // infinite and its store NaN; a NaN input is skipped by the scale
    // scan and quantized like any other value.
    FloatTensor infIn = vin;
    infIn[7] = std::numeric_limits<float>::infinity();
    FloatTensor nanIn = vin;
    nanIn[11] = std::numeric_limits<float>::quiet_NaN();

    // One executor thread, and four: the pools then split their
    // output rows and the convs their row chunks over the pool.
    bfree::test::for_each_runnable_level([&](bfree::sim::SimdLevel) {
        for (unsigned bits : {4u, 8u, 16u}) {
            for (unsigned t : {1u, 4u}) {
                SCOPED_TRACE(bits);
                expect_folding_invisible(vgg, vw, vin, bits, t);
                expect_folding_invisible(tiny, tw, tin, bits, t);
                expect_folding_invisible(soft, sw, sin, bits, t);
                expect_folding_invisible(reshape, rw, rin, bits, t);
                expect_folding_invisible(vgg, huge, vin, bits, t);
                expect_folding_invisible(vgg, vw, infIn, bits, t);
                expect_folding_invisible(vgg, vw, nanIn, bits, t);
            }
        }
    });
}

TEST(NetworkPlan, LayoutsAndBoundaryTransposes)
{
    // Convs and pools read and write channels-last; the plan input is
    // transposed into layer 0, the pool's output back to channel
    // planes for the FC or the Softmax, a conv-only plan's output for
    // the caller, and a reshape between two convs goes through
    // channel planes. Elementwise layers keep what they get.
    using bfree::core::ActLayout;
    using bfree::core::Relayout;
    const auto layouts = [](const NetworkPlan &p) {
        std::string s;
        for (const PlannedLayer &pl : p.layers()) {
            for (const Relayout &r : pl.relayouts)
                s += std::string(">") + act_layout_name(r.to) + " ";
            s += std::string(act_layout_name(pl.layout)) + "; ";
        }
        return s + (p.outputRelayout() ? ">chw" : "");
    };
    bfree::sim::Rng rng(8);
    const auto plan = [&](const Network &net) {
        return NetworkPlan::compile(net, random_weights(net, rng), 8);
    };
    const NetworkPlan vgg = plan(make_vgg_block());
    EXPECT_EQ(layouts(vgg), ">hwc hwc; hwc; hwc; hwc; "
                            "hwc; >chw chw; chw; chw; ");
    EXPECT_EQ(vgg.layers()[0].relayouts[0].shape, FeatureShape(3, 9, 10));
    EXPECT_EQ(vgg.layers()[5].relayouts[0].shape, FeatureShape(8, 4, 5));
    EXPECT_EQ(vgg.stats().relayouts, 2u);
    EXPECT_EQ(layouts(plan(make_pool_softmax())),
              ">hwc hwc; hwc; hwc; >chw chw; ");
    const NetworkPlan reshape = plan(make_reshape());
    EXPECT_EQ(layouts(reshape),
              ">hwc hwc; hwc; >chw >hwc hwc; >chw");
    EXPECT_EQ(reshape.layers()[2].relayouts[0].shape, FeatureShape(4, 4, 6));
    EXPECT_EQ(reshape.layers()[2].relayouts[1].shape, FeatureShape(6, 4, 4));
    EXPECT_EQ(reshape.outputRelayout()->shape, FeatureShape(3, 4, 4));
    EXPECT_EQ(reshape.stats().relayouts, 4u);
    // One channel, or one position, reads the same either way: the
    // tiny CNN's one-channel input and 1 x 1 FC outputs take none.
    EXPECT_EQ(layouts(plan(make_tiny_cnn())),
              "hwc; hwc; hwc; hwc; hwc; hwc; "
              ">chw chw; chw; ");

    // A transpose run over split position ranges (as the executor's
    // threads run it), there and back.
    const FeatureShape s{5, 7, 9};
    const std::size_t hw = 7 * 9;
    std::vector<float> chw(s.elements()), hwc(s.elements(), -1.0f),
        back(s.elements(), -1.0f);
    for (std::size_t i = 0; i < chw.size(); ++i)
        chw[i] = static_cast<float>(i);
    for (const auto &[p0, p1] :
         {std::pair<std::size_t, std::size_t>{0, 20}, {20, 21}, {21, hw}})
        relayout({ActLayout::Hwc, s}, chw.data(), hwc.data(), p0, p1);
    for (std::size_t ch = 0; ch < s.c; ++ch)
        for (std::size_t p = 0; p < hw; ++p)
            ASSERT_EQ(chw[ch * hw + p], hwc[p * s.c + ch]) << ch << " " << p;
    relayout({ActLayout::Chw, s}, hwc.data(), back.data(), 0, 30);
    relayout({ActLayout::Chw, s}, hwc.data(), back.data(), 30, hw);
    EXPECT_EQ(chw, back);
}

TEST(NetworkPlan, FoldMarksEveryReluAfterConvOrFc)
{
    // One flag per producer, one PlannedLayer per network layer, and
    // folding leaves the arena sizing alone.
    const Network net = make_vgg_block();
    for (unsigned bits : {4u, 8u, 16u}) {
        const PlanStats est = NetworkPlan::estimate(net, bits);
        EXPECT_EQ(est.foldedRelus, 3u);
        bfree::sim::Rng rng(3);
        const NetworkPlan plan =
            NetworkPlan::compile(net, random_weights(net, rng), bits);
        ASSERT_EQ(plan.layers().size(), net.layers().size());
        std::vector<bool> folded;
        for (const PlannedLayer &pl : plan.layers())
            folded.push_back(pl.foldedRelu);
        EXPECT_EQ(folded, (std::vector<bool>{true, false, true, false,
                                             false, true, false, false}));
        EXPECT_EQ(plan.stats().arenaBytes, est.arenaBytes);
    }
    // A Relu with no Conv/FC right before it stays a standalone layer.
    Network pooled("pool-relu", {2, 4, 4});
    pooled.add(make_activation("r0", LayerKind::Relu, {2, 4, 4}));
    pooled.add(make_pool("p", LayerKind::MaxPool, {2, 4, 4}, 2, 2, 0));
    pooled.add(make_activation("r1", LayerKind::Relu, {2, 2, 2}));
    EXPECT_EQ(NetworkPlan::estimate(pooled, 8).foldedRelus, 0u);
}

TEST(NetworkPlanDeath, CompileRejectsWeightCountMismatch)
{
    const Network net = make_tiny_cnn();
    EXPECT_DEATH((void)NetworkPlan::compile(net, NetworkWeights{}, 8),
                 "weight entries");
}

TEST(NetworkPlanDeath, RunIntoRejectsWrongElementCounts)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(3);
    const NetworkWeights weights = random_weights(net, rng);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 8);

    FunctionalExecutor exec;
    std::vector<float> in(plan.inputElems() - 1);
    std::vector<float> out(plan.outputElems());
    EXPECT_DEATH(exec.runInto(plan, in.data(), in.size(), out.data(),
                              out.size()),
                 "input");
}
