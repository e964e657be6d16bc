/**
 * @file
 * Differential proof that the tiered (memoized-table, batched-span)
 * execution engine is bit- and stat-exact against the legacy scalar
 * datapath: identical products over the full operand space, identical
 * MicroOpCounts/cycles, and — because joules are derived from the
 * integer tallies in one closed form — identical energy, for every
 * PIM opcode, both BCE modes, and whole compiled plans at 4, 8 and
 * 16 bits.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bce/bce.hh"
#include "core/functional.hh"
#include "dnn/model_zoo.hh"
#include "lut/division.hh"
#include "lut/fixed_point.hh"
#include "lut/pwl.hh"
#include "sim/parallel.hh"
#include "simd_levels.hh"

using namespace bfree;
using bce::BceMode;
using bce::ExecTier;
using bfree::test::for_each_runnable_level;

namespace {

/** One self-contained BCE rig at a chosen execution tier. */
struct Engine
{
    tech::CacheGeometry geom{};
    tech::TechParams tech{};
    mem::EnergyAccount account;
    mem::Subarray subarray{geom, tech, account};
    bce::Bce bce{subarray, tech, account};

    explicit Engine(ExecTier tier, bool load_lut = true)
    {
        bce.setTier(tier);
        if (load_lut)
            bce.loadMultLutImage();
    }
};

void
expect_stats_equal(const bce::BceStats &a, const bce::BceStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.configLoads, b.configLoads);
    EXPECT_EQ(a.counts.lutLookups, b.counts.lutLookups);
    EXPECT_EQ(a.counts.romLookups, b.counts.romLookups);
    EXPECT_EQ(a.counts.shifts, b.counts.shifts);
    EXPECT_EQ(a.counts.adds, b.counts.adds);
    EXPECT_EQ(a.counts.cycles, b.counts.cycles);
    EXPECT_EQ(a.cyclesByMode, b.cyclesByMode);
    EXPECT_EQ(a.lutReadsPim, b.lutReadsPim);
    EXPECT_EQ(a.lutReadsCache, b.lutReadsCache);
    EXPECT_EQ(a.specialLutEvents, b.specialLutEvents);
}

/** Flush both engines and require bit-identical joules per category. */
void
expect_engines_identical(Engine &legacy, Engine &tiered)
{
    expect_stats_equal(legacy.bce.stats(), tiered.bce.stats());
    legacy.bce.flushEnergy();
    tiered.bce.flushEnergy();
    for (std::size_t c = 0; c < mem::num_energy_categories; ++c) {
        const auto cat = static_cast<mem::EnergyCategory>(c);
        EXPECT_EQ(legacy.account.joules(cat), tiered.account.joules(cat))
            << "energy category " << c;
    }
}

/** Deterministic int8 test vector (no RNG dependence). */
std::vector<std::int8_t>
pattern(std::size_t n, int seed, int limit = 127)
{
    std::vector<std::int8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int r = static_cast<int>((i * 37 + seed * 101) % 1000);
        v[i] = static_cast<std::int8_t>(r % (2 * limit + 1) - limit);
    }
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// Full operand space, both modes
// ---------------------------------------------------------------------

TEST(TieredDatapath, Conv8BitFullOperandSpaceExact)
{
    Engine legacy(ExecTier::Legacy);
    Engine tiered(ExecTier::Tiered);

    // Per-pair products over the whole reachable int8 space.
    for (int a = -128; a <= 127; ++a) {
        for (int b = -128; b <= 127; ++b) {
            const auto wa = static_cast<std::int8_t>(a);
            const auto xb = static_cast<std::int8_t>(b);
            const std::int32_t pl =
                legacy.bce.dotProductSpan(&wa, &xb, 1, 8);
            const std::int32_t pt =
                tiered.bce.dotProductSpan(&wa, &xb, 1, 8);
            ASSERT_EQ(pl, pt) << "a=" << a << " b=" << b;
        }
    }
    expect_engines_identical(legacy, tiered);
}

TEST(TieredDatapath, Matmul8BitFullOperandSpaceExact)
{
    Engine legacy(ExecTier::Legacy);
    Engine tiered(ExecTier::Tiered);
    legacy.bce.setMode(BceMode::Matmul);
    tiered.bce.setMode(BceMode::Matmul);

    for (int a = -128; a <= 127; ++a) {
        for (int b = -128; b <= 127; ++b) {
            const auto aa = static_cast<std::int8_t>(a);
            const auto bb = static_cast<std::int8_t>(b);
            const std::int32_t pl =
                legacy.bce.matmulDotSpan(&aa, &bb, 1, 8);
            const std::int32_t pt =
                tiered.bce.matmulDotSpan(&aa, &bb, 1, 8);
            ASSERT_EQ(pl, pt) << "a=" << a << " b=" << b;
        }
    }
    expect_engines_identical(legacy, tiered);
}

TEST(TieredDatapath, FourBitFullSpaceAndClampExact)
{
    Engine legacy(ExecTier::Legacy);
    Engine tiered(ExecTier::Tiered);

    // In-range 4-bit space plus out-of-range values, which the span
    // kernels clamp to [-8, 7] exactly like the legacy dotProduct.
    for (int a = -20; a <= 20; ++a) {
        for (int b = -20; b <= 20; ++b) {
            const auto wa = static_cast<std::int8_t>(a);
            const auto xb = static_cast<std::int8_t>(b);
            ASSERT_EQ(legacy.bce.dotProductSpan(&wa, &xb, 1, 4),
                      tiered.bce.dotProductSpan(&wa, &xb, 1, 4))
                << "a=" << a << " b=" << b;
        }
    }
    legacy.bce.setMode(BceMode::Matmul);
    tiered.bce.setMode(BceMode::Matmul);
    for (int a = -8; a <= 7; ++a) {
        for (int b = -8; b <= 7; ++b) {
            const auto aa = static_cast<std::int8_t>(a);
            const auto bb = static_cast<std::int8_t>(b);
            ASSERT_EQ(legacy.bce.matmulDotSpan(&aa, &bb, 1, 4),
                      tiered.bce.matmulDotSpan(&aa, &bb, 1, 4))
                << "a=" << a << " b=" << b;
        }
    }
    expect_engines_identical(legacy, tiered);
}

TEST(TieredDatapath, LongSpansBatchStatsExactly)
{
    Engine legacy(ExecTier::Legacy);
    Engine tiered(ExecTier::Tiered);

    const std::vector<std::int8_t> w = pattern(4096, 1);
    const std::vector<std::int8_t> x = pattern(4096, 2);
    EXPECT_EQ(legacy.bce.dotProductSpan(w.data(), x.data(), w.size(), 8),
              tiered.bce.dotProductSpan(w.data(), x.data(), w.size(), 8));

    legacy.bce.setMode(BceMode::Matmul);
    tiered.bce.setMode(BceMode::Matmul);
    EXPECT_EQ(legacy.bce.matmulDotSpan(w.data(), x.data(), w.size(), 8),
              tiered.bce.matmulDotSpan(w.data(), x.data(), w.size(), 8));
    expect_engines_identical(legacy, tiered);
}

// ---------------------------------------------------------------------
// Batched kernels vs the scalar op sequences they replace
// ---------------------------------------------------------------------

TEST(TieredDatapath, MatmulDotSpanEqualsBroadcastMacSequence)
{
    // The batched span must be indistinguishable — products, stats and
    // energy — from the per-pair broadcastMac loop it replaces.
    Engine scalar(ExecTier::Legacy);
    Engine span(ExecTier::Tiered);
    scalar.bce.setMode(BceMode::Matmul);
    span.bce.setMode(BceMode::Matmul);

    const std::vector<std::int8_t> a = pattern(300, 3);
    const std::vector<std::int8_t> b = pattern(300, 4);

    std::int32_t acc_scalar = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::int32_t lane = 0;
        scalar.bce.broadcastMac(a[i], &b[i], 1, &lane, 8);
        acc_scalar += lane;
    }
    const std::int32_t acc_span =
        span.bce.matmulDotSpan(a.data(), b.data(), a.size(), 8);

    EXPECT_EQ(acc_scalar, acc_span);
    expect_engines_identical(scalar, span);
}

TEST(TieredDatapath, MatmulTileEqualsPerRowSpans)
{
    Engine legacy(ExecTier::Legacy);
    Engine tiered(ExecTier::Tiered);
    legacy.bce.setMode(BceMode::Matmul);
    tiered.bce.setMode(BceMode::Matmul);

    const std::size_t m = 5, k = 33, n = 7;
    const std::vector<std::int8_t> a = pattern(m * k, 5);
    const std::vector<std::int8_t> bt = pattern(n * k, 6);
    std::vector<std::int32_t> out_l(m * n, 0), out_t(m * n, 0);

    legacy.bce.matmulTile(a.data(), bt.data(), out_l.data(), m, k, n, 8);
    tiered.bce.matmulTile(a.data(), bt.data(), out_t.data(), m, k, n, 8);

    EXPECT_EQ(out_l, out_t);
    expect_engines_identical(legacy, tiered);
}

TEST(TieredDatapath, SixteenBitFallsBackToScalarExactly)
{
    Engine legacy(ExecTier::Legacy);
    Engine tiered(ExecTier::Tiered);

    const std::vector<std::int8_t> w = pattern(64, 7);
    const std::vector<std::int8_t> x = pattern(64, 8);
    EXPECT_EQ(legacy.bce.dotProductSpan(w.data(), x.data(), w.size(), 16),
              tiered.bce.dotProductSpan(w.data(), x.data(), w.size(), 16));
    EXPECT_EQ(legacy.bce.multiply(-30000, 123, 16),
              tiered.bce.multiply(-30000, 123, 16));
    expect_engines_identical(legacy, tiered);
}

// ---------------------------------------------------------------------
// Every PIM opcode through both engines
// ---------------------------------------------------------------------

namespace {

/**
 * Execute an op sequence covering all 14 PimOpcodes and log every
 * numeric result; the logs of both engines must match bit for bit.
 *
 *   Conv -> dotProductSpan        Matmul  -> matmulTile
 *   MaxPool/Relu -> maxReduce     AvgPool -> avgPool
 *   Sigmoid/Tanh/Exp -> evaluatePwl
 *   Softmax -> exp PWL + divide   Divide  -> divide
 *   EwAdd -> accumulateIncoming   EwMul   -> multiply
 *   Requantize -> requantize      LayerNorm -> adds + divide + multiply
 */
void
run_all_opcodes(bce::Bce &bce, std::vector<double> &log)
{
    const lut::PwlTable sigmoid = lut::make_sigmoid_table();
    const lut::PwlTable tanh_t = lut::make_tanh_table();
    const lut::PwlTable exp_t = lut::make_exp_table();
    const lut::DivisionLut div(4);
    const lut::RequantScale scale = lut::compute_requant_scale(0.05);

    // Conv (conv-mode dot product over the sub-array LUT).
    bce.setMode(BceMode::Conv);
    const std::vector<std::int8_t> w = pattern(49, 11);
    const std::vector<std::int8_t> x = pattern(49, 12);
    log.push_back(bce.dotProductSpan(w.data(), x.data(), w.size(), 8));

    // EwMul (element-wise multiplies on the conv path).
    for (int i = -5; i <= 5; ++i)
        log.push_back(
            static_cast<double>(bce.multiply(i * 11, 7 - i, 8)));

    // Matmul (blocked tile on the hardwired ROM).
    bce.setMode(BceMode::Matmul);
    std::vector<std::int32_t> tile(6, 0);
    bce.matmulTile(w.data(), x.data(), tile.data(), 2, 16, 3, 8);
    for (const std::int32_t v : tile)
        log.push_back(v);

    // Requantize.
    log.push_back(bce.requantize(1000, scale, 0, 8));
    log.push_back(bce.requantize(-777, scale, 3, 8));

    // MaxPool / Relu (comparator reductions).
    bce.setMode(BceMode::Special);
    const std::int32_t vals[6] = {3, -7, 12, 0, 9, -2};
    log.push_back(bce.maxReduce(vals, 6));
    const std::int32_t relu[2] = {0, -41};
    log.push_back(bce.maxReduce(relu, 2));

    // AvgPool (accumulate + LUT division).
    log.push_back(bce.avgPool(vals, 6, div));

    // Sigmoid / Tanh / Exp (PWL tables).
    log.push_back(bce.evaluatePwl(sigmoid, 0.7));
    log.push_back(bce.evaluatePwl(tanh_t, -0.3));
    log.push_back(bce.evaluatePwl(exp_t, 1.1));

    // Softmax over 3 logits: exp PWL then LUT division.
    double exps[3];
    double denom = 0.0;
    const double logits[3] = {0.2, -0.4, 1.0};
    for (int i = 0; i < 3; ++i) {
        exps[i] = bce.evaluatePwl(exp_t, logits[i]);
        denom += exps[i];
    }
    for (const double e : exps)
        log.push_back(bce.divide(e, denom, div));

    // Divide.
    log.push_back(bce.divide(20.0, 4.0, div));

    // EwAdd (systolic partial-sum accumulation).
    log.push_back(bce.accumulateIncoming(123, -45));

    // LayerNorm: mean via adds + division, then a normalizing multiply
    // on the conv path.
    std::int32_t sum = 0;
    for (const std::int32_t v : vals)
        sum = bce.accumulateIncoming(sum, v);
    const double mean = bce.divide(std::abs(sum), 6.0, div);
    log.push_back(mean);
    bce.setMode(BceMode::Conv);
    log.push_back(static_cast<double>(
        bce.multiply(static_cast<std::int32_t>(mean), 13, 8)));
}

} // namespace

TEST(TieredDatapath, AllFourteenOpcodesExact)
{
    Engine legacy(ExecTier::Legacy);
    Engine tiered(ExecTier::Tiered);

    std::vector<double> log_l, log_t;
    run_all_opcodes(legacy.bce, log_l);
    run_all_opcodes(tiered.bce, log_t);

    ASSERT_EQ(log_l.size(), log_t.size());
    for (std::size_t i = 0; i < log_l.size(); ++i)
        EXPECT_EQ(log_l[i], log_t[i]) << "log entry " << i;
    expect_engines_identical(legacy, tiered);
}

// ---------------------------------------------------------------------
// Table invalidation
// ---------------------------------------------------------------------

TEST(TieredDatapath, MemoTablesRebuildWhenLutRowsChange)
{
    Engine legacy(ExecTier::Legacy);
    Engine tiered(ExecTier::Tiered);

    // Seed the tiered conv tables from the pristine LUT image.
    const std::vector<std::int8_t> w = pattern(64, 21);
    const std::vector<std::int8_t> x = pattern(64, 22);
    EXPECT_EQ(legacy.bce.dotProductSpan(w.data(), x.data(), w.size(), 8),
              tiered.bce.dotProductSpan(w.data(), x.data(), w.size(), 8));

    // Overwrite the 3*3 entry (row 0, col 0 of the odd-odd table) in
    // BOTH sub-arrays. The legacy path reads the new byte immediately;
    // the tiered engine must notice the LUT generation moved and
    // reseed instead of serving stale products.
    legacy.subarray.scratchWrite(0, 42);
    tiered.subarray.scratchWrite(0, 42);

    const std::int8_t three = 3;
    const std::int32_t pl = legacy.bce.dotProductSpan(&three, &three, 1, 8);
    const std::int32_t pt = tiered.bce.dotProductSpan(&three, &three, 1, 8);
    EXPECT_EQ(pl, 42); // the poisoned table entry, shift 0
    EXPECT_EQ(pl, pt);

    EXPECT_EQ(legacy.bce.dotProductSpan(w.data(), x.data(), w.size(), 8),
              tiered.bce.dotProductSpan(w.data(), x.data(), w.size(), 8));
    expect_engines_identical(legacy, tiered);
}

TEST(TieredDatapathDeath, ConvSpanBeforeLutLoadPanicsOnBothTiers)
{
    EXPECT_DEATH(
        {
            Engine e(ExecTier::Legacy, /*load_lut=*/false);
            const std::int8_t v = 3;
            (void)e.bce.dotProductSpan(&v, &v, 1, 8);
        },
        "LUT image was loaded");
    EXPECT_DEATH(
        {
            Engine e(ExecTier::Tiered, /*load_lut=*/false);
            const std::int8_t v = 3;
            (void)e.bce.dotProductSpan(&v, &v, 1, 8);
        },
        "LUT image was loaded");
}

// ---------------------------------------------------------------------
// Whole compiled plans through FunctionalExecutor
// ---------------------------------------------------------------------

namespace {

void
expect_network_equivalence(unsigned bits)
{
    const dnn::Network net = dnn::make_tiny_cnn();
    sim::Rng rng(2024);
    const core::NetworkWeights weights = core::random_weights(net, rng);
    dnn::FloatTensor input({1, 8, 8});
    input.fillUniform(rng, 0.0, 1.0);

    const core::NetworkPlan plan =
        core::NetworkPlan::compile(net, weights, bits);
    core::FunctionalExecutor legacy({}, {}, ExecTier::Legacy);
    core::FunctionalExecutor tiered({}, {}, ExecTier::Tiered);

    const core::FunctionalResult rl = legacy.run(plan, input);
    const core::FunctionalResult rt = tiered.run(plan, input);

    ASSERT_EQ(rl.output.size(), rt.output.size());
    for (std::size_t i = 0; i < rl.output.size(); ++i)
        EXPECT_EQ(rl.output[i], rt.output[i]) << "output " << i;
    expect_stats_equal(rl.stats, rt.stats);
    for (std::size_t c = 0; c < mem::num_energy_categories; ++c) {
        const auto cat = static_cast<mem::EnergyCategory>(c);
        EXPECT_EQ(legacy.energy().joules(cat), tiered.energy().joules(cat))
            << "energy category " << c;
    }
}

} // namespace

TEST(TieredNetwork, TinyCnn8BitBitExact)
{
    expect_network_equivalence(8);
}

TEST(TieredNetwork, TinyCnn4BitBitExact)
{
    expect_network_equivalence(4);
}

TEST(TieredNetwork, TinyCnn16BitBitExact)
{
    expect_network_equivalence(16);
}

TEST(TieredNetwork, LstmStepBitExact)
{
    // The Tiered step runs its gates through simd::pwl_span at every
    // level; hidden sizes off the kernel's 8 lanes exercise its masked
    // tails, and hid = 5 the oracle loop for spans shorter than 8. The
    // [x, h] rows of 63, 64 and 65 columns (and 127 to 129) sit around
    // the gate rows' 64-byte stride, and 37 and 70 hidden units make
    // 3 and 5 groups of 16 that 3 and 4 threads split unevenly. Every
    // level, every precision and 1 to 4 executor threads must give the
    // Legacy tier's h, c, statistics and energy.
    struct Shape
    {
        unsigned in, hid;
    };
    const Shape shapes[] = {{6, 5},   {6, 12},  {6, 13},  {26, 37},
                            {27, 37}, {28, 37}, {57, 70}, {58, 70},
                            {59, 70}};
    for (const Shape shape : shapes) {
        const dnn::Network net = dnn::make_lstm(shape.in, shape.hid, 3);
        sim::Rng rng(31 + shape.in);
        const core::NetworkWeights weights =
            core::random_weights(net, rng);
        std::vector<float> xin(shape.in);
        for (float &v : xin)
            v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
        for (const unsigned bits : {4u, 8u, 16u}) {
            const core::NetworkPlan plan =
                core::NetworkPlan::compile(net, weights, bits);
            const std::string what = std::to_string(shape.in) + " + "
                                     + std::to_string(shape.hid) + ", "
                                     + std::to_string(bits) + " bits";
            core::FunctionalExecutor legacy({}, {}, ExecTier::Legacy, 1);
            std::vector<dnn::LstmState> want;
            dnn::LstmState sl{std::vector<float>(shape.hid),
                              std::vector<float>(shape.hid)};
            for (int t = 0; t < 3; ++t)
                want.push_back(sl = legacy.runLstmStep(plan, 0, xin, sl));
            for_each_runnable_level([&](sim::SimdLevel) {
                for (const unsigned threads : {1u, 2u, 3u, 4u}) {
                    core::FunctionalExecutor tiered({}, {}, ExecTier::Tiered,
                                                    threads);
                    dnn::LstmState st{std::vector<float>(shape.hid),
                                      std::vector<float>(shape.hid)};
                    for (int t = 0; t < 3; ++t) {
                        st = tiered.runLstmStep(plan, 0, xin, st);
                        ASSERT_EQ(0, std::memcmp(want[t].h.data(),
                                                 st.h.data(),
                                                 shape.hid * sizeof(float)))
                            << what << ", " << threads << " threads t=" << t;
                        ASSERT_EQ(0, std::memcmp(want[t].c.data(),
                                                 st.c.data(),
                                                 shape.hid * sizeof(float)))
                            << what << ", " << threads << " threads t=" << t;
                    }
                    expect_stats_equal(legacy.stats(), tiered.stats());
                    for (std::size_t c = 0; c < mem::num_energy_categories;
                         ++c) {
                        const auto cat = static_cast<mem::EnergyCategory>(c);
                        EXPECT_EQ(legacy.energy().joules(cat),
                                  tiered.energy().joules(cat))
                            << what << ", " << threads
                            << " threads, energy category " << c;
                    }
                }
            });
        }
    }
}

TEST(TieredNetwork, PwlLayersMatchPerElementEvaluatePwl)
{
    // Sigmoid and Tanh layers run one PWL span each; at every plan
    // precision, tier and level they must give the outputs, statistics
    // and energy of per-element evaluatePwl calls on the Legacy oracle.
    const dnn::FeatureShape shape{3, 5, 7};
    dnn::Network net("pwl-net", shape);
    net.add(dnn::make_activation("sig", dnn::LayerKind::Sigmoid, shape));
    net.add(dnn::make_activation("tanh", dnn::LayerKind::Tanh, shape));
    sim::Rng rng(59);
    dnn::FloatTensor input({shape.c, shape.h, shape.w});
    input.fillUniform(rng, -12.0, 12.0);
    input[0] = 0.0f;
    input[1] = -0.0f;
    input[2] = 8.0f;
    input[3] = -4.0f;
    input[4] = std::numeric_limits<float>::infinity();
    const core::NetworkWeights weights = core::random_weights(net, rng);
    const lut::PwlTable sigmoid = lut::make_sigmoid_table();
    const lut::PwlTable tanh = lut::make_tanh_table();

    Engine ref(ExecTier::Legacy);
    std::vector<float> want(input.size());
    for (std::size_t i = 0; i < input.size(); ++i)
        want[i] = static_cast<float>(ref.bce.evaluatePwl(sigmoid, input[i]));
    for (float &y : want)
        y = static_cast<float>(ref.bce.evaluatePwl(tanh, y));
    ref.bce.flushEnergy();

    for (const unsigned bits : {4u, 8u, 16u}) {
        const core::NetworkPlan plan =
            core::NetworkPlan::compile(net, weights, bits);
        for_each_runnable_level([&](sim::SimdLevel) {
            for (const ExecTier tier : {ExecTier::Legacy, ExecTier::Tiered}) {
                core::FunctionalExecutor exec({}, {}, tier);
                const core::FunctionalResult r = exec.run(plan, input);
                ASSERT_EQ(r.output.size(), want.size());
                for (std::size_t i = 0; i < want.size(); ++i)
                    ASSERT_EQ(std::memcmp(&r.output[i], &want[i],
                                          sizeof(float)),
                              0)
                        << bits << " bits, element " << i;
                expect_stats_equal(exec.stats(), ref.bce.stats());
                EXPECT_EQ(exec.energy().total(), ref.account.total())
                    << bits << " bits";
            }
        });
    }
}

TEST(TieredNetwork, AttentionBitExact)
{
    dnn::Network net("attn-net", {1, 6, 8});
    net.add(dnn::make_attention("attn", 6, 8, 1));
    sim::Rng rng(41);
    const core::NetworkWeights weights = core::random_weights(net, rng);
    dnn::FloatTensor input({6, 8});
    input.fillUniform(rng, -1.0, 1.0);

    for (const unsigned bits : {8u, 16u}) {
        const core::NetworkPlan plan =
            core::NetworkPlan::compile(net, weights, bits);
        core::FunctionalExecutor legacy({}, {}, ExecTier::Legacy);
        core::FunctionalExecutor tiered({}, {}, ExecTier::Tiered);
        const dnn::FloatTensor ol = legacy.runAttention(plan, 0, input);
        const dnn::FloatTensor ot = tiered.runAttention(plan, 0, input);
        ASSERT_EQ(ol.size(), ot.size());
        for (std::size_t i = 0; i < ol.size(); ++i)
            EXPECT_EQ(ol[i], ot[i]) << bits << " bits " << i;
        expect_stats_equal(legacy.stats(), tiered.stats());
    }
}

// ---------------------------------------------------------------------
// Sweep engine integration: per-thread tables, deterministic merge
// ---------------------------------------------------------------------

namespace {

std::string
sweep_output(unsigned threads)
{
    std::vector<sim::SweepJob> jobs;
    for (int j = 0; j < 6; ++j) {
        jobs.push_back(sim::SweepJob{
            "job" + std::to_string(j), [j](sim::SweepContext &ctx) {
                // Each job owns a private executor, hence private
                // memoized tables — no sharing across threads.
                const dnn::Network net = dnn::make_tiny_cnn();
                sim::Rng rng(100 + j);
                const core::NetworkWeights weights =
                    core::random_weights(net, rng);
                dnn::FloatTensor input({1, 8, 8});
                input.fillUniform(rng, 0.0, 1.0);

                core::FunctionalExecutor exec({}, {}, ExecTier::Tiered);
                const core::FunctionalResult r = exec.run(
                    core::NetworkPlan::compile(net, weights, 8), input);
                ctx.out << std::hexfloat;
                for (std::size_t i = 0; i < r.output.size(); ++i)
                    ctx.out << r.output[i] << "\n";
                ctx.out << r.stats.macs << " " << r.stats.cycles << " "
                        << exec.energy().total() << "\n";
            }});
    }
    sim::SweepRunner runner(threads);
    return runner.run(std::move(jobs)).output();
}

} // namespace

TEST(TieredSweep, PerThreadTablesMergeDeterministically)
{
    const std::string one = sweep_output(1);
    const std::string four = sweep_output(4);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, four);
}
