/**
 * @file
 * DetailedCacheSim: full-cache detailed timing over all LLC slices.
 *
 * The acceptance bar for the sharded engine is bit-exactness: the same
 * integer accumulators, cycle counts, event counts and energy as the
 * single-queue baseline for any worker count, and the same dequantized
 * layer outputs as the functional LUT executor.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/functional.hh"
#include "map/detailed_cache_sim.hh"
#include "map/detailed_slice_sim.hh"
#include "sim/random.hh"

using namespace bfree;
using namespace bfree::map;
using bfree::mem::EnergyCategory;
using bfree::mem::num_energy_categories;

namespace {

/** Deterministic small int8 values that never overflow int32 sums. */
std::vector<std::vector<std::int8_t>>
make_matrix(unsigned rows, unsigned cols, int seed)
{
    std::vector<std::vector<std::int8_t>> m(rows);
    for (unsigned r = 0; r < rows; ++r) {
        m[r].resize(cols);
        for (unsigned c = 0; c < cols; ++c)
            m[r][c] = static_cast<std::int8_t>(
                ((seed + 3 * r + 7 * c) % 23) - 11);
    }
    return m;
}

/** Plain integer GEMM reference: acc[f][w] = filters[f] . inputs[w]. */
std::vector<std::vector<std::int32_t>>
reference_gemm(const std::vector<std::vector<std::int8_t>> &filters,
               const std::vector<std::vector<std::int8_t>> &inputs)
{
    std::vector<std::vector<std::int32_t>> accs(filters.size());
    for (std::size_t f = 0; f < filters.size(); ++f) {
        accs[f].resize(inputs.size());
        for (std::size_t w = 0; w < inputs.size(); ++w) {
            std::int32_t acc = 0;
            for (std::size_t i = 0; i < filters[f].size(); ++i)
                acc += std::int32_t(filters[f][i]) *
                       std::int32_t(inputs[w][i]);
            accs[f][w] = acc;
        }
    }
    return accs;
}

void
expect_energy_bitwise_equal(const mem::EnergyAccount &a,
                            const mem::EnergyAccount &b)
{
    for (std::size_t i = 0; i < num_energy_categories; ++i) {
        const auto cat = static_cast<EnergyCategory>(i);
        EXPECT_EQ(a.joules(cat), b.joules(cat))
            << mem::energy_category_name(cat);
    }
}

} // namespace

TEST(PartitionFilters, BlockedWithRemainderOnLowSlices)
{
    EXPECT_EQ(partition_filters(14, 14),
              std::vector<unsigned>(14, 1));
    // 30 = 2 * 14 + 2: the two extra filters land on slices 0 and 1.
    auto p = partition_filters(30, 14);
    EXPECT_EQ(p[0], 3u);
    EXPECT_EQ(p[1], 3u);
    EXPECT_EQ(p[2], 2u);
    EXPECT_EQ(std::accumulate(p.begin(), p.end(), 0u), 30u);
    // Fewer filters than slices: trailing slices idle.
    auto small = partition_filters(5, 14);
    EXPECT_EQ(small[4], 1u);
    EXPECT_EQ(small[5], 0u);
    EXPECT_EQ(std::accumulate(small.begin(), small.end(), 0u), 5u);
}

TEST(DetailedCacheFormula, MaxOverShiftedSliceDrains)
{
    const unsigned rows = 8, waves = 10, hop = 1, slice_hop = 2;
    const std::uint64_t cps = 4;
    const std::vector<unsigned> cols = {3, 3, 2, 0};
    std::uint64_t expect = 0;
    for (unsigned s = 0; s < cols.size(); ++s) {
        if (cols[s] == 0)
            continue;
        expect = std::max(
            expect, s * slice_hop + detailed_grid_formula(
                                        rows, cols[s], waves, cps, hop));
    }
    EXPECT_EQ(detailed_cache_formula(rows, cols, waves, cps, hop,
                                     slice_hop),
              expect);
    // All-idle partitions drain immediately.
    EXPECT_EQ(detailed_cache_formula(rows, {0, 0}, waves, cps, hop,
                                     slice_hop),
              0u);
}

TEST(DetailedSliceSim, BurstEngineMatchesPerFlitBitwise)
{
    const unsigned rows = 4, cols = 3, slice_len = 2, waves = 5;
    tech::CacheGeometry geom;
    tech::TechParams tp;

    std::vector<std::vector<std::vector<std::int8_t>>> weights(cols);
    for (unsigned c = 0; c < cols; ++c) {
        weights[c].resize(rows);
        for (unsigned r = 0; r < rows; ++r)
            weights[c][r] = make_matrix(1, slice_len, 13 + c * rows + r)[0];
    }
    const auto inputs = make_matrix(waves, rows * slice_len, 29);

    DetailedSliceSim per_flit(geom, tp, rows, cols, slice_len, 8,
                              GridEngine::PerFlit);
    per_flit.loadWeights(weights);
    const auto a = per_flit.run(inputs);

    DetailedSliceSim burst(geom, tp, rows, cols, slice_len, 8,
                           GridEngine::Burst);
    burst.loadWeights(weights);
    const auto b = burst.run(inputs);

    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.cycles, b.cycles);
    // The burst engine ships wave trains, not individual flits: far
    // fewer scheduled events for the same simulated behaviour.
    EXPECT_LT(b.events, a.events);
    expect_energy_bitwise_equal(per_flit.energy(), burst.energy());
}

TEST(DetailedCacheSim, GemmMatchesIntegerReferenceAndFormula)
{
    const unsigned k = 16, filters = 20, waves = 5;
    tech::CacheGeometry geom;
    tech::TechParams tp;
    const auto fbank = make_matrix(filters, k, 41);
    const auto inputs = make_matrix(waves, k, 5);

    DetailedCacheOptions opts;
    opts.engine = CacheEngine::SingleQueue;
    DetailedCacheSim sim(geom, tp, opts);
    const auto result = sim.runGemm(fbank, inputs);

    EXPECT_EQ(result.accs, reference_gemm(fbank, inputs));
    EXPECT_EQ(result.waves, waves);

    const auto part = partition_filters(filters, geom.numSlices);
    unsigned active = 0;
    for (unsigned c : part)
        active += c > 0;
    EXPECT_EQ(result.activeSlices, active);
    ASSERT_EQ(result.sliceCycles.size(), active);

    const unsigned rows = sim.rowsFor(k);
    const unsigned slice_len = (k + rows - 1) / rows;
    const std::uint64_t cps = std::uint64_t(slice_len) * (8 / 4);
    const std::uint64_t formula = detailed_cache_formula(
        rows, part, waves, cps, tp.routerHopCycles,
        tp.interSliceHopCycles);
    EXPECT_EQ(result.cycles, formula);
    // Whole-cache drain is the slowest slice's drain.
    EXPECT_EQ(result.cycles,
              *std::max_element(result.sliceCycles.begin(),
                                result.sliceCycles.end()));
}

TEST(DetailedCacheSim, ShardedIsBitIdenticalToSingleQueue)
{
    const unsigned k = 24, filters = 17, waves = 6;
    tech::CacheGeometry geom;
    tech::TechParams tp;
    const auto fbank = make_matrix(filters, k, 3);
    const auto inputs = make_matrix(waves, k, 57);

    DetailedCacheOptions single;
    single.engine = CacheEngine::SingleQueue;
    DetailedCacheSim base(geom, tp, single);
    const auto a = base.runGemm(fbank, inputs);

    DetailedCacheOptions sharded;
    sharded.engine = CacheEngine::Sharded;
    sharded.threads = 4;
    DetailedCacheSim par(geom, tp, sharded);
    const auto b = par.runGemm(fbank, inputs);

    EXPECT_EQ(a.accs, b.accs);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.sliceCycles, b.sliceCycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.activeSlices, b.activeSlices);
    expect_energy_bitwise_equal(a.energy, b.energy);
    // Only the sharded engine reports epoch/message telemetry.
    EXPECT_EQ(a.epochs, 0u);
    EXPECT_GT(b.epochs, 0u);
    EXPECT_GT(b.crossMessages, 0u);
}

TEST(DetailedCacheSim, ShardedIsDeterministicAcrossThreadCounts)
{
    const unsigned k = 24, filters = 17, waves = 6;
    tech::CacheGeometry geom;
    tech::TechParams tp;
    const auto fbank = make_matrix(filters, k, 3);
    const auto inputs = make_matrix(waves, k, 57);

    auto run_with = [&](unsigned threads) {
        DetailedCacheOptions opts;
        opts.engine = CacheEngine::Sharded;
        opts.threads = threads;
        DetailedCacheSim sim(geom, tp, opts);
        return sim.runGemm(fbank, inputs);
    };

    const auto one = run_with(1);
    const auto many = run_with(4);
    EXPECT_EQ(one.accs, many.accs);
    EXPECT_EQ(one.cycles, many.cycles);
    EXPECT_EQ(one.sliceCycles, many.sliceCycles);
    EXPECT_EQ(one.events, many.events);
    EXPECT_EQ(one.epochs, many.epochs);
    EXPECT_EQ(one.crossMessages, many.crossMessages);
    expect_energy_bitwise_equal(one.energy, many.energy);
}

TEST(DetailedCacheSim, PerFlitGridAgreesAtCacheScale)
{
    const unsigned k = 12, filters = 9, waves = 4;
    tech::CacheGeometry geom;
    tech::TechParams tp;
    const auto fbank = make_matrix(filters, k, 19);
    const auto inputs = make_matrix(waves, k, 23);

    auto run_grid = [&](GridEngine grid) {
        DetailedCacheOptions opts;
        opts.engine = CacheEngine::Sharded;
        opts.grid = grid;
        opts.threads = 2;
        DetailedCacheSim sim(geom, tp, opts);
        return sim.runGemm(fbank, inputs);
    };

    const auto per_flit = run_grid(GridEngine::PerFlit);
    const auto burst = run_grid(GridEngine::Burst);
    EXPECT_EQ(per_flit.accs, burst.accs);
    EXPECT_EQ(per_flit.cycles, burst.cycles);
    EXPECT_LT(burst.events, per_flit.events);
    expect_energy_bitwise_equal(per_flit.energy, burst.energy);
}

TEST(DetailedCacheSim, ConvMatchesFunctionalExecutorBitwise)
{
    // One conv layer through all 14 slices must reproduce the
    // functional LUT datapath float-for-float: same quantizer, same
    // integer accumulators, same dequantization expression.
    const dnn::FeatureShape in_shape{3, 6, 6};
    const auto layer = dnn::make_conv("conv", in_shape, 8, 3, 1, 1);
    dnn::Network net("conv-net", in_shape);
    net.add(layer);

    sim::Rng rng(0xBF5EEDu);
    const auto weights = core::random_weights(net, rng);
    dnn::FloatTensor input({in_shape.c, in_shape.h, in_shape.w});
    input.fillUniform(rng, -1.0, 1.0);

    core::FunctionalExecutor exec;
    const auto functional =
        exec.run(core::NetworkPlan::compile(net, weights, 8), input);

    tech::CacheGeometry geom;
    tech::TechParams tp;
    DetailedCacheSim sim(geom, tp, {});
    const auto detailed = sim.runConv(layer, input, weights[0].weights,
                                      weights[0].bias);

    ASSERT_EQ(detailed.output.shape(), functional.output.shape());
    for (std::size_t i = 0; i < functional.output.size(); ++i)
        EXPECT_EQ(detailed.output[i], functional.output[i]) << "at " << i;

    const auto out = layer.outputShape();
    EXPECT_EQ(detailed.waves, out.h * out.w);
    EXPECT_EQ(detailed.accs.size(), layer.outChannels);
    EXPECT_GT(detailed.cycles, 0u);
}

TEST(DetailedCacheSim, FcMatchesFunctionalExecutorBitwise)
{
    const auto layer = dnn::make_fc("fc", 32, 10);
    dnn::Network net("fc-net", layer.input);
    net.add(layer);

    sim::Rng rng(0xFACEu);
    const auto weights = core::random_weights(net, rng);
    dnn::FloatTensor input({32, 1, 1});
    input.fillUniform(rng, -1.0, 1.0);

    core::FunctionalExecutor exec;
    const auto functional =
        exec.run(core::NetworkPlan::compile(net, weights, 8), input);

    tech::CacheGeometry geom;
    tech::TechParams tp;
    DetailedCacheSim sim(geom, tp, {});
    const auto detailed =
        sim.runFc(layer, input, weights[0].weights, weights[0].bias);

    ASSERT_EQ(detailed.output.size(), functional.output.size());
    for (std::size_t i = 0; i < functional.output.size(); ++i)
        EXPECT_EQ(detailed.output[i], functional.output[i]) << "at " << i;
    EXPECT_EQ(detailed.waves, 1u);
    EXPECT_EQ(detailed.accs.size(), 10u);
}
