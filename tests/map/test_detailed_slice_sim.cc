/**
 * @file
 * The 2-D systolic grid: exact outputs per filter column, cycles and
 * event counts match the closed forms, and the equivalence with a
 * matrix multiply.
 */

#include <gtest/gtest.h>

#include <vector>

#include "map/detailed_slice_sim.hh"
#include "sim/random.hh"

using namespace bfree::map;
using bfree::tech::CacheGeometry;
using bfree::tech::TechParams;

namespace {

struct GridCase
{
    unsigned rows;
    unsigned cols;
    unsigned slice_len;
    unsigned waves;
    unsigned bits;
};

class GridSweep : public ::testing::TestWithParam<GridCase>
{};

using Weights = std::vector<std::vector<std::vector<std::int8_t>>>;

std::int32_t
reference_output(const Weights &w, const std::vector<std::int8_t> &wave,
                 unsigned col, unsigned slice_len)
{
    std::int32_t acc = 0;
    for (std::size_t r = 0; r < w[col].size(); ++r)
        for (unsigned i = 0; i < slice_len; ++i)
            acc += std::int32_t(w[col][r][i]) * wave[r * slice_len + i];
    return acc;
}

/**
 * Events a literal per-flit run dispatches: one injection per wave at
 * column 0, then one delivery per flit per hop, over cols - 1
 * horizontal links and rows - 1 vertical links in each column.
 */
std::uint64_t
per_flit_events(unsigned rows, unsigned cols, unsigned waves)
{
    const std::uint64_t w = waves;
    return w + w * (cols - 1) + w * cols * (rows - 1);
}

} // namespace

TEST_P(GridSweep, OutputsAndCyclesMatchClosedForm)
{
    const GridCase p = GetParam();
    CacheGeometry geom;
    TechParams tech;
    DetailedSliceSim sim(geom, tech, p.rows, p.cols, p.slice_len,
                         p.bits);

    bfree::sim::Rng rng(500 + p.rows * 10 + p.cols);
    const int lo = p.bits == 4 ? -8 : -128;
    const int hi = p.bits == 4 ? 7 : 127;

    Weights weights(p.cols);
    for (auto &col : weights) {
        col.resize(p.rows);
        for (auto &slice : col) {
            slice.resize(p.slice_len);
            for (auto &w : slice)
                w = static_cast<std::int8_t>(rng.uniformInt(lo, hi));
        }
    }
    sim.loadWeights(weights);

    std::vector<std::vector<std::int8_t>> inputs(p.waves);
    for (auto &wave : inputs) {
        wave.resize(std::size_t(p.rows) * p.slice_len);
        for (auto &x : wave)
            x = static_cast<std::int8_t>(rng.uniformInt(lo, hi));
    }

    const DetailedGridResult r = sim.run(inputs);

    ASSERT_EQ(r.outputs.size(), p.cols);
    for (unsigned c = 0; c < p.cols; ++c) {
        ASSERT_EQ(r.outputs[c].size(), p.waves) << "column " << c;
        for (unsigned w = 0; w < p.waves; ++w)
            EXPECT_EQ(r.outputs[c][w],
                      reference_output(weights, inputs[w], c,
                                       p.slice_len))
                << "column " << c << " wave " << w;
    }

    EXPECT_EQ(r.cycles,
              detailed_grid_formula(p.rows, p.cols, p.waves,
                                    sim.cyclesPerStep(),
                                    tech.routerHopCycles));
    // A batching router path would dispatch fewer events than this.
    const std::uint64_t events = per_flit_events(p.rows, p.cols, p.waves);
    EXPECT_EQ(r.events, events);

    // Every flit (all events but the injections) pays one hop, charged
    // one addPj at a time.
    double router_j = 0.0;
    for (std::uint64_t f = 0; f < events - p.waves; ++f)
        router_j += tech.routerHopPj * 1e-12;
    EXPECT_EQ(sim.energy().joules(bfree::mem::EnergyCategory::Router),
              router_j);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GridSweep,
    ::testing::Values(GridCase{1, 1, 8, 2, 8},  // degenerate
                      GridCase{2, 3, 4, 3, 8},
                      GridCase{4, 4, 8, 5, 8},
                      GridCase{8, 6, 8, 4, 8},  // full sub-bank column
                      GridCase{3, 10, 5, 6, 8}, // wide filter bank
                      GridCase{4, 4, 8, 5, 4},  // 4-bit operands
                      GridCase{8, 2, 16, 8, 8}));

TEST(GridFormula, KnownValues)
{
    // 8 rows, 6 cols, 4 waves, 64 cps, 1-cycle hops:
    // 4*64 + (5 + 7) = 268.
    EXPECT_EQ(detailed_grid_formula(8, 6, 4, 64, 1), 268u);
    EXPECT_EQ(detailed_grid_formula(1, 1, 1, 10, 1), 10u);
    EXPECT_EQ(detailed_grid_formula(0, 3, 1, 10, 1), 0u);
}

TEST(Grid, EveryColumnProducesOneOutputPerWave)
{
    // The paper: "each column produces one element of output feature
    // map at every step".
    CacheGeometry geom;
    TechParams tech;
    DetailedSliceSim sim(geom, tech, 2, 4, 4, 8);

    Weights w(4, std::vector<std::vector<std::int8_t>>(
                     2, std::vector<std::int8_t>(4, 1)));
    sim.loadWeights(w);
    std::vector<std::vector<std::int8_t>> inputs(
        3, std::vector<std::int8_t>(8, 2));
    const DetailedGridResult r = sim.run(inputs);
    for (const auto &col : r.outputs) {
        ASSERT_EQ(col.size(), 3u);
        for (std::int32_t v : col)
            EXPECT_EQ(v, 16); // 8 ones x 2
    }
}

TEST(Grid, SecondRunReportsOnlyItsOwnCycles)
{
    // The grid's queue keeps its clock between runs: each run's
    // cycles must count from that run's start, not from tick 0.
    CacheGeometry geom;
    TechParams tech;
    DetailedSliceSim sim(geom, tech, 2, 3, 4, 8);
    Weights w(3, std::vector<std::vector<std::int8_t>>(
                     2, std::vector<std::int8_t>(4, 1)));
    sim.loadWeights(w);
    std::vector<std::vector<std::int8_t>> inputs(
        4, std::vector<std::int8_t>(8, 1));
    const std::uint64_t want = detailed_grid_formula(
        2, 3, 4, sim.cyclesPerStep(), tech.routerHopCycles);
    const DetailedGridResult first = sim.run(inputs);
    const DetailedGridResult second = sim.run(inputs);
    EXPECT_EQ(first.cycles, want);
    EXPECT_EQ(second.cycles, want);
    EXPECT_EQ(second.outputs, first.outputs);
    EXPECT_EQ(second.events, first.events);
}

TEST(Grid, WiderGridTakesLongerOnlyByHops)
{
    CacheGeometry geom;
    TechParams tech;
    const std::uint64_t cps = 8; // slice_len 4, 8-bit -> 4*2

    auto run_grid = [&](unsigned cols) {
        DetailedSliceSim sim(geom, tech, 2, cols, 4, 8);
        Weights w(cols, std::vector<std::vector<std::int8_t>>(
                            2, std::vector<std::int8_t>(4, 1)));
        sim.loadWeights(w);
        std::vector<std::vector<std::int8_t>> inputs(
            4, std::vector<std::int8_t>(8, 1));
        return sim.run(inputs).cycles;
    };

    const std::uint64_t narrow = run_grid(2);
    const std::uint64_t wide = run_grid(6);
    EXPECT_EQ(wide - narrow, 4u); // 4 extra horizontal hops
    EXPECT_EQ(narrow, 4 * cps + 1 + 1);
}

TEST(Grid, ChargesRouterEnergyOnBothAxes)
{
    CacheGeometry geom;
    TechParams tech;
    DetailedSliceSim sim(geom, tech, 3, 3, 4, 8);
    Weights w(3, std::vector<std::vector<std::int8_t>>(
                     3, std::vector<std::int8_t>(4, 1)));
    sim.loadWeights(w);
    std::vector<std::vector<std::int8_t>> inputs(
        2, std::vector<std::int8_t>(12, 1));
    sim.run(inputs);
    EXPECT_GT(sim.energy().joules(bfree::mem::EnergyCategory::Router),
              0.0);
}

TEST(GridDeath, BadShapes)
{
    CacheGeometry geom;
    TechParams tech;
    EXPECT_DEATH(DetailedSliceSim(geom, tech, 0, 2, 4, 8), "rows");
    EXPECT_DEATH(DetailedSliceSim(geom, tech, 9, 2, 4, 8), "rows");
    EXPECT_DEATH(DetailedSliceSim(geom, tech, 2, 0, 4, 8), "column");
}
