/**
 * @file
 * Micro-benchmarks (google-benchmark) of the functional LUT datapath:
 * host-side throughput of the operand analyzer, BCE multiply paths,
 * LUT division and PWL evaluation.
 * These measure the simulator itself, not the modelled hardware.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "bce/bce.hh"
#include "lut/division.hh"
#include "lut/operand_analyzer.hh"
#include "lut/pwl.hh"
#include "sim/random.hh"

namespace {

using namespace bfree;

void
BM_OperandAnalyzerMultiply8(benchmark::State &state)
{
    lut::MultLut table;
    sim::Rng rng(1);
    std::vector<std::int32_t> a(1024);
    std::vector<std::int32_t> b(1024);
    for (int i = 0; i < 1024; ++i) {
        a[i] = static_cast<std::int32_t>(rng.uniformInt(-128, 127));
        b[i] = static_cast<std::int32_t>(rng.uniformInt(-128, 127));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            lut::multiply_signed(a[i & 1023], b[i & 1023], 8, table));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OperandAnalyzerMultiply8);

void
BM_OperandAnalyzerMultiply16(benchmark::State &state)
{
    lut::MultLut table;
    sim::Rng rng(2);
    std::vector<std::int32_t> a(1024);
    std::vector<std::int32_t> b(1024);
    for (int i = 0; i < 1024; ++i) {
        a[i] = static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
        b[i] = static_cast<std::int32_t>(rng.uniformInt(-32768, 32767));
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            lut::multiply_signed(a[i & 1023], b[i & 1023], 16, table));
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OperandAnalyzerMultiply16);

void
BM_BceDotProduct(benchmark::State &state)
{
    const auto len = static_cast<std::size_t>(state.range(0));
    tech::CacheGeometry geom;
    tech::TechParams tp;
    mem::EnergyAccount energy;
    mem::Subarray sa(geom, tp, energy);
    bce::Bce engine(sa, tp, energy);
    engine.loadMultLutImage();
    engine.setMode(bce::BceMode::Conv);

    sim::Rng rng(3);
    std::vector<std::int8_t> weights(len);
    std::vector<std::int8_t> inputs(len);
    for (std::size_t i = 0; i < len; ++i) {
        weights[i] = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
        inputs[i] = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    }
    sa.write(0, reinterpret_cast<std::uint8_t *>(weights.data()), len);

    for (auto _ : state)
        benchmark::DoNotOptimize(
            engine.dotProduct(0, inputs.data(), len, 8));
    state.SetItemsProcessed(state.iterations() * len);
}
BENCHMARK(BM_BceDotProduct)->Arg(16)->Arg(64)->Arg(256);

void
BM_LutDivision(benchmark::State &state)
{
    lut::DivisionLut div(4);
    sim::Rng rng(4);
    std::vector<double> xs(256);
    std::vector<double> ys(256);
    for (int i = 0; i < 256; ++i) {
        xs[i] = rng.uniformReal(0.1, 1e4);
        ys[i] = rng.uniformReal(0.1, 1e4);
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(div.divide(xs[i & 255], ys[i & 255]));
        ++i;
    }
}
BENCHMARK(BM_LutDivision);

void
BM_PwlSigmoid(benchmark::State &state)
{
    const lut::PwlTable table = lut::make_sigmoid_table(32);
    double x = -8.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.evaluate(x));
        x += 0.001;
        if (x > 8.0)
            x = -8.0;
    }
}
BENCHMARK(BM_PwlSigmoid);

} // namespace
