#include "detailed_cache_sim.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "dnn/quantize.hh"
#include "sim/logging.hh"
#include "sim/sharded.hh"

namespace bfree::map {

std::vector<unsigned>
partition_filters(unsigned filters, unsigned slices)
{
    if (slices == 0)
        bfree_panic("partition_filters over zero slices");
    std::vector<unsigned> counts(slices, filters / slices);
    const unsigned remainder = filters % slices;
    for (unsigned s = 0; s < remainder; ++s)
        ++counts[s];
    return counts;
}

std::uint64_t
detailed_cache_formula(unsigned rows,
                       const std::vector<unsigned> &cols_per_slice,
                       unsigned waves, std::uint64_t cps, unsigned hop,
                       unsigned slice_hop)
{
    std::uint64_t worst = 0;
    for (std::size_t s = 0; s < cols_per_slice.size(); ++s) {
        if (cols_per_slice[s] == 0)
            continue;
        const std::uint64_t drain =
            static_cast<std::uint64_t>(s) * slice_hop
            + detailed_grid_formula(rows, cols_per_slice[s], waves, cps,
                                    hop);
        worst = std::max(worst, drain);
    }
    return worst;
}

DetailedCacheSim::DetailedCacheSim(const tech::CacheGeometry &geom,
                                   const tech::TechParams &tech,
                                   const DetailedCacheOptions &opts)
    : geom(geom), tech(tech), opts(opts)
{
    if (opts.bits != 4 && opts.bits != 8)
        bfree_fatal("detailed cache sim supports 4- or 8-bit operands");
    if (opts.rows > geom.subarraysPerSubBank)
        bfree_fatal("grid rows ", opts.rows, " exceed ",
                    geom.subarraysPerSubBank, " sub-arrays per sub-bank");
    if (tech.interSliceHopCycles == 0)
        bfree_fatal("interSliceHopCycles must be positive (it is the "
                    "sharded engine's lookahead)");
}

unsigned
DetailedCacheSim::rowsFor(std::size_t k) const
{
    unsigned rows = opts.rows ? opts.rows : geom.subarraysPerSubBank;
    rows = static_cast<unsigned>(
        std::min<std::size_t>(rows, std::max<std::size_t>(k, 1)));
    return std::max(rows, 1u);
}

DetailedCacheResult
DetailedCacheSim::runGemm(
    const std::vector<std::vector<std::int8_t>> &filters,
    const std::vector<std::vector<std::int8_t>> &inputs)
{
    const unsigned num_filters = static_cast<unsigned>(filters.size());
    const unsigned waves = static_cast<unsigned>(inputs.size());
    if (num_filters == 0)
        bfree_fatal("runGemm needs at least one filter");
    const std::size_t k = filters[0].size();
    if (k == 0)
        bfree_fatal("runGemm needs a positive dot-product length");
    for (const auto &f : filters) {
        if (f.size() != k)
            bfree_fatal("all filters must share one dot-product length");
    }
    for (const auto &w : inputs) {
        if (w.size() != k)
            bfree_fatal("every input wave must match the filter length");
    }

    const unsigned rows = rowsFor(k);
    const unsigned slice_len =
        static_cast<unsigned>((k + rows - 1) / rows);
    const std::size_t padded = std::size_t(rows) * slice_len;

    // Zero-pad operands up to rows * slice_len: zero products are exact
    // no-ops on the LUT datapath, so padding changes nothing functional.
    std::vector<std::vector<std::int8_t>> pf(filters.begin(),
                                             filters.end());
    for (auto &f : pf)
        f.resize(padded, 0);
    std::vector<std::vector<std::int8_t>> pw(inputs.begin(),
                                             inputs.end());
    for (auto &w : pw)
        w.resize(padded, 0);

    const std::vector<unsigned> counts =
        partition_filters(num_filters, geom.numSlices);
    unsigned active = 0;
    while (active < counts.size() && counts[active] > 0)
        ++active;

    const bool sharded = opts.engine == CacheEngine::Sharded;
    const sim::ClockDomain clock(tech.subarrayClockHz);
    const sim::Tick slice_hop_ticks =
        clock.cyclesToTicks(sim::Cycles(tech.interSliceHopCycles));
    const std::uint64_t cps =
        static_cast<std::uint64_t>(slice_len) * (opts.bits / 4);
    const sim::Tick cps_ticks = clock.cyclesToTicks(sim::Cycles(cps));

    // One queue per slice (sharded) or one shared queue; one energy
    // account per slice in BOTH engines, merged in slice order, so the
    // engines' float accumulation is structurally identical.
    std::vector<std::unique_ptr<sim::EventQueue>> queues;
    std::vector<std::unique_ptr<mem::EnergyAccount>> accounts;
    std::vector<std::unique_ptr<DetailedSliceSim>> grids;
    queues.reserve(sharded ? active : 1);
    accounts.reserve(active);
    grids.reserve(active);

    if (!sharded)
        queues.push_back(std::make_unique<sim::EventQueue>());

    std::vector<sim::EventQueue *> qptr(active);
    for (unsigned s = 0; s < active; ++s) {
        if (sharded)
            queues.push_back(std::make_unique<sim::EventQueue>());
        qptr[s] = sharded ? queues[s].get() : queues[0].get();
        accounts.push_back(std::make_unique<mem::EnergyAccount>());
        grids.push_back(std::make_unique<DetailedSliceSim>(
            geom, tech, rows, counts[s], slice_len, opts.bits, opts.grid,
            qptr[s], accounts[s].get()));
    }

    // Weight layout per slice: contiguous filter block, each filter's
    // k elements split row-major into rows slices of slice_len.
    {
        unsigned first = 0;
        for (unsigned s = 0; s < active; ++s) {
            std::vector<std::vector<std::vector<std::int8_t>>> w(
                counts[s]);
            for (unsigned c = 0; c < counts[s]; ++c) {
                const std::vector<std::int8_t> &f = pf[first + c];
                for (unsigned r = 0; r < rows; ++r) {
                    w[c].emplace_back(
                        f.begin() + std::size_t(r) * slice_len,
                        f.begin() + std::size_t(r + 1) * slice_len);
                }
            }
            grids[s]->loadWeights(w);
            grids[s]->beginStreaming(pw);
            first += counts[s];
        }
    }

    std::unique_ptr<sim::ShardedEngine> engine;
    if (sharded) {
        std::vector<sim::EventQueue *> raw(qptr.begin(), qptr.end());
        engine = std::make_unique<sim::ShardedEngine>(
            std::move(raw), slice_hop_ticks, opts.threads);
    }

    // Injection: slice s's wave train starts slice_hop ticks after
    // slice s-1's (the inter-slice input stream). SingleQueue schedules
    // every slice's injection at its absolute offset up front; Sharded
    // chains them through cross-shard messages at exactly the lookahead
    // (so the hand-off crosses at an epoch barrier). The sharded chains
    // call themselves through these, which outlive the run below.
    std::function<void(unsigned)> injectSlice;
    std::function<void(unsigned, unsigned)> injectWave;
    if (waves > 0 && opts.grid == GridEngine::Burst) {
        if (!sharded) {
            for (unsigned s = 0; s < active; ++s) {
                DetailedSliceSim *g = grids[s].get();
                qptr[0]->scheduleCallback(
                    std::uint64_t(s) * slice_hop_ticks + cps_ticks,
                    [g] { g->injectAllWavesNow(); });
            }
        } else {
            injectSlice = [&](unsigned s) {
                if (s + 1 < active) {
                    const sim::Tick when =
                        qptr[s]->now() + slice_hop_ticks;
                    engine->post(s, s + 1, when, [&, s, when] {
                        qptr[s + 1]->scheduleCallback(
                            when, [&, s] { injectSlice(s + 1); });
                    });
                }
                grids[s]->injectAllWavesNow();
            };
            qptr[0]->scheduleCallback(cps_ticks, [&] { injectSlice(0); });
        }
    } else if (waves > 0) { // GridEngine::PerFlit
        if (!sharded) {
            for (unsigned s = 0; s < active; ++s) {
                DetailedSliceSim *g = grids[s].get();
                for (unsigned w = 0; w < waves; ++w) {
                    qptr[0]->scheduleCallback(
                        std::uint64_t(s) * slice_hop_ticks
                            + std::uint64_t(w + 1) * cps_ticks,
                        [g, w] { g->injectWaveNow(w); });
                }
            }
        } else {
            // One cross-shard message per wave per slice boundary —
            // the stress case for the epoch-barrier engine.
            injectWave = [&](unsigned s, unsigned w) {
                if (s + 1 < active) {
                    const sim::Tick when =
                        qptr[s]->now() + slice_hop_ticks;
                    engine->post(s, s + 1, when, [&, s, w, when] {
                        qptr[s + 1]->scheduleCallback(
                            when, [&, s, w] { injectWave(s + 1, w); });
                    });
                }
                grids[s]->injectWaveNow(w);
            };
            for (unsigned w = 0; w < waves; ++w) {
                qptr[0]->scheduleCallback(
                    std::uint64_t(w + 1) * cps_ticks,
                    [&, w] { injectWave(0, w); });
            }
        }
    }

    if (sharded)
        engine->run();
    else
        qptr[0]->run();

    DetailedCacheResult result;
    result.waves = waves;
    result.activeSlices = active;
    result.accs.assign(num_filters,
                       std::vector<std::int32_t>(waves, 0));
    result.sliceCycles.reserve(active);
    {
        unsigned first = 0;
        for (unsigned s = 0; s < active; ++s) {
            const DetailedGridResult r = grids[s]->finishStreaming();
            result.sliceCycles.push_back(r.cycles);
            result.cycles = std::max(result.cycles, r.cycles);
            for (unsigned c = 0; c < counts[s]; ++c)
                result.accs[first + c] = r.outputs[c];
            first += counts[s];
        }
    }
    for (unsigned s = 0; s < active; ++s)
        result.energy += *accounts[s];
    if (sharded) {
        result.events = engine->processed();
        result.epochs = engine->epochs();
        result.crossMessages = engine->messages();
    } else {
        result.events = qptr[0]->processed();
    }
    return result;
}

DetailedCacheResult
DetailedCacheSim::runConv(const dnn::Layer &layer,
                          const dnn::FloatTensor &input,
                          const std::vector<float> &weights,
                          const std::vector<float> &bias)
{
    // Freezing at this sim's precision is bit-identical to quantizing
    // per use (SymQuant::q is pure); callers running a layer more than
    // once should freeze once and use the frozen overload directly.
    return runConv(layer, input,
                   dnn::freeze_weights(weights.data(), weights.size(),
                                       opts.bits),
                   bias);
}

DetailedCacheResult
DetailedCacheSim::runConv(const dnn::Layer &layer,
                          const dnn::FloatTensor &input,
                          const dnn::QuantizedWeights &weights,
                          const std::vector<float> &bias)
{
    if (layer.kind != dnn::LayerKind::Conv)
        bfree_fatal("runConv on a non-conv layer");
    const dnn::FeatureShape out = layer.outputShape();
    const std::size_t patch_len =
        std::size_t(layer.input.c) * layer.kernelH * layer.kernelW;
    if (weights.count() != std::size_t(out.c) * patch_len)
        bfree_fatal("conv weights: expected ",
                    std::size_t(out.c) * patch_len, " values");
    if (weights.bits != opts.bits)
        bfree_fatal("conv weights frozen at ", weights.bits,
                    "-bit, sim runs ", opts.bits, "-bit");
    if (bias.size() != out.c)
        bfree_fatal("conv bias: expected ", out.c, " values");

    const unsigned bits = opts.bits;
    const dnn::SymQuant qi =
        dnn::choose_sym(input.data(), input.size(), bits);
    const dnn::SymQuant &qw = weights.scale;

    // The frozen filter bank [outC][inC][kh][kw] already matches the
    // im2col patch order; split it into per-filter spans.
    std::vector<std::vector<std::int8_t>> filters(out.c);
    for (unsigned f = 0; f < out.c; ++f) {
        const std::int8_t *row =
            weights.q8.data() + std::size_t(f) * patch_len;
        filters[f].assign(row, row + patch_len);
    }

    // One input wave per output position: the im2col patch in
    // (oh, ow) order, out-of-bounds taps gathering a literal 0.
    std::vector<std::vector<std::int8_t>> patches;
    patches.reserve(std::size_t(out.h) * out.w);
    for (unsigned oh = 0; oh < out.h; ++oh) {
        for (unsigned ow = 0; ow < out.w; ++ow) {
            std::vector<std::int8_t> patch(patch_len);
            std::size_t p = 0;
            for (unsigned c = 0; c < layer.input.c; ++c) {
                for (unsigned r = 0; r < layer.kernelH; ++r) {
                    for (unsigned s = 0; s < layer.kernelW; ++s, ++p) {
                        const int ih =
                            static_cast<int>(oh * layer.strideH + r)
                            - static_cast<int>(layer.padH);
                        const int iw =
                            static_cast<int>(ow * layer.strideW + s)
                            - static_cast<int>(layer.padW);
                        const bool inside =
                            ih >= 0 && iw >= 0
                            && ih < static_cast<int>(layer.input.h)
                            && iw < static_cast<int>(layer.input.w);
                        patch[p] =
                            inside ? static_cast<std::int8_t>(
                                         qi.q(input.at(c, ih, iw)))
                                   : std::int8_t{0};
                    }
                }
            }
            patches.push_back(std::move(patch));
        }
    }

    DetailedCacheResult result = runGemm(filters, patches);

    // Dequantize with the functional executor's exact expression.
    result.output = dnn::FloatTensor({out.c, out.h, out.w});
    for (unsigned f = 0; f < out.c; ++f) {
        unsigned wave = 0;
        for (unsigned oh = 0; oh < out.h; ++oh) {
            for (unsigned ow = 0; ow < out.w; ++ow, ++wave) {
                result.output.at(f, oh, ow) =
                    static_cast<float>(result.accs[f][wave] * qw.scale
                                       * qi.scale)
                    + bias[f];
            }
        }
    }
    return result;
}

DetailedCacheResult
DetailedCacheSim::runFc(const dnn::Layer &layer,
                        const dnn::FloatTensor &input,
                        const std::vector<float> &weights,
                        const std::vector<float> &bias)
{
    return runFc(layer, input,
                 dnn::freeze_weights(weights.data(), weights.size(),
                                     opts.bits),
                 bias);
}

DetailedCacheResult
DetailedCacheSim::runFc(const dnn::Layer &layer,
                        const dnn::FloatTensor &input,
                        const dnn::QuantizedWeights &weights,
                        const std::vector<float> &bias)
{
    if (layer.kind != dnn::LayerKind::Fc)
        bfree_fatal("runFc on a non-fc layer");
    if (input.size() != layer.inFeatures)
        bfree_fatal("fc input: expected ", layer.inFeatures, " values");
    if (weights.count()
        != std::size_t(layer.outFeatures) * layer.inFeatures)
        bfree_fatal("fc weights: expected outFeatures * inFeatures");
    if (weights.bits != opts.bits)
        bfree_fatal("fc weights frozen at ", weights.bits,
                    "-bit, sim runs ", opts.bits, "-bit");
    if (bias.size() != layer.outFeatures)
        bfree_fatal("fc bias: expected ", layer.outFeatures, " values");

    const unsigned bits = opts.bits;
    const dnn::SymQuant qi =
        dnn::choose_sym(input.data(), input.size(), bits);
    const dnn::SymQuant &qw = weights.scale;

    std::vector<std::vector<std::int8_t>> filters(layer.outFeatures);
    for (unsigned o = 0; o < layer.outFeatures; ++o) {
        const std::int8_t *row =
            weights.q8.data() + std::size_t(o) * layer.inFeatures;
        filters[o].assign(row, row + layer.inFeatures);
    }

    std::vector<std::vector<std::int8_t>> wave(1);
    wave[0].resize(layer.inFeatures);
    for (unsigned i = 0; i < layer.inFeatures; ++i)
        wave[0][i] = static_cast<std::int8_t>(qi.q(input[i]));

    DetailedCacheResult result = runGemm(filters, wave);

    result.output = dnn::FloatTensor(
        {layer.outFeatures, std::size_t(1), std::size_t(1)});
    for (unsigned o = 0; o < layer.outFeatures; ++o) {
        result.output[o] =
            static_cast<float>(result.accs[o][0] * qw.scale * qi.scale)
            + bias[o];
    }
    return result;
}

} // namespace bfree::map
