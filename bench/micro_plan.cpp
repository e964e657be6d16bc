/**
 * @file
 * Execution-plan amortization: cold plan compile vs per-call
 * quantization vs warm plan runs, plus batched multi-input throughput
 * on the thread pool.
 *
 * The workload is a weight-heavy MLP (1024-2048-2048-10, ~6.3M
 * parameters), where the legacy path's per-call weight freeze is real
 * work of the same order as the datapath itself — the case the plan
 * layer exists for. Outputs are verified bitwise between the legacy and
 * warm-plan paths before any rate is reported.
 *
 * Output: a BenchJson document (--out FILE, default BENCH_pr5.json)
 * with plan_compile / whole_network / batch_Nt sections. With
 * --check-baseline FILE the run exits 1 when a tracked rate collapsed
 * more than 5x below the committed baseline (non-gating CI perf-smoke).
 *
 * With --dump-stats the bench instead prints the deterministic batch
 * statistics blocks of the MLP and a small CNN at 8, 4 and then 16
 * bits (no wall-clock anywhere in the output) — the CI determinism
 * jobs byte-compare this across thread counts and ISAs.
 */

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/functional.hh"
#include "dnn/layer.hh"
#include "dnn/network.hh"
#include "sim/bench_json.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"

namespace {

using namespace bfree;
using Clock = std::chrono::steady_clock;

/** Weight-dominated MLP: every parameter is touched once per run. */
dnn::Network
make_mlp()
{
    dnn::Network net("mlp-2x2048", {1024, 1, 1});
    net.add(dnn::make_fc("fc1", 1024, 2048));
    net.add(dnn::make_activation("act1", dnn::LayerKind::Sigmoid,
                                 {2048, 1, 1}));
    net.add(dnn::make_fc("fc2", 2048, 2048));
    net.add(dnn::make_activation("act2", dnn::LayerKind::Sigmoid,
                                 {2048, 1, 1}));
    net.add(dnn::make_fc("fc3", 2048, 10));
    net.add(dnn::make_activation("prob", dnn::LayerKind::Softmax,
                                 {10, 1, 1}));
    return net;
}

double
ms_between(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * Small CNN covering overlapping (3x3 stride-1), 1x1 and disjoint
 * (2x2 stride-2) conv windows, all through the channels-last front. The
 * two ReLUs fold into their convs' stores and the 2x2 / stride-2 max
 * pool takes the vector pool path. The --dump-stats block runs it so
 * the CI ISA and thread sweeps byte-compare conv, ReLU and pool
 * statistics, not just the FC-only MLP.
 */
dnn::Network
make_cnn()
{
    dnn::Network net("cnn-frontend", {3, 8, 8});
    net.add(dnn::make_conv("c3x3", {3, 8, 8}, 8, 3, 1, 1));
    net.add(dnn::make_activation("r3x3", dnn::LayerKind::Relu,
                                 {8, 8, 8}));
    net.add(dnn::make_conv("c2x2s2", {8, 8, 8}, 8, 2, 2, 0));
    net.add(dnn::make_conv("c1x1", {8, 4, 4}, 4, 1, 1, 0));
    net.add(dnn::make_activation("r1x1", dnn::LayerKind::Relu,
                                 {4, 4, 4}));
    net.add(dnn::make_pool("pool", dnn::LayerKind::MaxPool, {4, 4, 4}, 2,
                           2, 0));
    return net;
}

/** Bit-pattern checksum of a float tensor (exact, order-dependent). */
std::uint64_t
checksum(const dnn::FloatTensor &t)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, &t[i], sizeof bits);
        sum = sum * 1099511628211ull + bits;
    }
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned threads = sim::threads_from_args(argc, argv);
    std::string out_path = "BENCH_pr5.json";
    std::string baseline_path;
    bool dump_stats = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--dump-stats"))
            dump_stats = true;
        else if (!std::strcmp(argv[i], "--out") && i + 1 < argc)
            out_path = argv[i + 1];
        else if (!std::strcmp(argv[i], "--check-baseline") && i + 1 < argc)
            baseline_path = argv[i + 1];
    }

    const dnn::Network net = make_mlp();
    sim::Rng rng(5);
    const core::NetworkWeights weights = core::random_weights(net, rng);

    const std::size_t batch_n = 32;
    std::vector<dnn::FloatTensor> inputs;
    for (std::size_t i = 0; i < batch_n; ++i) {
        dnn::FloatTensor in({1024, 1, 1});
        in.fillUniform(rng, -1.0, 1.0);
        inputs.push_back(std::move(in));
    }

    const core::NetworkPlan plan =
        core::NetworkPlan::compile(net, weights, 8);

    if (dump_stats) {
        // Deterministic block only: batch statistics and the output
        // checksums are bit-identical for any --threads, so this
        // output byte-compares across thread counts. Both tile
        // precisions, 8-bit first, then the same nets at 4-bit, then
        // at 16-bit through the wide spans.
        core::BatchOptions opts;
        opts.threads = threads;

        // Conv block: these exact bytes at every ISA and thread count,
        // the disjoint-window c2x2s2 layer included.
        const dnn::Network cnn = make_cnn();
        sim::Rng crng(10);
        const core::NetworkWeights cweights =
            core::random_weights(cnn, crng);
        std::vector<dnn::FloatTensor> cinputs;
        for (std::size_t i = 0; i < 8; ++i) {
            dnn::FloatTensor in({3, 8, 8});
            in.fillUniform(crng, -1.0, 1.0);
            cinputs.push_back(std::move(in));
        }

        for (const unsigned bits : {8u, 4u, 16u}) {
            const core::NetworkPlan bplan =
                core::NetworkPlan::compile(net, weights, bits);
            const core::BatchResult r =
                core::run_functional_batch(bplan, inputs, opts);
            std::uint64_t osum = 0;
            for (const dnn::FloatTensor &t : r.outputs)
                osum = osum * 31 + checksum(t);
            std::printf("micro_plan batch stats: net=%s inputs=%zu "
                        "bits=%u\n",
                        net.name().c_str(), inputs.size(), bits);
            std::printf("cycles %llu\n",
                        static_cast<unsigned long long>(r.stats.cycles));
            std::printf("macs %llu\n",
                        static_cast<unsigned long long>(r.stats.macs));
            std::printf("rom_lookups %llu\n",
                        static_cast<unsigned long long>(
                            r.stats.counts.romLookups));
            std::printf("lut_lookups %llu\n",
                        static_cast<unsigned long long>(
                            r.stats.counts.lutLookups));
            std::printf("adds %llu\n", static_cast<unsigned long long>(
                                           r.stats.counts.adds));
            std::printf("special_lut_events %llu\n",
                        static_cast<unsigned long long>(
                            r.stats.specialLutEvents));
            std::printf("energy_total %.17g\n", r.energy.total());
            std::printf("output_checksum %016llx\n",
                        static_cast<unsigned long long>(osum));

            const core::NetworkPlan cplan =
                core::NetworkPlan::compile(cnn, cweights, bits);
            const core::BatchResult cr =
                core::run_functional_batch(cplan, cinputs, opts);
            std::uint64_t csum = 0;
            for (const dnn::FloatTensor &t : cr.outputs)
                csum = csum * 31 + checksum(t);
            std::printf("micro_plan conv stats: net=%s inputs=%zu "
                        "bits=%u\n",
                        cnn.name().c_str(), cinputs.size(), bits);
            std::printf("cycles %llu\n",
                        static_cast<unsigned long long>(cr.stats.cycles));
            std::printf("macs %llu\n",
                        static_cast<unsigned long long>(cr.stats.macs));
            std::printf("lut_lookups %llu\n",
                        static_cast<unsigned long long>(
                            cr.stats.counts.lutLookups));
            std::printf("adds %llu\n", static_cast<unsigned long long>(
                                           cr.stats.counts.adds));
            std::printf("energy_total %.17g\n", cr.energy.total());
            std::printf("output_checksum %016llx\n",
                        static_cast<unsigned long long>(csum));
        }
        return 0;
    }

    sim::BenchJson json;
    json.set("host", "hardware_threads",
             static_cast<double>(sim::resolve_threads(0)));

    // --- cold compile ------------------------------------------------
    const int compile_reps = 5;
    const auto c0 = Clock::now();
    std::uint64_t frozen = 0;
    for (int r = 0; r < compile_reps; ++r) {
        const core::NetworkPlan p = core::NetworkPlan::compile(net,
                                                               weights, 8);
        frozen = p.stats().frozenValues;
    }
    const auto c1 = Clock::now();
    const double compile_ms = ms_between(c0, c1) / compile_reps;
    json.set("plan_compile", "compile_ms", compile_ms);
    json.set("plan_compile", "frozen_values",
             static_cast<double>(frozen));
    json.set("plan_compile", "arena_bytes",
             static_cast<double>(plan.stats().arenaBytes));

    // --- whole-network: per-call quantization vs warm plan -----------
    // Both supported integer precisions; the warm plan must beat the
    // per-call path at each (it skips the same freeze work either way).
    const int reps = 10;
    for (unsigned bits : {4u, 8u}) {
        const core::NetworkPlan p =
            core::NetworkPlan::compile(net, weights, bits);
        core::FunctionalExecutor legacy_exec;
        core::FunctionalExecutor warm_exec;

        // The per-call path compiles a throwaway plan on every run.
        const auto per_call = [&] {
            return legacy_exec.run(
                core::NetworkPlan::compile(net, weights, bits), inputs[0]);
        };
        core::FunctionalResult legacy_res = per_call(); // warm-up
        const auto l0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            legacy_res = per_call();
        const auto l1 = Clock::now();

        core::FunctionalResult warm_res = warm_exec.run(p, inputs[0]);
        const auto w0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            warm_res = warm_exec.run(p, inputs[0]);
        const auto w1 = Clock::now();

        if (checksum(legacy_res.output) != checksum(warm_res.output)) {
            std::cerr << "warm plan output diverged from the legacy "
                         "per-call path at " << bits << " bits\n";
            return 2;
        }

        const double legacy_ms = ms_between(l0, l1) / reps;
        const double warm_ms = ms_between(w0, w1) / reps;
        const double speedup = warm_ms > 0.0 ? legacy_ms / warm_ms : 0.0;
        const std::string section =
            "whole_network_" + std::to_string(bits) + "bit";
        json.set(section, "legacy_ms_per_run", legacy_ms);
        json.set(section, "warm_plan_ms_per_run", warm_ms);
        json.set(section, "warm_runs_per_s",
                 warm_ms > 0.0 ? 1000.0 / warm_ms : 0.0);
        json.set(section, "speedup", speedup);
        std::printf("%-20s legacy %8.3f ms  warm plan %8.3f ms  "
                    "speedup %5.2fx\n",
                    section.c_str(), legacy_ms, warm_ms, speedup);
    }

    // --- batched throughput ------------------------------------------
    // Multi-worker points on a 1-hardware-thread host can only measure
    // oversubscription overhead: measure the 1-thread throughput, mark
    // the scaling section skipped, and emit no efficiency figures.
    const unsigned hw = sim::resolve_threads(0);
    double ips_first = 0.0;
    double ips_last = 0.0;
    for (unsigned t : {1u, 2u, 4u, 8u}) {
        if (hw <= 1 && t > 1)
            break;
        core::BatchOptions opts;
        opts.threads = t;
        (void)core::run_functional_batch(plan, inputs, opts); // warm-up
        const auto b0 = Clock::now();
        const core::BatchResult r =
            core::run_functional_batch(plan, inputs, opts);
        const auto b1 = Clock::now();
        const double sec =
            std::chrono::duration<double>(b1 - b0).count();
        const double ips =
            sec > 0.0 ? static_cast<double>(r.outputs.size()) / sec : 0.0;
        const std::string section = "batch_" + std::to_string(t) + "t";
        json.set(section, "images_per_s", ips);
        if (t == 1)
            ips_first = ips;
        // Scaling efficiency: fraction of perfect linear speedup over
        // the 1-thread point at this thread count.
        json.set(section, "scaling_efficiency",
                 ips_first > 0.0 ? ips / (ips_first * t) : 0.0);
        std::printf("%-14s %8.1f images/s\n", section.c_str(), ips);
        ips_last = ips;
    }
    json.set("batch_scaling", "skipped", hw <= 1 ? 1.0 : 0.0);
    if (hw <= 1)
        std::cout << "batch scaling: skipped (1 hardware thread)\n";
    else
        json.set("batch_scaling", "t8_over_t1",
                 ips_first > 0.0 ? ips_last / ips_first : 0.0);
    json.set("batch_scaling", "hardware_threads",
             static_cast<double>(hw));

    if (!json.save(out_path)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << "\n";

    if (!baseline_path.empty()) {
        sim::BenchJson baseline;
        if (!baseline.load(baseline_path)) {
            std::cerr << "cannot load baseline " << baseline_path << "\n";
            return 1;
        }
        std::vector<std::array<const char *, 2>> tracked = {
            {"whole_network_4bit", "warm_runs_per_s"},
            {"whole_network_8bit", "warm_runs_per_s"},
        };
        // The batch_8t point is a scaling assertion; on a 1-thread
        // host it can only measure oversubscription, so skip it there.
        if (sim::resolve_threads(0) > 1)
            tracked.push_back({"batch_8t", "images_per_s"});
        else
            std::cout << "note: 1 hardware thread; batch scaling "
                         "points not gated\n";
        bool ok = true;
        for (const auto &key : tracked) {
            const double ref = baseline.get(key[0], key[1], 0.0);
            const double now = json.get(key[0], key[1], 0.0);
            // Only a >5x collapse vs the committed baseline fails: the
            // gate catches algorithmic regressions, not runner noise.
            if (ref > 0.0 && now < ref / 5.0) {
                std::cerr << key[0] << "." << key[1] << ": " << now
                          << " is >5x below baseline " << ref << "\n";
                ok = false;
            }
        }
        if (!ok)
            return 1;
        std::cout << "baseline check passed (threshold: 5x)\n";
    }
    return 0;
}
