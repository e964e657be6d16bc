/**
 * @file
 * bfree_cli — run any modelled workload/configuration from the shell.
 *
 *   bfree_cli --network bert-base --batch 16 --memory hbm
 *   bfree_cli --network vgg16 --slices 1 --baseline eyeriss
 *   bfree_cli --network inception --mode conv --baseline neural-cache
 *   bfree_cli --network vgg16 --precision mixed --csv
 *   bfree_cli --network lstm --stats
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include <optional>

#include "bce/simd_kernels.hh"
#include "core/bfree.hh"
#include "core/network_plan.hh"
#include "core/report.hh"
#include "core/stats_export.hh"
#include "dnn/layer.hh"
#include "dnn/quantize.hh"
#include "sim/cpuid.hh"
#include "sim/parallel.hh"
#include "verify/plan_verifier.hh"

#include "arg_parse.hh"

namespace {

using namespace bfree;

void
usage(std::ostream &os)
{
    os << "usage: bfree_cli [options]\n"
          "  --network NAME    vgg16 | inception | lstm | bert-base |\n"
          "                    bert-large | tiny   (default vgg16)\n"
          "  --batch N         batch size (default 1)\n"
          "  --memory KIND     dram | edram | hbm   (default dram)\n"
          "  --slices N        LLC slices to use (default 14)\n"
          "  --mode MODE       auto | conv | matmul (default auto)\n"
          "  --precision P     8 | 4 | mixed        (default 8)\n"
          "  --baseline B      none | neural-cache | eyeriss | cpu |\n"
          "                    gpu | all            (default none)\n"
          "  --threads N       worker threads for the run + baseline\n"
          "                    sweep (default: the CPUs it may use)\n"
          "  --lint            statically verify the compiled kernels\n"
          "                    and exit (non-zero on errors)\n"
          "  --audit           whole-plan static analysis (regions,\n"
          "                    dataflow, capacity; the bfree_audit\n"
          "                    entry point) and exit (non-zero on\n"
          "                    errors)\n"
          "  --plan-stats      compile a functional execution plan and\n"
          "                    print its footprint (arena bytes,\n"
          "                    per-layer scratch, frozen weights,\n"
          "                    conv GEMM feeds, dispatched kernel\n"
          "                    level, amortization counts), then exit\n"
          "  --describe        print the network's structure and exit\n"
          "  --layers          print the per-layer table\n"
          "  --csv             emit per-layer CSV instead of text\n"
          "  --stats           dump gem5-style statistics\n"
          "  --help            this text\n";
}

dnn::Network
select_network(const std::string &name)
{
    if (name == "vgg16")
        return dnn::make_vgg16();
    if (name == "inception")
        return dnn::make_inception_v3();
    if (name == "lstm")
        return dnn::make_lstm();
    if (name == "bert-base")
        return dnn::make_bert_base();
    if (name == "bert-large")
        return dnn::make_bert_large();
    if (name == "tiny")
        return dnn::make_tiny_cnn();
    std::cerr << "unknown network '" << name << "'\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string network = "vgg16";
    std::string memory = "dram";
    std::string mode = "auto";
    std::string precision = "8";
    std::string baseline = "none";
    unsigned batch = 1;
    unsigned slices = 14;
    unsigned threads = 0; // 0: the CPUs the process may run on
    bool layers = false;
    bool describe = false;
    bool csv = false;
    bool stats = false;
    bool lint = false;
    bool audit = false;
    bool planStats = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--network")
            network = next();
        else if (arg == "--batch")
            batch = tools::parse_unsigned(arg, next(), 1u << 20);
        else if (arg == "--memory")
            memory = next();
        else if (arg == "--slices")
            slices = tools::parse_unsigned(arg, next(), 1u << 10);
        else if (arg == "--threads")
            threads = tools::parse_unsigned(arg, next(), 4096);
        else if (arg == "--mode")
            mode = next();
        else if (arg == "--precision")
            precision = next();
        else if (arg == "--baseline")
            baseline = next();
        else if (arg == "--lint")
            lint = true;
        else if (arg == "--audit")
            audit = true;
        else if (arg == "--plan-stats")
            planStats = true;
        else if (arg == "--describe")
            describe = true;
        else if (arg == "--layers")
            layers = true;
        else if (arg == "--csv")
            csv = true;
        else if (arg == "--stats")
            stats = true;
        else if (arg == "--help") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "unknown option '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }

    dnn::Network net = select_network(network);
    if (precision == "4")
        net.setUniformPrecision(4);
    else if (precision == "mixed")
        dnn::apply_mixed_precision(net);
    else if (precision != "8") {
        std::cerr << "unknown precision '" << precision << "'\n";
        return 2;
    }

    if (describe) {
        core::describe_network(std::cout, net);
        return 0;
    }

    map::ExecConfig cfg;
    cfg.batch = batch;
    cfg.mapper.slices = slices;
    if (memory == "dram")
        cfg.memory = tech::MainMemoryKind::DRAM;
    else if (memory == "edram")
        cfg.memory = tech::MainMemoryKind::EDRAM;
    else if (memory == "hbm")
        cfg.memory = tech::MainMemoryKind::HBM;
    else {
        std::cerr << "unknown memory '" << memory << "'\n";
        return 2;
    }
    if (mode == "conv")
        cfg.mapper.forcedMode = map::ExecMode::ConvMode;
    else if (mode == "matmul")
        cfg.mapper.forcedMode = map::ExecMode::MatmulMode;
    else if (mode != "auto") {
        std::cerr << "unknown mode '" << mode << "'\n";
        return 2;
    }

    core::BFreeAccelerator acc;

    if (lint) {
        const verify::VerifyReport report = acc.lint(net, cfg);
        std::cout << net.name() << ": " << report.errorCount()
                  << " error(s), " << report.warningCount()
                  << " warning(s)\n";
        for (const verify::Diagnostic &d : report.diagnostics())
            std::cout << "  " << d.toString() << "\n";
        return report.ok() ? 0 : 1;
    }

    if (audit) {
        // Shares the bfree_audit entry point: whole-plan analysis over
        // the selected network at its configured per-layer precisions
        // (expected bits pinned for the uniform sweeps, 0 for mixed).
        const unsigned expected =
            (precision == "4") ? 4u : (precision == "8") ? 8u : 0u;
        const verify::PlanVerifier verifier{tech::CacheGeometry{}};
        const verify::VerifyReport report =
            verifier.verifyNetwork(net, expected, cfg.mapper);
        std::cout << net.name() << ": " << report.errorCount()
                  << " error(s), " << report.warningCount()
                  << " warning(s)\n";
        for (const verify::Diagnostic &d : report.diagnostics())
            std::cout << "  " << d.toString() << "\n";
        return report.ok() ? 0 : 1;
    }

    if (planStats) {
        // Plans are uniform-precision; "mixed" falls back to int8.
        const unsigned bits = (precision == "4") ? 4u : 8u;
        core::PlanStats probe;
        if (!core::NetworkPlan::tryEstimate(net, bits, probe)) {
            std::cout << net.name()
                      << ": no execution plan — the flattened layer "
                         "list cannot be planned (branched topology, "
                         "or a layer kind the functional path does "
                         "not execute)\n";
            return 0;
        }

        sim::Rng rng(42);
        const core::NetworkWeights weights =
            core::random_weights(net, rng);
        const core::NetworkPlan plan =
            acc.compilePlan(net, weights, bits);
        const core::PlanStats &ps = plan.stats();

        std::printf("execution plan: %s @ int%u\n", net.name().c_str(),
                    bits);
        // layout: the activation layout the layer reads and writes,
        // after the boundary transposes (">hwc", ">chw") the executor
        // runs on its input first. feed: where a <= 8-bit conv's GEMM
        // reads its patches at the active level, tiles loaded from the
        // staged plane or copied patch rows.
        std::printf("%-22s %-9s %10s %10s %10s %9s  %-9s %s\n", "layer",
                    "kind", "in", "out", "frozen", "scratchB", "layout",
                    "feed");
        bool executable = true;
        for (const core::PlannedLayer &pl : plan.layers()) {
            std::uint64_t frozen = 0;
            for (const dnn::QuantizedWeights &f : pl.frozen)
                frozen += f.count();
            std::string layout;
            for (const core::Relayout &r : pl.relayouts)
                layout += std::string(">") + core::act_layout_name(r.to)
                          + " ";
            layout += core::act_layout_name(pl.layout);
            if (pl.layer.kind == dnn::LayerKind::Conv && bits <= 8) {
                layout.resize(std::max<std::size_t>(layout.size(), 9), ' ');
                layout += bce::simd::conv_rows_read_plane(
                              pl.frozen[0].panelData())
                              ? " plane"
                              : " patch-rows";
            }
            std::printf("%-22s %-9s %10zu %10zu %10llu %9zu  %s\n",
                        pl.layer.name.c_str(),
                        dnn::layer_kind_name(pl.layer.kind), pl.inElems,
                        pl.outElems,
                        static_cast<unsigned long long>(frozen),
                        pl.scratchBytes, layout.c_str());
            switch (pl.layer.kind) {
              case dnn::LayerKind::Conv:
              case dnn::LayerKind::Fc:
              case dnn::LayerKind::Relu:
              case dnn::LayerKind::Sigmoid:
              case dnn::LayerKind::Tanh:
              case dnn::LayerKind::MaxPool:
              case dnn::LayerKind::AvgPool:
              case dnn::LayerKind::Softmax:
                break;
              default:
                // Plannable for sizing, but only runnable standalone
                // (e.g. an LSTM cell via runLstmStep).
                executable = false;
                break;
            }
        }
        std::printf("arena: %zu B (2 x %zu B activations + %zu B peak "
                    "scratch, %zu-element peak activation)\n",
                    ps.arenaBytes, ps.activationBytes / 2,
                    ps.peakScratchBytes, ps.maxActivationElems);
        std::printf("frozen weights: %zu B (%llu values quantized once "
                    "at compile, with their tile feature and row sums)\n",
                    ps.frozenWeightBytes,
                    static_cast<unsigned long long>(ps.frozenValues));
        std::printf("kernels: %s\n",
                    sim::simd_level_name(sim::active_simd_level()));
        std::printf("workers: %u\n", sim::resolve_threads(0));
        std::printf("epilogues: %zu relu folded\n", ps.foldedRelus);
        std::printf("relayouts: %zu boundary transpose(s)%s\n",
                    ps.relayouts,
                    plan.outputRelayout() ? ", output >chw" : "");

        // Amortization demo: run a batch through the plan so the reuse
        // counter is visible. Skipped when a layer only runs standalone
        // or the network is too large to execute functionally here.
        if (executable && net.totalMacs() <= (1ull << 26)) {
            std::vector<dnn::FloatTensor> inputs;
            for (unsigned i = 0; i < std::max(batch, 1u); ++i) {
                dnn::FloatTensor in({net.input().c, net.input().h,
                                     net.input().w});
                in.fillUniform(rng, 0.0, 1.0);
                inputs.push_back(std::move(in));
            }
            (void)acc.runFunctionalBatch(plan, inputs, threads);
            std::printf("amortization: %llu inference(s) served from "
                        "one compile\n",
                        static_cast<unsigned long long>(
                            plan.runsServed()));
        } else {
            std::printf("amortization: functional demo run skipped "
                        "(%s)\n",
                        executable ? "network too large to execute "
                                     "functionally here"
                                   : "layer only runs standalone");
        }
        return 0;
    }

    // The main run and every requested baseline are independent jobs;
    // shard them across the sweep engine. Results land in fixed slots,
    // so the printed report below is identical for any thread count.
    map::RunResult run;
    std::optional<map::RunResult> nc_run;
    std::optional<map::RunResult> ey_run;
    std::optional<baseline::BaselineResult> cpu_run;
    std::optional<baseline::BaselineResult> gpu_run;
    {
        std::vector<sim::SweepJob> jobs;
        jobs.push_back({"bfree", [&](sim::SweepContext &) {
            run = acc.run(net, cfg);
        }});
        if (baseline == "neural-cache" || baseline == "all") {
            jobs.push_back({"neural_cache", [&](sim::SweepContext &) {
                nc_run = acc.runNeuralCache(net, cfg);
            }});
        }
        if (baseline == "eyeriss" || baseline == "all") {
            jobs.push_back({"eyeriss", [&](sim::SweepContext &) {
                ey_run = acc.runEyeriss(net);
            }});
        }
        if (baseline == "cpu" || baseline == "all") {
            jobs.push_back({"cpu", [&](sim::SweepContext &) {
                cpu_run = acc.runCpu(net, batch);
            }});
        }
        if (baseline == "gpu" || baseline == "all") {
            jobs.push_back({"gpu", [&](sim::SweepContext &) {
                gpu_run = acc.runGpu(net, batch);
            }});
        }
        sim::SweepRunner sweeper(threads);
        sweeper.run(std::move(jobs));
    }

    if (run.rejected) {
        std::cerr << "verification rejected " << run.network << ":\n";
        for (const verify::Diagnostic &d : run.diagnostics.diagnostics())
            std::cerr << "  " << d.toString() << "\n";
        return 1;
    }

    if (csv) {
        core::write_csv_header(std::cout);
        core::write_csv_rows(std::cout, run);
        return 0;
    }
    if (stats) {
        core::dump_run_stats(std::cout, run);
        return 0;
    }

    core::print_summary(std::cout, run);
    core::print_phase_shares(std::cout, "phase shares", run.time);
    std::cout << "energy breakdown:\n";
    core::print_energy_breakdown(std::cout, run.energy);
    if (layers) {
        std::cout << "\n";
        core::print_layer_table(std::cout, run);
    }

    auto compare = [&](const std::string &label, double seconds,
                       double joules) {
        std::cout << label << ": "
                  << core::format_seconds(seconds) << " / "
                  << core::format_joules(joules) << "  (BFree "
                  << seconds / run.secondsPerInference() << "x time, "
                  << joules / run.joulesPerInference()
                  << "x energy advantage)\n";
    };

    if (nc_run) {
        compare("Neural Cache", nc_run->secondsPerInference(),
                nc_run->joulesPerInference());
    }
    if (ey_run) {
        compare("Eyeriss (iso-area)", ey_run->secondsPerInference(),
                ey_run->joulesPerInference());
    }
    if (cpu_run) {
        compare(cpu_run->device, cpu_run->secondsPerInference,
                cpu_run->joulesPerInference);
    }
    if (gpu_run) {
        compare(gpu_run->device, gpu_run->secondsPerInference,
                gpu_run->joulesPerInference);
    }
    return 0;
}
