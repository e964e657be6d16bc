/**
 * @file
 * RNN scenario: the paper's LSTM-1024 over a 300-step TIMIT-style
 * sequence. The model is cache-resident, so the weight load is paid
 * once and each timestep runs start-to-finish inside the SRAM slice —
 * the case where CPUs/GPUs cannot hide their data movement (Table III).
 *
 * Also runs a small functional LSTM step with the reference executor
 * using the LUT sigmoid/tanh tables to show the numerics.
 *
 *   $ ./lstm_sequence
 */

#include <iostream>

#include "core/bfree.hh"
#include "core/functional.hh"
#include "core/report.hh"
#include "dnn/reference.hh"
#include "lut/pwl.hh"
#include "sim/random.hh"

int
main()
{
    using namespace bfree;

    // ------------------------------------------------------------------
    // Functional: one LSTM step, LUT activations vs exact.
    // ------------------------------------------------------------------
    const dnn::Layer cell = dnn::make_lstm_cell("demo", 8, 16);
    sim::Rng rng(3);
    std::vector<float> weights(4 * (8 + 16) * 16);
    std::vector<float> bias(4 * 16);
    for (float &w : weights)
        w = static_cast<float>(rng.uniformReal(-0.4, 0.4));
    for (float &b : bias)
        b = static_cast<float>(rng.uniformReal(-0.1, 0.1));

    dnn::LstmState state;
    state.h.assign(16, 0.0f);
    state.c.assign(16, 0.0f);
    std::vector<float> x(8);
    for (float &v : x)
        v = static_cast<float>(rng.uniformReal(-1.0, 1.0));

    const lut::PwlTable sigmoid = lut::make_sigmoid_table(32);
    const lut::PwlTable tanh_t = lut::make_tanh_table(32);

    // Exact float reference vs the same step through the real LUT
    // datapath (gate matvecs on the matmul-mode BCE, PWL activations).
    const dnn::LstmState exact =
        dnn::reference_lstm_step(cell, x, state, weights, bias);
    dnn::Network net("demo", cell.input);
    net.add(cell);
    const core::NetworkPlan plan =
        core::NetworkPlan::compile(net, {{weights, bias}});
    core::FunctionalExecutor executor;
    const dnn::LstmState lut_state =
        executor.runLstmStep(plan, 0, x, state);

    std::cout << "== one functional LSTM step ==\n";
    std::cout << "h[0..3] exact:    ";
    for (int i = 0; i < 4; ++i)
        std::cout << exact.h[i] << " ";
    std::cout << "\nh[0..3] LUT path: ";
    for (int i = 0; i < 4; ++i)
        std::cout << lut_state.h[i] << " ";
    std::cout << "\n(" << executor.stats().macs
              << " MACs through the hardwired ROM, "
              << executor.stats().counts.lutLookups
              << " PWL table fetches)\n";
    std::cout << "LUT sigmoid(0.5) = " << sigmoid.evaluate(0.5)
              << " (exact 0.6225), LUT tanh(0.5) = "
              << tanh_t.evaluate(0.5) << " (exact 0.4621)\n";
    state = exact;

    // ------------------------------------------------------------------
    // Architectural: the Table III LSTM row.
    // ------------------------------------------------------------------
    core::BFreeAccelerator accelerator;
    const dnn::Network lstm = dnn::make_lstm();

    std::cout << "\n== " << lstm.name() << ", sequence of "
              << lstm.timesteps << " steps ==\n";
    const map::RunResult r = accelerator.run(lstm);
    core::print_summary(std::cout, r);
    core::print_phase_row(std::cout, "phases", r.time);

    const auto cpu = accelerator.runCpu(lstm, 1);
    const auto gpu = accelerator.runGpu(lstm, 1);
    std::cout << "CPU: " << core::format_seconds(cpu.secondsPerInference)
              << ", GPU: "
              << core::format_seconds(gpu.secondsPerInference)
              << " -> BFree is "
              << cpu.secondsPerInference / r.secondsPerInference()
              << "x / "
              << gpu.secondsPerInference / r.secondsPerInference()
              << "x faster (paper: ~2000x / ~220x; weights resident in "
                 "cache)\n";

    std::cout << "weights resident in cache: "
              << (lstm.totalWeightBytes() < 35ull * 1024 * 1024 / 2
                      ? "yes"
                      : "no")
              << " (" << lstm.totalWeightBytes() / 1024 / 1024
              << " MB of 35 MB)\n";
    return 0;
}
