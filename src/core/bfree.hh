/**
 * @file
 * BFree public API: the accelerator facade.
 *
 * This is the header a downstream user includes. It wires together the
 * geometry, technology parameters, mapper and execution model, and
 * exposes:
 *
 *  - run():        per-inference latency/energy of a network on BFree
 *                  (Fig. 12/13/14, Table III);
 *  - area():       the Section V-B area accounting;
 *  - baselines:    Neural Cache / Eyeriss / CPU / GPU comparisons;
 *  - functional echos through core/functional.hh for bit-exact
 *    quantized inference through the LUT datapath.
 */

#ifndef BFREE_CORE_BFREE_HH
#define BFREE_CORE_BFREE_HH

#include "baselines/cpu_gpu.hh"
#include "baselines/eyeriss.hh"
#include "baselines/neural_cache.hh"
#include "core/functional.hh"
#include "core/network_plan.hh"
#include "dnn/model_zoo.hh"
#include "dnn/network.hh"
#include "map/exec_model.hh"
#include "tech/area_model.hh"
#include "verify/diagnostic.hh"
#include "tech/geometry.hh"
#include "tech/tech_params.hh"

namespace bfree::core {

/** Construction options of the accelerator facade. */
struct AcceleratorOptions
{
    tech::CacheGeometry geometry{};
    tech::TechParams tech{};
};

/**
 * Top-level accelerator facade.
 */
class BFreeAccelerator
{
  public:
    using Options = AcceleratorOptions;

    explicit BFreeAccelerator(Options options = {});

    /** Geometry of the modelled cache. */
    const tech::CacheGeometry &geometry() const { return opts.geometry; }

    /** Technology parameters. */
    const tech::TechParams &techParams() const { return opts.tech; }

    /**
     * Run @p net on BFree. @p config defaults to batch 1 on DRAM with
     * all slices and automatic mode selection.
     *
     * Every layer is compiled and statically verified first; a network
     * with any error-severity finding is rejected (result.rejected,
     * zero time/energy) with the findings in result.diagnostics.
     */
    map::RunResult run(const dnn::Network &net,
                       map::ExecConfig config = {}) const;

    /**
     * Statically verify @p net without executing it: compile every
     * layer and collect the verifier findings, locations prefixed with
     * the layer names. The core of `bfree_lint` / `bfree_cli --lint`.
     */
    verify::VerifyReport lint(const dnn::Network &net,
                              map::ExecConfig config = {}) const;

    /**
     * Run many (network, config) sweep points in parallel on the
     * thread pool. Results are in job order and bit-identical
     * for any thread count; @p threads = 0 uses the CPUs the process may
     * run on.
     */
    std::vector<map::RunResult>
    runMany(const std::vector<map::ExecJob> &jobs,
            unsigned threads = 0) const;

    /** Run the Neural Cache baseline under the same configuration. */
    map::RunResult runNeuralCache(const dnn::Network &net,
                                  map::ExecConfig config = {}) const;

    /** Run the iso-area Eyeriss baseline (Fig. 13 setup). */
    map::RunResult runEyeriss(const dnn::Network &net) const;

    /** Run the calibrated CPU baseline. */
    baseline::BaselineResult runCpu(const dnn::Network &net,
                                    unsigned batch = 1) const;

    /** Run the calibrated GPU baseline. */
    baseline::BaselineResult runGpu(const dnn::Network &net,
                                    unsigned batch = 1) const;

    /**
     * Compile a functional execution plan for @p net: weights
     * quantized and frozen once, scratch arena sized. Amortize the
     * returned plan across runFunctional / runFunctionalBatch calls;
     * recompile when the network, weights or precision change.
     */
    NetworkPlan compilePlan(const dnn::Network &net,
                            const NetworkWeights &weights,
                            unsigned bits = 8) const;

    /** Run a compiled plan functionally on one input. */
    FunctionalResult runFunctional(const NetworkPlan &plan,
                                   const dnn::FloatTensor &input) const;

    /**
     * Run a compiled plan over many inputs on the thread pool;
     * outputs, statistics and energy are bit-identical to a sequential
     * loop for any @p threads (0 = the CPUs the process may run on),
     * shared out over the batch's executors.
     */
    BatchResult
    runFunctionalBatch(const NetworkPlan &plan,
                       const std::vector<dnn::FloatTensor> &inputs,
                       unsigned threads = 0) const;

    /** Area accounting (Section V-B). */
    tech::AreaReport area() const;

  private:
    Options opts;
};

} // namespace bfree::core

#endif // BFREE_CORE_BFREE_HH
