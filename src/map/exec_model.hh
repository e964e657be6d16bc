/**
 * @file
 * The BFree end-to-end execution model (Section IV-C, Fig. 11).
 *
 * Networks execute layer by layer under the hierarchical controllers:
 * a configuration phase loads LUT rows and broadcasts weights, then the
 * computation phase streams inputs systolically while the BCEs compute
 * and reduce partial sums across each sub-bank.
 *
 * The model is analytic (closed form per layer), the same altitude the
 * paper's simulator operates at. No cycle-level model backs it; its
 * tests check the closed forms and their scaling properties.
 *
 * Phase accounting per layer:
 *   weightLoad — weight bytes through the main-memory channel + ring
 *                broadcast; paid once per batch (layer-at-a-time batch
 *                execution) or once in total when the network is
 *                cache-resident (LSTM);
 *   inputLoad  — activation traffic to/from main memory. Batch 1 keeps
 *                intermediates in SRAM (zero DRAM input traffic after
 *                the first layer); batched runs spill (Section IV-C).
 *                With systolic overlap enabled, input streaming hides
 *                behind compute: per-layer time = max(stream, compute);
 *   compute    — MACs / (rate x active sub-arrays), plus pipeline and
 *                reduction-chain fill;
 *   special    — LUT-based activation/pooling/softmax evaluations;
 *   requant    — gemmlowp requantization of the output features.
 */

#ifndef BFREE_MAP_EXEC_MODEL_HH
#define BFREE_MAP_EXEC_MODEL_HH

#include <string>
#include <vector>

#include "dnn/network.hh"
#include "mapping.hh"
#include "mem/energy_account.hh"
#include "tech/tech_params.hh"
#include "verify/diagnostic.hh"

namespace bfree::map {

/** Per-phase wall-clock seconds of one layer or one run. */
struct PhaseBreakdown
{
    double weightLoad = 0.0;
    double inputLoad = 0.0; ///< Non-hidden activation streaming time.
    double compute = 0.0;
    double special = 0.0;
    double requant = 0.0;
    double fill = 0.0; ///< Pipeline/reduction-chain fill.

    double total() const;

    PhaseBreakdown &operator+=(const PhaseBreakdown &other);

    /** Scale all phases (used for batch/timestep replication). */
    PhaseBreakdown scaled(double factor) const;
};

/** Result of one layer's execution. */
struct LayerResult
{
    std::string name;
    dnn::LayerKind kind = dnn::LayerKind::Conv;
    LayerMapping mapping;
    PhaseBreakdown time;        ///< Per single inference, batch-amortized
                                ///< weight load.
    mem::EnergyAccount energy;  ///< Per single inference.
    std::uint64_t macs = 0;
};

/** Result of a whole-network run. */
struct RunResult
{
    std::string network;
    unsigned batch = 1;
    std::vector<LayerResult> layers;
    PhaseBreakdown time;       ///< Per inference (batch-amortized).
    mem::EnergyAccount energy; ///< Per inference.

    /** Findings of the pre-execution verification pass (empty when
     *  the entry point skipped verification). */
    verify::VerifyReport diagnostics;

    /** True when verification rejected the network: no kernel ran and
     *  time/energy are zero. The diagnostics explain why. */
    bool rejected = false;

    double secondsPerInference() const { return time.total(); }
    double joulesPerInference() const { return energy.total(); }
};

/** Run configuration. */
struct ExecConfig
{
    tech::MainMemoryKind memory = tech::MainMemoryKind::DRAM;
    unsigned batch = 1;

    /** Systolic input/compute overlap (ablation knob; the paper's
     *  design always overlaps). */
    bool systolicOverlap = true;

    MapperOptions mapper;
};

/**
 * The analytic BFree execution engine.
 */
class ExecutionModel
{
  public:
    ExecutionModel(const tech::CacheGeometry &geom,
                   const tech::TechParams &tech, ExecConfig config = {});

    /** Execute a network; returns per-inference time and energy. */
    RunResult run(const dnn::Network &net) const;

    /** The mapper in use. */
    const Mapper &mapper() const { return _mapper; }

    /** The configuration in use. */
    const ExecConfig &config() const { return cfg; }

    /**
     * Closed-form compute seconds for a MAC layer under a mapping
     * (public so tests can check the rate formula directly).
     */
    double computeSeconds(const dnn::Layer &layer,
                          const LayerMapping &mapping) const;

  private:
    /** Cost one layer for a single inference. */
    LayerResult runLayer(const dnn::Layer &layer, bool first_layer,
                         bool spill_to_dram, bool weights_resident) const;

    /** Static (leakage, controller, background) energy over @p s. */
    void chargeStatic(mem::EnergyAccount &energy, double seconds,
                      unsigned active_subarrays, ExecMode mode) const;

    tech::CacheGeometry geom;
    tech::TechParams tech;
    ExecConfig cfg;
    Mapper _mapper;
    tech::MainMemoryParams memParams;
};

/** One configuration point of a design-space sweep. */
struct ExecJob
{
    dnn::Network network;
    ExecConfig config{};
};

/**
 * Run every sweep point through its own ExecutionModel, sharded across
 * a fork/join thread pool (sim/parallel.hh). Results come back in
 * job order and are bit-identical for any thread count; @p threads = 0
 * uses the CPUs the process may run on.
 */
std::vector<RunResult> run_sweep(const tech::CacheGeometry &geom,
                                 const tech::TechParams &tech,
                                 const std::vector<ExecJob> &jobs,
                                 unsigned threads = 0);

} // namespace bfree::map

#endif // BFREE_MAP_EXEC_MODEL_HH
