/**
 * @file
 * Whole-plan static analysis: cross-kernel placement, dataflow and
 * capacity verification.
 *
 * PR 2's KernelVerifier proves one CompiledKernel at a time; this pass
 * reasons about a whole compiled network — and about several networks
 * sharing the fabric — before anything executes:
 *
 *  1. **Region/interval analysis.** Every layer's weight extents,
 *     config-block region and LUT reservation become row intervals in
 *     an interval map over (slice, sub-bank, sub-array, row). The map
 *     proves the regions disjoint and inside the geometry; it accepts
 *     multiple plans at once, so multi-model residency is the same
 *     check with more owners (rules region-bounds, region-overlap,
 *     region-cross-plan).
 *
 *  2. **Dataflow-graph analysis.** The producer/consumer graph over
 *     layers is checked for cycles, dangling producers, fan-in element
 *     mismatches against the dnn::Layer shapes, and dead kernels whose
 *     output nothing consumes (rules dataflow-*). Per-layer reduction
 *     chains are checked by the kernel verifier and merged in.
 *
 *  3. **Capacity/energy ledger.** Static accounting of sub-arrays,
 *     config blocks and weight bytes demanded by a resident plan
 *     against the fabric, and of per-layer scratch against the
 *     TensorArena budget — surfacing the first layer that overflows
 *     (rules capacity-*).
 *
 * All analyses are pure: they allocate nothing on the fabric and never
 * touch weight values, so auditing VGG-16 costs what compiling its
 * kernels costs. Violations become Diagnostics, never aborts.
 */

#ifndef BFREE_VERIFY_PLAN_VERIFIER_HH
#define BFREE_VERIFY_PLAN_VERIFIER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/network_plan.hh"
#include "diagnostic.hh"
#include "dnn/network.hh"
#include "map/kernel_compiler.hh"
#include "map/placement.hh"
#include "tech/geometry.hh"

namespace bfree::verify {

// ----------------------------------------------------------------------
// Spatial layout: where a compiled plan sits on the fabric
// ----------------------------------------------------------------------

/** One layer compiled and offset to its residency base. */
struct PlacedKernel
{
    dnn::Layer layer;
    map::CompiledKernel kernel;

    /** Pass-0 weight extents (sub-array ids relative to the layer). */
    map::WeightPlacement placement;

    /** First flat sub-array of the fabric this layer's region uses. */
    unsigned baseSubarray = 0;

    /** Sub-arrays the layer occupies ([base, base + span)). */
    unsigned spanSubarrays = 0;
};

/** The spatial footprint of one plan on the fabric. */
struct PlanLayout
{
    std::string name;
    unsigned bits = 8;

    /**
     * True when the whole plan's weights stay loaded at once: layers
     * are packed side by side and their regions must be disjoint.
     * Streamed plans time-multiplex the region starting at
     * baseSubarray instead, so only their worst layer's span counts
     * as the static footprint.
     */
    bool resident = false;

    unsigned baseSubarray = 0;

    /** Fabric sub-arrays the plan claims ([base, base + span)). */
    unsigned spanSubarrays = 0;

    std::vector<PlacedKernel> kernels;
};

/**
 * Compile every layer of @p net and lay the plan out starting at
 * @p base_subarray. Purely static: weights are never materialized.
 * Residency comes from the mapper; a resident plan packs each
 * weight-bearing layer after the previous one, a streamed plan reuses
 * [base, base + worst-layer span).
 */
PlanLayout layout_network(const dnn::Network &net,
                          const tech::CacheGeometry &geom,
                          map::MapperOptions mapper_options = {},
                          unsigned base_subarray = 0);

/** As layout_network, over the network a compiled plan froze. */
PlanLayout layout_plan(const core::NetworkPlan &plan,
                       const tech::CacheGeometry &geom,
                       map::MapperOptions mapper_options = {},
                       unsigned base_subarray = 0);

/**
 * Assign consecutive base sub-arrays to @p layouts in order (first at
 * @p base_subarray, each next after the previous footprint), the
 * packing multi-model residency wants before verifyResidency checks
 * it. Offsets every kernel's base along with its plan.
 */
void pack_layouts(std::vector<PlanLayout> &layouts,
                  unsigned base_subarray = 0);

// ----------------------------------------------------------------------
// Dataflow graph
// ----------------------------------------------------------------------

/** One kernel in the producer/consumer graph. */
struct DataflowNode
{
    std::string name;
    std::size_t inElems = 0;  ///< Activation elements consumed.
    std::size_t outElems = 0; ///< Activation elements produced.

    /**
     * Indices of the producing nodes; empty means the node reads the
     * plan input. A node with several producers consumes their
     * concatenated outputs (fan-in), so its inElems must equal the
     * sum of the producers' outElems.
     */
    std::vector<std::size_t> producers;
};

/** The producer/consumer graph of one plan. */
struct DataflowGraph
{
    std::size_t inputElems = 0; ///< Elements the plan input supplies.
    std::vector<DataflowNode> nodes;

    /** Node whose output is the plan output (default: last node). */
    std::size_t outputNode = SIZE_MAX;
};

/** The linear chain graph of a flattened layer list. */
DataflowGraph dataflow_from_layers(const std::vector<dnn::Layer> &layers,
                                   std::size_t input_elems);

/** The chain graph of a compiled plan's frozen layers. */
DataflowGraph dataflow_from_plan(const core::NetworkPlan &plan);

// ----------------------------------------------------------------------
// The pass
// ----------------------------------------------------------------------

/** Tunables of the plan verifier. */
struct PlanVerifierOptions
{
    /** Re-run the per-kernel rule catalogue and merge its findings
     *  into the plan report (on by default). */
    bool checkKernels = true;

    /** Run the region/interval analysis. */
    bool checkRegions = true;

    /** Run the dataflow-graph analysis. */
    bool checkDataflow = true;

    /** Run the capacity ledger. */
    bool checkCapacity = true;

    /** Re-prove the split-plane datapath-table invariants for every
     *  memoizable precision the plan uses (rules lut-plane-*). */
    bool checkDatapath = true;
};

/**
 * The whole-plan static-analysis pass. Stateless apart from
 * geometry/options; one instance audits any number of plans.
 */
class PlanVerifier
{
  public:
    explicit PlanVerifier(const tech::CacheGeometry &geom,
                          PlanVerifierOptions options = {});

    // ------------------------------------------------------------------
    // Whole-plan passes
    // ------------------------------------------------------------------
    /**
     * Audit @p net end to end without weights: compile + lay out every
     * layer, then run every enabled analysis. @p expected_bits pins
     * the uniform precision the plan will compile at (0 accepts any
     * supported per-layer precision, e.g. mixed).
     */
    VerifyReport verifyNetwork(const dnn::Network &net,
                               unsigned expected_bits = 0,
                               map::MapperOptions mapper_options = {}) const;

    /** Audit a compiled plan: verifyNetwork over its frozen network
     *  plus the TensorArena ledger of its actual PlanStats. */
    VerifyReport verify(const core::NetworkPlan &plan,
                        map::MapperOptions mapper_options = {}) const;

    /**
     * Audit several plans placed on the fabric together: each layout's
     * own regions plus cross-plan disjointness and the aggregate
     * fabric capacity. The enabling check for multi-model residency.
     */
    VerifyReport
    verifyResidency(const std::vector<PlanLayout> &layouts) const;

    // ------------------------------------------------------------------
    // Individual analyses (append findings into @p report)
    // ------------------------------------------------------------------
    /** Interval-map pass over every layout's row regions. */
    void checkRegions(const std::vector<PlanLayout> &layouts,
                      VerifyReport &report) const;

    /** Graph pass: cycles, dangling producers, fan-in mismatches,
     *  dead kernels. */
    void checkDataflow(const DataflowGraph &graph, VerifyReport &report,
                       const std::string &location = "dataflow") const;

    /** Fabric ledger of one layout: sub-arrays/config blocks and
     *  weight bytes vs the fabric, first overflow named. */
    void checkCapacity(const PlanLayout &layout,
                       VerifyReport &report) const;

    /** TensorArena ledger: per-layer scratch and activations vs the
     *  plan's computed budget; @p arena_budget_bytes caps the whole
     *  arena when non-zero. */
    void checkArena(const core::PlanStats &stats,
                    const std::vector<core::PlannedLayer> &layers,
                    VerifyReport &report,
                    const std::string &location = "arena",
                    std::size_t arena_budget_bytes = 0) const;

    /**
     * Fused-epilogue audit (rule plan-epilogue): a layer marked
     * foldedRelu must be a Conv or FC, the layer right after it a
     * Relu, and the Relu's input and output element counts must equal
     * the producer's output. Anything else would skip a ReLU that was
     * never applied, or apply one to the wrong tensor.
     */
    void checkEpilogue(const std::vector<core::PlannedLayer> &layers,
                       VerifyReport &report,
                       const std::string &location = "epilogue") const;

    const tech::CacheGeometry &geometry() const { return geom; }
    const PlanVerifierOptions &options() const { return opts; }

  private:
    tech::CacheGeometry geom;
    PlanVerifierOptions opts;
};

} // namespace bfree::verify

#endif // BFREE_VERIFY_PLAN_VERIFIER_HH
