/**
 * @file
 * Structured diagnostics for the static kernel verifier.
 *
 * Every invariant the verifier checks has a stable rule id; a failed
 * check produces a Diagnostic (rule, severity, location, message, fix
 * hint) instead of aborting the process. Tools and tests key off the
 * rule ids, so they are part of the public surface: renaming one is an
 * API break.
 *
 * This header is deliberately free of map/bce/lut dependencies so low
 * layers (compiled-kernel containers, run results) can carry a report
 * without pulling in the verifier itself.
 */

#ifndef BFREE_VERIFY_DIAGNOSTIC_HH
#define BFREE_VERIFY_DIAGNOSTIC_HH

#include <cstddef>
#include <string>
#include <vector>

namespace bfree::verify {

/** How bad a finding is. */
enum class Severity
{
    Error,   ///< The artifact must not execute.
    Warning, ///< Executable, but almost certainly not what was meant.
    Note,    ///< Informational (e.g. a legal clamp was applied).
};

/** Printable severity name ("error", "warning", "note"). */
const char *severity_name(Severity severity);

/**
 * The rule catalogue. One id per checkable invariant; see DESIGN.md
 * for the prose description of each rule.
 */
enum class RuleId
{
    // Config-block rules.
    CbOpcodeByte,   ///< cb-opcode-byte: raw opcode byte is not a PimOpcode.
    CbPrecision,    ///< cb-precision: precision field not 4/8/16.
    CbRowRange,     ///< cb-row-range: weight row range malformed.
    CbIterations,   ///< cb-iterations: iteration field vs kernel steps.
    CbRoundTrip,    ///< cb-round-trip: encode/decode is not the identity.

    // Instruction rules.
    OpPrecision,    ///< op-precision: opcode/precision pair unsupported.
    InstShape,      ///< inst-shape: degenerate instruction dimensions.
    InstMacOverflow,///< inst-mac-overflow: MAC count overflows 64 bits.

    // LUT-image rules.
    LutOversize,         ///< lut-oversize: image exceeds the 64-entry region.
    LutPartitionConflict,///< lut-partition-conflict: co-resident images
                         ///< overflow the 8-row budget.
    WeightLutOverlap,    ///< weight-lut-overlap: weight rows collide with
                         ///< the reserved LUT rows.

    // Datapath-table (split-plane) rules.
    LutPlaneShape, ///< lut-plane-shape: plane extents inconsistent with
                   ///< the table's precision (span != 2^bits + 1, or
                   ///< product/delta/pair-delta plane sizes disagree).
    LutPlaneExact, ///< lut-plane-exact: an exactness flag lies — a
                   ///< productsExact table with a poisoned product, or
                   ///< a histogramExact table whose delta plane or
                   ///< factored fold disagrees with pairDeltas.

    // Kernel-vs-layer rules.
    MacConservation,///< mac-conservation: instruction MACs != layer MACs.

    // Placement rules.
    PlacementOccupancy, ///< placement-occupancy: sub-array budget violated.
    PlacementOverlap,   ///< placement-overlap: extents overlap in a pass.

    // Reduction-chain rules.
    ChainCyclic,       ///< chain-cyclic: reduction chain has a cycle.
    ChainFanout,       ///< chain-fanout: node forwards to >1 neighbour.
    ChainDisconnected, ///< chain-disconnected: active BCE unreachable.

    // Mode rules.
    ModeDatapath, ///< mode-datapath: opcode illegal on the mapped datapath.

    // Tool-input rules.
    OperandRange, ///< operand-range: operand does not fit the precision.

    // ------------------------------------------------------------------
    // Plan-level rules (plan_verifier; DESIGN.md section 13).
    // ------------------------------------------------------------------
    PlanEmpty,     ///< plan-empty: plan contains no layers.
    PlanPrecision, ///< plan-precision: layer precision disagrees with
                   ///< the plan's compiled precision (or is unsupported).

    // Region/interval rules over (slice, sub-bank, sub-array, row).
    RegionBounds,    ///< region-bounds: a placed region exits the
                     ///< geometry or the usable weight rows.
    RegionOverlap,   ///< region-overlap: two layers of one plan claim
                     ///< overlapping resident rows.
    RegionCrossPlan, ///< region-cross-plan: co-resident plans claim
                     ///< overlapping rows (multi-model residency).

    // Dataflow-graph rules over the producer/consumer graph.
    DataflowCycle,       ///< dataflow-cycle: the layer graph cycles.
    DataflowDangling,    ///< dataflow-dangling: consumer names a
                         ///< producer that does not exist.
    DataflowFanin,       ///< dataflow-fanin: producer/consumer element
                         ///< counts disagree.
    DataflowUnreachable, ///< dataflow-unreachable: a kernel's output
                         ///< feeds neither a consumer nor the plan
                         ///< output.

    // Capacity-ledger rules.
    CapacityRows,   ///< capacity-rows: resident sub-array/CB demand
                    ///< exceeds the fabric.
    CapacityFabric, ///< capacity-fabric: resident weight bytes exceed
                    ///< the fabric's usable capacity.
    CapacityArena,  ///< capacity-arena: the TensorArena ledger is
                    ///< inconsistent or over budget.
    PlanEpilogue,   ///< plan-epilogue: a folded ReLU whose producer is
                    ///< not a Conv/FC directly followed by that Relu,
                    ///< or whose element counts disagree.
};

/** Stable kebab-case rule name (e.g. "cb-opcode-byte"). */
const char *rule_name(RuleId rule);

/** One finding. */
struct Diagnostic
{
    RuleId rule = RuleId::CbOpcodeByte;
    Severity severity = Severity::Error;
    std::string location; ///< Artifact coordinates ("fc6: instruction 0").
    std::string message;  ///< What is wrong.
    std::string fixHint;  ///< How to repair it (may be empty).

    /**
     * Aggregation key: the position of the finding's artifact in its
     * enclosing plan (e.g. the layer index). mergeFrom keeps findings
     * ordered by this key, so a plan report assembled from per-kernel
     * reports reads in layer order no matter which kernel was verified
     * first. add() leaves it 0; merge paths stamp it.
     */
    std::size_t sequence = 0;

    /** "error[cb-opcode-byte] fc6: instruction 0: ... (fix: ...)". */
    std::string toString() const;
};

/**
 * An ordered list of findings with the query helpers tools and tests
 * need. Checks append in rule-catalogue order within each artifact, so
 * output is deterministic.
 */
class VerifyReport
{
  public:
    /** Append one finding. */
    void add(RuleId rule, Severity severity, std::string location,
             std::string message, std::string fix_hint = "");

    /** Append every finding of @p other, prefixing @p location. */
    void merge(const VerifyReport &other, const std::string &location);

    /**
     * Move every finding of @p other into this report, prefixing
     * @p location and stamping @p sequence (e.g. the layer index of
     * the kernel the sub-report describes). Findings are kept sorted
     * by sequence, stably: two findings with the same key stay in
     * their source order. Merging per-kernel reports therefore yields
     * one and the same plan report regardless of the order the merges
     * happen in — the property the order-independence unit test pins.
     */
    void mergeFrom(VerifyReport &&other, const std::string &location,
                   std::size_t sequence);

    /** All findings, in check order. */
    const std::vector<Diagnostic> &diagnostics() const { return diags; }

    /** True when no Error-severity finding is present. */
    bool ok() const;

    std::size_t errorCount() const;
    std::size_t warningCount() const;

    /** True when a finding with @p rule is present. */
    bool has(RuleId rule) const;

    /** Findings with @p rule. */
    std::size_t count(RuleId rule) const;

    /** One line per finding plus a summary line. */
    std::string toString() const;

  private:
    std::vector<Diagnostic> diags;
};

} // namespace bfree::verify

#endif // BFREE_VERIFY_DIAGNOSTIC_HH
