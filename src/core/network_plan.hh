/**
 * @file
 * Ahead-of-time execution plans for the functional LUT datapath.
 *
 * A NetworkPlan is compiled once per (network, weights, precision)
 * triple and then amortized across every subsequent inference. Compile
 * time does all the work that does not depend on the input:
 *
 *  - every layer's weights are pushed through dnn::SymQuant once and
 *    frozen in the exact layout the steady-state kernels consume
 *    (channels-last filters for conv, the transposed-B GEMM tile
 *    for FC / LSTM / attention projections);
 *  - the symmetric weight scales are chosen (dnn::choose_sym reads only
 *    the peak magnitude, so the choice is layout-independent);
 *  - a dry planning pass sizes one dnn::TensorArena: two ping-ponged
 *    activation buffers plus the worst single layer's scratch. The
 *    steady-state run then makes zero heap allocations;
 *  - the same pass fixes each activation's layout (ActLayout): conv
 *    and pool layers read and write channels-last, FC and Softmax
 *    read channel planes, and the few boundaries where the two meet
 *    (and the plan's input and output) get a transpose the executor
 *    runs between its two activation buffers (Relayout).
 *
 * Because SymQuant::q is a pure function, executing from the frozen
 * values is bit-identical to the legacy path that re-quantized on every
 * call — the parity tests assert this float-for-float. A plan is
 * immutable once compiled and safe to share across threads; it must be
 * recompiled whenever the network topology, the weight values, or the
 * precision changes (there is no partial invalidation — see DESIGN.md
 * section 11).
 */

#ifndef BFREE_CORE_NETWORK_PLAN_HH
#define BFREE_CORE_NETWORK_PLAN_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "dnn/network.hh"
#include "dnn/quantize.hh"
#include "dnn/tensor_arena.hh"
#include "sim/random.hh"
#include "verify/diagnostic.hh"

namespace bfree::core {

/** Weights of one layer (flat, reference layout). */
struct LayerWeights
{
    std::vector<float> weights;
    std::vector<float> bias;
};

/** Per-layer weights for a whole network. */
using NetworkWeights = std::vector<LayerWeights>;

/** Draw reproducible random weights for every layer of @p net. */
NetworkWeights random_weights(const dnn::Network &net, sim::Rng &rng,
                              double scale = 0.5);

/**
 * Arena bytes the executor's matmul body (FC layers, qMatmulFrozen)
 * takes for an m x k activation block against n frozen weight rows at
 * row stride @p ldb (0 means k; QuantizedWeights::rowStride): the
 * quantized block, plus at <= 8 bits the int32 tile and the
 * activation-side feature sums.
 */
std::size_t matmul_scratch_bytes(std::size_t m, std::size_t k,
                                 std::size_t n, unsigned bits,
                                 std::size_t ldb = 0);

/**
 * Row-arena bytes one executor thread takes for a <= 8-bit conv
 * @p layer: one output row of o.w patches, the row's int32 [o.w][o.c]
 * tile and the tap-feature accumulator with its scratch
 * (core/conv_front.hh). Every executor thread holds one such set.
 */
std::size_t conv_row_scratch_bytes(const dnn::Layer &layer);

/** Memory order of one activation between two plan layers. */
enum class ActLayout : std::uint8_t
{
    /** Channel planes, [c][h][w]: the network's input and output
     *  tensors, and what FC, Softmax, LSTM and attention layers read
     *  (an FC's weights and a softmax's sum run in that order). */
    Chw,
    /** Channels-last, [h][w][c]: what conv and pool layers read and
     *  write, so a conv stages each input row with one quantize span
     *  and stores each output position as one run of its filters. */
    Hwc,
};

/** Short name of @p l: "chw" or "hwc". */
const char *act_layout_name(ActLayout l);

/**
 * One transpose of an activation of shape (c, h, w) into the layout
 * @p to, from the other one. A shape with c == 1 or h * w == 1 reads
 * the same in both layouts and never takes one.
 */
struct Relayout
{
    ActLayout to = ActLayout::Chw;
    dnn::FeatureShape shape;
};

/**
 * Run @p r over the positions [p0, p1) of its h * w: @p src holds the
 * activation in the other layout, @p dst receives those positions'
 * channels in r.to (shape.elements() floats each, not aliased).
 * Disjoint position ranges may run on different threads.
 */
void relayout(const Relayout &r, const float *src, float *dst,
              std::size_t p0, std::size_t p1);

/** One layer frozen into a plan. */
struct PlannedLayer
{
    /** The layer descriptor, copied so the plan is self-contained. */
    dnn::Layer layer;

    /**
     * Frozen weight tensors. Conv / FC / LSTM layers have one entry
     * (conv channels-last, dnn::freeze_conv_weights; FC and LSTM in the
     * transposed-B tile layout the blocked GEMM consumes — the LSTM
     * row-major gate matrix IS that tile, which is what made the legacy
     * per-call transpose redundant). Attention has four entries: the
     * Q / K / V / O projections, each frozen transposed.
     */
    std::vector<dnn::QuantizedWeights> frozen;

    /** Bias terms, copied. */
    std::vector<float> bias;

    std::size_t inElems = 0;  ///< Activation elements consumed.
    std::size_t outElems = 0; ///< Activation elements produced.

    /** Arena scratch bytes this layer allocates while it runs. */
    std::size_t scratchBytes = 0;

    /** Layout of the activation this layer reads and of the one it
     *  writes: every layer kind writes the layout it reads, and the
     *  elementwise ones (Relu, Sigmoid, Tanh) keep what they get. */
    ActLayout layout = ActLayout::Chw;

    /**
     * The transposes the executor runs on the arriving activation
     * before this layer, in order: to CHW under the producer's shape
     * (an HWC producer feeding an FC or Softmax, or a conv or pool
     * that reads it under another shape), then to HWC under the
     * layer's own input shape (a conv or pool after a CHW producer or
     * the plan input). Empty at most boundaries.
     */
    std::vector<Relayout> relayouts;

    /**
     * Conv / FC only: the Relu layer right after this one is folded
     * into this layer's dequantize store (the fused epilogue). The
     * Relu keeps its own PlannedLayer, which books the ReLU's
     * statistics and passes the activations through untouched. Set at
     * plan compile for every Relu that directly follows a Conv or FC.
     */
    bool foldedRelu = false;
};

/** Compile-time accounting of a plan (also the --plan-stats payload). */
struct PlanStats
{
    /** Total arena reservation a steady-state run needs. */
    std::size_t arenaBytes = 0;
    /** The two ping-ponged activation buffers' share of the arena. */
    std::size_t activationBytes = 0;
    /** Worst single layer's scratch (the rest of the arena). */
    std::size_t peakScratchBytes = 0;
    /** Worst conv_row_scratch_bytes over the plan's <= 8-bit convs,
     *  and a <= 8-bit LSTM cell's activation features: what each
     *  executor thread holds in the executor's row arena (not part of
     *  arenaBytes). */
    std::size_t rowScratchBytes = 0;
    /** Elements of the largest activation crossing a layer boundary. */
    std::size_t maxActivationElems = 0;
    /** Bytes of frozen quantized weights held by the plan. */
    std::size_t frozenWeightBytes = 0;
    /** Weight values pushed through SymQuant::q at compile time. */
    std::uint64_t frozenValues = 0;

    /** Relu layers folded into their producer's store (foldedRelu). */
    std::size_t foldedRelus = 0;
    /** Transposes a run makes: every layer's relayouts plus the
     *  plan output's. */
    std::size_t relayouts = 0;
};

/**
 * A compiled, immutable execution plan. Move-only; share by reference.
 */
class NetworkPlan
{
  public:
    NetworkPlan() = default;

    NetworkPlan(NetworkPlan &&o) noexcept { *this = std::move(o); }

    NetworkPlan &
    operator=(NetworkPlan &&o) noexcept
    {
        net_ = std::move(o.net_);
        bits_ = o.bits_;
        layers_ = std::move(o.layers_);
        stats_ = o.stats_;
        inElems_ = o.inElems_;
        outElems_ = o.outElems_;
        outShape_ = std::move(o.outShape_);
        outRelayout_ = o.outRelayout_;
        diagnostics_ = std::move(o.diagnostics_);
        served_.store(o.served_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
        return *this;
    }

    /**
     * Compile @p net with @p weights at @p bits precision. Weight
     * layouts and sizes are validated here (fatal on mismatch), so the
     * steady-state path can run unchecked. The whole plan is then
     * audited by verify::PlanVerifier and the findings recorded in
     * diagnostics() — a plan with !diagnostics().ok() must not be
     * run.
     */
    static NetworkPlan compile(const dnn::Network &net,
                               const NetworkWeights &weights,
                               unsigned bits = 8);

    /**
     * The dry planning pass alone: shapes, per-layer scratch and the
     * arena size, without touching any weights. compile() uses this
     * same pass, so estimate(net, bits).arenaBytes always equals
     * compile(net, w, bits).stats().arenaBytes.
     */
    static PlanStats estimate(const dnn::Network &net, unsigned bits = 8);

    /**
     * Non-fatal estimate (benches / table probes): returns false when
     * @p net cannot be planned — a branched topology whose flattened
     * layer list does not chain shape-wise, or a layer kind the
     * functional path does not execute — instead of aborting.
     */
    static bool tryEstimate(const dnn::Network &net, unsigned bits,
                            PlanStats &out);

    const dnn::Network &network() const { return net_; }
    unsigned bits() const { return bits_; }

    /** Findings of the verify-on-compile audit. */
    const verify::VerifyReport &diagnostics() const
    {
        return diagnostics_;
    }
    const std::vector<PlannedLayer> &layers() const { return layers_; }
    const PlanStats &stats() const { return stats_; }

    /** Activation elements the input must supply. */
    std::size_t inputElems() const { return inElems_; }

    /** Activation elements the final layer produces. */
    std::size_t outputElems() const { return outElems_; }

    /** Tensor shape of the final output (legacy run() parity). */
    const std::vector<std::size_t> &outputShape() const
    {
        return outShape_;
    }

    /** The transpose of the last layer's HWC output into the CHW
     *  tensor a run returns, when the plan ends spatially. */
    const std::optional<Relayout> &outputRelayout() const
    {
        return outRelayout_;
    }

    /**
     * Inferences served from this plan so far — how many runs the
     * one-time quantization has been amortized over.
     */
    std::uint64_t
    runsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

    /** Record one served inference (thread-safe; called by executors). */
    void
    noteRun() const
    {
        served_.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    dnn::Network net_{"", dnn::FeatureShape{}};
    unsigned bits_ = 8;
    std::vector<PlannedLayer> layers_;
    PlanStats stats_;
    std::size_t inElems_ = 0;
    std::size_t outElems_ = 0;
    std::vector<std::size_t> outShape_;
    std::optional<Relayout> outRelayout_;
    verify::VerifyReport diagnostics_;

    /** Amortization counter; mutable telemetry, not plan state. */
    mutable std::atomic<std::uint64_t> served_{0};
};

} // namespace bfree::core

#endif // BFREE_CORE_NETWORK_PLAN_HH
