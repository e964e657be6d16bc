/**
 * @file
 * Functional quantized inference through the BFree LUT datapath.
 *
 * Every multiply in this executor goes through a real Bce instance —
 * the 49-entry LUT image in a Subarray (conv mode) or the hardwired ROM
 * (matmul mode) — so it demonstrates, end to end, that the LUT
 * decomposition computes exact integer products and that the PWL /
 * division tables approximate the nonlinearities well enough for
 * inference. The tests compare its output against the float reference
 * executors under quantization tolerance.
 *
 * Execution is plan-driven (core::NetworkPlan): weights are quantized
 * once at plan compile and the steady-state path serves all scratch
 * from pre-sized TensorArenas with zero heap allocations; every entry
 * point runs a compiled plan. Between the layers of a plan the
 * activations of conv and pool layers stay channels-last (HWC), the
 * layout the conv front stages and the conv GEMM stores; the plan
 * records the few boundaries where an FC or Softmax reads them, or a
 * run returns them, and the executor transposes there between its two
 * activation buffers (NetworkPlan's ActLayout and Relayout). Callers
 * pass and get CHW tensors. run_functional_batch() amortizes one
 * plan across many inputs on the thread pool with outputs,
 * statistics and energy bit-identical to the sequential loop at any
 * thread count.
 *
 * Within one inference the executor splits the loops that hold the
 * MACs over its own worker pool, the way BFree's sub-arrays share a
 * layer: a conv's input scan and its channels-last staging in
 * contiguous row chunks (core/conv_front.hh), a <= 8-bit conv's output
 * rows in contiguous chunks (and the sum of its per-thread tap-feature
 * accumulators in word ranges), a matmul's weight rows (N) in
 * contiguous blocks, a 2x2 max pool's output rows in contiguous runs,
 * a layout transpose's positions in contiguous runs and an LSTM
 * step's hidden units in slices, each slice its gate rows'
 * GEMMs, stores, PWL spans and cell update. The workers run no booking
 * code: they stage, classify, fold and run simd::conv_row_gemm,
 * simd::gemm_i8, simd::max_pool_2x2_q8 and the PWL values; the
 * statistics are booked once on the calling thread from integer sums,
 * so outputs, statistics and energy are byte-identical at every
 * executor thread count. Everything else (other pools, Sigmoid and Tanh layers and
 * the softmax, the per-span fallback, the Legacy tier's rows and
 * 16-bit layers) runs on the calling thread.
 */

#ifndef BFREE_CORE_FUNCTIONAL_HH
#define BFREE_CORE_FUNCTIONAL_HH

#include <vector>

#include "bce/bce.hh"
#include "bce/simd_kernels.hh"
#include "core/network_plan.hh"
#include "dnn/network.hh"
#include "dnn/quantize.hh"
#include "dnn/reference.hh"
#include "dnn/tensor.hh"
#include "dnn/tensor_arena.hh"
#include "lut/division.hh"
#include "lut/pwl.hh"
#include "mem/subarray.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "tech/geometry.hh"
#include "tech/tech_params.hh"

namespace bfree::core {

/** Result of a functional run. */
struct FunctionalResult
{
    dnn::FloatTensor output;
    bce::BceStats stats; ///< Aggregate BCE activity.
};

/**
 * Executes a network functionally on one Bce + Subarray pair, with a
 * worker pool for the conv rows and matmul columns of each layer.
 */
class FunctionalExecutor
{
  public:
    /**
     * A matmul splits its weight rows over the pool only when every
     * block gets at least this many MACs: below it the fork/join costs
     * more than the block saves. Measured on a 4-vCPU AVX512-VNNI host
     * with one FC layer forced to split at every size (DESIGN.md
     * section 17, "Intra-image parallelism").
     */
    static constexpr std::size_t minMatmulMacsPerBlock = 1u << 18;

    /** A conv's max-abs input scan, and a layout transpose, split over
     *  the pool in chunks of at least this many floats: about 6 us of
     *  AVX-512 scan (0.2 ns a float on the host above), and more of a
     *  transpose, over the 2-4 us a fork/join costs. */
    static constexpr std::size_t minScanElemsPerChunk = 1u << 15;

    /** A conv's per-thread tap-feature accumulators are summed over
     *  the pool in word ranges of at least this many words: about 2 us
     *  of vector adds against three other threads' accumulators
     *  (0.18 ns an add on the host above), the cost of a fork/join. */
    static constexpr std::size_t minSumWordsPerChunk = 1u << 12;

    /**
     * @param tier    Execution tier of the underlying BCE. Tiered (the
     *                default) serves steady-state MACs from memoized
     *                datapath tables; Legacy runs the full scalar
     *                decomposition. Both produce bit-identical outputs,
     *                statistics and energy.
     * @param threads Threads one inference may use, the caller
     *                included; 0 means sim::resolve_threads(0), the CPUs
     *                this thread may run on. 1 runs inline and starts no
     *                workers. Outputs, statistics and energy do not
     *                depend on it.
     */
    FunctionalExecutor(const tech::CacheGeometry &geom = {},
                       const tech::TechParams &tech = {},
                       bce::ExecTier tier = bce::ExecTier::Tiered,
                       unsigned threads = 0);

    /**
     * Run a compiled plan on @p input. The steady-state entry point:
     * no weight quantization, no heap allocation after the first call
     * (which sizes the arena and seeds the memo tables).
     */
    FunctionalResult run(const NetworkPlan &plan,
                         const dnn::FloatTensor &input);

    /**
     * The allocation-free core of run(): executes @p plan reading
     * @p inElems floats from @p input and writing @p outElems floats
     * to @p output (both caller-owned, CHW). All intermediate
     * activations ping-pong between two arena buffers, in the layouts
     * the plan gave them; the plan's transposes run between the two
     * buffers, from @p input and into @p output. A Relu folded into
     * its Conv or FC producer (PlannedLayer::foldedRelu) only books
     * its statistics: the producer's store wrote the rectified
     * values.
     */
    void runInto(const NetworkPlan &plan, const float *input,
                 std::size_t inElems, float *output,
                 std::size_t outElems);

    /**
     * One LSTM timestep from a compiled plan: the gate matvec on the
     * matmul-mode BCE against the frozen gate tile (64-byte padded
     * rows, dnn::freeze_weights_padded) with the gate bias added in its
     * store, then sigmoid/tanh as PWL spans. At <= 8 bits on the tile
     * path the step is one pool fork: slice b of the hidden units runs
     * its four gate row ranges' GEMMs, stores, PWL spans and cell
     * update, and folds column range b of the tally; the tile and the
     * PWL evaluations are booked once here. @p layerIndex selects the
     * LstmCell layer inside the plan; its weights pack [i, f, g, o] x
     * [input + hidden] as in dnn::reference_lstm_step. Scratch comes
     * from the arena (the layer's PlannedLayer::scratchBytes) and the
     * row arena; the returned state's h and c are the step's only heap
     * allocations.
     */
    dnn::LstmState runLstmStep(const NetworkPlan &plan,
                               std::size_t layerIndex,
                               const std::vector<float> &x,
                               const dnn::LstmState &prev);

    /**
     * Single-head self-attention from a compiled plan: Q/K/V/O
     * projections against the frozen tiles, the row softmax through
     * the exp table + LUT division. The weights pack
     * [wq | wk | wv | wo], each d x d.
     */
    dnn::FloatTensor runAttention(const NetworkPlan &plan,
                                  std::size_t layerIndex,
                                  const dnn::FloatTensor &input);

    /**
     * Quantized matrix product through the broadcast datapath,
     * out[m][n] = a[m][k] * w[k][n], against the frozen transposed
     * tile @p wt (n x k, as produced by dnn::freeze_weights_transposed
     * — or any row-major [n][k] matrix frozen in place). Only the
     * activation side is quantized per call.
     */
    dnn::FloatTensor qMatmulFrozen(const dnn::FloatTensor &a,
                                   const dnn::QuantizedWeights &wt,
                                   std::size_t k, std::size_t n);

    /**
     * Return the datapath to conv mode (its construction state). The
     * batch runner parks the datapath after every input so each
     * input's stats delta is independent of its position in the batch
     * — the keystone of thread-count-invariant batch statistics.
     */
    void parkDatapath() { bce.setMode(bce::BceMode::Conv); }

    /** The scratch arena (sizing/zero-allocation introspection). */
    const dnn::TensorArena &arena() const { return arena_; }

    /** The conv row scratch arena, one slot per thread (same use). */
    const dnn::TensorArena &rowArena() const { return rowArena_; }

    /** BCE statistics accumulated so far. */
    const bce::BceStats &stats() const { return bce.stats(); }

    /**
     * Energy accumulated by the functional datapath so far. Flushes
     * the BCE's deferred integer tallies into the account first, so
     * the returned reference is up to date.
     */
    const mem::EnergyAccount &
    energy()
    {
        bce.flushEnergy();
        return account;
    }

    /** Execution tier of the underlying BCE. */
    bce::ExecTier tier() const { return bce.tier(); }

    /** Threads one inference uses, the caller included. */
    unsigned threads() const { return pool_.threads(); }

    /** Forked indices run by another thread than their owner, whose
     *  data then came through a second core's cache
     *  (sim::ThreadPool::lateSteals). */
    std::uint64_t lateSteals() const { return pool_.lateSteals(); }

  private:
    /** One pool thread's conv scratch (conv_row_scratch_bytes), or
     *  its LSTM step scratch. */
    struct RowSlot
    {
        std::int8_t *patch = nullptr;  ///< One output row of patches.
        std::int32_t *accs = nullptr;  ///< The row's [o.w][o.c] tile.
        std::uint32_t *taps = nullptr; ///< Tap-feature accumulator.
        std::uint32_t *tapScratch = nullptr;
        float peak = 0.0f; ///< Running max-abs of the input scan.
        /** An LSTM step slice's activation features. */
        std::uint32_t *features = nullptr;
        /** The tally fold of the LSTM step slice with this slot's
         *  number as its index: kept by index, not by the thread that
         *  ran it, so the caller's sum does not depend on who did. */
        bce::simd::SpanSums fold;
    };

    /** Conv from the HWC input @p in to the HWC output @p out through
     *  the channels-last front, frozen filter bank, arena scratch. */
    void runConvInto(const PlannedLayer &pl, unsigned bits,
                     const float *in, float *out);

    void runActivationInto(const PlannedLayer &pl, const float *in,
                           float *out);

    /** Pool from the HWC input @p in to the HWC output @p out. */
    void runPoolInto(const PlannedLayer &pl, const float *in,
                     float *out);

    void runSoftmaxInto(const PlannedLayer &pl, const float *in,
                        float *out);

    /**
     * The FC layer and qMatmulFrozen body: quantize the m x k block
     * @p a, multiply it against the n x k tile @p wt on the matmul-mode
     * datapath and store out[i][j] = float(acc * s0 * s1) + bias[j],
     * rectified when @p relu, with (s0, s1) the weight and activation
     * scales in that order when @p weightScaleFirst, else reversed. A
     * null @p bias adds nothing. Scratch comes from the arena
     * (matmul_scratch_bytes).
     */
    void matmulInto(const float *a, std::size_t m, std::size_t k,
                    std::size_t n, const dnn::QuantizedWeights &wt,
                    bool weightScaleFirst, const float *bias, bool relu,
                    float *out);

    tech::CacheGeometry geom;
    tech::TechParams tech;
    mem::EnergyAccount account;
    mem::Subarray subarray;
    bce::Bce bce;
    lut::DivisionLut divisionLut;
    lut::PwlTable sigmoidTable;
    lut::PwlTable tanhTable;
    lut::PwlTable expTable;
    dnn::TensorArena arena_;
    /** Conv row scratch, one RowSlot's worth per pool thread. */
    dnn::TensorArena rowArena_;
    sim::ThreadPool pool_;
    std::vector<RowSlot> slots_; ///< One per pool thread.
};

/** Knobs for a batched plan run. */
struct BatchOptions
{
    /** Threads for the whole batch; 0 means sim::resolve_threads(0).
     *  Each chunk's executor gets max(1, threads / chunks) of them. */
    unsigned threads = 0;
    tech::CacheGeometry geom{};
    tech::TechParams tech{};
};

/** Result of a batched plan run. */
struct BatchResult
{
    /** Per-input outputs, input order. */
    std::vector<dnn::FloatTensor> outputs;
    /** Summed per-input BCE activity, accumulated in input order —
     *  bit-identical for any thread count. */
    bce::BceStats stats;
    /** Datapath energy of the batch, converted from the summed integer
     *  tallies in one bulk deposit. Excludes the per-worker LUT-image
     *  load (a fixed per-executor setup cost, not batch work). */
    mem::EnergyAccount energy;
    /** FunctionalExecutor::threads() of each chunk's executor. */
    unsigned executorThreads = 0;
};

/**
 * Run @p plan over every input, fanning out across a sim::ThreadPool
 * in contiguous chunks (one long-lived executor per chunk, so the
 * memoized datapath tables are seeded once per worker, not per input).
 * Outputs, statistics and energy are bit-identical to a sequential
 * loop for any thread count. An input of the wrong size or a
 * misaligned buffer is fatal.
 */
BatchResult run_functional_batch(const NetworkPlan &plan,
                                 const std::vector<dnn::FloatTensor> &inputs,
                                 const BatchOptions &opts = {});

/**
 * The same batched run over borrowed inputs (no copies; the caller
 * keeps ownership, and may pass one tensor several times). Null
 * pointers are fatal. Identical determinism guarantee to the owning
 * overload, which delegates here.
 */
BatchResult
run_functional_batch(const NetworkPlan &plan,
                     const std::vector<const dnn::FloatTensor *> &inputs,
                     const BatchOptions &opts = {});

} // namespace bfree::core

#endif // BFREE_CORE_FUNCTIONAL_HH
