/**
 * @file
 * The BFree Compute Engine (Section III-A, Fig. 3/6/7).
 *
 * One BCE sits at the edge of each sub-array. It is a three-stage
 * in-order pipeline:
 *
 *   1. fetch/decode the config block (CB) metadata,
 *   2. generate LUT addresses from the operands and operation,
 *   3. accumulate/process partial results into the output registers.
 *
 * The model is simultaneously functional and timed: every operation
 * computes the exact integer result through the LUT datapath (operand
 * analyzer + 49-entry table) while accumulating cycle counts and
 * micro-op statistics. Functional correctness of the LUT path is
 * therefore tested by the same code that produces performance numbers.
 *
 * Execution is tiered (ExecTier). The Legacy tier runs the full operand
 * decomposition on every multiply — it is the reference. The Tiered
 * engine memoizes the decomposition into flat datapath tables (one per
 * mode/precision, seeded BY the legacy path over the whole operand
 * space) and exposes batched span kernels, turning a steady-state MAC
 * into one table read plus integer adds. Both tiers are bit- and
 * stat-exact by construction.
 *
 * Energy is not booked per micro-op. The hot loops keep integer tallies
 * only (cycles per mode, ROM lookups, LUT-row reads, special-function
 * table events); flushEnergy() converts the tallies accumulated since
 * the previous flush into joules in bulk (mem/micro_op_energy) and
 * deposits them into the EnergyAccount. Callers must flush before
 * reading the account.
 *
 * Throughput matches the paper:
 *   - conv mode:   0.5 8-bit MAC/cycle  (1 MUX, 1 adder, 2 shifters)
 *   - matmul mode: 4   8-bit MAC/cycle  (switch MUX + hardwired ROM,
 *                                        8 multiplies every 2 cycles)
 *   - 4-bit operands double both rates.
 */

#ifndef BFREE_BCE_BCE_HH
#define BFREE_BCE_BCE_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "config_block.hh"
#include "isa.hh"
#include "lut/datapath_table.hh"
#include "lut/division.hh"
#include "lut/fixed_point.hh"
#include "lut/mult_lut.hh"
#include "lut/operand_analyzer.hh"
#include "lut/pwl.hh"
#include "mem/energy_account.hh"
#include "mem/micro_op_energy.hh"
#include "mem/subarray.hh"
#include "simd_kernels.hh"

namespace bfree::sim {
class ThreadPool;
} // namespace bfree::sim

namespace bfree::bce {

/** Datapath configuration of the BCE. */
enum class BceMode
{
    Conv,    ///< Fig. 6 sequential dot-product pipeline.
    Matmul,  ///< Fig. 7 broadcast pipeline with the hardwired ROM.
    Special, ///< Activation / pooling / division / requantize.
};

/** Width of the input/output register files (Fig. 7: 8 operands). */
constexpr unsigned bce_vector_width = 8;

/** Geometry of one pooling layer (Bce::poolQ8). */
struct PoolShape
{
    std::size_t channels = 0;
    std::size_t inH = 0, inW = 0;
    std::size_t outH = 0, outW = 0;
    unsigned kernelH = 0, kernelW = 0;
    unsigned strideH = 1, strideW = 1;
    unsigned padH = 0, padW = 0;
};

/** Aggregate BCE statistics. All integers: the authoritative record the
 *  bulk energy conversion is derived from. */
struct BceStats
{
    std::uint64_t cycles = 0;
    std::uint64_t macs = 0;
    std::uint64_t configLoads = 0;
    lut::MicroOpCounts counts;
    /** cycles split per BceMode (Conv, Matmul, Special): each mode
     *  draws different datapath power. */
    std::array<std::uint64_t, 3> cyclesByMode{};
    std::uint64_t lutReadsPim = 0;   ///< Conv-path LUT reads, lut_en = 1.
    std::uint64_t lutReadsCache = 0; ///< Conv-path LUT reads, lut_en = 0.
    std::uint64_t specialLutEvents = 0; ///< PWL / division table fetches.

    /** Component-wise accumulate (batch runs merge per-input deltas). */
    BceStats &
    operator+=(const BceStats &o)
    {
        cycles += o.cycles;
        macs += o.macs;
        configLoads += o.configLoads;
        counts += o.counts;
        for (std::size_t i = 0; i < cyclesByMode.size(); ++i)
            cyclesByMode[i] += o.cyclesByMode[i];
        lutReadsPim += o.lutReadsPim;
        lutReadsCache += o.lutReadsCache;
        specialLutEvents += o.specialLutEvents;
        return *this;
    }

    /** Component-wise difference: the activity between two snapshots. */
    BceStats
    operator-(const BceStats &o) const
    {
        BceStats d;
        d.cycles = cycles - o.cycles;
        d.macs = macs - o.macs;
        d.configLoads = configLoads - o.configLoads;
        d.counts = counts - o.counts;
        for (std::size_t i = 0; i < cyclesByMode.size(); ++i)
            d.cyclesByMode[i] = cyclesByMode[i] - o.cyclesByMode[i];
        d.lutReadsPim = lutReadsPim - o.lutReadsPim;
        d.lutReadsCache = lutReadsCache - o.lutReadsCache;
        d.specialLutEvents = specialLutEvents - o.specialLutEvents;
        return d;
    }
};

/**
 * The per-sub-array compute engine.
 */
class Bce
{
  public:
    /**
     * @param subarray Sub-array this BCE is attached to; supplies the
     *                 LUT rows and weight storage.
     */
    Bce(mem::Subarray &subarray, const tech::TechParams &tech,
        mem::EnergyAccount &energy);

    /** Current datapath mode. */
    BceMode mode() const { return _mode; }

    /** Switch datapath mode (reconfiguration, takes one cycle). */
    void setMode(BceMode mode);

    /** Select the execution tier (exact either way; see file header). */
    void setTier(ExecTier tier) { _tier = tier; }

    /** Active execution tier. */
    ExecTier tier() const { return _tier; }

    /**
     * Load the 49-entry multiply image into the sub-array LUT rows;
     * required before conv-mode execution.
     */
    void loadMultLutImage();

    /** Stage 1: fetch and decode a config block (one cycle). */
    void loadConfig(const ConfigBlock &cb);

    /** Most recently decoded config block. */
    const ConfigBlock &config() const { return cb; }

    // ------------------------------------------------------------------
    // Arithmetic (functional + timed)
    // ------------------------------------------------------------------
    /** Multiply two signed @p bits operands through the current mode's
     *  LUT path: the hardwired ROM in matmul mode, the sub-array LUT
     *  rows otherwise. */
    std::int64_t multiply(std::int32_t a, std::int32_t b, unsigned bits);

    /** Conv-mode dot product against weights read from the sub-array
     *  at @p weight_offset; returns the exact int32 sum. */
    std::int32_t dotProduct(std::size_t weight_offset,
                            const std::int8_t *inputs, std::size_t len,
                            unsigned bits);

    // Spans. Every span books len * bits/4 cycles and len MACs. Per
    // element, conv mode books the LUT-row multiply (operands clamped
    // to [-8, 7] at 4 bits) and its reads plus len - 1 accumulator
    // adds; matmul mode books the ROM multiply plus one lane add. The
    // Tiered engine serves int8 spans of 4 and 8 bits from the
    // memoized tables; everything else runs one scalar loop.

    /** Conv-mode dot product over two host-resident spans (a filter
     *  row against an im2col patch): dotProduct() minus the fetch. */
    std::int32_t dotProductSpan(const std::int8_t *weights,
                                const std::int8_t *inputs,
                                std::size_t len, unsigned bits);

    /** Matmul-mode dot product: len single-lane broadcastMac() steps. */
    std::int32_t matmulDotSpan(const std::int8_t *a,
                               const std::int8_t *b, std::size_t len,
                               unsigned bits);

    /** The span of the current mode (conv: @p a the weights) over int32
     *  operands, for 16-bit values; returns the int64 sum. */
    std::int64_t dotSpanWide(const std::int32_t *a, const std::int32_t *b,
                             std::size_t len, unsigned bits);

    /** Matmul-mode broadcast step (Fig. 7): one A operand against
     *  @p n <= 8 B operands into @p acc, bits/4 cycles for any n. */
    void broadcastMac(std::int32_t a, const std::int8_t *b, std::size_t n,
                      std::int32_t *acc, unsigned bits);

    // ------------------------------------------------------------------
    // M x N tiles (conv and matmul mode)
    // ------------------------------------------------------------------
    //
    // A tile is m activation rows (a, m x k row-major) against n weight
    // rows (n x k row-major, so both operands stream contiguously). Its
    // outputs, statistics and energy are exactly those of m*n single-
    // span calls; the bookkeeping happens once per tile. On the Tiered
    // tier with a 4- or 8-bit table that passes
    // simd::histogram_eligible, and with every operand inside the
    // span domain (4-bit conv [-8, 7], 4-bit matmul [-8, 8]; int8 is
    // always inside the 8-bit one), products come from the
    // register-blocked simd::gemm_i8 and the micro-op tallies from the
    // rank-1 class-feature identity (simd::fold_tile_features).
    // Everything else runs the per-span loop, which clamps or raises
    // the analyzer's range panic as before.
    //
    // wFeatures, when not null, holds simd::class_feature_sums of the
    // weight rows (frozen at plan compile, range word included), and
    // wRowSums their simd::weight_row_sums (one word per weight row,
    // the VNNI GEMM core's bias correction); scratch, when not null,
    // holds tileScratchWords(k) words for the activation side. Any of
    // them left null is computed or allocated per call.

    /** Scratch words one tile call needs for its activation side (and
     *  a frozen weight side holds): feature sums plus the range word. */
    static std::size_t
    tileScratchWords(std::size_t k)
    {
        return simd::feature_count * k + 1;
    }

    // A tile on the GEMM path is two steps. The compute step runs
    // simd::gemm_i8 for the products and folds the micro-op tallies of
    // the tile's spans into a TileTally (foldTile); it touches no Bce
    // state, so disjoint tiles may compute on different threads against
    // the table tileTable() returned. The booking step (bookTile) books
    // a tally into the statistics once, on the Bce's own thread. The
    // tally is bilinear in integer feature sums, so a caller may fold a
    // whole layer's sums once and run its GEMMs in any split.

    /** The integer tally of a tile's compute step. */
    struct TileTally
    {
        simd::SpanSums sums; ///< Micro-op tallies (acc unused).
        std::uint64_t spans = 0; ///< Activation rows x weight rows.
    };

    /**
     * The gate of the GEMM path, checked once before a tile or a
     * fan-out of tiles: the table the current mode's tiles compute
     * against at @p bits (seeded here on first use), or null when they
     * must run the per-span loop. That is the Legacy tier, a precision
     * without a table, a table that fails simd::histogram_eligible, or
     * an operand outside the mode's span domain: the weights by the
     * range word of their feature sums @p bFeatures (k columns), the
     * activations by a bound |a| <= @p aLimit known before they are
     * (a quantizer's limit; 0 when the caller checks measured features
     * itself).
     */
    const lut::DatapathTable *tileTable(unsigned bits, std::size_t k,
                                        const std::uint32_t *bFeatures,
                                        std::int32_t aLimit);

    /** The tally of the compute step: m*n spans of length k, from the
     *  rank-1 class-feature identity (simd::fold_tile_features). */
    static TileTally foldTile(const lut::DatapathTable &t, std::size_t m,
                              std::size_t k, std::size_t n,
                              const std::uint32_t *aFeatures,
                              const std::uint32_t *bFeatures);

    /** Booking step: book @p tally, of spans of length @p k, as that
     *  many spans of the current mode would have booked it. */
    void bookTile(const TileTally &tally, std::size_t k, unsigned bits);

    /**
     * Conv-mode tile: the row-major m x n tile out[i * n + j] =
     * dot(a[i], w[j]), the value m*n dotProductSpan(w[j], a[i], k,
     * bits) calls return: one output row's patches against the
     * filters, each position's filters one run of its channels-last
     * output.
     */
    void convTile(const std::int8_t *a, const std::int8_t *w,
                  std::int32_t *out, std::size_t m, std::size_t k,
                  std::size_t n, unsigned bits,
                  const std::uint32_t *wFeatures = nullptr,
                  const std::int32_t *wRowSums = nullptr,
                  std::uint32_t *scratch = nullptr);

    /**
     * Matmul-mode tile: BT is the transposed B tile and out (m x n
     * row-major) is accumulated in place, out[i][j] += dot(A[i],
     * BT[j]). Equivalent to m*n matmulDotSpan() calls.
     */
    void matmulTile(const std::int8_t *a, const std::int8_t *bt,
                    std::int32_t *out, std::size_t m, std::size_t k,
                    std::size_t n, unsigned bits,
                    const std::uint32_t *btFeatures = nullptr,
                    const std::int32_t *btRowSums = nullptr,
                    std::uint32_t *scratch = nullptr);

    /** Accumulate a partial sum arriving from the systolic neighbour. */
    std::int32_t accumulateIncoming(std::int32_t local,
                                    std::int32_t incoming);

    // ------------------------------------------------------------------
    // Special functions
    // ------------------------------------------------------------------
    /** Evaluate a PWL table (sigmoid/tanh/exp); two cycles. The n = 1
     *  call of evaluatePwlSpan. */
    double evaluatePwl(const lut::PwlTable &table, double x);

    /**
     * out[i] = table.evaluate(in[i]) for i in [0, n) (in == out is
     * allowed), booked in one step as n evaluatePwl calls: per element
     * PwlTable::evalCounts(), one special-LUT event and two cycles in
     * the current mode. The Legacy tier runs the oracle per element;
     * the Tiered tier runs simd::pwl_span where it has a vector form
     * and the same oracle loop elsewhere; both are bit-identical.
     */
    void evaluatePwlSpan(const lut::PwlTable &table, const double *in,
                         double *out, std::size_t n);

    /**
     * The values of evaluatePwlSpan, booked nowhere: it reads only the
     * tier, so pool workers may run disjoint spans of one step at once
     * and the caller books them all with bookPwl.
     */
    void pwlValues(const lut::PwlTable &table, const double *in,
                   double *out, std::size_t n) const;

    /** Book @p n PWL evaluations, as evaluatePwlSpan books its n. */
    void bookPwl(std::size_t n);

    /** LUT division (Section III-C2); four cycles. */
    double divide(double x, double y, const lut::DivisionLut &div);

    /** Max reduction over @p n values (ReLU / max pooling). */
    std::int32_t maxReduce(const std::int32_t *values, std::size_t n);

    /**
     * ReLU over @p n activations in the datapath's Q8 fixed point:
     * out[i] = max(0, lround(in[i] * 256)) / 256. Identical arithmetic
     * and accounting to n maxReduce({0, q}, 2) calls: one comparator
     * add and one cycle per element, charged to the current mode.
     */
    void reluQ8(const float *in, float *out, std::size_t n);

    /**
     * Book what reluQ8 over @p n elements books (n adds, n cycles in
     * the current mode) without computing it: the ReLU was folded
     * into its producer's dequantize store (simd::dequantize_store).
     */
    void bookRelu(std::size_t n);

    /**
     * Max or average pooling over a whole channels-last inH x inW x
     * channels activation in Q8 fixed point, written channels-last.
     * Each window's result, adds and cycles are those of one
     * maxReduce() (or avgPool()) call over the window's in-bounds Q8
     * values; the bookkeeping is booked once per call. Unpadded 2x2 /
     * stride-2 max pooling runs simd::max_pool_2x2_q8 where the active
     * level has it, split by output rows over @p pool when one is
     * given; the booking stays on the calling thread, so outputs and
     * statistics do not depend on the split.
     */
    void poolQ8(const PoolShape &shape, bool average,
                const lut::DivisionLut &div, const float *in,
                float *out, sim::ThreadPool *pool = nullptr);

    /** Average pooling: accumulate then LUT-divide. */
    double avgPool(const std::int32_t *values, std::size_t n,
                   const lut::DivisionLut &div);

    /** gemmlowp requantization on the BCE datapath; three cycles. */
    std::int32_t requantize(std::int32_t acc,
                            const lut::RequantScale &scale,
                            std::int32_t zero_point, unsigned out_bits);

    // ------------------------------------------------------------------
    // Rates and statistics
    // ------------------------------------------------------------------
    /** MAC throughput per cycle for a mode/precision pair. */
    static double macsPerCycle(BceMode mode, unsigned bits);

    /** Cycles consumed so far. */
    std::uint64_t cycles() const { return stats_.cycles; }

    /** MACs executed so far. */
    std::uint64_t macs() const { return stats_.macs; }

    /** Full statistics. */
    const BceStats &stats() const { return stats_; }

    /**
     * Convert the integer tallies accumulated since the previous flush
     * into joules and deposit them into the EnergyAccount. Must be
     * called before the account is read; idempotent when nothing new
     * has been tallied.
     */
    void flushEnergy();

    /** The attached sub-array. */
    mem::Subarray &subarray() { return *sa; }

    /** Times a conv-mode datapath table has been (re)seeded — lets
     *  tests prove a LUT-row rewrite mid-batch forces a reseed and a
     *  matching generation does not. */
    std::uint64_t convTableSeeds() const { return convSeeds_; }

  private:
    /** Tally @p n datapath cycles against the current mode. */
    void chargeCycles(std::uint64_t n);

    /** Book @p macs MACs at bits/4 cycles each. */
    void chargeMacs(std::uint64_t macs, unsigned bits);

    /** The one scalar span loop (int8_t or int32_t operands). */
    template <typename T>
    std::int64_t scalarSpan(const T *a, const T *b, std::size_t len,
                            unsigned bits);

    /** Record conv-path LUT-row reads (mode-dependent cost category). */
    void noteConvLutReads(std::uint64_t n);

    /** 4-bit multiply with partial products from the sub-array LUT;
     *  micro-ops land in @p counts (no stats/energy side effects, so
     *  the same code both executes and seeds memo tables). */
    std::int64_t lutMultiply4(unsigned a, unsigned b,
                              lut::MicroOpCounts &counts);

    /** Signed multiply routed through the sub-array LUT rows;
     *  side-effect-free except for @p counts. */
    std::int64_t multiplyViaSubarrayLut(std::int32_t a, std::int32_t b,
                                        unsigned bits,
                                        lut::MicroOpCounts &counts);

    /** Memoized conv-mode table for @p bits (4 or 8); reseeded from the
     *  legacy path whenever the sub-array LUT generation moves. */
    const lut::DatapathTable &convTable(unsigned bits);

    /** Memoized matmul-mode (hardwired ROM) table for @p bits. */
    const lut::DatapathTable &romTable(unsigned bits);

    /** [lo, hi] operands of the current mode's spans take unchanged
     *  from @p t: conv spans clamp, matmul spans refuse the rest. */
    std::pair<std::int32_t, std::int32_t>
    tileDomain(const lut::DatapathTable &t) const;

    /**
     * The GEMM body of both tile entry points: tileTable(), the
     * measured activation domain, then simd::gemm_i8 into the
     * row-major m x n out (conv mode overwrites, matmul mode
     * accumulates), foldTile and bookTile. Returns false, with out and
     * the statistics untouched, when the tile must run the per-span
     * loop.
     */
    bool runTile(const std::int8_t *a, const std::int8_t *b,
                 std::int32_t *out, std::size_t m, std::size_t k,
                 std::size_t n, unsigned bits,
                 const std::uint32_t *bFeatures,
                 const std::int32_t *bRowSums, std::uint32_t *scratch);

    mem::Subarray *sa;
    tech::TechParams tech;
    mem::EnergyAccount *energy;
    lut::MultLut rom; ///< Hardwired multiply ROM inside the BCE.
    ConfigBlock cb;
    BceMode _mode = BceMode::Conv;
    ExecTier _tier = ExecTier::Legacy;
    BceStats stats_;
    mem::BceEnergyTallies flushed_; ///< Tallies already converted.
    lut::DatapathTable convTable4_, convTable8_;
    lut::DatapathTable romTable4_, romTable8_;
    std::uint64_t convSeeds_ = 0; ///< Conv-table (re)seed count.
    bool multLutLoaded = false;
};

} // namespace bfree::bce

#endif // BFREE_BCE_BCE_HH
