/**
 * @file
 * Tier-1 memoized datapath tables, split-plane layout.
 *
 * The operand analyzer's decomposition of a multiplication into LUT
 * lookups, shifts and adds is a pure function of (a, b, bits, lookup
 * source): nothing about it depends on execution history. The tiered
 * execution engine therefore precomputes, once per (source, bits)
 * pair, flat planes over the full signed operand space holding the
 * exact product plus the micro-op deltas the legacy scalar path would
 * have accumulated. A steady-state MAC then becomes one array read and
 * a handful of integer additions instead of a full nibble-decomposition
 * walk.
 *
 * The layout is independently-addressable 64-byte-aligned planes
 * rather than an array of structs, so the SIMD span kernels can
 * consume each plane on its own:
 *
 *  - an int32 PRODUCT PLANE (products()): the exact product per
 *    operand pair. When every entry equals a*b — true whenever the
 *    backing LUT rows hold the pristine multiply image — the table
 *    additionally reports productsExact(), and the kernels skip the
 *    plane entirely in favour of a SIMD widening-multiply. A rewritten
 *    (poisoned) LUT row clears the flag and spans read the plane
 *    instead (the scalar loop), preserving bit-exactness against the
 *    legacy scalar walk in both regimes.
 *
 *  - a packed uint32 MICRO-OP-DELTA PLANE (deltas()): per pair, the
 *    four micro-op tallies of the scalar decomposition packed one per
 *    byte (lookups | shifts<<8 | adds<<16 | cycles<<24). The deltas
 *    are tiny (at most 4 of each per 8-bit multiply, enforced at
 *    build), so a blocked SIMD tally pass can accumulate thousands of
 *    entries before widening. A table memoizes exactly one lookup
 *    source, so the "lookups" byte is LUT-row reads for conv tables
 *    and hardwired-ROM reads for matmul tables — never both.
 *
 *  - a 256-entry PAIR-DELTA TABLE (pairDeltas()): the gather-free
 *    tally path. The analyzer's micro-op counts depend only on the
 *    nibble STRUCTURE of |a| and |b| — which nibbles are zero, odd, a
 *    power of two — never on the product value. Every operand byte
 *    therefore collapses onto one of at most 15 structural classes
 *    (operand_class()), and the packed delta of a pair is a function
 *    of the two classes alone: pairDeltas()[classA*16 + classB]. A
 *    span kernel can then histogram the 256 possible class keys (all
 *    in-register byte shuffles) and fold the histogram against this
 *    tiny table instead of gathering one delta per element from the
 *    (2^bits+1)^2 plane. The collapse is VERIFIED, not assumed: build
 *    checks every memoized pair against its class key and reports
 *    histogramExact() only when the whole plane agrees, so a
 *    reference with value-dependent counts simply falls back to the
 *    scalar loop over the delta plane.
 *
 * The planes are SEEDED BY the legacy scalar path (the caller passes a
 * reference functor that runs the real decomposition), so the scalar
 * code remains the single source of truth: the memoized engine can
 * only ever reproduce it. Conv-mode tables additionally bake in the
 * bytes currently resident in the sub-array LUT rows, so their owner
 * must tag them with the sub-array's LUT generation and rebuild when
 * the rows are rewritten (see Subarray::lutGeneration()).
 */

#ifndef BFREE_LUT_DATAPATH_TABLE_HH
#define BFREE_LUT_DATAPATH_TABLE_HH

#include <array>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

#include "operand_analyzer.hh"
#include "sim/logging.hh"

namespace bfree::lut {

/**
 * Cache-line-aligned allocator for the datapath planes: aligned loads
 * in the span kernels and no false sharing between co-resident tables.
 */
template <typename T>
struct PlaneAlloc
{
    using value_type = T;

    PlaneAlloc() = default;
    template <typename U>
    PlaneAlloc(const PlaneAlloc<U> &) {}

    static constexpr std::align_val_t alignment{64};

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), alignment));
    }

    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, alignment);
    }

    template <typename U>
    bool operator==(const PlaneAlloc<U> &) const { return true; }
    template <typename U>
    bool operator!=(const PlaneAlloc<U> &) const { return false; }
};

/** A 64-byte-aligned plane. */
template <typename T>
using PlaneVec = std::vector<T, PlaneAlloc<T>>;

/**
 * One memoized multiplication, materialized from the planes: exact
 * product plus the micro-op deltas of the scalar decomposition.
 */
struct DatapathEntry
{
    std::int32_t product = 0;
    std::uint8_t lutLookups = 0;
    std::uint8_t romLookups = 0;
    std::uint8_t shifts = 0;
    std::uint8_t adds = 0;
    std::uint8_t cycles = 0;
};

/**
 * Flat (2^bits + 1)^2 entry planes over the signed operand domain
 * [-2^(bits-1), +2^(bits-1)] — the full range the operand analyzer
 * accepts, including the asymmetric +/-2^(bits-1) endpoints.
 */
class DatapathTable
{
  public:
    /** Byte positions inside one packed micro-op delta. */
    static constexpr unsigned delta_lookups_shift = 0;
    static constexpr unsigned delta_shifts_shift = 8;
    static constexpr unsigned delta_adds_shift = 16;
    static constexpr unsigned delta_cycles_shift = 24;

    // ------------------------------------------------------------------
    // Operand structural classes (the histogram-tally key space)
    // ------------------------------------------------------------------

    /**
     * Structural type of one nibble value: 0 zero, 1 one, 2 a larger
     * power of two ({2,4,8}: odd part 1, shift > 0), 3 odd and >= 3,
     * 4 even with odd part >= 3 ({6,10,12,14}). Everything the
     * analyzer counts per nibble pair — LUT lookup or not, shift or
     * not — is a function of these two types.
     */
    static constexpr std::array<std::uint8_t, 16> nibble_type = {
        0, 1, 2, 3, 2, 3, 4, 3, 2, 3, 4, 3, 4, 3, 4, 3};

    /**
     * Unordered-pair compression of (hi-type * 5 + lo-type): the
     * micro-op counts of a multiply are symmetric in the two nibbles
     * of one operand, so the 25 ordered type pairs collapse onto 15
     * classes — small enough that a class fits one hex digit and a
     * PAIR of operand classes fits one byte.
     */
    static constexpr std::array<std::uint8_t, 25> pair_type_class = {
        0, 1, 2,  3,  4,  //
        1, 5, 6,  7,  8,  //
        2, 6, 9,  10, 11, //
        3, 7, 10, 12, 13, //
        4, 8, 11, 13, 14};

    /** Distinct operand classes (fits 4 bits). */
    static constexpr unsigned operand_class_count = 15;

    // ------------------------------------------------------------------
    // Per-class structural features (the factored histogram fold)
    // ------------------------------------------------------------------
    //
    // The analyzer's four micro-op counts are bilinear in four tiny
    // per-operand features: with p = #nonzero nibbles, o = #odd
    // nibbles, l = #nibbles whose odd part is >= 3 and z = [p > 0],
    //
    //     lookups = lA*lB        shifts = pA*pB - oA*oB
    //     adds    = pA*pB - zA*zB    cycles = C * pA*pB
    //
    // (C is 0 for conv-seeded tables and 1 for ROM tables.) Each
    // feature is a pure function of the operand class, so a span
    // kernel never has to materialize the 256-bin class-pair
    // histogram: summing the four feature dot-products over a span IS
    // the histogram folded against pairDeltas(), term for term. Build
    // verifies this factorization against every seen pairDeltas() key
    // — it is a checked rank decomposition, not an assumption.

    /** Feature p per class: #nonzero nibbles (16th entry padding). */
    static constexpr std::array<std::uint8_t, 16> class_feature_p = {
        0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0};

    /** Feature o per class: #odd-valued nibbles (types 1 and 3). */
    static constexpr std::array<std::uint8_t, 16> class_feature_o = {
        0, 1, 0, 1, 0, 2, 1, 2, 1, 0, 1, 0, 2, 1, 0, 0};

    /** Feature l per class: #nibbles with odd part >= 3 (types 3, 4). */
    static constexpr std::array<std::uint8_t, 16> class_feature_l = {
        0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 2, 2, 2, 0};

    /** Feature z per class: operand nonzero at all. */
    static constexpr std::array<std::uint8_t, 16> class_feature_z = {
        0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0};

    /**
     * Structural class of an operand from the byte holding its
     * magnitude. The kernels feed abs(int8) through the same math
     * in-register (two nibble shuffles plus the pair compression);
     * abs(-128) wraps to 0x80 — exactly the byte pattern of |+128| —
     * so every int8 lane and both analyzer endpoints agree.
     */
    static std::uint8_t
    operand_class(std::uint8_t magnitude)
    {
        return pair_type_class[nibble_type[magnitude >> 4] * 5u
                               + nibble_type[magnitude & 0xF]];
    }

    /** The histogram key of a signed operand pair: classA*16+classB. */
    static std::uint8_t
    class_key(std::int32_t a, std::int32_t b)
    {
        const auto ua = static_cast<std::uint8_t>(a < 0 ? -a : a);
        const auto ub = static_cast<std::uint8_t>(b < 0 ? -b : b);
        return static_cast<std::uint8_t>(operand_class(ua) << 4
                                         | operand_class(ub));
    }

    DatapathTable() = default;

    /** Memoization covers 4- and 8-bit operands; 16-bit stays scalar
     *  (a 2^32-entry table would defeat the point). */
    static bool
    coversBits(unsigned bits)
    {
        return bits == 4 || bits == 8;
    }

    /** True once built. */
    bool valid() const { return !products_.empty(); }

    /** Operand precision this table covers. */
    unsigned bits() const { return _bits; }

    /** Number of memoized operand pairs. */
    std::size_t entryCount() const { return products_.size(); }

    /**
     * Owner-managed invalidation tag. Conv-mode tables record the
     * sub-array LUT generation they were seeded against; a mismatch
     * at dispatch time forces a reseed.
     */
    std::uint64_t generation = 0;

    /** True when this table's planes were seeded against @p gen —
     *  the dispatch-time staleness test (a stale table must be
     *  rejected and reseeded, never served). */
    bool
    matchesGeneration(std::uint64_t gen) const
    {
        return valid() && generation == gen;
    }

    /** Extent of one plane axis: 2^bits + 1. */
    unsigned span() const { return _span; }

    /** Half-range 2^(bits-1): operands live in [-half, +half]. */
    std::int32_t half() const { return _half; }

    /** Plane index of the pair (a, b); both in [-half, +half]. */
    std::size_t
    index(std::int32_t a, std::int32_t b) const
    {
        return static_cast<std::size_t>(a + _half) * _span
               + static_cast<std::size_t>(b + _half);
    }

    /** The flat int32 product plane (entryCount() values, 64B-aligned). */
    const std::int32_t *products() const { return products_.data(); }

    /** The packed micro-op-delta plane (entryCount() values,
     *  64B-aligned). */
    const std::uint32_t *deltas() const { return deltas_.data(); }

    /**
     * The 256-entry packed-delta table keyed by class_key(a, b).
     * Meaningful only when histogramExact(); keys whose class pair
     * never occurs hold 0.
     */
    const std::uint32_t *pairDeltas() const { return pairDeltas_.data(); }

    /**
     * True when every product equals a*b (the pristine-LUT steady
     * state), letting kernels compute products with a widening
     * multiply instead of a plane read. Verified exhaustively at build.
     */
    bool productsExact() const { return productsExact_; }

    /**
     * True when the whole delta plane agrees with the class-keyed
     * pairDeltas() table — the precondition for the gather-free
     * histogram tally. Verified exhaustively at build against every
     * memoized pair; a reference whose counts are not a pure function
     * of the operand classes (or a doctored test table) simply clears
     * the flag and spans read the delta plane (the scalar loop)
     * instead.
     */
    bool histogramExact() const { return histogramExact_; }

    /**
     * Cycle cost per nibble-pair product, 0 or 1: the one per-source
     * degree of freedom in the factored fold (conv tables charge
     * cycles at the span level, ROM tables per nibble pair).
     * Meaningful only when histogramExact().
     */
    std::uint32_t cyclesFactor() const { return cyclesFactor_; }

    /** Kind of lookup the delta "lookups" byte counts. */
    bool countsRomLookups() const { return romSource_; }

    /** The memoized entry for (a, b), materialized from the planes. */
    DatapathEntry
    at(std::int32_t a, std::int32_t b) const
    {
        const std::size_t i = index(a, b);
        const std::uint32_t d = deltas_[i];
        DatapathEntry e;
        e.product = products_[i];
        const auto lookups =
            static_cast<std::uint8_t>(d >> delta_lookups_shift);
        if (romSource_)
            e.romLookups = lookups;
        else
            e.lutLookups = lookups;
        e.shifts = static_cast<std::uint8_t>(d >> delta_shifts_shift);
        e.adds = static_cast<std::uint8_t>(d >> delta_adds_shift);
        e.cycles = static_cast<std::uint8_t>(d >> delta_cycles_shift);
        return e;
    }

    /**
     * Build the planes by exhaustively running @p reference — the
     * legacy scalar path — over the operand space. @p reference must
     * return a MultResult for (a, b).
     */
    template <typename Ref>
    static DatapathTable
    build(unsigned bits, Ref &&reference)
    {
        if (!coversBits(bits))
            bfree_fatal("no datapath table for ", bits, "-bit operands");

        DatapathTable t;
        t._bits = bits;
        t._half = std::int32_t{1} << (bits - 1);
        t._span = 2u * static_cast<unsigned>(t._half) + 1;
        const std::size_t n = std::size_t{t._span} * t._span;
        t.products_.resize(n);
        t.deltas_.resize(n);
        t.pairDeltas_.assign(256, 0);
        t.productsExact_ = true;
        t.histogramExact_ = true;

        std::array<bool, 256> keySeen{};
        bool sawLut = false, sawRom = false;
        for (std::int32_t a = -t._half; a <= t._half; ++a) {
            for (std::int32_t b = -t._half; b <= t._half; ++b) {
                const MultResult r = reference(a, b);
                const std::size_t i = t.index(a, b);
                t.products_[i] = checkedProduct(r.product);
                if (t.products_[i] != a * b)
                    t.productsExact_ = false;
                sawLut = sawLut || r.counts.lutLookups != 0;
                sawRom = sawRom || r.counts.romLookups != 0;
                const std::uint64_t lookups =
                    r.counts.lutLookups + r.counts.romLookups;
                t.deltas_[i] = packDelta(lookups, r.counts.shifts,
                                         r.counts.adds, r.counts.cycles);

                // Verify (never assume) the class collapse: the first
                // pair of a key defines it, every later pair must
                // reproduce it exactly or the histogram path is off.
                const std::uint8_t key = class_key(a, b);
                if (!keySeen[key]) {
                    keySeen[key] = true;
                    t.pairDeltas_[key] = t.deltas_[i];
                } else if (t.pairDeltas_[key] != t.deltas_[i]) {
                    t.histogramExact_ = false;
                }
            }
        }
        if (sawLut && sawRom)
            bfree_panic("datapath-table reference mixes LUT-row and "
                        "ROM lookups; one table memoizes one source");
        t.romSource_ = sawRom;
        if (t.histogramExact_)
            t.verifySeparableFold(keySeen);
        return t;
    }

  private:
    /**
     * Check the bilinear feature factorization against every seen
     * pairDeltas() key and derive cyclesFactor(). A key that defeats
     * the formula (possible only for a reference with counts that are
     * class-consistent but not feature-bilinear, e.g. a doctored test
     * table) clears histogramExact_ so the kernels keep gathering.
     */
    void
    verifySeparableFold(const std::array<bool, 256> &keySeen)
    {
        // Derive the cycles factor from the first key with p*p > 0.
        bool factorKnown = false;
        cyclesFactor_ = 0;
        for (unsigned key = 0; key < 256 && !factorKnown; ++key) {
            if (!keySeen[key])
                continue;
            const std::uint32_t pp =
                class_feature_p[key >> 4] * class_feature_p[key & 0xF];
            if (pp == 0)
                continue;
            const std::uint32_t cycles =
                pairDeltas_[key] >> delta_cycles_shift & 0xFF;
            if (cycles == 0) {
                cyclesFactor_ = 0;
                factorKnown = true;
            } else if (cycles == pp) {
                cyclesFactor_ = 1;
                factorKnown = true;
            } else {
                histogramExact_ = false;
                return;
            }
        }
        for (unsigned key = 0; key < 256; ++key) {
            if (!keySeen[key])
                continue;
            const unsigned cA = key >> 4, cB = key & 0xF;
            const std::uint32_t pp =
                class_feature_p[cA] * class_feature_p[cB];
            const std::uint32_t oo =
                class_feature_o[cA] * class_feature_o[cB];
            const std::uint32_t ll =
                class_feature_l[cA] * class_feature_l[cB];
            const std::uint32_t zz =
                class_feature_z[cA] * class_feature_z[cB];
            const std::uint32_t expect =
                ll << delta_lookups_shift | (pp - oo) << delta_shifts_shift
                | (pp - zz) << delta_adds_shift
                | (cyclesFactor_ * pp) << delta_cycles_shift;
            if (pairDeltas_[key] != expect) {
                histogramExact_ = false;
                return;
            }
        }
    }

    static std::int32_t
    checkedProduct(std::int64_t p)
    {
        // |product| <= 2^(bits-1) * 2^(bits-1) = 2^14 for 8-bit.
        if (p < INT32_MIN || p > INT32_MAX)
            bfree_panic("datapath-table product ", p,
                        " overflows the entry");
        return static_cast<std::int32_t>(p);
    }

    static std::uint32_t
    packDelta(std::uint64_t lookups, std::uint64_t shifts,
              std::uint64_t adds, std::uint64_t cycles)
    {
        if (lookups > 0xFF || shifts > 0xFF || adds > 0xFF
            || cycles > 0xFF)
            bfree_panic("datapath-table micro-op count overflows its "
                        "packed byte");
        return static_cast<std::uint32_t>(lookups)
               << delta_lookups_shift
               | static_cast<std::uint32_t>(shifts) << delta_shifts_shift
               | static_cast<std::uint32_t>(adds) << delta_adds_shift
               | static_cast<std::uint32_t>(cycles)
                     << delta_cycles_shift;
    }

    PlaneVec<std::int32_t> products_;
    PlaneVec<std::uint32_t> deltas_;
    PlaneVec<std::uint32_t> pairDeltas_;
    std::int32_t _half = 0;
    unsigned _span = 0;
    unsigned _bits = 0;
    std::uint32_t cyclesFactor_ = 0;
    bool productsExact_ = false;
    bool histogramExact_ = false;
    bool romSource_ = false;
};

/**
 * Build the ROM-source table for @p bits by seeding from the operand
 * analyzer over the hardwired multiply ROM (the matmul-mode reference
 * path).
 */
DatapathTable build_rom_datapath_table(unsigned bits, const MultLut &rom);

} // namespace bfree::lut

#endif // BFREE_LUT_DATAPATH_TABLE_HH
