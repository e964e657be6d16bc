#include "simd_kernels.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/cpuid.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BFREE_X86_KERNELS 1
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace bfree::bce::simd {

namespace {

/**
 * Blocked scalar tally over packed micro-op deltas. Two u64
 * accumulators hold the four byte fields in 16-bit windows (lookups
 * and adds in `lo`, shifts and cycles in `hi`); each window can absorb
 * at most 256 additions of a <=255 field before it could carry into
 * its neighbour, so the block spills to the 64-bit totals every 256
 * entries.
 */
struct TallyBlock
{
    static constexpr unsigned block = 256;

    std::uint64_t lo = 0, hi = 0;
    unsigned n = 0;

    void
    add(std::uint32_t d, SpanSums &s)
    {
        lo += d & 0x00FF00FFu;
        hi += (d >> 8) & 0x00FF00FFu;
        if (++n == block)
            spill(s);
    }

    void
    spill(SpanSums &s)
    {
        s.lookups += lo & 0xFFFFu;
        s.adds += (lo >> 16) & 0xFFFFu;
        s.shifts += hi & 0xFFFFu;
        s.cycles += (hi >> 16) & 0xFFFFu;
        lo = hi = 0;
        n = 0;
    }
};

/**
 * Scalar element loop over [begin, end); also the tail pass of every
 * SIMD variant. Accumulates into @p s / @p acc; returns false at the
 * first strict-domain violation (with firstOutOfRange set).
 */
bool
scalar_range(const lut::DatapathTable &t, const std::int8_t *a,
             const std::int8_t *b, std::size_t begin, std::size_t end,
             bool clamp, bool strict, std::uint32_t &acc, SpanSums &s)
{
    const std::int32_t half = t.half();
    const std::int32_t *prod = t.products();
    const std::uint32_t *delta = t.deltas();
    const bool exact = t.productsExact();

    TallyBlock tb;
    for (std::size_t i = begin; i < end; ++i) {
        std::int32_t w = a[i];
        std::int32_t x = b[i];
        if (clamp) {
            w = std::clamp(w, -half, half - 1);
            x = std::clamp(x, -half, half - 1);
        } else if (strict
                   && (w < -half || w > half || x < -half || x > half)) {
            tb.spill(s);
            s.inRange = false;
            s.firstOutOfRange = i;
            return false;
        }
        const std::size_t idx = t.index(w, x);
        acc += static_cast<std::uint32_t>(exact ? w * x : prod[idx]);
        tb.add(delta[idx], s);
    }
    tb.spill(s);
    return true;
}

SpanSums
span_scalar(const lut::DatapathTable &t, const std::int8_t *a,
            const std::int8_t *b, std::size_t len, bool clamp,
            bool strict)
{
    SpanSums s;
    std::uint32_t acc = 0;
    scalar_range(t, a, b, 0, len, clamp, strict, acc, s);
    s.acc = static_cast<std::int32_t>(acc);
    return s;
}

/**
 * The feature dot products of one span, the factored histogram fold:
 * P = sum p(a)p(b), O = sum o(a)o(b), L = sum l(a)l(b),
 * Z = sum z(a)z(b). The caller turns them into micro-op tallies with
 * the verified bilinear formulas (see DatapathTable).
 */
struct FeatureSums
{
    std::uint64_t p = 0, o = 0, l = 0, z = 0;
};

/** Fold the feature dot products into SpanSums micro-op tallies. */
void
fold_features(const FeatureSums &f, std::uint32_t cyclesFactor,
              SpanSums &s)
{
    s.lookups += f.l;
    s.shifts += f.p - f.o;
    s.adds += f.p - f.z;
    s.cycles += cyclesFactor * f.p;
}

/**
 * The trailing range word of a feature-sum array: the smallest of the
 * @p n lane minima @p lo and the largest of the lane maxima @p hi,
 * packed as two bytes (min in bits 0-7, max in bits 8-15).
 */
std::uint32_t
pack_range(const std::int8_t *lo, const std::int8_t *hi, std::size_t n)
{
    const std::int8_t mn = *std::min_element(lo, lo + n);
    const std::int8_t mx = *std::max_element(hi, hi + n);
    return std::uint32_t{static_cast<std::uint8_t>(mn)}
           | std::uint32_t{static_cast<std::uint8_t>(mx)} << 8;
}

void
feature_sums_scalar(const std::int8_t *tile, std::size_t rows,
                    std::size_t k, std::uint32_t *sums)
{
    using T = lut::DatapathTable;
    std::fill(sums, sums + feature_count * k, 0u);
    std::int8_t lo = 0, hi = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::int8_t *row = tile + r * k;
        for (std::size_t c = 0; c < k; ++c) {
            const int v = row[c];
            lo = std::min(lo, row[c]);
            hi = std::max(hi, row[c]);
            const std::uint8_t cls =
                T::operand_class(static_cast<std::uint8_t>(v < 0 ? -v : v));
            sums[c] += T::class_feature_p[cls];
            sums[k + c] += T::class_feature_o[cls];
            sums[2 * k + c] += T::class_feature_l[cls];
            sums[3 * k + c] += T::class_feature_z[cls];
        }
    }
    sums[feature_count * k] = pack_range(&lo, &hi, 1);
}

void
gemm_scalar(const std::int8_t *a, const std::int8_t *b, std::int32_t *out,
            std::size_t m, std::size_t k, std::size_t n, std::size_t rs)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const std::int8_t *ar = a + i * k;
            const std::int8_t *br = b + j * k;
            std::int32_t &o = out[i * rs + j];
            std::uint32_t acc = static_cast<std::uint32_t>(o);
            for (std::size_t p = 0; p < k; ++p)
                acc += static_cast<std::uint32_t>(std::int32_t{ar[p]}
                                                  * br[p]);
            o = static_cast<std::int32_t>(acc);
        }
    }
}

void
row_sums_scalar(const std::int8_t *tile, std::size_t rows, std::size_t k,
                std::int32_t *sums)
{
    for (std::size_t r = 0; r < rows; ++r) {
        std::uint32_t sum = 0;
        for (std::size_t p = 0; p < k; ++p)
            sum += static_cast<std::uint32_t>(std::int32_t{tile[r * k + p]});
        sums[r] = static_cast<std::int32_t>(sum);
    }
}

/**
 * Walk an m x n output in MR x NR register blocks; the ragged right
 * and bottom edges take 1 x NR, MR x 1 and 1 x 1 blocks. Columns are
 * the outer loop so a block's weight rows stay in L1 while the
 * activation rows stream from L2. Element (i, j) of the output lives
 * at out[i * rs + j]. Block<mr, nr>::run(a, b, k, out, rs, bSums)
 * accumulates one block; bSums (the block's first weight row sum) is
 * read only by the VNNI block.
 */
template <template <int, int> class Block, int MR, int NR>
void
gemm_blocked(const std::int8_t *a, const std::int8_t *b, std::int32_t *out,
             std::size_t m, std::size_t k, std::size_t n, std::size_t rs,
             const std::int32_t *bSums = nullptr)
{
    std::size_t j = 0;
    for (; j + NR <= n; j += NR) {
        const std::int32_t *sj = bSums != nullptr ? bSums + j : nullptr;
        std::size_t i = 0;
        for (; i + MR <= m; i += MR)
            Block<MR, NR>::run(a + i * k, b + j * k, k,
                               out + i * rs + j, rs, sj);
        for (; i < m; ++i)
            Block<1, NR>::run(a + i * k, b + j * k, k,
                              out + i * rs + j, rs, sj);
    }
    for (; j < n; ++j) {
        const std::int32_t *sj = bSums != nullptr ? bSums + j : nullptr;
        std::size_t i = 0;
        for (; i + MR <= m; i += MR)
            Block<MR, 1>::run(a + i * k, b + j * k, k,
                              out + i * rs + j, rs, sj);
        for (; i < m; ++i)
            Block<1, 1>::run(a + i * k, b + j * k, k,
                             out + i * rs + j, rs, sj);
    }
}

#ifdef BFREE_X86_KERNELS

// The pair_type_class compression split into two 16-lane pshufb
// tables (indices 0..15 and 16..24); derived from the canonical array
// so the in-register classifier can never drift from the scalar one.
constexpr std::array<std::uint8_t, 16>
id25_lo_table()
{
    std::array<std::uint8_t, 16> r{};
    for (unsigned i = 0; i < 16; ++i)
        r[i] = lut::DatapathTable::pair_type_class[i];
    return r;
}

constexpr std::array<std::uint8_t, 16>
id25_hi_table()
{
    std::array<std::uint8_t, 16> r{};
    for (unsigned i = 16; i < 25; ++i)
        r[i - 16] = lut::DatapathTable::pair_type_class[i];
    return r;
}

constexpr std::array<std::uint8_t, 16> id25_lo = id25_lo_table();
constexpr std::array<std::uint8_t, 16> id25_hi = id25_hi_table();

/**
 * In-register operand classifier: one CLASSIFY expands a vector of
 * int8 operands into their structural classes (0..14) per byte, the
 * exact vector analogue of DatapathTable::operand_class(|v|).
 *
 *   u  = abs(v)                  (abs(-128) wraps to 0x80 = |+128|)
 *   t  = nibble_type[u.lo4], nibble_type[u.hi4]   (pshufb)
 *   s  = t_hi * 5 + t_lo         (t_hi + (t_hi << 2) + t_lo; both
 *                                 types <= 4, so s <= 24 with no
 *                                 cross-byte carry under the 16-bit
 *                                 shift)
 *   cls = pair_type_class[s]     (two pshufbs blended on s > 15;
 *                                 pshufb zeroes lanes whose index
 *                                 byte went negative after the -16)
 *
 * Implemented as macros, not helpers: lambdas and callees inside a
 * target("...")-attributed function do not inherit the attribute, and
 * gcc refuses to inline always_inline intrinsics across that
 * boundary.
 */
#define BFREE_CLASSIFY_CONSTS_256                                        \
    const __m256i kT4 =                                                  \
        _mm256_broadcastsi128_si256(_mm_loadu_si128(                     \
            reinterpret_cast<const __m128i *>(                           \
                lut::DatapathTable::nibble_type.data())));               \
    const __m256i kId25Lo = _mm256_broadcastsi128_si256(_mm_loadu_si128( \
        reinterpret_cast<const __m128i *>(id25_lo.data())));             \
    const __m256i kId25Hi = _mm256_broadcastsi128_si256(_mm_loadu_si128( \
        reinterpret_cast<const __m128i *>(id25_hi.data())));             \
    const __m256i kNib = _mm256_set1_epi8(0x0F);                         \
    const __m256i k15 = _mm256_set1_epi8(15);                            \
    const __m256i k16 = _mm256_set1_epi8(16)

#define BFREE_CLASSIFY_256(v, cls)                                       \
    do {                                                                 \
        const __m256i u_ = _mm256_abs_epi8(v);                           \
        const __m256i lo_ = _mm256_and_si256(u_, kNib);                  \
        const __m256i hi_ =                                              \
            _mm256_and_si256(_mm256_srli_epi16(u_, 4), kNib);            \
        const __m256i tl_ = _mm256_shuffle_epi8(kT4, lo_);               \
        const __m256i th_ = _mm256_shuffle_epi8(kT4, hi_);               \
        const __m256i s_ = _mm256_add_epi8(                              \
            _mm256_add_epi8(                                             \
                th_, _mm256_slli_epi16(_mm256_and_si256(th_, kNib), 2)), \
            tl_);                                                        \
        const __m256i rlo_ = _mm256_shuffle_epi8(kId25Lo, s_);           \
        const __m256i rhi_ =                                             \
            _mm256_shuffle_epi8(kId25Hi, _mm256_sub_epi8(s_, k16));      \
        const __m256i m_ = _mm256_cmpgt_epi8(s_, k15);                   \
        (cls) = _mm256_blendv_epi8(rlo_, rhi_, m_);                      \
    } while (0)

#define BFREE_CLASSIFY_CONSTS_128                                        \
    const __m128i kT4 = _mm_loadu_si128(reinterpret_cast<const __m128i   \
                                            *>(                          \
        lut::DatapathTable::nibble_type.data()));                        \
    const __m128i kId25Lo = _mm_loadu_si128(                             \
        reinterpret_cast<const __m128i *>(id25_lo.data()));              \
    const __m128i kId25Hi = _mm_loadu_si128(                             \
        reinterpret_cast<const __m128i *>(id25_hi.data()));              \
    const __m128i kNib = _mm_set1_epi8(0x0F);                            \
    const __m128i k15 = _mm_set1_epi8(15);                               \
    const __m128i k16 = _mm_set1_epi8(16)

#define BFREE_CLASSIFY_128(v, cls)                                       \
    do {                                                                 \
        const __m128i u_ = _mm_abs_epi8(v);                              \
        const __m128i lo_ = _mm_and_si128(u_, kNib);                     \
        const __m128i hi_ = _mm_and_si128(_mm_srli_epi16(u_, 4), kNib);  \
        const __m128i tl_ = _mm_shuffle_epi8(kT4, lo_);                  \
        const __m128i th_ = _mm_shuffle_epi8(kT4, hi_);                  \
        const __m128i s_ = _mm_add_epi8(                                 \
            _mm_add_epi8(th_,                                            \
                         _mm_slli_epi16(_mm_and_si128(th_, kNib), 2)),   \
            tl_);                                                        \
        const __m128i rlo_ = _mm_shuffle_epi8(kId25Lo, s_);              \
        const __m128i rhi_ =                                             \
            _mm_shuffle_epi8(kId25Hi, _mm_sub_epi8(s_, k16));            \
        const __m128i m_ = _mm_cmpgt_epi8(s_, k15);                      \
        (cls) = _mm_blendv_epi8(rlo_, rhi_, m_);                         \
    } while (0)

#define BFREE_CLASSIFY_CONSTS_512                                        \
    const __m512i kT4 = _mm512_broadcast_i32x4(_mm_loadu_si128(          \
        reinterpret_cast<const __m128i *>(                               \
            lut::DatapathTable::nibble_type.data())));                   \
    const __m512i kId25Lo = _mm512_broadcast_i32x4(_mm_loadu_si128(      \
        reinterpret_cast<const __m128i *>(id25_lo.data())));             \
    const __m512i kId25Hi = _mm512_broadcast_i32x4(_mm_loadu_si128(      \
        reinterpret_cast<const __m128i *>(id25_hi.data())));             \
    const __m512i kNib = _mm512_set1_epi8(0x0F);                         \
    const __m512i k15 = _mm512_set1_epi8(15);                            \
    const __m512i k16 = _mm512_set1_epi8(16)

#define BFREE_CLASSIFY_512(v, cls)                                       \
    do {                                                                 \
        const __m512i u_ = _mm512_abs_epi8(v);                           \
        const __m512i lo_ = _mm512_and_si512(u_, kNib);                  \
        const __m512i hi_ =                                              \
            _mm512_and_si512(_mm512_srli_epi16(u_, 4), kNib);            \
        const __m512i tl_ = _mm512_shuffle_epi8(kT4, lo_);               \
        const __m512i th_ = _mm512_shuffle_epi8(kT4, hi_);               \
        const __m512i s_ = _mm512_add_epi8(                              \
            _mm512_add_epi8(                                             \
                th_, _mm512_slli_epi16(_mm512_and_si512(th_, kNib), 2)), \
            tl_);                                                        \
        const __m512i rlo_ = _mm512_shuffle_epi8(kId25Lo, s_);           \
        const __m512i rhi_ =                                             \
            _mm512_shuffle_epi8(kId25Hi, _mm512_sub_epi8(s_, k16));      \
        const __mmask64 m_ = _mm512_cmpgt_epi8_mask(s_, k15);            \
        (cls) = _mm512_mask_blend_epi8(m_, rlo_, rhi_);                  \
    } while (0)

/** One 16-entry per-class feature table as a pshufb source: a shuffle
 *  of a class vector against it yields the feature per byte. */
inline __m128i
feature_table(const std::array<std::uint8_t, 16> &table)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(table.data()));
}

/** The four feature tables (p, o, l, z) broadcast to a vector width. */
#define BFREE_FEATURE_CONSTS_128                                         \
    const __m128i kFP = feature_table(lut::DatapathTable::class_feature_p); \
    const __m128i kFO = feature_table(lut::DatapathTable::class_feature_o); \
    const __m128i kFL = feature_table(lut::DatapathTable::class_feature_l); \
    const __m128i kFZ = feature_table(lut::DatapathTable::class_feature_z)

#define BFREE_FEATURE_CONSTS_256                                         \
    const __m256i kFP = _mm256_broadcastsi128_si256(                     \
        feature_table(lut::DatapathTable::class_feature_p));             \
    const __m256i kFO = _mm256_broadcastsi128_si256(                     \
        feature_table(lut::DatapathTable::class_feature_o));             \
    const __m256i kFL = _mm256_broadcastsi128_si256(                     \
        feature_table(lut::DatapathTable::class_feature_l));             \
    const __m256i kFZ = _mm256_broadcastsi128_si256(                     \
        feature_table(lut::DatapathTable::class_feature_z))

#define BFREE_FEATURE_CONSTS_512                                         \
    const __m512i kFP = _mm512_broadcast_i32x4(                          \
        feature_table(lut::DatapathTable::class_feature_p));             \
    const __m512i kFO = _mm512_broadcast_i32x4(                          \
        feature_table(lut::DatapathTable::class_feature_o));             \
    const __m512i kFL = _mm512_broadcast_i32x4(                          \
        feature_table(lut::DatapathTable::class_feature_l));             \
    const __m512i kFZ = _mm512_broadcast_i32x4(                          \
        feature_table(lut::DatapathTable::class_feature_z))

/** Sum of four u32 lanes (SSE spill path). */
__attribute__((target("sse4.2"))) std::uint64_t
hsum_u32x4(__m128i v)
{
    alignas(16) std::uint32_t lane[4];
    _mm_store_si128(reinterpret_cast<__m128i *>(lane), v);
    return std::uint64_t{lane[0]} + lane[1] + lane[2] + lane[3];
}

/** Mod-2^32 sum of eight u32 lanes (the wrapping product reduce). */
__attribute__((target("avx2"))) std::uint32_t
wsum_u32x8(__m256i v)
{
    __m128i r = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    r = _mm_add_epi32(r, _mm_srli_si128(r, 8));
    r = _mm_add_epi32(r, _mm_srli_si128(r, 4));
    return static_cast<std::uint32_t>(_mm_cvtsi128_si32(r));
}

// GCC 12's -Wmaybe-uninitialized fires through the self-initialized
// _mm*_undefined_*() the AVX-512 intrinsic headers pass as the (never
// read, mask = -1) masked-fallback operand; known false positive
// (GCC PR105593), suppressed for the 512-bit kernels only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// Per-iteration ceiling on a 16-bit feature accumulator lane: each
// maddubs adds two products of <=2*2, so <=8 per lane per step; spill
// every 4000 steps keeps lanes <=32000 < 2^15.
constexpr std::size_t sep_spill_block = 4000;

/**
 * Reduce four madd-widened u32x8 feature sums in one hadd tree instead
 * of four scalarized lane walks: two hadds interleave [P.. O..] and
 * [L.. Z..], a third yields [P O L Z | P O L Z], and the cross-lane
 * add leaves one dword per feature. Lane bound: spilled 16-bit lanes
 * stay under 2^15 and the tree sums at most eight of them, far from
 * u32 overflow. The serialized vpextrd chain this replaces dominated
 * short spans — the epilogue runs once per call and production spans
 * are a few hundred elements.
 */
__attribute__((target("avx2"))) void
reduce_features_u32x8(__m256i p, __m256i o, __m256i l, __m256i z,
                      FeatureSums &f)
{
    const __m256i po = _mm256_hadd_epi32(p, o);
    const __m256i lz = _mm256_hadd_epi32(l, z);
    const __m256i polz = _mm256_hadd_epi32(po, lz);
    const __m128i r = _mm_add_epi32(_mm256_castsi256_si128(polz),
                                    _mm256_extracti128_si256(polz, 1));
    f.p += static_cast<std::uint32_t>(_mm_extract_epi32(r, 0));
    f.o += static_cast<std::uint32_t>(_mm_extract_epi32(r, 1));
    f.l += static_cast<std::uint32_t>(_mm_extract_epi32(r, 2));
    f.z += static_cast<std::uint32_t>(_mm_extract_epi32(r, 3));
}

/** The 128-bit form of the same hadd-tree feature reduce. */
__attribute__((target("sse4.2"))) void
reduce_features_u32x4(__m128i p, __m128i o, __m128i l, __m128i z,
                      FeatureSums &f)
{
    const __m128i po = _mm_hadd_epi32(p, o);
    const __m128i lz = _mm_hadd_epi32(l, z);
    const __m128i r = _mm_hadd_epi32(po, lz);
    f.p += static_cast<std::uint32_t>(_mm_extract_epi32(r, 0));
    f.o += static_cast<std::uint32_t>(_mm_extract_epi32(r, 1));
    f.l += static_cast<std::uint32_t>(_mm_extract_epi32(r, 2));
    f.z += static_cast<std::uint32_t>(_mm_extract_epi32(r, 3));
}

/**
 * What a histogram span kernel does with operands outside its table's
 * domain. int8 operands always fit an 8-bit table; a 4-bit table's
 * spans clamp (conv) or refuse (matmul) out-of-domain bytes, in
 * registers, before the classify step.
 */
enum class Domain
{
    Full,   ///< Every operand is in domain (8-bit tables).
    Clamp,  ///< Clamp both operands to [-half, half - 1] (4-bit conv).
    /** Any operand outside [-half, half] hands the rest of the span,
     *  from the offending block on, to scalar_range, which reports the
     *  first offender (4-bit matmul). */
    Strict,
};

/** The lower and upper operand bound of @p D on @p t as bytes, read
 *  only under Clamp and Strict, whose tables are 4-bit (half = 8). */
char
domain_lo(const lut::DatapathTable &t)
{
    return static_cast<char>(-t.half());
}

template <Domain D>
char
domain_hi(const lut::DatapathTable &t)
{
    return static_cast<char>(D == Domain::Clamp ? t.half() - 1 : t.half());
}

/**
 * AVX2 histogram-tally kernel: 32 operand pairs per step, no table
 * access in the loop. Products via widening madd (exact: |a*b| <=
 * 2^14 fits int16 pairs, and wrapped mod-2^32 sums match the scalar
 * u32 accumulation); micro-op tallies via the factored class-feature
 * fold against the build-verified pairDeltas collapse. A ragged tail
 * is one more step over a zero-filled copy: a zero operand has
 * product 0 and class 0, every feature of which is 0, and it stays
 * in domain. Exact for 4-bit tables by the rank-1 identity the tile
 * uses (a span is a 1 x 1 tile) once both operands are in domain.
 */
template <Domain D>
__attribute__((target("avx2"))) SpanSums
span_avx2_hist(const lut::DatapathTable &t, const std::int8_t *a,
               const std::int8_t *b, std::size_t len)
{
    SpanSums s;
    BFREE_CLASSIFY_CONSTS_256;
    BFREE_FEATURE_CONSTS_256;
    const __m256i kOne16 = _mm256_set1_epi16(1);
    const __m256i kLo = _mm256_set1_epi8(domain_lo(t));
    const __m256i kHi = _mm256_set1_epi8(domain_hi<D>(t));

    __m256i accP = _mm256_setzero_si256();
    __m256i sP = accP, sO = accP, sL = accP, sZ = accP;
    FeatureSums f;
    std::size_t sinceSpill = 0;
    alignas(32) std::int8_t tailA[32] = {}, tailB[32] = {};

#define BFREE_SEP_SPILL_256()                                            \
    do {                                                                 \
        reduce_features_u32x8(_mm256_madd_epi16(sP, kOne16),             \
                              _mm256_madd_epi16(sO, kOne16),             \
                              _mm256_madd_epi16(sL, kOne16),             \
                              _mm256_madd_epi16(sZ, kOne16), f);         \
        sP = sO = sL = sZ = _mm256_setzero_si256();                      \
        sinceSpill = 0;                                                  \
    } while (0)

    std::size_t i = 0;
    for (; i < len; i += 32) {
        const std::int8_t *pa = a + i, *pb = b + i;
        if (len - i < 32) {
            std::memcpy(tailA, pa, len - i);
            std::memcpy(tailB, pb, len - i);
            pa = tailA;
            pb = tailB;
        }
        __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(pa));
        __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(pb));
        if constexpr (D == Domain::Clamp) {
            va = _mm256_min_epi8(_mm256_max_epi8(va, kLo), kHi);
            vb = _mm256_min_epi8(_mm256_max_epi8(vb, kLo), kHi);
        } else if constexpr (D == Domain::Strict) {
            const __m256i bad = _mm256_or_si256(
                _mm256_or_si256(_mm256_cmpgt_epi8(kLo, va),
                                _mm256_cmpgt_epi8(va, kHi)),
                _mm256_or_si256(_mm256_cmpgt_epi8(kLo, vb),
                                _mm256_cmpgt_epi8(vb, kHi)));
            if (!_mm256_testz_si256(bad, bad))
                break;
        }

        const __m256i a0 =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
        const __m256i a1 =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
        const __m256i b0 =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
        const __m256i b1 =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
        accP = _mm256_add_epi32(accP, _mm256_madd_epi16(a0, b0));
        accP = _mm256_add_epi32(accP, _mm256_madd_epi16(a1, b1));

        __m256i ca, cb;
        BFREE_CLASSIFY_256(va, ca);
        BFREE_CLASSIFY_256(vb, cb);
        sP = _mm256_add_epi16(
            sP, _mm256_maddubs_epi16(_mm256_shuffle_epi8(kFP, ca),
                                     _mm256_shuffle_epi8(kFP, cb)));
        sO = _mm256_add_epi16(
            sO, _mm256_maddubs_epi16(_mm256_shuffle_epi8(kFO, ca),
                                     _mm256_shuffle_epi8(kFO, cb)));
        sL = _mm256_add_epi16(
            sL, _mm256_maddubs_epi16(_mm256_shuffle_epi8(kFL, ca),
                                     _mm256_shuffle_epi8(kFL, cb)));
        sZ = _mm256_add_epi16(
            sZ, _mm256_maddubs_epi16(_mm256_shuffle_epi8(kFZ, ca),
                                     _mm256_shuffle_epi8(kFZ, cb)));
        if (++sinceSpill == sep_spill_block)
            BFREE_SEP_SPILL_256();
    }
    BFREE_SEP_SPILL_256();
#undef BFREE_SEP_SPILL_256
    fold_features(f, t.cyclesFactor(), s);
    std::uint32_t acc = wsum_u32x8(accP);
    if (i < len) // a Strict block held an out-of-domain operand
        scalar_range(t, a, b, i, len, false, true, acc, s);
    s.acc = static_cast<std::int32_t>(acc);
    return s;
}

/**
 * AVX-512 histogram-tally kernel: 64 pairs per step, same factored
 * fold and domain handling as the AVX2 variant in 512-bit lanes (BW
 * byte shuffles, mask-blended class compression). The ragged tail is
 * one more step through zero-masked loads.
 */
template <Domain D>
__attribute__((target("avx512f,avx512bw,avx512vl"))) SpanSums
span_avx512_hist(const lut::DatapathTable &t, const std::int8_t *a,
                 const std::int8_t *b, std::size_t len)
{
    SpanSums s;
    BFREE_CLASSIFY_CONSTS_512;
    BFREE_FEATURE_CONSTS_512;
    const __m512i kOne16 = _mm512_set1_epi16(1);
    const __m512i kLo = _mm512_set1_epi8(domain_lo(t));
    const __m512i kHi = _mm512_set1_epi8(domain_hi<D>(t));

    __m512i accP = _mm512_setzero_si512();
    __m512i sP = accP, sO = accP, sL = accP, sZ = accP;
    FeatureSums f;
    std::size_t sinceSpill = 0;

// Fold one madd-widened 512-bit sum onto its 256-bit halves.
#define BFREE_FOLD_512(v)                                                \
    _mm256_add_epi32(                                                    \
        _mm512_castsi512_si256(_mm512_madd_epi16(v, kOne16)),            \
        _mm512_extracti64x4_epi64(_mm512_madd_epi16(v, kOne16), 1))

#define BFREE_SEP_SPILL_512()                                            \
    do {                                                                 \
        reduce_features_u32x8(BFREE_FOLD_512(sP), BFREE_FOLD_512(sO),    \
                              BFREE_FOLD_512(sL), BFREE_FOLD_512(sZ),    \
                              f);                                        \
        sP = sO = sL = sZ = _mm512_setzero_si512();                      \
        sinceSpill = 0;                                                  \
    } while (0)

    std::size_t i = 0;
    for (; i < len; i += 64) {
        const __mmask64 mask = len - i >= 64
                                   ? ~__mmask64{0}
                                   : (__mmask64{1} << (len - i)) - 1;
        __m512i va = _mm512_maskz_loadu_epi8(mask, a + i);
        __m512i vb = _mm512_maskz_loadu_epi8(mask, b + i);
        if constexpr (D == Domain::Clamp) {
            va = _mm512_min_epi8(_mm512_max_epi8(va, kLo), kHi);
            vb = _mm512_min_epi8(_mm512_max_epi8(vb, kLo), kHi);
        } else if constexpr (D == Domain::Strict) {
            if (_mm512_cmplt_epi8_mask(va, kLo)
                | _mm512_cmpgt_epi8_mask(va, kHi)
                | _mm512_cmplt_epi8_mask(vb, kLo)
                | _mm512_cmpgt_epi8_mask(vb, kHi))
                break;
        }

        const __m512i a0 =
            _mm512_cvtepi8_epi16(_mm512_castsi512_si256(va));
        const __m512i a1 =
            _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(va, 1));
        const __m512i b0 =
            _mm512_cvtepi8_epi16(_mm512_castsi512_si256(vb));
        const __m512i b1 =
            _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(vb, 1));
        accP = _mm512_add_epi32(accP, _mm512_madd_epi16(a0, b0));
        accP = _mm512_add_epi32(accP, _mm512_madd_epi16(a1, b1));

        __m512i ca, cb;
        BFREE_CLASSIFY_512(va, ca);
        BFREE_CLASSIFY_512(vb, cb);
        sP = _mm512_add_epi16(
            sP, _mm512_maddubs_epi16(_mm512_shuffle_epi8(kFP, ca),
                                     _mm512_shuffle_epi8(kFP, cb)));
        sO = _mm512_add_epi16(
            sO, _mm512_maddubs_epi16(_mm512_shuffle_epi8(kFO, ca),
                                     _mm512_shuffle_epi8(kFO, cb)));
        sL = _mm512_add_epi16(
            sL, _mm512_maddubs_epi16(_mm512_shuffle_epi8(kFL, ca),
                                     _mm512_shuffle_epi8(kFL, cb)));
        sZ = _mm512_add_epi16(
            sZ, _mm512_maddubs_epi16(_mm512_shuffle_epi8(kFZ, ca),
                                     _mm512_shuffle_epi8(kFZ, cb)));
        if (++sinceSpill == sep_spill_block)
            BFREE_SEP_SPILL_512();
    }
    BFREE_SEP_SPILL_512();
#undef BFREE_SEP_SPILL_512
#undef BFREE_FOLD_512
    fold_features(f, t.cyclesFactor(), s);
    std::uint32_t acc = wsum_u32x8(
        _mm256_add_epi32(_mm512_castsi512_si256(accP),
                         _mm512_extracti64x4_epi64(accP, 1)));
    if (i < len) // a Strict block held an out-of-domain operand
        scalar_range(t, a, b, i, len, false, true, acc, s);
    s.acc = static_cast<std::int32_t>(acc);
    return s;
}

#pragma GCC diagnostic pop

/**
 * SSE4.2 histogram-tally kernel: 16 pairs per step (pshufb/maddubs
 * are SSSE3, the widening converts and byte min/max SSE4.1), with the
 * AVX2 variant's zero-filled tail step and domain handling.
 */
template <Domain D>
__attribute__((target("sse4.2"))) SpanSums
span_sse42_hist(const lut::DatapathTable &t, const std::int8_t *a,
                const std::int8_t *b, std::size_t len)
{
    SpanSums s;
    BFREE_CLASSIFY_CONSTS_128;
    BFREE_FEATURE_CONSTS_128;
    const __m128i kOne16 = _mm_set1_epi16(1);
    const __m128i kLo = _mm_set1_epi8(domain_lo(t));
    const __m128i kHi = _mm_set1_epi8(domain_hi<D>(t));

    __m128i accP = _mm_setzero_si128();
    __m128i sP = accP, sO = accP, sL = accP, sZ = accP;
    FeatureSums f;
    std::size_t sinceSpill = 0;
    alignas(16) std::int8_t tailA[16] = {}, tailB[16] = {};

#define BFREE_SEP_SPILL_128()                                            \
    do {                                                                 \
        reduce_features_u32x4(_mm_madd_epi16(sP, kOne16),                \
                              _mm_madd_epi16(sO, kOne16),                \
                              _mm_madd_epi16(sL, kOne16),                \
                              _mm_madd_epi16(sZ, kOne16), f);            \
        sP = sO = sL = sZ = _mm_setzero_si128();                         \
        sinceSpill = 0;                                                  \
    } while (0)

    std::size_t i = 0;
    for (; i < len; i += 16) {
        const std::int8_t *pa = a + i, *pb = b + i;
        if (len - i < 16) {
            std::memcpy(tailA, pa, len - i);
            std::memcpy(tailB, pb, len - i);
            pa = tailA;
            pb = tailB;
        }
        __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i *>(pa));
        __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i *>(pb));
        if constexpr (D == Domain::Clamp) {
            va = _mm_min_epi8(_mm_max_epi8(va, kLo), kHi);
            vb = _mm_min_epi8(_mm_max_epi8(vb, kLo), kHi);
        } else if constexpr (D == Domain::Strict) {
            const __m128i bad = _mm_or_si128(
                _mm_or_si128(_mm_cmplt_epi8(va, kLo),
                             _mm_cmpgt_epi8(va, kHi)),
                _mm_or_si128(_mm_cmplt_epi8(vb, kLo),
                             _mm_cmpgt_epi8(vb, kHi)));
            if (!_mm_testz_si128(bad, bad))
                break;
        }

        const __m128i a0 = _mm_cvtepi8_epi16(va);
        const __m128i a1 = _mm_cvtepi8_epi16(_mm_srli_si128(va, 8));
        const __m128i b0 = _mm_cvtepi8_epi16(vb);
        const __m128i b1 = _mm_cvtepi8_epi16(_mm_srli_si128(vb, 8));
        accP = _mm_add_epi32(accP, _mm_madd_epi16(a0, b0));
        accP = _mm_add_epi32(accP, _mm_madd_epi16(a1, b1));

        __m128i ca, cb;
        BFREE_CLASSIFY_128(va, ca);
        BFREE_CLASSIFY_128(vb, cb);
        sP = _mm_add_epi16(
            sP, _mm_maddubs_epi16(_mm_shuffle_epi8(kFP, ca),
                                  _mm_shuffle_epi8(kFP, cb)));
        sO = _mm_add_epi16(
            sO, _mm_maddubs_epi16(_mm_shuffle_epi8(kFO, ca),
                                  _mm_shuffle_epi8(kFO, cb)));
        sL = _mm_add_epi16(
            sL, _mm_maddubs_epi16(_mm_shuffle_epi8(kFL, ca),
                                  _mm_shuffle_epi8(kFL, cb)));
        sZ = _mm_add_epi16(
            sZ, _mm_maddubs_epi16(_mm_shuffle_epi8(kFZ, ca),
                                  _mm_shuffle_epi8(kFZ, cb)));
        if (++sinceSpill == sep_spill_block)
            BFREE_SEP_SPILL_128();
    }
    BFREE_SEP_SPILL_128();
#undef BFREE_SEP_SPILL_128
    fold_features(f, t.cyclesFactor(), s);
    std::uint32_t acc = static_cast<std::uint32_t>(hsum_u32x4(accP));
    if (i < len) // a Strict block held an out-of-domain operand
        scalar_range(t, a, b, i, len, false, true, acc, s);
    s.acc = static_cast<std::int32_t>(acc);
    return s;
}

/** The histogram span kernel of the x86 @p level, for domain @p D. */
template <Domain D>
SpanSums
span_hist(sim::SimdLevel level, const lut::DatapathTable &t,
          const std::int8_t *a, const std::int8_t *b, std::size_t len)
{
    if (sim::has_avx512(level))
        return span_avx512_hist<D>(t, a, b, len);
    if (level == sim::SimdLevel::Avx2)
        return span_avx2_hist<D>(t, a, b, len);
    return span_sse42_hist<D>(t, a, b, len);
}

// ---------------------------------------------------------------------
// Tile kernels: class-feature column sums and the int8 GEMM blocks
// ---------------------------------------------------------------------

/**
 * Rows per u8 feature-accumulator block in the vector feature-sum
 * kernels: a feature is at most 2, so 127 rows keep every byte lane
 * <= 254 before it is spilled into the u32 column sums.
 */
constexpr std::size_t feature_spill_rows = 127;

/**
 * Prefetch distance of the feature-sum kernels along each row. A row
 * block reads feature_spill_rows rows side by side, too many streams
 * for the hardware prefetcher; fetching each row a few vectors ahead
 * halves the frozen fc6 feature freeze (4096 x 25088, AVX-512).
 */
constexpr std::size_t feature_prefetch = 256;

/** Add @p width u8 partial column sums per feature (lane-major rows of
 *  a 64-byte block buffer) into the u32 column sums at column c0. */
void
spill_feature_bytes(const std::uint8_t (*buf)[64], std::size_t width,
                    std::size_t k, std::size_t c0, std::uint32_t *sums)
{
    for (std::size_t f = 0; f < feature_count; ++f)
        for (std::size_t lane = 0; lane < width; ++lane)
            sums[f * k + c0 + lane] += buf[f][lane];
}

/**
 * Tail-lane masks for the overlapping-load GEMM tails: the 16 (8)
 * bytes at tail_mask_bytes + rem (+ 8 + rem) zero the leading lanes
 * and keep the last rem lanes.
 */
alignas(32) constexpr std::int8_t tail_mask_bytes[32] = {
    0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1};

/**
 * Class-feature column sums, 32 columns per block: the rows of a block
 * run through BFREE_CLASSIFY_256 into four u8 feature accumulators,
 * spilled every feature_spill_rows rows, and into a running per-lane
 * min and max for the range word. A ragged last block loads each row
 * through a zero-filled copy; zero bytes are class 0, whose features
 * are all 0, and the range includes 0 anyway.
 */
__attribute__((target("avx2"))) void
feature_sums_avx2(const std::int8_t *tile, std::size_t rows,
                  std::size_t k, std::uint32_t *sums)
{
    std::fill(sums, sums + feature_count * k, 0u);
    BFREE_CLASSIFY_CONSTS_256;
    BFREE_FEATURE_CONSTS_256;
    alignas(32) std::uint8_t buf[feature_count][64];
    __m256i vlo = _mm256_setzero_si256(), vhi = vlo;
    // Only the ragged last column block copies through it; its bytes
    // past width stay zero for every row.
    alignas(32) std::int8_t tail[32] = {};
    // Row blocks outermost: one block's rows stay TLB- and
    // cache-resident across its column blocks, which a tall frozen
    // weight tile (fc6: 4096 rows 25 KB apart) needs.
    for (std::size_t r0 = 0; r0 < rows; r0 += feature_spill_rows) {
        const std::size_t r1 = std::min(rows, r0 + feature_spill_rows);
        for (std::size_t c0 = 0; c0 < k; c0 += 32) {
            const std::size_t width = std::min<std::size_t>(32, k - c0);
            __m256i fp = _mm256_setzero_si256();
            __m256i fo = fp, fl = fp, fz = fp;
            for (std::size_t r = r0; r < r1; ++r) {
                const std::int8_t *src = tile + r * k + c0;
                _mm_prefetch(reinterpret_cast<const char *>(
                                 src + feature_prefetch),
                             _MM_HINT_T0);
                if (width < 32) {
                    std::memcpy(tail, src, width);
                    src = tail;
                }
                const __m256i v = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(src));
                vlo = _mm256_min_epi8(vlo, v);
                vhi = _mm256_max_epi8(vhi, v);
                __m256i cls;
                BFREE_CLASSIFY_256(v, cls);
                fp = _mm256_add_epi8(fp, _mm256_shuffle_epi8(kFP, cls));
                fo = _mm256_add_epi8(fo, _mm256_shuffle_epi8(kFO, cls));
                fl = _mm256_add_epi8(fl, _mm256_shuffle_epi8(kFL, cls));
                fz = _mm256_add_epi8(fz, _mm256_shuffle_epi8(kFZ, cls));
            }
            _mm256_store_si256(reinterpret_cast<__m256i *>(buf[0]), fp);
            _mm256_store_si256(reinterpret_cast<__m256i *>(buf[1]), fo);
            _mm256_store_si256(reinterpret_cast<__m256i *>(buf[2]), fl);
            _mm256_store_si256(reinterpret_cast<__m256i *>(buf[3]), fz);
            spill_feature_bytes(buf, width, k, c0, sums);
        }
    }
    alignas(32) std::int8_t lo[32], hi[32];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lo), vlo);
    _mm256_store_si256(reinterpret_cast<__m256i *>(hi), vhi);
    sums[feature_count * k] = pack_range(lo, hi, 32);
}

/** The 16-column SSE4.2 form of feature_sums_avx2. */
__attribute__((target("sse4.2"))) void
feature_sums_sse42(const std::int8_t *tile, std::size_t rows,
                   std::size_t k, std::uint32_t *sums)
{
    std::fill(sums, sums + feature_count * k, 0u);
    BFREE_CLASSIFY_CONSTS_128;
    BFREE_FEATURE_CONSTS_128;
    alignas(16) std::uint8_t buf[feature_count][64];
    __m128i vlo = _mm_setzero_si128(), vhi = vlo;
    // Only the ragged last column block copies through it; its bytes
    // past width stay zero for every row.
    alignas(16) std::int8_t tail[16] = {};
    // Row blocks outermost: one block's rows stay TLB- and
    // cache-resident across its column blocks, which a tall frozen
    // weight tile (fc6: 4096 rows 25 KB apart) needs.
    for (std::size_t r0 = 0; r0 < rows; r0 += feature_spill_rows) {
        const std::size_t r1 = std::min(rows, r0 + feature_spill_rows);
        for (std::size_t c0 = 0; c0 < k; c0 += 16) {
            const std::size_t width = std::min<std::size_t>(16, k - c0);
            __m128i fp = _mm_setzero_si128();
            __m128i fo = fp, fl = fp, fz = fp;
            for (std::size_t r = r0; r < r1; ++r) {
                const std::int8_t *src = tile + r * k + c0;
                _mm_prefetch(reinterpret_cast<const char *>(
                                 src + feature_prefetch),
                             _MM_HINT_T0);
                if (width < 16) {
                    std::memcpy(tail, src, width);
                    src = tail;
                }
                const __m128i v = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(src));
                vlo = _mm_min_epi8(vlo, v);
                vhi = _mm_max_epi8(vhi, v);
                __m128i cls;
                BFREE_CLASSIFY_128(v, cls);
                fp = _mm_add_epi8(fp, _mm_shuffle_epi8(kFP, cls));
                fo = _mm_add_epi8(fo, _mm_shuffle_epi8(kFO, cls));
                fl = _mm_add_epi8(fl, _mm_shuffle_epi8(kFL, cls));
                fz = _mm_add_epi8(fz, _mm_shuffle_epi8(kFZ, cls));
            }
            _mm_store_si128(reinterpret_cast<__m128i *>(buf[0]), fp);
            _mm_store_si128(reinterpret_cast<__m128i *>(buf[1]), fo);
            _mm_store_si128(reinterpret_cast<__m128i *>(buf[2]), fl);
            _mm_store_si128(reinterpret_cast<__m128i *>(buf[3]), fz);
            spill_feature_bytes(buf, width, k, c0, sums);
        }
    }
    alignas(16) std::int8_t lo[16], hi[16];
    _mm_store_si128(reinterpret_cast<__m128i *>(lo), vlo);
    _mm_store_si128(reinterpret_cast<__m128i *>(hi), vhi);
    sums[feature_count * k] = pack_range(lo, hi, 16);
}

/** out[j] += r[j] for the four int32 lanes of @p r, mod 2^32. */
__attribute__((target("sse4.2"), always_inline)) inline void
add_lanes4(std::int32_t *out, __m128i r)
{
    _mm_storeu_si128(
        reinterpret_cast<__m128i *>(out),
        _mm_add_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i *>(out)),
                      r));
}

/**
 * Tail loads of the 256-bit and 128-bit GEMM blocks. With k >= W the
 * last W bytes of a row are loaded (overlapping the previous step) and
 * the activation side zeroes the lanes already counted, so the
 * products of those lanes vanish whatever the weight side holds.
 * Shorter rows go through a zero-filled copy.
 */
__attribute__((target("avx2"), always_inline)) inline __m256i
gemm_tail_avx2(const std::int8_t *row, std::size_t k, std::size_t rem,
               bool maskLeading)
{
    if (k < 16) {
        alignas(16) std::int8_t buf[16] = {};
        std::memcpy(buf, row, k);
        return _mm256_cvtepi8_epi16(
            _mm_load_si128(reinterpret_cast<const __m128i *>(buf)));
    }
    __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(row + k - 16));
    if (maskLeading)
        v = _mm_and_si128(v, _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                                 tail_mask_bytes + rem)));
    return _mm256_cvtepi8_epi16(v);
}

/** AVX2 GEMM block: 16 k per step, int8 -> int16 widen, madd. */
template <int MR, int NR>
struct GemmAvx2
{
    __attribute__((target("avx2"))) static void
    run(const std::int8_t *a, const std::int8_t *b, std::size_t k,
        std::int32_t *out, std::size_t rs, const std::int32_t *)
    {
        __m256i acc[MR][NR];
        #pragma GCC unroll 4
        for (int i = 0; i < MR; ++i)
            #pragma GCC unroll 4
            for (int j = 0; j < NR; ++j)
                acc[i][j] = _mm256_setzero_si256();
        std::size_t p = 0;
        for (; p + 16 <= k; p += 16) {
            __m256i va[MR];
            #pragma GCC unroll 4
            for (int i = 0; i < MR; ++i)
                va[i] = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(a + i * k + p)));
            #pragma GCC unroll 4
            for (int j = 0; j < NR; ++j) {
                const __m256i vb = _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(b + j * k + p)));
                #pragma GCC unroll 4
                for (int i = 0; i < MR; ++i)
                    acc[i][j] = _mm256_add_epi32(
                        acc[i][j], _mm256_madd_epi16(va[i], vb));
            }
        }
        if (p < k) {
            const std::size_t rem = k - p;
            __m256i va[MR];
            #pragma GCC unroll 4
            for (int i = 0; i < MR; ++i)
                va[i] = gemm_tail_avx2(a + i * k, k, rem, true);
            #pragma GCC unroll 4
            for (int j = 0; j < NR; ++j) {
                const __m256i vb = gemm_tail_avx2(b + j * k, k, rem, false);
                #pragma GCC unroll 4
                for (int i = 0; i < MR; ++i)
                    acc[i][j] = _mm256_add_epi32(
                        acc[i][j], _mm256_madd_epi16(va[i], vb));
            }
        }
        #pragma GCC unroll 4
        for (int i = 0; i < MR; ++i) {
            std::int32_t *o = out + i * rs;
            if constexpr (NR == 4) {
                const __m256i h = _mm256_hadd_epi32(
                    _mm256_hadd_epi32(acc[i][0], acc[i][1]),
                    _mm256_hadd_epi32(acc[i][2], acc[i][3]));
                add_lanes4(o, _mm_add_epi32(_mm256_castsi256_si128(h),
                                            _mm256_extracti128_si256(h, 1)));
            } else {
                #pragma GCC unroll 4
                for (int j = 0; j < NR; ++j)
                    o[j] = static_cast<std::int32_t>(
                        static_cast<std::uint32_t>(o[j])
                        + wsum_u32x8(acc[i][j]));
            }
        }
    }
};

/** The 8-byte-step SSE4.2 tail load (see gemm_tail_avx2). */
__attribute__((target("sse4.2"), always_inline)) inline __m128i
gemm_tail_sse42(const std::int8_t *row, std::size_t k, std::size_t rem,
                bool maskLeading)
{
    if (k < 8) {
        alignas(16) std::int8_t buf[16] = {};
        std::memcpy(buf, row, k);
        return _mm_cvtepi8_epi16(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(buf)));
    }
    __m128i v =
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(row + k - 8));
    if (maskLeading)
        v = _mm_and_si128(v, _mm_loadl_epi64(reinterpret_cast<const __m128i *>(
                                 tail_mask_bytes + 8 + rem)));
    return _mm_cvtepi8_epi16(v);
}

/** SSE4.2 GEMM block: 8 k per step. */
template <int MR, int NR>
struct GemmSse42
{
    __attribute__((target("sse4.2"))) static void
    run(const std::int8_t *a, const std::int8_t *b, std::size_t k,
        std::int32_t *out, std::size_t rs, const std::int32_t *)
    {
        __m128i acc[MR][NR];
        #pragma GCC unroll 4
        for (int i = 0; i < MR; ++i)
            #pragma GCC unroll 4
            for (int j = 0; j < NR; ++j)
                acc[i][j] = _mm_setzero_si128();
        std::size_t p = 0;
        for (; p + 8 <= k; p += 8) {
            __m128i va[MR];
            #pragma GCC unroll 4
            for (int i = 0; i < MR; ++i)
                va[i] = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(a + i * k + p)));
            #pragma GCC unroll 4
            for (int j = 0; j < NR; ++j) {
                const __m128i vb = _mm_cvtepi8_epi16(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(b + j * k + p)));
                #pragma GCC unroll 4
                for (int i = 0; i < MR; ++i)
                    acc[i][j] = _mm_add_epi32(acc[i][j],
                                              _mm_madd_epi16(va[i], vb));
            }
        }
        if (p < k) {
            const std::size_t rem = k - p;
            __m128i va[MR];
            #pragma GCC unroll 4
            for (int i = 0; i < MR; ++i)
                va[i] = gemm_tail_sse42(a + i * k, k, rem, true);
            #pragma GCC unroll 4
            for (int j = 0; j < NR; ++j) {
                const __m128i vb = gemm_tail_sse42(b + j * k, k, rem, false);
                #pragma GCC unroll 4
                for (int i = 0; i < MR; ++i)
                    acc[i][j] = _mm_add_epi32(acc[i][j],
                                              _mm_madd_epi16(va[i], vb));
            }
        }
        #pragma GCC unroll 4
        for (int i = 0; i < MR; ++i) {
            std::int32_t *o = out + i * rs;
            if constexpr (NR == 4) {
                add_lanes4(o, _mm_hadd_epi32(
                                  _mm_hadd_epi32(acc[i][0], acc[i][1]),
                                  _mm_hadd_epi32(acc[i][2], acc[i][3])));
            } else {
                #pragma GCC unroll 4
                for (int j = 0; j < NR; ++j) {
                    const __m128i h = _mm_hadd_epi32(acc[i][j], acc[i][j]);
                    o[j] = static_cast<std::int32_t>(
                        static_cast<std::uint32_t>(o[j])
                        + static_cast<std::uint32_t>(_mm_cvtsi128_si32(
                            _mm_hadd_epi32(h, h))));
                }
            }
        }
    }
};

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

/** The 64-column AVX-512 form of feature_sums_avx2: the ragged last
 *  block uses zero-masked loads instead of a copy. */
__attribute__((target("avx512f,avx512bw,avx512vl"))) void
feature_sums_avx512(const std::int8_t *tile, std::size_t rows,
                    std::size_t k, std::uint32_t *sums)
{
    std::fill(sums, sums + feature_count * k, 0u);
    BFREE_CLASSIFY_CONSTS_512;
    BFREE_FEATURE_CONSTS_512;
    alignas(64) std::uint8_t buf[feature_count][64];
    __m512i vlo = _mm512_setzero_si512(), vhi = vlo;
    // Row blocks outermost: one block's rows stay TLB- and
    // cache-resident across its column blocks, which a tall frozen
    // weight tile (fc6: 4096 rows 25 KB apart) needs.
    for (std::size_t r0 = 0; r0 < rows; r0 += feature_spill_rows) {
        const std::size_t r1 = std::min(rows, r0 + feature_spill_rows);
        for (std::size_t c0 = 0; c0 < k; c0 += 64) {
            const std::size_t width = std::min<std::size_t>(64, k - c0);
            const __mmask64 mask = width == 64
                                       ? ~__mmask64{0}
                                       : (__mmask64{1} << width) - 1;
            __m512i fp = _mm512_setzero_si512();
            __m512i fo = fp, fl = fp, fz = fp;
            for (std::size_t r = r0; r < r1; ++r) {
                _mm_prefetch(reinterpret_cast<const char *>(
                                 tile + r * k + c0 + feature_prefetch),
                             _MM_HINT_T0);
                const __m512i v =
                    _mm512_maskz_loadu_epi8(mask, tile + r * k + c0);
                vlo = _mm512_min_epi8(vlo, v);
                vhi = _mm512_max_epi8(vhi, v);
                __m512i cls;
                BFREE_CLASSIFY_512(v, cls);
                fp = _mm512_add_epi8(fp, _mm512_shuffle_epi8(kFP, cls));
                fo = _mm512_add_epi8(fo, _mm512_shuffle_epi8(kFO, cls));
                fl = _mm512_add_epi8(fl, _mm512_shuffle_epi8(kFL, cls));
                fz = _mm512_add_epi8(fz, _mm512_shuffle_epi8(kFZ, cls));
            }
            _mm512_store_si512(buf[0], fp);
            _mm512_store_si512(buf[1], fo);
            _mm512_store_si512(buf[2], fl);
            _mm512_store_si512(buf[3], fz);
            spill_feature_bytes(buf, width, k, c0, sums);
        }
    }
    alignas(64) std::int8_t lo[64], hi[64];
    _mm512_store_si512(lo, vlo);
    _mm512_store_si512(hi, vhi);
    sums[feature_count * k] = pack_range(lo, hi, 64);
}

/**
 * Add the MR x NR int32 lane accumulators of a 512-bit GEMM block,
 * each reduced across its 16 lanes, into the output block (mod 2^32),
 * element (i, j) at out[i * rs + j]. With @p bSums (the VNNI block's
 * weight row sums), 128 * bSums[j] comes off every column j in the
 * same add.
 */
template <int MR, int NR>
__attribute__((target("avx512f,avx512bw,avx512vl"), always_inline)) inline void
store_block_512(const __m512i (&acc)[MR][NR], std::int32_t *out,
                std::size_t rs, const std::int32_t *bSums = nullptr)
{
    if constexpr (NR == 4) {
        __m128i r[MR];
        #pragma GCC unroll 4
        for (int i = 0; i < MR; ++i) {
            __m256i y[4];
            #pragma GCC unroll 4
            for (int j = 0; j < 4; ++j)
                y[j] = _mm256_add_epi32(
                    _mm512_castsi512_si256(acc[i][j]),
                    _mm512_extracti64x4_epi64(acc[i][j], 1));
            const __m256i h =
                _mm256_hadd_epi32(_mm256_hadd_epi32(y[0], y[1]),
                                  _mm256_hadd_epi32(y[2], y[3]));
            r[i] = _mm_add_epi32(_mm256_castsi256_si128(h),
                                 _mm256_extracti128_si256(h, 1));
            if (bSums != nullptr)
                r[i] = _mm_sub_epi32(
                    r[i], _mm_slli_epi32(
                              _mm_loadu_si128(
                                  reinterpret_cast<const __m128i *>(bSums)),
                              7));
        }
        #pragma GCC unroll 4
        for (int i = 0; i < MR; ++i)
            add_lanes4(out + i * rs, r[i]);
    } else {
        #pragma GCC unroll 4
        for (int i = 0; i < MR; ++i) {
            std::int32_t *o = out + i * rs;
            #pragma GCC unroll 4
            for (int j = 0; j < NR; ++j)
                o[j] = static_cast<std::int32_t>(
                    static_cast<std::uint32_t>(o[j])
                    + static_cast<std::uint32_t>(
                        _mm512_reduce_add_epi32(acc[i][j]))
                    - (bSums != nullptr
                           ? static_cast<std::uint32_t>(bSums[j]) << 7
                           : 0u));
        }
    }
}

/**
 * AVX-512 GEMM block: 32 k per step, each 256-bit int8 load widened to
 * 32 int16 lanes; the ragged tail uses zero-masked loads on both
 * operands, so nothing past a row is read.
 */
template <int MR, int NR>
struct GemmAvx512
{
    __attribute__((target("avx512f,avx512bw,avx512vl"))) static void
    run(const std::int8_t *a, const std::int8_t *b, std::size_t k,
        std::int32_t *out, std::size_t rs, const std::int32_t *)
    {
        __m512i acc[MR][NR];
        #pragma GCC unroll 4
        for (int i = 0; i < MR; ++i)
            #pragma GCC unroll 4
            for (int j = 0; j < NR; ++j)
                acc[i][j] = _mm512_setzero_si512();
        for (std::size_t p = 0; p < k; p += 32) {
            const __mmask32 mask =
                k - p >= 32 ? ~__mmask32{0}
                            : (__mmask32{1} << (k - p)) - 1;
            __m512i va[MR];
            #pragma GCC unroll 4
            for (int i = 0; i < MR; ++i)
                va[i] = _mm512_cvtepi8_epi16(
                    _mm256_maskz_loadu_epi8(mask, a + i * k + p));
            #pragma GCC unroll 4
            for (int j = 0; j < NR; ++j) {
                const __m512i vb = _mm512_cvtepi8_epi16(
                    _mm256_maskz_loadu_epi8(mask, b + j * k + p));
                #pragma GCC unroll 4
                for (int i = 0; i < MR; ++i)
                    acc[i][j] = _mm512_add_epi32(
                        acc[i][j], _mm512_madd_epi16(va[i], vb));
            }
        }
        store_block_512<MR, NR>(acc, out, rs);
    }
};

/**
 * AVX512-VNNI GEMM block: 64 k per step through vpdpbusd, which
 * multiplies unsigned by signed bytes. The activation side is flipped
 * with ^ 0x80, i.e. read as the u8 a + 128, so each lane accumulates
 * (a + 128) * w, and the store takes 128 * rowsum(w) back off with the
 * weight row sums @p bSums. Ragged tails take zero-masked loads on both
 * sides: a masked activation lane flips to 128 but meets a zero weight
 * lane, so it adds nothing.
 */
template <int MR, int NR>
struct GemmVnni
{
    template <bool Tail>
    __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"),
                   always_inline)) static inline void
    step(__m512i (&acc)[MR][NR], const std::int8_t *a, const std::int8_t *b,
         std::size_t k, __mmask64 mask)
    {
        const __m512i flip = _mm512_set1_epi8(static_cast<char>(0x80));
        __m512i va[MR];
        #pragma GCC unroll 4
        for (int i = 0; i < MR; ++i)
            va[i] = _mm512_xor_si512(
                Tail ? _mm512_maskz_loadu_epi8(mask, a + i * k)
                     : _mm512_loadu_si512(a + i * k),
                flip);
        #pragma GCC unroll 4
        for (int j = 0; j < NR; ++j) {
            const __m512i vb = Tail
                                   ? _mm512_maskz_loadu_epi8(mask, b + j * k)
                                   : _mm512_loadu_si512(b + j * k);
            #pragma GCC unroll 4
            for (int i = 0; i < MR; ++i)
                acc[i][j] = _mm512_dpbusd_epi32(acc[i][j], va[i], vb);
        }
    }

    __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni"))) static void
    run(const std::int8_t *a, const std::int8_t *b, std::size_t k,
        std::int32_t *out, std::size_t rs, const std::int32_t *bSums)
    {
        __m512i acc[MR][NR];
        #pragma GCC unroll 4
        for (int i = 0; i < MR; ++i)
            #pragma GCC unroll 4
            for (int j = 0; j < NR; ++j)
                acc[i][j] = _mm512_setzero_si512();
        std::size_t p = 0;
        for (; p + 64 <= k; p += 64)
            step<false>(acc, a + p, b + p, k, 0);
        if (p < k)
            step<true>(acc, a + p, b + p, k, (__mmask64{1} << (k - p)) - 1);
        store_block_512<MR, NR>(acc, out, rs, bSums);
    }
};

/** AVX-512 weight_row_sums: sad_epu8 over the bytes flipped to u8. */
__attribute__((target("avx512f,avx512bw,avx512vl"))) void
row_sums_avx512(const std::int8_t *tile, std::size_t rows, std::size_t k,
                std::int32_t *sums)
{
    const __m512i flip = _mm512_set1_epi8(static_cast<char>(0x80));
    const __m512i zero = _mm512_setzero_si512();
    const __mmask64 tail =
        k % 64 == 0 ? ~__mmask64{0} : (__mmask64{1} << (k % 64)) - 1;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::int8_t *row = tile + r * k;
        __m512i acc = zero;
        std::size_t p = 0;
        for (; p + 64 <= k; p += 64)
            acc = _mm512_add_epi64(
                acc, _mm512_sad_epu8(
                         _mm512_xor_si512(_mm512_loadu_si512(row + p),
                                          flip),
                         zero));
        // Zero-masked lanes flip to 128 like loaded ones, so every lane
        // of every step is biased by 128 and the steps * 64 * 128 bias
        // comes off in one subtraction.
        if (p < k)
            acc = _mm512_add_epi64(
                acc, _mm512_sad_epu8(
                         _mm512_xor_si512(
                             _mm512_maskz_loadu_epi8(tail, row + p), flip),
                         zero));
        const std::uint64_t biased =
            static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
        sums[r] = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(biased - 128 * ((k + 63) / 64 * 64)));
    }
}

/** The first @p rem (<= 16) lanes. */
inline __mmask16
lanes16(std::size_t rem)
{
    return rem >= 16 ? __mmask16(0xFFFF)
                     : static_cast<__mmask16>((1u << rem) - 1);
}

#if defined(__x86_64__)

/**
 * The AMX core's tile palette: all eight tiles 16 rows x 64 bytes.
 * tmm0-3 are a 2x2 block's int32 C tiles (row tile, panel) = (0, 0),
 * (0, 1), (1, 0), (1, 1); tmm4-5 its two patch tiles; tmm6-7 its two
 * panel tiles. It lives in constant data because the ldtilecfg
 * intrinsic declares only the first bytes of its operand as read, so
 * a config filled on the stack could lose its stores.
 */
struct alignas(64) TileConfig
{
    std::uint8_t palette;
    std::uint8_t startRow;
    std::uint8_t reserved[14];
    std::uint16_t colsb[16];
    std::uint8_t rows[16];
};

constexpr TileConfig
amx_tile_config()
{
    TileConfig c{};
    c.palette = 1;
    for (int t = 0; t < 8; ++t) {
        c.colsb[t] = panel_k_step;
        c.rows[t] = panel_width;
    }
    return c;
}

alignas(64) constexpr TileConfig amx_config = amx_tile_config();

/**
 * One block of MR row tiles x NR panels over every K step: the patch
 * tiles of output positions [0, 16 MR) read at @p a + ky *
 * @p groupStride + 64 j, tile row stride @p stride, for kernel rows
 * ky < @p groups and steps j < @p groupSteps, against the panel @p b
 * (and the next panel, @p panelStride bytes on); tiles stored to
 * c[2 r + p]. Row bytes past a group's run meet the panel's zero
 * k-quads; rows past the caller's m are computed and never stored.
 */
template <int MR, int NR>
__attribute__((target("amx-tile,amx-int8"))) inline void
amx_block(const std::int8_t *a, std::size_t stride, std::size_t groups,
          std::size_t groupStride, std::size_t groupSteps,
          const std::int8_t *b, std::size_t panelStride,
          std::int32_t (*c)[panel_width * panel_width])
{
    _tile_zero(0);
    if constexpr (NR == 2)
        _tile_zero(1);
    if constexpr (MR == 2)
        _tile_zero(2);
    if constexpr (MR == 2 && NR == 2)
        _tile_zero(3);
    const std::size_t a1 = panel_width * stride;
    const std::int8_t *bs = b;
    for (std::size_t y = 0; y < groups; ++y, a += groupStride) {
        for (std::size_t j = 0; j < groupSteps;
             ++j, bs += panel_block_bytes) {
            const std::int8_t *as = a + j * panel_k_step;
            _tile_loadd(4, as, stride);
            _tile_loadd(6, bs, panel_k_step);
            _tile_dpbssd(0, 4, 6);
            if constexpr (NR == 2) {
                _tile_loadd(7, bs + panelStride, panel_k_step);
                _tile_dpbssd(1, 4, 7);
            }
            if constexpr (MR == 2) {
                _tile_loadd(5, as + a1, stride);
                _tile_dpbssd(2, 5, 6);
            }
            if constexpr (MR == 2 && NR == 2)
                _tile_dpbssd(3, 5, 7);
        }
    }
    constexpr long cStride = panel_width * sizeof(std::int32_t);
    _tile_stored(0, c[0], cStride);
    if constexpr (NR == 2)
        _tile_stored(1, c[1], cStride);
    if constexpr (MR == 2)
        _tile_stored(2, c[2], cStride);
    if constexpr (MR == 2 && NR == 2)
        _tile_stored(3, c[3], cStride);
}

/**
 * Add rows [0, rows) x columns [0, cols) of the 16 x 16 int32 tile
 * @p c into the output, element (r, j) at out[r * rs + j], mod 2^32:
 * one masked row add per row.
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) void
amx_add_tile(const std::int32_t *c, std::size_t rows, std::size_t cols,
             std::int32_t *out, std::size_t rs)
{
    const __mmask16 m = lanes16(cols);
    for (std::size_t r = 0; r < rows; ++r) {
        std::int32_t *o = out + r * rs;
        _mm512_mask_storeu_epi32(
            o, m,
            _mm512_add_epi32(_mm512_maskz_loadu_epi32(m, o),
                             _mm512_load_si512(c + r * panel_width)));
    }
}

/**
 * AMX-INT8 conv row over a B panel (pack_panel): 2x2 blocks of 16 x 16
 * tiles, one tdpbssd per tile per 64-byte step of every kernel row,
 * the patch tiles loaded straight from the plane row @p top (that of
 * kernel row 0) at stride sW * C. tdpbssd multiplies s8 by s8 into
 * int32 lanes that wrap like the other cores, so no bias or row sums
 * are involved. The tile config is loaded and released on every call:
 * each pool thread owns its tile state only for the call.
 */
__attribute__((target("amx-tile,amx-int8,avx512f,avx512bw,avx512vl"))) void
conv_row_amx(const ConvRows &g, const std::int8_t *top,
             const std::int8_t *panel, std::int32_t *out)
{
    const std::size_t m = g.outW;
    const std::size_t n = g.filters;
    const std::size_t kh = g.kernelH, rb = g.rowBytes;
    const std::size_t stride = g.strideW * g.channels;
    const std::size_t steps = g.groupSteps();
    const std::size_t panels = (n + panel_width - 1) / panel_width;
    const std::size_t panelStride = kh * steps * panel_block_bytes;
    alignas(64) std::int32_t c[4][panel_width * panel_width];
    // The tile loads are asm without memory operands: keep every store
    // to the operands ahead of them.
    __asm__ volatile("" ::: "memory");
    _tile_loadconfig(&amx_config);
    for (std::size_t jp = 0; jp < panels; jp += 2) {
        const bool twoPanels = jp + 1 < panels;
        const std::int8_t *b = panel + jp * panelStride;
        for (std::size_t i = 0; i < m; i += 2 * panel_width) {
            const bool twoRows = i + panel_width < m;
            const std::int8_t *ai = top + i * stride;
            if (twoRows && twoPanels)
                amx_block<2, 2>(ai, stride, kh, rb, steps, b, panelStride, c);
            else if (twoRows)
                amx_block<2, 1>(ai, stride, kh, rb, steps, b, panelStride, c);
            else if (twoPanels)
                amx_block<1, 2>(ai, stride, kh, rb, steps, b, panelStride, c);
            else
                amx_block<1, 1>(ai, stride, kh, rb, steps, b, panelStride, c);
            for (std::size_t rt = 0; rt < (twoRows ? 2u : 1u); ++rt) {
                const std::size_t r0 = i + rt * panel_width;
                for (std::size_t pb = 0; pb < (twoPanels ? 2u : 1u); ++pb) {
                    const std::size_t j0 = (jp + pb) * panel_width;
                    amx_add_tile(c[2 * rt + pb],
                                 std::min(panel_width, m - r0),
                                 std::min(panel_width, n - j0),
                                 out + r0 * n + j0, n);
                }
            }
        }
    }
    _tile_release();
}

#endif // __x86_64__

#pragma GCC diagnostic pop

#endif // BFREE_X86_KERNELS

#ifdef __ARM_NEON

/**
 * NEON variant: 8 pairs per step through a widening vmull_s8 (an
 * int8 x int8 product always fits int16, |p| <= 2^14), pairwise
 * accumulated into int32 lanes. Deltas are fetched scalar (no
 * gather). Clamp/strict/poisoned-table shapes delegate to the scalar
 * loop — they are either the 4-bit niche or the post-rewrite reseed
 * window, never the steady state.
 */
SpanSums
span_neon(const lut::DatapathTable &t, const std::int8_t *a,
          const std::int8_t *b, std::size_t len, bool clamp, bool strict)
{
    if (t.bits() != 8 || !t.productsExact() || clamp || strict)
        return span_scalar(t, a, b, len, clamp, strict);

    SpanSums s;
    const std::int32_t half = t.half();
    const std::uint32_t span = t.span();
    const std::uint32_t *delta = t.deltas();

    int32x4_t accP = vdupq_n_s32(0);
    std::uint32_t acc = 0;
    TallyBlock tb;

    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        const int8x8_t vw = vld1_s8(a + i);
        const int8x8_t vx = vld1_s8(b + i);
        accP = vpadalq_s16(accP, vmull_s8(vw, vx));
        for (unsigned j = 0; j < 8; ++j) {
            const std::size_t idx =
                static_cast<std::size_t>(a[i + j] + half) * span
                + static_cast<std::size_t>(b[i + j] + half);
            tb.add(delta[idx], s);
        }
    }
    tb.spill(s);
    acc += static_cast<std::uint32_t>(vgetq_lane_s32(accP, 0))
           + static_cast<std::uint32_t>(vgetq_lane_s32(accP, 1))
           + static_cast<std::uint32_t>(vgetq_lane_s32(accP, 2))
           + static_cast<std::uint32_t>(vgetq_lane_s32(accP, 3));

    if (i < len)
        scalar_range(t, a, b, i, len, clamp, strict, acc, s);
    s.acc = static_cast<std::int32_t>(acc);
    return s;
}

#endif // __ARM_NEON

} // namespace

bool
histogram_eligible(const lut::DatapathTable &table)
{
    // The gather-free tally requires the pristine steady state: every
    // product exact (widening multiply legal) and the whole delta
    // plane verified against the class collapse. The operand domain
    // is the caller's obligation.
    return table.productsExact() && table.histogramExact();
}

SpanSums
run_span(const lut::DatapathTable &table, const std::int8_t *a,
         const std::int8_t *b, std::size_t len, SpanSemantics semantics)
{
    if (!table.valid())
        bfree_panic("span kernel dispatched on an unseeded datapath "
                    "table");
    const bool clamp =
        semantics == SpanSemantics::ConvClamp && table.bits() == 4;
    const bool strict =
        semantics == SpanSemantics::MatmulStrict && table.bits() == 4;
    [[maybe_unused]] const sim::SimdLevel level = sim::active_simd_level();

#ifdef BFREE_X86_KERNELS
    // Tables the class collapse does not cover (a poisoned LUT row,
    // the reseed window after a rewrite) run the scalar loop.
    if (level != sim::SimdLevel::Scalar && histogram_eligible(table)) {
        if (clamp)
            return span_hist<Domain::Clamp>(level, table, a, b, len);
        if (strict)
            return span_hist<Domain::Strict>(level, table, a, b, len);
        return span_hist<Domain::Full>(level, table, a, b, len);
    }
#endif
#ifdef __ARM_NEON
    if (level == sim::SimdLevel::Neon)
        return span_neon(table, a, b, len, clamp, strict);
#endif
    return span_scalar(table, a, b, len, clamp, strict);
}

void
class_feature_sums(const std::int8_t *tile, std::size_t rows,
                   std::size_t k, std::uint32_t *sums)
{
#ifdef BFREE_X86_KERNELS
    const sim::SimdLevel level = sim::active_simd_level();
    if (sim::has_avx512(level))
        return feature_sums_avx512(tile, rows, k, sums);
    if (level == sim::SimdLevel::Avx2)
        return feature_sums_avx2(tile, rows, k, sums);
    if (level == sim::SimdLevel::Sse42)
        return feature_sums_sse42(tile, rows, k, sums);
#endif
    feature_sums_scalar(tile, rows, k, sums);
}

bool
features_in_domain(const std::uint32_t *sums, std::size_t k,
                   std::int32_t lo, std::int32_t hi)
{
    const std::uint32_t range = sums[feature_count * k];
    const auto mn = static_cast<std::int8_t>(range & 0xFF);
    const auto mx = static_cast<std::int8_t>((range >> 8) & 0xFF);
    return mn >= lo && mx <= hi;
}

SpanSums
fold_tile_features(const std::uint32_t *fx, const std::uint32_t *fw,
                   std::size_t k, std::uint32_t cyclesFactor,
                   std::size_t fwStride)
{
    const std::size_t ws = fwStride != 0 ? fwStride : k;
    FeatureSums f;
    for (std::size_t c = 0; c < k; ++c) {
        f.p += std::uint64_t{fx[c]} * fw[c];
        f.o += std::uint64_t{fx[k + c]} * fw[ws + c];
        f.l += std::uint64_t{fx[2 * k + c]} * fw[2 * ws + c];
        f.z += std::uint64_t{fx[3 * k + c]} * fw[3 * ws + c];
    }
    SpanSums s;
    fold_features(f, cyclesFactor, s);
    return s;
}

void
weight_row_sums(const std::int8_t *tile, std::size_t rows, std::size_t k,
                std::int32_t *sums)
{
#ifdef BFREE_X86_KERNELS
    if (sim::has_avx512(sim::active_simd_level()))
        return row_sums_avx512(tile, rows, k, sums);
#endif
    row_sums_scalar(tile, rows, k, sums);
}

std::size_t
conv_row_reach(const ConvRows &g)
{
    if (g.outW == 0)
        return 0;
    const std::size_t tileRows =
        (g.outW + panel_width - 1) / panel_width * panel_width;
    return (g.kernelH - 1) * g.rowBytes
           + (tileRows - 1) * g.strideW * g.channels
           + g.groupSteps() * panel_k_step;
}

std::size_t
panel_bytes(std::size_t n, std::size_t groups, std::size_t run)
{
    return (n + panel_width - 1) / panel_width * groups
           * ((run + panel_k_step - 1) / panel_k_step) * panel_block_bytes;
}

void
pack_panel(const std::int8_t *b, std::size_t n, std::size_t groups,
           std::size_t run, std::int8_t *panel)
{
    const std::size_t groupBytes =
        (run + panel_k_step - 1) / panel_k_step * panel_block_bytes;
    std::memset(panel, 0, panel_bytes(n, groups, run));
    // Quad P / 4 of a filter: row (P % 64) / 4 of step P / 64's block.
    const auto quad = [](std::size_t p) {
        return p / panel_k_step * panel_block_bytes
               + p % panel_k_step / 4 * panel_k_step;
    };
    for (std::size_t j = 0; j < n; ++j) {
        std::int8_t *dst = panel + j / panel_width * groups * groupBytes
                           + j % panel_width * 4;
        for (std::size_t y = 0; y < groups; ++y) {
            const std::int8_t *src = b + (j * groups + y) * run;
            std::int8_t *grp = dst + y * groupBytes;
            std::size_t p = 0;
            for (; p + 4 <= run; p += 4)
                std::memcpy(grp + quad(p), src + p, 4);
            for (; p < run; ++p)
                grp[quad(p) + p % 4] = src[p];
        }
    }
}

namespace {

/**
 * Copy @p len bytes. Runs shorter than 16 bytes (a 3x3 kernel over
 * three channels copies 9) take two overlapping fixed-width moves
 * instead of a library call; nothing outside [dst, dst + len) is
 * written or outside [src, src + len) read.
 */
inline void
copy_run(std::int8_t *dst, const std::int8_t *src, std::size_t len)
{
    if (len >= 16) {
        std::memcpy(dst, src, len);
    } else if (len >= 8) {
        std::memcpy(dst, src, 8);
        std::memcpy(dst + len - 8, src + len - 8, 8);
    } else if (len >= 4) {
        std::memcpy(dst, src, 4);
        std::memcpy(dst + len - 4, src + len - 4, 4);
    } else {
        for (std::size_t i = 0; i < len; ++i)
            dst[i] = src[i];
    }
}

} // namespace

void
copy_patch_row(const ConvRows &g, const std::int8_t *plane, std::size_t oh,
               std::int8_t *patches)
{
    const std::size_t run = g.run();
    const std::size_t step = g.strideW * g.channels;
    const std::int8_t *top = plane + oh * g.strideH * g.rowBytes;
    for (std::size_t x = 0; x < g.outW; ++x) {
        const std::int8_t *src = top + x * step;
        for (std::size_t ky = 0; ky < g.kernelH;
             ++ky, src += g.rowBytes, patches += run)
            copy_run(patches, src, run);
    }
}

bool
conv_rows_read_plane(const std::int8_t *bPanel)
{
#if defined(BFREE_X86_KERNELS) && defined(__x86_64__)
    return bPanel != nullptr
           && sim::active_simd_level() == sim::SimdLevel::AmxInt8;
#else
    (void)bPanel;
    return false;
#endif
}

void
conv_row_gemm(const ConvRows &g, const std::int8_t *plane, std::size_t oh,
              const std::int8_t *b, const std::int32_t *bRowSums,
              const std::int8_t *bPanel, std::int8_t *patches,
              std::int32_t *out)
{
#if defined(BFREE_X86_KERNELS) && defined(__x86_64__)
    if (conv_rows_read_plane(bPanel))
        return conv_row_amx(g, plane + oh * g.strideH * g.rowBytes, bPanel,
                            out);
#endif
    copy_patch_row(g, plane, oh, patches);
    gemm_i8(patches, b, out, g.outW, g.k(), g.filters, bRowSums);
}

void
gemm_i8(const std::int8_t *a, const std::int8_t *b, std::int32_t *out,
        std::size_t m, std::size_t k, std::size_t n,
        const std::int32_t *bRowSums, std::size_t rowStride)
{
    const std::size_t rs = rowStride == 0 ? n : rowStride;
    switch (sim::active_simd_level()) {
#ifdef BFREE_X86_KERNELS
      case sim::SimdLevel::AmxInt8:
      case sim::SimdLevel::Avx512Vnni: {
        // (a + 128) * w summed mod 2^32, minus 128 * rowsum(w) mod
        // 2^32, is dot(a, w) mod 2^32: the value gemm_scalar wraps to,
        // whatever the magnitudes.
        std::vector<std::int32_t> ownSums;
        if (bRowSums == nullptr) {
            ownSums.resize(n);
            weight_row_sums(b, n, k, ownSums.data());
            bRowSums = ownSums.data();
        }
        return gemm_blocked<GemmVnni, 4, 4>(a, b, out, m, k, n, rs,
                                            bRowSums);
      }
      case sim::SimdLevel::Avx512:
        return gemm_blocked<GemmAvx512, 4, 4>(a, b, out, m, k, n, rs);
      case sim::SimdLevel::Avx2:
        return gemm_blocked<GemmAvx2, 2, 4>(a, b, out, m, k, n, rs);
      case sim::SimdLevel::Sse42:
        return gemm_blocked<GemmSse42, 2, 4>(a, b, out, m, k, n, rs);
#endif
      default:
        return gemm_scalar(a, b, out, m, k, n, rs);
    }
}

// ---------------------------------------------------------------------
// Q8 epilogue kernels
// ---------------------------------------------------------------------

namespace {

void
relu_q8_scalar(const float *in, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = relu_q8(in[i]);
}

void
dequantize_store_scalar(const std::int32_t *acc, std::size_t n,
                        double wScale, double xScale, const float *bias,
                        std::size_t biasStride, bool relu, float *out)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float y =
            static_cast<float>(acc[i] * wScale * xScale)
            + bias[i * biasStride];
        out[i] = relu ? relu_q8(y) : y;
    }
}

/** One channel of a 2x2 window from its four taps, tap by tap: the
 *  generic pool loop's result for that window. */
inline float
max_window_2x2_scalar(float a, float b, float c, float d)
{
    const std::int32_t best =
        std::max(std::max(q8(a), q8(b)), std::max(q8(c), q8(d)));
    return static_cast<float>(best) / 256.0f;
}

#ifdef BFREE_X86_KERNELS

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

/**
 * q8 of 16 lanes in registers, the scalar q8's in-range branch: scale,
 * truncate, take the exact fraction and step away from zero where
 * |frac| >= 0.5. @p ok receives the lanes inside (-2^31, 2^31); the
 * others (huge, infinite, NaN) hold garbage and need the scalar q8.
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) inline __m512i
q8_512(__m512 x, __mmask16 &ok)
{
    const __m512 f = _mm512_mul_ps(x, _mm512_set1_ps(256.0f));
    ok = _mm512_cmp_ps_mask(_mm512_abs_ps(f),
                            _mm512_set1_ps(2147483648.0f), _CMP_LT_OQ);
    const __m512i t = _mm512_cvttps_epi32(f);
    const __m512 frac = _mm512_sub_ps(f, _mm512_cvtepi32_ps(t));
    const __m512i one = _mm512_set1_epi32(1);
    const __m512i up = _mm512_mask_add_epi32(
        t, _mm512_cmp_ps_mask(frac, _mm512_set1_ps(0.5f), _CMP_GE_OQ), t,
        one);
    return _mm512_mask_sub_epi32(
        up, _mm512_cmp_ps_mask(frac, _mm512_set1_ps(-0.5f), _CMP_LE_OQ),
        up, one);
}

/** Q8 integers back to activations: float(q) / 256 (exact scaling). */
__attribute__((target("avx512f,avx512bw,avx512vl"))) inline __m512
from_q8_512(__m512i q)
{
    return _mm512_mul_ps(_mm512_cvtepi32_ps(q),
                         _mm512_set1_ps(1.0f / 256.0f));
}

/** out[l] = relu_q8(x[l]) for the lanes of @p m. */
__attribute__((target("avx512f,avx512bw,avx512vl"))) inline void
relu_store_512(__m512 x, __mmask16 m, float *out)
{
    __mmask16 ok;
    const __m512i q =
        _mm512_max_epi32(q8_512(x, ok), _mm512_setzero_si512());
    _mm512_mask_storeu_ps(out, m, from_q8_512(q));
    const unsigned slow = m & ~ok;
    if (slow == 0)
        return;
    alignas(64) float xs[16];
    _mm512_store_ps(xs, x);
    for (unsigned l = 0; l < 16; ++l)
        if ((slow >> l) & 1)
            out[l] = relu_q8(xs[l]);
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) void
relu_q8_avx512(const float *in, float *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 m = lanes16(n - i);
        relu_store_512(_mm512_maskz_loadu_ps(m, in + i), m, out + i);
    }
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) void
dequantize_store_avx512(const std::int32_t *acc, std::size_t n,
                        double wScale, double xScale, const float *bias,
                        std::size_t biasStride, bool relu, float *out)
{
    const __m512d ws = _mm512_set1_pd(wScale);
    const __m512d xs = _mm512_set1_pd(xScale);
    for (std::size_t i = 0; i < n; i += 16) {
        const __mmask16 m = lanes16(n - i);
        const __m512i v = _mm512_maskz_loadu_epi32(m, acc + i);
        const __m512d lo = _mm512_mul_pd(
            _mm512_mul_pd(_mm512_cvtepi32_pd(_mm512_castsi512_si256(v)),
                          ws),
            xs);
        const __m512d hi = _mm512_mul_pd(
            _mm512_mul_pd(
                _mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(v, 1)), ws),
            xs);
        const __m512 scaled = _mm512_castsi512_ps(_mm512_inserti64x4(
            _mm512_castsi256_si512(
                _mm256_castps_si256(_mm512_cvtpd_ps(lo))),
            _mm256_castps_si256(_mm512_cvtpd_ps(hi)), 1));
        const __m512 b = biasStride == 0
                             ? _mm512_set1_ps(*bias)
                             : _mm512_maskz_loadu_ps(m, bias + i);
        const __m512 y = _mm512_add_ps(scaled, b);
        if (relu)
            relu_store_512(y, m, out + i);
        else
            _mm512_mask_storeu_ps(out + i, m, y);
    }
}

/** Lanes with |v| < limit (NaN lanes fail). */
__attribute__((target("avx512f,avx512bw,avx512vl"))) inline __mmask16
below_512(__m512 v, __m512 limit)
{
    return _mm512_cmp_ps_mask(_mm512_abs_ps(v), limit, _CMP_LT_OQ);
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) void
max_pool_2x2_avx512(const float *in, std::size_t rows, std::size_t inW,
                    std::size_t channels, float *out)
{
    const std::size_t outW = inW / 2;
    const std::size_t inRow = inW * channels;
    // |x| < 2^23 is |x * 256| < 2^31: q8's in-register range.
    const __m512 limit = _mm512_set1_ps(8388608.0f);
    for (std::size_t oh = 0; oh < rows; ++oh) {
        const float *r0 = in + 2 * oh * inRow;
        const float *r1 = r0 + inRow;
        float *dst = out + oh * outW * channels;
        for (std::size_t ow = 0; ow < outW; ++ow, dst += channels) {
            // The window's four taps are four runs of the channels.
            const float *t0 = r0 + 2 * ow * channels;
            const float *t1 = t0 + channels;
            const float *t2 = r1 + 2 * ow * channels;
            const float *t3 = t2 + channels;
            for (std::size_t c = 0; c < channels; c += 16) {
                const __mmask16 m = lanes16(channels - c);
                const __m512 a = _mm512_maskz_loadu_ps(m, t0 + c);
                const __m512 b = _mm512_maskz_loadu_ps(m, t1 + c);
                const __m512 d = _mm512_maskz_loadu_ps(m, t2 + c);
                const __m512 e = _mm512_maskz_loadu_ps(m, t3 + c);
                if ((below_512(a, limit) & below_512(b, limit)
                     & below_512(d, limit) & below_512(e, limit))
                    != 0xFFFF) {
                    for (std::size_t l = c; l < c + 16 && l < channels; ++l)
                        dst[l] = max_window_2x2_scalar(t0[l], t1[l], t2[l],
                                                       t3[l]);
                    continue;
                }
                const __m512 best =
                    _mm512_max_ps(_mm512_max_ps(a, b), _mm512_max_ps(d, e));
                __mmask16 ok;
                _mm512_mask_storeu_ps(dst + c, m,
                                      from_q8_512(q8_512(best, ok)));
            }
        }
    }
}

/**
 * The PWL span, eight lanes at a time: the oracle's steps lane by
 * lane. The clamp is two compare-and-blends, so a lane takes a bound
 * exactly when std::clamp would (max/min would turn -0.0 into a
 * +0.0 bound). NaN lanes skip the index and the gather and get their
 * input back. The multiply and the add stay two roundings: this file
 * compiles with -ffp-contract=off.
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) void
pwl_span_avx512(const lut::PwlTable &t, const double *in, double *out,
                std::size_t n)
{
    const __m512d lo = _mm512_set1_pd(t.xmin());
    const __m512d hi = _mm512_set1_pd(t.xmax());
    const __m512d width = _mm512_set1_pd(t.width());
    const __m256i last =
        _mm256_set1_epi32(static_cast<int>(t.raw().size() - 1));
    const double *alpha = &t.raw()[0].alpha;
    const double *beta = &t.raw()[0].beta;
    static_assert(sizeof(lut::PwlSegment) == 2 * sizeof(double));
    for (std::size_t i = 0; i < n; i += 8) {
        const __mmask8 m = static_cast<__mmask8>(
            n - i >= 8 ? 0xFF : (1u << (n - i)) - 1);
        const __m512d x = _mm512_maskz_loadu_pd(m, in + i);
        const __mmask8 nan = _mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q);
        const __mmask8 ok = m & ~nan;
        __m512d c =
            _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, lo, _CMP_LT_OQ), x, lo);
        c = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(hi, c, _CMP_LT_OQ), c, hi);
        const __m256i index = _mm256_min_epu32(
            _mm512_maskz_cvttpd_epu32(ok, _mm512_div_pd(_mm512_sub_pd(c, lo),
                                                        width)),
            last);
        // Segments interleave alpha and beta: pair s sits 2s doubles in.
        const __m256i pair = _mm256_slli_epi32(index, 1);
        const __m512d a = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), ok,
                                                   pair, alpha, 8);
        const __m512d b = _mm512_mask_i32gather_pd(_mm512_setzero_pd(), ok,
                                                   pair, beta, 8);
        const __m512d y = _mm512_add_pd(_mm512_mul_pd(a, c), b);
        _mm512_mask_storeu_pd(out + i, m, _mm512_mask_blend_pd(nan, y, x));
    }
}

#pragma GCC diagnostic pop

/** True when the AVX-512 epilogue kernels serve the active level. */
bool
epilogue_avx512()
{
    return sim::has_avx512(sim::active_simd_level());
}

#endif // BFREE_X86_KERNELS

} // namespace

void
relu_q8_span(const float *in, float *out, std::size_t n)
{
#ifdef BFREE_X86_KERNELS
    if (epilogue_avx512())
        return relu_q8_avx512(in, out, n);
#endif
    relu_q8_scalar(in, out, n);
}

void
dequantize_store(const std::int32_t *acc, std::size_t n, double wScale,
                 double xScale, const float *bias, std::size_t biasStride,
                 bool relu, float *out)
{
#ifdef BFREE_X86_KERNELS
    if (epilogue_avx512())
        return dequantize_store_avx512(acc, n, wScale, xScale, bias,
                                       biasStride, relu, out);
#endif
    dequantize_store_scalar(acc, n, wScale, xScale, bias, biasStride, relu,
                            out);
}

bool
pwl_span(const lut::PwlTable &table, const double *in, double *out,
         std::size_t n)
{
#ifdef BFREE_X86_KERNELS
    // Below one full vector the AVX-512 form is one latency-bound
    // chain of two gathers and a divide: an evaluatePwl call took
    // 57 ns through it against 21-24 ns through the oracle
    // (DESIGN.md section 17, "PWL span").
    if (n >= 8 && epilogue_avx512()) {
        pwl_span_avx512(table, in, out, n);
        return true;
    }
#endif
    return false;
}

bool
max_pool_2x2_q8(const float *in, std::size_t rows, std::size_t inW,
                std::size_t channels, float *out)
{
#ifdef BFREE_X86_KERNELS
    if (epilogue_avx512()) {
        max_pool_2x2_avx512(in, rows, inW, channels, out);
        return true;
    }
#endif
    return false;
}

} // namespace bfree::bce::simd
