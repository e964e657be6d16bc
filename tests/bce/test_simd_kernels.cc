/**
 * @file
 * Differential proof that every compiled-and-runnable SIMD variant of
 * the tiered span kernels is bit-, stat- and energy-exact against the
 * legacy scalar datapath — the same guarantee test_datapath_tiered
 * establishes for the dispatcher's default pick, here swept across
 * every ISA this binary carries via force_simd_level. Also covers the
 * conv-table invalidation edges the SoA rewrite must preserve:
 * mid-batch LUT-row rewrites force a reseed (observable through
 * Bce::convTableSeeds) and a stale generation is never served.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bce/bce.hh"
#include "bce/simd_kernels.hh"
#include "core/conv_front.hh"
#include "dnn/layer.hh"
#include "lut/mult_lut.hh"
#include "lut/pwl.hh"
#include "sim/cpuid.hh"
#include "simd_levels.hh"

using namespace bfree;
using bce::BceMode;
using bce::ExecTier;
using bfree::test::for_each_runnable_level;

namespace {

/** One self-contained BCE rig at a chosen execution tier. */
struct Engine
{
    tech::CacheGeometry geom{};
    tech::TechParams tech{};
    mem::EnergyAccount account;
    mem::Subarray subarray{geom, tech, account};
    bce::Bce bce{subarray, tech, account};

    explicit Engine(ExecTier tier)
    {
        bce.setTier(tier);
        bce.loadMultLutImage();
    }
};

void
expect_stats_equal(const bce::BceStats &a, const bce::BceStats &b,
                   const std::string &ctx)
{
    EXPECT_EQ(a.cycles, b.cycles) << ctx;
    EXPECT_EQ(a.macs, b.macs) << ctx;
    EXPECT_EQ(a.counts.lutLookups, b.counts.lutLookups) << ctx;
    EXPECT_EQ(a.counts.romLookups, b.counts.romLookups) << ctx;
    EXPECT_EQ(a.counts.shifts, b.counts.shifts) << ctx;
    EXPECT_EQ(a.counts.adds, b.counts.adds) << ctx;
    EXPECT_EQ(a.counts.cycles, b.counts.cycles) << ctx;
    EXPECT_EQ(a.lutReadsPim, b.lutReadsPim) << ctx;
    EXPECT_EQ(a.lutReadsCache, b.lutReadsCache) << ctx;
}

/** Flush both engines and require bit-identical joules per category. */
void
expect_engines_identical(Engine &legacy, Engine &simd,
                         const std::string &ctx)
{
    expect_stats_equal(legacy.bce.stats(), simd.bce.stats(), ctx);
    legacy.bce.flushEnergy();
    simd.bce.flushEnergy();
    for (std::size_t c = 0; c < mem::num_energy_categories; ++c) {
        const auto cat = static_cast<mem::EnergyCategory>(c);
        EXPECT_EQ(legacy.account.joules(cat), simd.account.joules(cat))
            << ctx << " energy category " << c;
    }
}

/** Deterministic int8 test vector (no RNG dependence). */
std::vector<std::int8_t>
pattern(std::size_t n, int seed, int limit = 127)
{
    std::vector<std::int8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int r = static_cast<int>((i * 37 + seed * 101) % 1000);
        v[i] = static_cast<std::int8_t>(r % (2 * limit + 1) - limit);
    }
    return v;
}

/** Out-of-domain bytes for a 4-bit table: just past either end of
 *  the domain, near the int8 extremes, and the extreme itself. */
constexpr std::int8_t out_of_domain4[] = {9, -9, 127, -127, -128};

/** Ragged span lengths: every length up to 80 (each vector width's
 *  remainders), both sides of 128, and one past the point where every
 *  histogram kernel has spilled its 16-bit feature lanes at least once
 *  (4000 steps of up to 64 bytes). */
std::vector<std::size_t>
ragged_lengths()
{
    std::vector<std::size_t> lens;
    for (std::size_t len = 1; len <= 80; ++len)
        lens.push_back(len);
    for (const std::size_t len : {127, 128, 129, 4000 * 64 + 3})
        lens.push_back(len);
    return lens;
}

/** Where an out-of-domain byte goes in a span of @p len: first,
 *  middle, last, and the first byte of the ragged remainder past the
 *  last whole 16-byte step (when there is one). */
std::vector<std::size_t>
offender_positions(std::size_t len)
{
    std::vector<std::size_t> pos{0, len / 2, len - 1};
    if (len % 16 != 0)
        pos.push_back(len / 16 * 16);
    return pos;
}

} // namespace

// ---------------------------------------------------------------------
// Full operand spaces, every runnable ISA
// ---------------------------------------------------------------------

TEST(SimdKernels, Conv8BitFullOperandSpaceExactAtEveryLevel)
{
    // All 256x256 int8 pairs laid out as one long span per operand
    // row: the exact workload the vector loop, its blocked tally and
    // its tail handling must reproduce.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        std::vector<std::int8_t> a(256), b(256);
        for (int row = -128; row <= 127; ++row) {
            for (int col = -128; col <= 127; ++col) {
                a[static_cast<std::size_t>(col + 128)] =
                    static_cast<std::int8_t>(row);
                b[static_cast<std::size_t>(col + 128)] =
                    static_cast<std::int8_t>(col);
            }
            ASSERT_EQ(
                legacy.bce.dotProductSpan(a.data(), b.data(), 256, 8),
                simd.bce.dotProductSpan(a.data(), b.data(), 256, 8))
                << ctx << " row " << row;
        }
        expect_engines_identical(legacy, simd, ctx);
    });
}

TEST(SimdKernels, Matmul8BitFullOperandSpaceExactAtEveryLevel)
{
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        legacy.bce.setMode(BceMode::Matmul);
        simd.bce.setMode(BceMode::Matmul);
        std::vector<std::int8_t> a(256), b(256);
        for (int row = -128; row <= 127; ++row) {
            for (int col = -128; col <= 127; ++col) {
                a[static_cast<std::size_t>(col + 128)] =
                    static_cast<std::int8_t>(row);
                b[static_cast<std::size_t>(col + 128)] =
                    static_cast<std::int8_t>(col);
            }
            ASSERT_EQ(
                legacy.bce.matmulDotSpan(a.data(), b.data(), 256, 8),
                simd.bce.matmulDotSpan(a.data(), b.data(), 256, 8))
                << ctx << " row " << row;
        }
        expect_engines_identical(legacy, simd, ctx);
    });
}

TEST(SimdKernels, Conv4BitClampsOutOfRangeExactlyAtEveryLevel)
{
    // 4-bit conv spans clamp to [-8, 7] in registers before the
    // histogram fold; feed well-out-of-range int8 values so every lane
    // exercises the clamp, then single out-of-domain bytes at the
    // first, middle, last and ragged-tail positions of in-domain spans.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        const std::vector<std::int8_t> a = pattern(777, 31, 127);
        const std::vector<std::int8_t> b = pattern(777, 32, 127);
        ASSERT_EQ(
            legacy.bce.dotProductSpan(a.data(), b.data(), a.size(), 4),
            simd.bce.dotProductSpan(a.data(), b.data(), a.size(), 4))
            << ctx;
        for (const std::size_t len : ragged_lengths()) {
            const std::vector<std::size_t> positions =
                offender_positions(len);
            for (std::size_t p = 0; p < positions.size(); ++p) {
                const std::size_t pos = positions[p];
                // Every byte at every position, except on the long span,
                // where one byte per position keeps the Legacy engine's
                // per-element walk short.
                for (std::size_t vi = 0; vi < std::size(out_of_domain4);
                     ++vi) {
                    if (len > 129 && vi != p)
                        continue;
                    const std::int8_t v = out_of_domain4[vi];
                    std::vector<std::int8_t> w = pattern(len, 35, 7);
                    std::vector<std::int8_t> x = pattern(len, 36, 7);
                    w[pos] = v;
                    x[len - 1 - pos] = v;
                    ASSERT_EQ(legacy.bce.dotProductSpan(w.data(), x.data(),
                                                        len, 4),
                              simd.bce.dotProductSpan(w.data(), x.data(),
                                                      len, 4))
                        << ctx << " len " << len << " pos " << pos
                        << " byte " << int(v);
                }
            }
        }
        expect_engines_identical(legacy, simd, ctx);
    });
}

TEST(SimdKernels, Matmul4BitInDomainExactAtEveryLevel)
{
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        legacy.bce.setMode(BceMode::Matmul);
        simd.bce.setMode(BceMode::Matmul);
        const std::vector<std::int8_t> a = pattern(513, 33, 7);
        const std::vector<std::int8_t> b = pattern(513, 34, 7);
        ASSERT_EQ(
            legacy.bce.matmulDotSpan(a.data(), b.data(), a.size(), 4),
            simd.bce.matmulDotSpan(a.data(), b.data(), a.size(), 4))
            << ctx;
        expect_engines_identical(legacy, simd, ctx);
    });
}

TEST(SimdKernels, RaggedTailLengthsExactAtEveryLevel)
{
    // Span lengths straddling every vector width and remainder shape,
    // so partial-vector tails can't hide a divergence: 8-bit conv and
    // matmul over the full int8 range, 4-bit conv over it too (every
    // lane clamps), and 4-bit matmul over its whole [-8, 8] domain.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        for (const std::size_t len : ragged_lengths()) {
            const int seed = static_cast<int>(len % 997);
            const std::vector<std::int8_t> a = pattern(len, seed + 1, 127);
            const std::vector<std::int8_t> b = pattern(len, seed + 50, 127);
            std::vector<std::int8_t> a4 = pattern(len, seed + 2, 8);
            std::vector<std::int8_t> b4 = pattern(len, seed + 51, 8);
            a4[len - 1] = -8;
            b4[0] = 8;
            for (const BceMode mode : {BceMode::Conv, BceMode::Matmul}) {
                legacy.bce.setMode(mode);
                simd.bce.setMode(mode);
                const bool conv = mode == BceMode::Conv;
                const std::string at = ctx + (conv ? " conv" : " matmul")
                                       + " len " + std::to_string(len);
                auto run = [&](Engine &e, const std::vector<std::int8_t> &x,
                               const std::vector<std::int8_t> &y,
                               unsigned bits) {
                    return conv ? e.bce.dotProductSpan(x.data(), y.data(),
                                                       len, bits)
                                : e.bce.matmulDotSpan(x.data(), y.data(),
                                                      len, bits);
                };
                ASSERT_EQ(run(legacy, a, b, 8), run(simd, a, b, 8)) << at;
                const std::vector<std::int8_t> &x4 = conv ? a : a4;
                const std::vector<std::int8_t> &y4 = conv ? b : b4;
                ASSERT_EQ(run(legacy, x4, y4, 4), run(simd, x4, y4, 4))
                    << at << " 4-bit";
            }
        }
        expect_engines_identical(legacy, simd, ctx);
    });
}

TEST(SimdKernels, LongSpanBlockedTallyExactAtEveryLevel)
{
    // Long enough to force multiple tally-block spills in both the
    // scalar (256-entry) and vector blocked accumulators.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        const std::vector<std::int8_t> a = pattern(65536, 41, 127);
        const std::vector<std::int8_t> b = pattern(65536, 42, 127);
        ASSERT_EQ(
            legacy.bce.dotProductSpan(a.data(), b.data(), a.size(), 8),
            simd.bce.dotProductSpan(a.data(), b.data(), a.size(), 8))
            << ctx;
        legacy.bce.setMode(BceMode::Matmul);
        simd.bce.setMode(BceMode::Matmul);
        ASSERT_EQ(
            legacy.bce.matmulDotSpan(a.data(), b.data(), a.size(), 8),
            simd.bce.matmulDotSpan(a.data(), b.data(), a.size(), 8))
            << ctx;
        expect_engines_identical(legacy, simd, ctx);
    });
}

// ---------------------------------------------------------------------
// M x N tiles: one tile call against m*n single-span calls
// ---------------------------------------------------------------------

namespace {

/** Deterministic int8 operands over the whole [-128, 127] range. */
std::vector<std::int8_t>
full_range(std::size_t n, int seed)
{
    std::vector<std::int8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::int8_t>(
            static_cast<int>((i * 37 + static_cast<std::size_t>(seed) * 101)
                             % 256)
            - 128);
    return v;
}

/**
 * Run one m x n x k tile on @p tile and the same work as m*n single
 * spans on @p spans (both in @p mode), and require identical outputs.
 * With @p frozen the weight-side feature sums and the activation
 * scratch are passed in, as the plan executor does; without, the tile
 * computes both per call.
 */
void
expect_tile_matches_spans(Engine &tile, Engine &spans, BceMode mode,
                          const std::vector<std::int8_t> &a,
                          const std::vector<std::int8_t> &w, std::size_t m,
                          std::size_t k, std::size_t n, unsigned bits,
                          bool frozen, const std::string &ctx)
{
    tile.bce.setMode(mode);
    spans.bce.setMode(mode);
    std::vector<std::uint32_t> wFeatures, scratch;
    std::vector<std::int32_t> wRowSums;
    if (frozen) {
        wFeatures.resize(bce::Bce::tileScratchWords(k));
        bce::simd::class_feature_sums(w.data(), n, k, wFeatures.data());
        wRowSums.resize(n);
        bce::simd::weight_row_sums(w.data(), n, k, wRowSums.data());
        scratch.resize(bce::Bce::tileScratchWords(k));
    }
    // Matmul tiles accumulate: start from a non-zero output.
    std::vector<std::int32_t> got(m * n, 5), want(m * n, 5);
    if (mode == BceMode::Conv) {
        tile.bce.convTile(a.data(), w.data(), got.data(), m, k, n, bits,
                          frozen ? wFeatures.data() : nullptr,
                          frozen ? wRowSums.data() : nullptr,
                          frozen ? scratch.data() : nullptr);
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j)
                want[i * n + j] = spans.bce.dotProductSpan(
                    w.data() + j * k, a.data() + i * k, k, bits);
    } else {
        tile.bce.matmulTile(a.data(), w.data(), got.data(), m, k, n, bits,
                            frozen ? wFeatures.data() : nullptr,
                            frozen ? wRowSums.data() : nullptr,
                            frozen ? scratch.data() : nullptr);
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j)
                want[i * n + j] += spans.bce.matmulDotSpan(
                    a.data() + i * k, w.data() + j * k, k, bits);
    }
    ASSERT_EQ(want, got) << ctx << " m " << m << " k " << k << " n "
                         << n;
}

const std::size_t tile_dims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 14, 64};

} // namespace

TEST(SimdKernels, TileMatchesSingleSpansAtEveryLevel)
{
    // Every ragged K up to 80 against every M x N block edge, in both
    // modes.
    for_each_runnable_level([](sim::SimdLevel level) {
        for (const BceMode mode : {BceMode::Conv, BceMode::Matmul}) {
            const std::string ctx =
                std::string(sim::simd_level_name(level))
                + (mode == BceMode::Conv ? " conv" : " matmul");
            Engine tile(ExecTier::Tiered);
            Engine spans(ExecTier::Tiered);
            for (std::size_t k = 1; k <= 80; ++k) {
                for (const std::size_t m : tile_dims) {
                    for (const std::size_t n : tile_dims) {
                        const auto a = full_range(m * k, int(k + m));
                        const auto w = full_range(n * k, int(k + 7 * n));
                        expect_tile_matches_spans(
                            tile, spans, mode, a, w, m, k, n, 8,
                            (k + m + n) % 2 == 0, ctx);
                    }
                }
            }
            expect_engines_identical(spans, tile, ctx);
        }
    });
}

TEST(SimdKernels, LongTilesMatchSingleSpansAtEveryLevel)
{
    // The VGG-16 conv4/conv5 (4608) and fc6 (25088) reduction lengths,
    // with operands pinned at both int8 extremes in some rows.
    for_each_runnable_level([](sim::SimdLevel level) {
        for (const BceMode mode : {BceMode::Conv, BceMode::Matmul}) {
            const std::string ctx =
                std::string(sim::simd_level_name(level))
                + (mode == BceMode::Conv ? " conv" : " matmul");
            Engine tile(ExecTier::Tiered);
            Engine spans(ExecTier::Tiered);
            for (const std::size_t k : {std::size_t{4608},
                                        std::size_t{25088}}) {
                for (const auto &[m, n] :
                     {std::pair<std::size_t, std::size_t>{1, 64},
                      {9, 14}, {14, 9}, {64, 1}}) {
                    auto a = full_range(m * k, int(k + m));
                    auto w = full_range(n * k, int(k + n));
                    std::fill(a.begin(), a.begin() + k, std::int8_t{-128});
                    std::fill(w.begin(), w.begin() + k, std::int8_t{-128});
                    std::fill(w.end() - k, w.end(), std::int8_t{127});
                    expect_tile_matches_spans(tile, spans, mode, a, w,
                                              m, k, n, 8, m > 1, ctx);
                }
            }
            expect_engines_identical(spans, tile, ctx);
        }
    });
}

namespace {

/**
 * In-domain 4-bit operands for one tile mode: every value in
 * [-8, 7] (conv) or [-8, 8] (matmul), endpoints included.
 */
std::vector<std::int8_t>
domain4(std::size_t n, int seed, BceMode mode)
{
    const int hi = mode == BceMode::Conv ? 7 : 8;
    const int span = hi + 9;
    std::vector<std::int8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::int8_t>(
            static_cast<int>((i * 37 + static_cast<std::size_t>(seed) * 101)
                             % static_cast<std::size_t>(span))
            - 8);
    return v;
}

} // namespace

TEST(SimdKernels, Tile4BitMatchesSingleSpansAtEveryLevel)
{
    // In-domain 4-bit operands take the GEMM tile. One activation byte
    // or one weight byte just outside the conv domain (8, which conv
    // spans clamp to 7) must send the tile back to the per-span loop;
    // an out-of-domain matmul operand panics (the death test below).
    for_each_runnable_level([](sim::SimdLevel level) {
        for (const BceMode mode : {BceMode::Conv, BceMode::Matmul}) {
            const std::string ctx =
                std::string(sim::simd_level_name(level))
                + (mode == BceMode::Conv ? " conv" : " matmul");
            Engine tile(ExecTier::Tiered);
            Engine spans(ExecTier::Tiered);
            for (std::size_t k = 1; k <= 80; ++k) {
                for (const std::size_t m : tile_dims) {
                    for (const std::size_t n : tile_dims) {
                        auto a = domain4(m * k, int(k + m), mode);
                        auto w = domain4(n * k, int(k + 7 * n), mode);
                        // Both endpoints appear in every tile.
                        a[0] = -8;
                        w[w.size() - 1] = mode == BceMode::Conv ? 7 : 8;
                        const bool frozen = (k + m + n) % 2 == 0;
                        expect_tile_matches_spans(tile, spans, mode, a, w,
                                                  m, k, n, 4, frozen, ctx);
                        // The fallback reference is m*n spans; the
                        // block edges (m, n <= 9) cover its shapes.
                        if (mode == BceMode::Matmul || m > 9 || n > 9)
                            continue;
                        auto aOut = a;
                        aOut[(m * k) / 2] = 8;
                        expect_tile_matches_spans(
                            tile, spans, mode, aOut, w, m, k, n, 4, frozen,
                            ctx + " activation out of domain");
                        auto wOut = w;
                        wOut[(n * k) / 3] = 8;
                        expect_tile_matches_spans(
                            tile, spans, mode, a, wOut, m, k, n, 4, !frozen,
                            ctx + " weight out of domain");
                    }
                }
            }
            expect_engines_identical(spans, tile, ctx);
        }
    });
}

TEST(SimdKernels, ClassFeatureSumsRecordTheOperandRange)
{
    // The range word: exact at every ISA, over every ragged width the
    // vector kernels block by, with the extremes anywhere in the tile.
    for (const sim::SimdLevel level :
         {sim::SimdLevel::Scalar, sim::SimdLevel::Sse42,
          sim::SimdLevel::Neon, sim::SimdLevel::Avx2,
          sim::SimdLevel::Avx512, sim::SimdLevel::Avx512Vnni,
          sim::SimdLevel::AmxInt8}) {
        if (!sim::simd_level_compiled(level)
            || !sim::simd_level_supported(level))
            continue;
        sim::force_simd_level(level);
        const std::string ctx = sim::simd_level_name(level);
        for (std::size_t k = 1; k <= 80; ++k) {
            const std::size_t rows = 3;
            std::vector<std::int8_t> t(rows * k, 3);
            std::vector<std::uint32_t> sums(bce::Bce::tileScratchWords(k));
            bce::simd::class_feature_sums(t.data(), rows, k, sums.data());
            // The range always includes 0.
            EXPECT_TRUE(bce::simd::features_in_domain(sums.data(), k, 0, 3))
                << ctx << " k " << k;
            EXPECT_FALSE(bce::simd::features_in_domain(sums.data(), k, 0, 2))
                << ctx << " k " << k;
            t[(k * 7) % t.size()] = -9;
            t[t.size() - 1] = 8;
            bce::simd::class_feature_sums(t.data(), rows, k, sums.data());
            EXPECT_TRUE(
                bce::simd::features_in_domain(sums.data(), k, -9, 8))
                << ctx << " k " << k;
            EXPECT_FALSE(
                bce::simd::features_in_domain(sums.data(), k, -8, 8))
                << ctx << " k " << k;
            EXPECT_FALSE(
                bce::simd::features_in_domain(sums.data(), k, -9, 7))
                << ctx << " k " << k;
            t[0] = -128;
            t[1 % t.size()] = 127;
            bce::simd::class_feature_sums(t.data(), rows, k, sums.data());
            EXPECT_TRUE(
                bce::simd::features_in_domain(sums.data(), k, -128, 127))
                << ctx << " k " << k;
            EXPECT_FALSE(
                bce::simd::features_in_domain(sums.data(), k, -127, 127))
                << ctx << " k " << k;
        }
    }
    sim::reset_simd_level();
}

// ---------------------------------------------------------------------
// gemm_i8 itself, against a scalar reference
// ---------------------------------------------------------------------

namespace {

/** out[i * n + j] += dot(a[i], b[j]), wrapped mod 2^32 element by
 *  element. */
void
gemm_reference(const std::vector<std::int8_t> &a,
               const std::vector<std::int8_t> &b, std::vector<std::int32_t> &out,
               std::size_t m, std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            auto acc = static_cast<std::uint32_t>(out[i * n + j]);
            for (std::size_t p = 0; p < k; ++p)
                acc += static_cast<std::uint32_t>(
                    std::int32_t{a[i * k + p]} * b[j * k + p]);
            out[i * n + j] = static_cast<std::int32_t>(acc);
        }
}

/** Run the dispatched GEMM on a copy of @p out, with the weight row
 *  sums frozen (passed in) or left to the core, against the reference. */
void
expect_gemm_matches_reference(const std::vector<std::int8_t> &a,
                              const std::vector<std::int8_t> &b,
                              const std::vector<std::int32_t> &out,
                              std::size_t m, std::size_t k, std::size_t n,
                              bool frozenSums, const std::string &ctx)
{
    std::vector<std::int32_t> rowSums;
    if (frozenSums) {
        rowSums.resize(n);
        bce::simd::weight_row_sums(b.data(), n, k, rowSums.data());
    }
    std::vector<std::int32_t> want = out, got = out;
    gemm_reference(a, b, want, m, k, n);
    bce::simd::gemm_i8(a.data(), b.data(), got.data(), m, k, n,
                       frozenSums ? rowSums.data() : nullptr);
    ASSERT_EQ(want, got) << ctx << " m " << m << " k " << k << " n " << n
                         << (frozenSums ? " frozen" : " per-call")
                         << " row sums";

    // The same product as a block of columns of a wider row-major
    // output (row stride n + 5, the matmul body's weight-row blocks):
    // the columns around the block keep their bytes.
    const std::size_t ld = n + 5;
    std::vector<std::int32_t> wide(m * ld, -7);
    for (std::size_t i = 0; i < m; ++i)
        std::copy_n(out.begin() + i * n, n, wide.begin() + i * ld + 2);
    bce::simd::gemm_i8(a.data(), b.data(), wide.data() + 2, m, k, n,
                       frozenSums ? rowSums.data() : nullptr, ld);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < ld; ++j)
            ASSERT_EQ(j >= 2 && j < n + 2 ? want[i * n + j - 2] : -7,
                      wide[i * ld + j])
                << ctx << " row stride " << ld << " m " << m << " k " << k
                << " n " << n << " (" << i << "," << j << ")";
}

} // namespace

TEST(SimdKernels, GemmMatchesScalarReferenceAtEveryLevel)
{
    // Every block edge (1 x NR, MR x 1, 1 x 1) against every K up to
    // 130: two whole 64-byte VNNI steps plus every mask width, and
    // every 32-, 16- and 8-byte madd step and tail, dense and as a
    // block of a wider output. The incoming out is non-zero (matmul
    // accumulates into it).
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        for (std::size_t k = 1; k <= 130; ++k) {
            for (const std::size_t m : tile_dims) {
                for (const std::size_t n : tile_dims) {
                    const auto a = full_range(m * k, int(k + 3 * m));
                    const auto b = full_range(n * k, int(k + 5 * n));
                    std::vector<std::int32_t> out(m * n);
                    for (std::size_t i = 0; i < out.size(); ++i)
                        out[i] = static_cast<std::int32_t>(i * 7919) - 1000;
                    expect_gemm_matches_reference(a, b, out, m, k, n,
                                                  (k + m + n) % 2 == 0, ctx);
                }
            }
        }
    });
}

TEST(SimdKernels, GemmExtremeSumsExactAtEveryLevel)
{
    // The largest sums the VNNI bias trick sees: fc6's K = 25088 with
    // all -128 activations against all -128 and all +127 weight rows
    // (its biased lanes read 0, the row sums are at their extremes),
    // accumulated onto outputs at both ends of int32 so the sums wrap.
    const std::size_t k = 25088;
    for_each_runnable_level([k](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        for (const auto &[m, n] :
             {std::pair<std::size_t, std::size_t>{1, 1}, {5, 6}, {4, 8}}) {
            const std::vector<std::int8_t> a(m * k, std::int8_t{-128});
            std::vector<std::int8_t> b(n * k, std::int8_t{-128});
            for (std::size_t j = 1; j < n; j += 2)
                std::fill(b.begin() + j * k, b.begin() + (j + 1) * k,
                          std::int8_t{127});
            std::vector<std::int32_t> out(m * n);
            for (std::size_t i = 0; i < out.size(); ++i)
                out[i] = i % 2 == 0 ? std::numeric_limits<std::int32_t>::max()
                                    : std::numeric_limits<std::int32_t>::min();
            for (const bool frozen : {false, true})
                expect_gemm_matches_reference(a, b, out, m, k, n, frozen,
                                              ctx);
        }
    });
}

namespace {

/**
 * @p size bytes that end where a PROT_NONE page begins, so a read one
 * byte past them faults whatever instruction makes it: an AMX tile
 * load too, which no sanitizer instruments.
 */
class GuardedBytes
{
  public:
    explicit GuardedBytes(std::size_t size)
        : page_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))),
          span_((size + page_ - 1) / page_ * page_ + page_), size_(size)
    {
        void *p = mmap(nullptr, span_, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        base_ = static_cast<std::int8_t *>(p);
        if (mprotect(base_ + span_ - page_, page_, PROT_NONE) != 0)
            throw std::bad_alloc();
    }
    ~GuardedBytes() { munmap(base_, span_); }
    GuardedBytes(const GuardedBytes &) = delete;
    GuardedBytes &operator=(const GuardedBytes &) = delete;

    std::int8_t *data() { return base_ + span_ - page_ - size_; }
    std::size_t size() const { return size_; }

  private:
    std::size_t page_, span_, size_;
    std::int8_t *base_ = nullptr;
};

/** The frozen filters of @p g packed as the plan packs them. */
std::vector<std::int8_t>
conv_panel(const bce::simd::ConvRows &g, const std::vector<std::int8_t> &b)
{
    std::vector<std::int8_t> panel(
        bce::simd::panel_bytes(g.filters, g.kernelH, g.run()));
    bce::simd::pack_panel(b.data(), g.filters, g.kernelH, g.run(),
                          panel.data());
    return panel;
}

/**
 * Every output row of conv @p l through conv_row_gemm at every level,
 * over a plane of exactly plane_buffer_bytes holding @p fill(i) at byte
 * i, against gemm_reference over the row's copied patches. The
 * incoming outputs are non-zero, so the row must accumulate.
 */
template <typename Fill>
void
expect_conv_rows_match_reference(const dnn::Layer &l,
                                 const std::vector<std::int8_t> &b,
                                 Fill fill)
{
    const bce::simd::ConvRows g = core::conv_rows(l);
    const std::size_t k = g.k(), m = g.outW, n = g.filters;
    GuardedBytes plane(core::plane_buffer_bytes(l));
    for (std::size_t i = 0; i < plane.size(); ++i)
        plane.data()[i] = fill(i);
    const std::vector<std::int8_t> panel = conv_panel(g, b);
    std::vector<std::int32_t> rowSums(n);
    bce::simd::weight_row_sums(b.data(), n, k, rowSums.data());
    std::vector<std::int8_t> patches(core::patch_row_bytes(l));
    std::vector<std::int32_t> init(m * n);
    for (std::size_t i = 0; i < init.size(); ++i)
        init[i] = static_cast<std::int32_t>(i * 7919) - 1000;
    for (std::size_t oh = 0; oh < l.outputShape().h; ++oh) {
        bce::simd::copy_patch_row(g, plane.data(), oh, patches.data());
        std::vector<std::int32_t> want = init;
        gemm_reference(patches, b, want, m, k, n);
        for_each_runnable_level([&](sim::SimdLevel level) {
            std::vector<std::int32_t> got = init;
            bce::simd::conv_row_gemm(g, plane.data(), oh, b.data(),
                                     rowSums.data(), panel.data(),
                                     patches.data(), got.data());
            ASSERT_EQ(want, got)
                << sim::simd_level_name(level) << " C " << g.channels
                << " kH " << g.kernelH << " kW " << g.kernelW << " s "
                << g.strideW << " pad " << l.padW << " o.w " << m << " n "
                << n << " row " << oh;
        });
    }
}

} // namespace

TEST(SimdKernels, ConvRowGemmMatchesPatchReferenceAtEveryLevel)
{
    // The conv row GEMM's plane-fed AMX tiles (64-byte steps per kernel
    // row, zero panel bytes past kW * C, tile rows past o.w) and the
    // copied patch rows of every other level, against the scalar
    // reference over the copied patches: channel counts around the
    // 64-byte step, 1x1, 3x3 and 3x5 kernels, strides 1 and 2, pads 0
    // and 1, and row widths around the 16-row tile and 32-row block.
    // The plane holds bytes at -128 and 127 among others, so the s8 x s8
    // sums reach their extremes, and its buffer ends at a guard page.
    const unsigned cs[] = {1, 3, 16, 63, 64, 65, 128};
    const unsigned kws[] = {1, 3, 5};
    const unsigned ows[] = {1, 14, 15, 16, 17, 31, 33};
    const unsigned ns[] = {5, 17, 33, 64};
    std::size_t cases = 0;
    for (const unsigned c : cs)
        for (const unsigned kw : kws)
            for (const unsigned s : {1u, 2u})
                for (const unsigned pad : {0u, 1u})
                    for (const unsigned ow : ows) {
                        const unsigned kh = kw == 5 ? 3 : kw;
                        const int inW = int((ow - 1) * s + kw) - int(2 * pad);
                        if (inW < 1)
                            continue;
                        unsigned oh = 2;
                        while (int((oh - 1) * s + kh) - int(2 * pad) < 1)
                            ++oh;
                        const unsigned inH = (oh - 1) * s + kh - 2 * pad;
                        const unsigned n = ns[cases++ % std::size(ns)];
                        dnn::Layer l = dnn::make_conv2(
                            "rows", {c, inH, unsigned(inW)}, n, kh, kw, s,
                            pad, pad);
                        ASSERT_EQ(ow, l.outputShape().w);
                        const std::size_t k = core::conv_rows(l).k();
                        std::vector<std::int8_t> b =
                            full_range(n * k, int(k + 5 * n));
                        for (std::size_t i = 0; i < b.size(); i += 7)
                            b[i] = i % 2 == 0 ? std::int8_t{-128}
                                              : std::int8_t{127};
                        expect_conv_rows_match_reference(
                            l, b, [&](std::size_t i) {
                                return i % 5 == 0
                                           ? std::int8_t(i % 2 ? 127 : -128)
                                           : std::int8_t((i * 37 + c) % 256);
                            });
                    }
    EXPECT_GT(cases, 500u);

    // All -128 against all -128 and all 127: the largest sums a
    // VGG-16 conv (K = 4608) can reach, |sum| <= 4608 * 128 * 128.
    const dnn::Layer l =
        dnn::make_conv2("extreme", {512, 4, 33}, 33, 3, 3, 1, 1, 1);
    std::vector<std::int8_t> b(33 * 4608, std::int8_t{-128});
    for (std::size_t j = 1; j < 33; j += 2)
        std::fill(b.begin() + j * 4608, b.begin() + (j + 1) * 4608,
                  std::int8_t{127});
    expect_conv_rows_match_reference(
        l, b, [](std::size_t) { return std::int8_t{-128}; });
}

TEST(SimdKernels, ConvRowReachCoversEveryTileLoad)
{
    // conv_row_reach against the tile addressing it bounds: row i of
    // the tiles of kernel row ky, step j, reads 64 bytes at
    // ky * rowBytes + i * sW * C + 64 j, for every i below the last
    // whole 16-row tile.
    for (const std::size_t c : {1u, 3u, 64u, 65u})
        for (const std::size_t kw : {1u, 3u, 7u})
            for (const std::size_t s : {1u, 2u, 3u})
                for (const std::size_t ow : {1u, 15u, 16u, 17u, 33u}) {
                    bce::simd::ConvRows g;
                    g.channels = c;
                    g.kernelH = 3;
                    g.kernelW = kw;
                    g.strideH = g.strideW = s;
                    g.outW = ow;
                    g.filters = 16;
                    g.rowBytes = ((ow - 1) * s + kw + 2) * c;
                    std::size_t end = 0;
                    for (std::size_t i = 0; i < (ow + 15) / 16 * 16; ++i)
                        for (std::size_t ky = 0; ky < g.kernelH; ++ky)
                            for (std::size_t j = 0; j < g.groupSteps(); ++j)
                                end = std::max(end, ky * g.rowBytes
                                                        + i * s * c
                                                        + 64 * j + 64);
                    EXPECT_EQ(end, bce::simd::conv_row_reach(g))
                        << c << " " << kw << " " << s << " " << ow;
                }
}

TEST(SimdKernels, PanelZeroesPastKAndN)
{
    // 17 filters of two kernel rows of 65 bytes: two panels, two groups
    // of two 64-byte steps; every byte of a group's last step past 65
    // and every row past n = 17 is zero.
    const std::size_t n = 17, groups = 2, run = 65;
    const auto b = full_range(n * groups * run, 3);
    std::vector<std::int8_t> panel(bce::simd::panel_bytes(n, groups, run), 9);
    ASSERT_EQ(2u * 2u * 2u * bce::simd::panel_block_bytes, panel.size());
    bce::simd::pack_panel(b.data(), n, groups, run, panel.data());
    for (std::size_t j = 0; j < 32; ++j)
        for (std::size_t y = 0; y < groups; ++y)
            for (std::size_t p = 0; p < 128; ++p) {
                const std::int8_t want =
                    j < n && p < run ? b[(j * groups + y) * run + p] : 0;
                const std::size_t at =
                    (j / 16 * 4 + y * 2 + p / 64) * 1024
                    + (p % 64) / 4 * 64 + j % 16 * 4 + p % 4;
                ASSERT_EQ(want, panel[at])
                    << "filter " << j << " group " << y << " k " << p;
            }
}

TEST(SimdKernels, EpilogueAndPwlKernelsRunAtEveryAvx512ClassLevel)
{
    // The AVX-512 kernel families serve every level sim::has_avx512
    // names; a wider level must not silently drop the pool or the PWL
    // span (the LSTM step's speed) to the scalar loops.
    const lut::PwlTable sigmoid = lut::make_sigmoid_table();
    const std::vector<double> in(16, 0.25);
    std::vector<double> out(16);
    const std::vector<float> plane(4 * 4, 1.0f);
    std::vector<float> pooled(2 * 2);
    bool any = false;
    for_each_runnable_level([&](sim::SimdLevel level) {
        if (!sim::has_avx512(level))
            return;
        any = true;
        EXPECT_TRUE(bce::simd::pwl_span(sigmoid, in.data(), out.data(),
                                        in.size()));
        EXPECT_TRUE(bce::simd::max_pool_2x2_q8(plane.data(), 2, 4, 1,
                                               pooled.data()));
    });
    if (!any)
        GTEST_SKIP() << "no AVX-512-class level runs on this host";
}

TEST(SimdKernels, WeightRowSumsMatchScalarAtEveryLevel)
{
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{27}, std::size_t{63},
              std::size_t{64}, std::size_t{65}, std::size_t{130},
              std::size_t{25088}}) {
            const std::size_t rows = 3;
            auto t = full_range(rows * k, int(k));
            std::fill(t.begin(), t.begin() + k, std::int8_t{-128});
            std::vector<std::int32_t> got(rows);
            bce::simd::weight_row_sums(t.data(), rows, k, got.data());
            for (std::size_t r = 0; r < rows; ++r) {
                std::int32_t want = 0;
                for (std::size_t p = 0; p < k; ++p)
                    want += t[r * k + p];
                EXPECT_EQ(want, got[r]) << ctx << " k " << k << " row " << r;
            }
        }
    });
}

TEST(SimdKernels, TileFallbacksMatchSingleSpansAtEveryLevel)
{
    // Shapes that must leave the GEMM tile for the per-span loop:
    // full-range 4-bit conv operands (frozen features present, but the
    // range is out of domain), the Legacy tier, a poisoned LUT row,
    // and a LUT rewrite between two tiles (the reseeded table must be
    // served). In-domain 4-bit matmul operands ride along on the GEMM.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        const std::size_t m = 5, k = 37, n = 6;
        const auto a8 = full_range(m * k, 3);
        const auto w8 = full_range(n * k, 4);
        const auto a4 = pattern(m * k, 5, 7);
        const auto w4 = pattern(n * k, 6, 7);
        {
            Engine tile(ExecTier::Tiered), spans(ExecTier::Tiered);
            expect_tile_matches_spans(tile, spans, BceMode::Conv, a8, w8, m,
                                      k, n, 4, true, ctx + " conv 4-bit");
            expect_tile_matches_spans(tile, spans, BceMode::Matmul, a4, w4,
                                      m, k, n, 4, false,
                                      ctx + " matmul 4-bit");
            expect_engines_identical(spans, tile, ctx + " 4-bit");
        }
        {
            Engine tile(ExecTier::Legacy), spans(ExecTier::Legacy);
            expect_tile_matches_spans(tile, spans, BceMode::Conv, a8, w8, m,
                                      k, n, 8, true, ctx + " legacy conv");
            expect_tile_matches_spans(tile, spans, BceMode::Matmul, a8, w8,
                                      m, k, n, 8, true,
                                      ctx + " legacy matmul");
            expect_engines_identical(spans, tile, ctx + " legacy");
        }
        {
            Engine tile(ExecTier::Tiered), spans(ExecTier::Tiered);
            tile.subarray.scratchWrite(0, 42);
            spans.subarray.scratchWrite(0, 42);
            expect_tile_matches_spans(tile, spans, BceMode::Conv, a8, w8, m,
                                      k, n, 8, true, ctx + " poisoned");
            expect_engines_identical(spans, tile, ctx + " poisoned");
        }
        {
            Engine tile(ExecTier::Tiered), spans(ExecTier::Tiered);
            const std::uint8_t pristine = tile.subarray.lutPeek(0);
            expect_tile_matches_spans(tile, spans, BceMode::Conv, a8, w8, m,
                                      k, n, 8, true, ctx + " pre-reseed");
            tile.subarray.scratchWrite(0, 42);
            spans.subarray.scratchWrite(0, 42);
            expect_tile_matches_spans(tile, spans, BceMode::Conv, a8, w8, m,
                                      k, n, 8, true, ctx + " reseeded");
            EXPECT_EQ(2u, tile.bce.convTableSeeds()) << ctx;
            // Restoring the pristine byte reseeds once more and puts
            // the tile back on the GEMM path.
            tile.subarray.scratchWrite(0, pristine);
            spans.subarray.scratchWrite(0, pristine);
            expect_tile_matches_spans(tile, spans, BceMode::Conv, a8, w8, m,
                                      k, n, 8, false, ctx + " restored");
            EXPECT_EQ(3u, tile.bce.convTableSeeds()) << ctx;
            expect_engines_identical(spans, tile, ctx + " reseed");
        }
    });
}

TEST(SimdKernels, EmptyTileIsANoOp)
{
    for_each_runnable_level([](sim::SimdLevel level) {
        Engine tile(ExecTier::Tiered), spans(ExecTier::Tiered);
        const auto a = full_range(40, 1);
        const auto w = full_range(40, 2);
        for (const BceMode mode : {BceMode::Conv, BceMode::Matmul}) {
            expect_tile_matches_spans(tile, spans, mode, a, w, 0, 8, 5, 8,
                                      false, "m 0");
            expect_tile_matches_spans(tile, spans, mode, a, w, 5, 8, 0, 8,
                                      false, "n 0");
            expect_tile_matches_spans(tile, spans, mode, a, w, 4, 0, 5, 8,
                                      false, "k 0");
        }
        expect_engines_identical(spans, tile, sim::simd_level_name(level));
    });
}

// ---------------------------------------------------------------------
// Strict matmul domain: the legacy panic must survive vectorization
// ---------------------------------------------------------------------

namespace {

/** How an out-of-domain 4-bit matmul reaches the datapath. */
enum class MatmulEntry
{
    Span,         ///< matmulDotSpan
    Tile,         ///< matmulTile, features computed per call
    FrozenTile,   ///< matmulTile with frozen weight features
};

/** Span length of the out-of-domain matmul rows. */
constexpr std::size_t oob_len = 40;

/** In-domain weight row @p j of the out-of-domain matmul. */
std::vector<std::int8_t>
oob_weights(std::size_t j)
{
    return pattern(oob_len, 80 + static_cast<int>(j), 7);
}

/**
 * An out-of-domain 4-bit matmul at a pinned level, byte @p v at
 * position @p pos of the activation row: must die. The kernel must
 * detect it before any table read could go out of bounds, and as a
 * 1 x oob_len activation row against two in-domain weight rows it
 * must also keep the tile off its GEMM path.
 */
void
run_out_of_range_matmul(sim::SimdLevel level, MatmulEntry entry,
                        std::size_t pos, std::int8_t v)
{
    sim::force_simd_level(level);
    Engine e(ExecTier::Tiered);
    e.bce.setMode(BceMode::Matmul);
    std::vector<std::int8_t> a = pattern(oob_len, 79, 7);
    a[pos] = v;
    std::vector<std::int8_t> b = oob_weights(0);
    const std::vector<std::int8_t> b1 = oob_weights(1);
    b.insert(b.end(), b1.begin(), b1.end());
    if (entry == MatmulEntry::Span) {
        (void)e.bce.matmulDotSpan(a.data(), b.data(), oob_len, 4);
        return;
    }
    std::vector<std::uint32_t> features(
        bce::Bce::tileScratchWords(oob_len));
    bce::simd::class_feature_sums(b.data(), 2, oob_len, features.data());
    std::int32_t out[2] = {0, 0};
    e.bce.matmulTile(a.data(), b.data(), out, 1, oob_len, 2, 4,
                     entry == MatmulEntry::FrozenTile ? features.data()
                                                      : nullptr);
}

} // namespace

TEST(SimdKernelsDeath, Matmul4BitOutOfRangePanicsAtEveryLevel)
{
    // The panic names the offender and its partner, which pins the
    // reported index to the offender's position.
    const std::vector<std::int8_t> w = oob_weights(0);
    const std::vector<std::size_t> positions = offender_positions(oob_len);
    for (const sim::SimdLevel level :
         {sim::SimdLevel::Scalar, sim::SimdLevel::Sse42,
          sim::SimdLevel::Neon, sim::SimdLevel::Avx2,
          sim::SimdLevel::Avx512, sim::SimdLevel::Avx512Vnni,
          sim::SimdLevel::AmxInt8}) {
        if (!sim::simd_level_compiled(level)
            || !sim::simd_level_supported(level))
            continue;
        for (std::size_t p = 0; p < positions.size(); ++p) {
            const std::size_t pos = positions[p];
            const std::int8_t v = out_of_domain4[p];
            const std::string want = "exceeds 4-bit range: "
                                     + std::to_string(v) + " x "
                                     + std::to_string(w[pos])
                                     + "([^0-9]|$)";
            for (const MatmulEntry entry :
                 {MatmulEntry::Span, MatmulEntry::Tile,
                  MatmulEntry::FrozenTile})
                EXPECT_DEATH(run_out_of_range_matmul(level, entry, pos, v),
                             want)
                    << sim::simd_level_name(level) << " pos " << pos;
        }
    }
    sim::reset_simd_level();
}

// ---------------------------------------------------------------------
// Poisoned tables: the widening-multiply fast path must stand down
// ---------------------------------------------------------------------

TEST(SimdKernels, PoisonedLutExactAtEveryLevel)
{
    // scratchWrite rewrites a LUT row byte, so the reseeded table's
    // product plane no longer equals a*b (productsExact drops) and the
    // span must read poisoned products from the planes (the scalar
    // loop) instead of taking the widening-multiply histogram kernel.
    for_each_runnable_level([](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        legacy.subarray.scratchWrite(0, 42);
        simd.subarray.scratchWrite(0, 42);

        const std::int8_t three = 3;
        const std::int32_t pl =
            legacy.bce.dotProductSpan(&three, &three, 1, 8);
        const std::int32_t pt =
            simd.bce.dotProductSpan(&three, &three, 1, 8);
        EXPECT_EQ(42, pl) << ctx; // the poisoned entry, shift 0
        EXPECT_EQ(pl, pt) << ctx;

        const std::vector<std::int8_t> a = pattern(1024, 51, 127);
        const std::vector<std::int8_t> b = pattern(1024, 52, 127);
        ASSERT_EQ(
            legacy.bce.dotProductSpan(a.data(), b.data(), a.size(), 8),
            simd.bce.dotProductSpan(a.data(), b.data(), a.size(), 8))
            << ctx;
        expect_engines_identical(legacy, simd, ctx);
    });
}

// ---------------------------------------------------------------------
// Conv-table invalidation edges
// ---------------------------------------------------------------------

TEST(SimdKernels, LutRowRewriteMidBatchForcesExactlyOneReseed)
{
    Engine e(ExecTier::Tiered);
    const std::vector<std::int8_t> a = pattern(64, 61, 127);
    const std::vector<std::int8_t> b = pattern(64, 62, 127);

    EXPECT_EQ(0u, e.bce.convTableSeeds());
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(1u, e.bce.convTableSeeds()); // first use seeds

    // Steady state: further spans reuse the memoized table.
    for (int i = 0; i < 5; ++i)
        (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(1u, e.bce.convTableSeeds());

    // A LUT-row rewrite mid-batch moves the sub-array generation; the
    // very next span must reseed once, then settle again.
    e.subarray.scratchWrite(0, 42);
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(2u, e.bce.convTableSeeds());
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(2u, e.bce.convTableSeeds());

    // Every further rewrite moves the generation and costs one reseed.
    e.subarray.scratchWrite(1, 7);
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(3u, e.bce.convTableSeeds());
}

TEST(SimdKernels, EachPrecisionSeedsItsOwnConvTable)
{
    Engine e(ExecTier::Tiered);
    const std::vector<std::int8_t> a = pattern(32, 71, 7);
    const std::vector<std::int8_t> b = pattern(32, 72, 7);

    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(1u, e.bce.convTableSeeds());
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 4);
    EXPECT_EQ(2u, e.bce.convTableSeeds()); // 4-bit table is separate
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 4);
    (void)e.bce.dotProductSpan(a.data(), b.data(), a.size(), 8);
    EXPECT_EQ(2u, e.bce.convTableSeeds()); // both now warm
}

TEST(SimdKernels, StaleGenerationIsNeverServed)
{
    // The dispatch-time staleness predicate the conv path relies on:
    // a table seeded against generation G must stop matching as soon
    // as the sub-array moves past G.
    Engine e(ExecTier::Tiered);
    const std::int8_t three = 3;
    (void)e.bce.dotProductSpan(&three, &three, 1, 8);

    const std::uint64_t gen = e.subarray.lutGeneration();
    e.subarray.scratchWrite(0, 42);
    EXPECT_NE(gen, e.subarray.lutGeneration());

    // Serving after the rewrite reflects the poisoned byte — proof the
    // stale table was rejected, not reused.
    EXPECT_EQ(42, e.bce.dotProductSpan(&three, &three, 1, 8));
}

// ---------------------------------------------------------------------
// run_span contract details
// ---------------------------------------------------------------------

TEST(SimdKernels, RunSpanReportsFirstOutOfRangeIndex)
{
    // Every out-of-domain byte at every offender position of every
    // ragged length, with a second offender after it: the strict span
    // reports the first one. Spans without an offender stay in range
    // and sum exactly.
    const lut::DatapathTable t = lut::build_rom_datapath_table(
        4, lut::MultLut{});
    ASSERT_TRUE(bce::simd::histogram_eligible(t));
    for_each_runnable_level([&](sim::SimdLevel level) {
        const std::string ctx = sim::simd_level_name(level);
        for (const std::size_t len : ragged_lengths()) {
            std::vector<std::int8_t> a = pattern(len, 91, 8);
            const std::vector<std::int8_t> b = pattern(len, 92, 8);
            const bce::simd::SpanSums in = bce::simd::run_span(
                t, a.data(), b.data(), len,
                bce::simd::SpanSemantics::MatmulStrict);
            std::int64_t want = 0;
            for (std::size_t i = 0; i < len; ++i)
                want += a[i] * b[i];
            ASSERT_TRUE(in.inRange) << ctx << " len " << len;
            ASSERT_EQ(want, in.acc) << ctx << " len " << len;
            for (const std::size_t pos : offender_positions(len)) {
                for (const std::int8_t v : out_of_domain4) {
                    std::vector<std::int8_t> x = a;
                    x[pos] = v;
                    if (pos + 1 < len)
                        x[len - 1] = 9;
                    const bce::simd::SpanSums s = bce::simd::run_span(
                        t, x.data(), b.data(), len,
                        bce::simd::SpanSemantics::MatmulStrict);
                    ASSERT_FALSE(s.inRange) << ctx << " len " << len;
                    ASSERT_EQ(pos, s.firstOutOfRange)
                        << ctx << " len " << len << " byte " << int(v);
                }
            }
        }
    });
}

TEST(SimdKernels, ZeroLengthSpanIsANoOp)
{
    for_each_runnable_level([](sim::SimdLevel level) {
        Engine legacy(ExecTier::Legacy);
        Engine simd(ExecTier::Tiered);
        EXPECT_EQ(0, legacy.bce.dotProductSpan(nullptr, nullptr, 0, 8));
        EXPECT_EQ(0, simd.bce.dotProductSpan(nullptr, nullptr, 0, 8));
        expect_engines_identical(legacy, simd,
                                 sim::simd_level_name(level));
    });
}

TEST(SimdKernels, DequantizeStoreMatchesScalarEpilogueAtEveryLevel)
{
    // The conv/FC store against its scalar specification: one
    // contiguous run of accumulators, one bias per run or per element, ragged
    // lengths, with and without the folded ReLU. Biases and scales
    // reach the ReLU's slow lanes: y * 256 at and past 2^31, NaN from
    // an infinite scale, ties at +-0.5 / 256.
    constexpr float inf = std::numeric_limits<float>::infinity();
    const float biases[] = {0.0f,     0.25f,       -3.5f, 0.5f / 256,
                            8388608.0f, -8388608.0f, 3e9f, inf};
    const double xScales[] = {1.0 / 256, 0.01, 1e-7,
                              std::numeric_limits<double>::infinity()};
    // Each triple rounds to different floats as (acc * w) * x and as
    // acc * (w * x): the store must keep the first order.
    const struct
    {
        std::int32_t acc;
        double w, x;
    } orderSensitive[] = {
        {375289, 0.00089424090432440597, 0.011672061791079389},
        {-223848, 0.0013508448506791436, 0.0072258197580590136},
        {-677923, 0.00076108949780707719, 0.0082924567512626373}};
    std::vector<std::int32_t> acc(64 * 5);
    for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = static_cast<std::int32_t>((i * 2654435761u) % 200001)
                 - 100000;
    acc[0] = 0;
    acc[3] = std::numeric_limits<std::int32_t>::min();
    acc[5] = std::numeric_limits<std::int32_t>::max();
    for_each_runnable_level([&](sim::SimdLevel level) {
        for (const auto &t : orderSensitive) {
            const std::vector<std::int32_t> same(21, t.acc);
            const float zero = 0.0f;
            std::vector<float> got(same.size());
            bce::simd::dequantize_store(same.data(), same.size(), t.w, t.x,
                                        &zero, 0, false, got.data());
            for (const float v : got)
                ASSERT_EQ(v, static_cast<float>(t.acc * t.w * t.x))
                    << sim::simd_level_name(level) << " acc " << t.acc;
        }
        {
            for (const std::size_t n : {std::size_t(0), std::size_t(1),
                                        std::size_t(16), std::size_t(23),
                                        std::size_t(64)}) {
                for (const float bias : biases) {
                    std::vector<float> perElem(n, bias);
                    for (std::size_t i = 0; i < n; i += 3)
                        perElem[i] = -bias + float(i) / 512;
                    for (const double xs : xScales) {
                        for (const bool relu : {false, true}) {
                            for (const std::size_t bstride :
                                 {std::size_t(0), std::size_t(1)}) {
                                const float *b =
                                    bstride ? perElem.data() : &bias;
                                std::vector<float> got(n + 1, 7.0f);
                                bce::simd::dequantize_store(
                                    acc.data(), n, 0.5, xs, b, bstride,
                                    relu, got.data());
                                for (std::size_t i = 0; i < n; ++i) {
                                    const float y =
                                        static_cast<float>(
                                            acc[i] * 0.5 * xs)
                                        + b[i * bstride];
                                    const float want =
                                        relu ? bce::simd::relu_q8(y) : y;
                                    std::uint32_t x, w;
                                    std::memcpy(&x, &got[i], 4);
                                    std::memcpy(&w, &want, 4);
                                    ASSERT_EQ(x, w)
                                        << sim::simd_level_name(level)
                                        << " n " << n << " i " << i
                                        << " bias "
                                        << bias << " xs " << xs
                                        << " relu " << relu;
                                }
                                ASSERT_EQ(got[n], 7.0f) << "overrun";
                            }
                        }
                    }
                }
            }
        }
    });
}

namespace {

/** The bits of @p x: NaN payloads and signed zeros compare exactly. */
std::uint64_t
bits_of(double x)
{
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/**
 * Inputs for the PWL span over @p t: every segment's left edge and its
 * neighbours on both sides, the range ends and values beyond them,
 * signed zeros, infinities, NaNs (quiet, negative, signalling) and
 * random doubles, in range and from random bit patterns.
 */
std::vector<double>
pwl_inputs(const lut::PwlTable &t)
{
    using limits = std::numeric_limits<double>;
    constexpr double inf = limits::infinity();
    std::vector<double> xs;
    for (unsigned s = 0; s <= t.segments(); ++s) {
        const double edge = t.xmin() + s * t.width();
        xs.push_back(edge);
        xs.push_back(std::nextafter(edge, -inf));
        xs.push_back(std::nextafter(edge, inf));
    }
    for (const double x :
         {t.xmin(), t.xmax(), t.xmin() - 0.5, t.xmax() + 0.5, -1e300, 1e300,
          0.0, -0.0, inf, -inf, limits::quiet_NaN(), -limits::quiet_NaN(),
          limits::signaling_NaN(), limits::denorm_min(), -limits::max()})
        xs.push_back(x);
    std::uint64_t state = 0x9E3779B97F4A7C15u;
    const auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    const double span = t.xmax() - t.xmin() + 4.0;
    for (int i = 0; i < 512; ++i) {
        xs.push_back(t.xmin() - 2.0
                     + span * static_cast<double>(next() >> 11) * 0x1p-53);
        std::uint64_t b = next();
        double x;
        std::memcpy(&x, &b, sizeof x);
        xs.push_back(x);
    }
    return xs;
}

} // namespace

TEST(SimdKernels, PwlSpanMatchesScalarEvaluateAtEveryLevel)
{
    // Bce::evaluatePwlSpan at the Tiered tier runs simd::pwl_span
    // where it has a vector form and the oracle loop elsewhere; it
    // must return PwlTable::evaluate's bits and book what n
    // evaluatePwl calls on the Legacy oracle book, energy included.
    // The last table has a bound at 0 and beta = -0.0 in its first
    // segment: only a clamp that keeps -0.0 (std::clamp's) gets
    // evaluate(-0.0) = -0.0 there.
    const lut::PwlTable tables[] = {
        lut::make_sigmoid_table(), lut::make_tanh_table(),
        lut::make_exp_table(),
        lut::PwlTable("signed-zero",
                      [](double x) { return x == 0.0 ? -0.0 : x; }, 0.0,
                      4.0, 4)};
    std::vector<std::size_t> lengths;
    for (std::size_t n = 0; n <= 17; ++n)
        lengths.push_back(n);
    for (const std::size_t n : {1023u, 1024u, 1025u})
        lengths.push_back(n);
    for_each_runnable_level([&](sim::SimdLevel level) {
        for (const lut::PwlTable &t : tables) {
            const std::vector<double> xs = pwl_inputs(t);
            lengths.push_back(xs.size());
            for (const std::size_t n : lengths) {
                const std::string ctx =
                    std::string(sim::simd_level_name(level)) + " "
                    + t.name() + " n " + std::to_string(n);
                // A window of the inputs that starts somewhere new for
                // each length, so every tail lane sees edges and NaNs.
                std::vector<double> in(n);
                for (std::size_t i = 0; i < n; ++i)
                    in[i] = xs[(i + 7 * n) % xs.size()];

                Engine legacy(ExecTier::Legacy);
                Engine simd(ExecTier::Tiered);
                legacy.bce.setMode(BceMode::Special);
                simd.bce.setMode(BceMode::Special);
                lut::MicroOpCounts oracle;
                std::vector<double> got(n + 1, 7.0);
                simd.bce.evaluatePwlSpan(t, in.data(), got.data(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    const double want = t.evaluate(in[i], &oracle);
                    ASSERT_EQ(bits_of(got[i]), bits_of(want))
                        << ctx << " i " << i << " x " << in[i];
                    ASSERT_EQ(bits_of(legacy.bce.evaluatePwl(t, in[i])),
                              bits_of(want))
                        << ctx << " i " << i;
                }
                ASSERT_EQ(got[n], 7.0) << ctx << " overrun";

                const bce::BceStats &s = simd.bce.stats();
                EXPECT_EQ(s.counts.lutLookups, oracle.lutLookups) << ctx;
                EXPECT_EQ(s.counts.romLookups, oracle.romLookups) << ctx;
                EXPECT_EQ(s.counts.adds, oracle.adds) << ctx;
                EXPECT_EQ(s.counts.cycles, oracle.cycles) << ctx;
                EXPECT_EQ(s.specialLutEvents, n) << ctx;
                EXPECT_EQ(s.specialLutEvents,
                          legacy.bce.stats().specialLutEvents)
                    << ctx;
                EXPECT_EQ(s.cyclesByMode, legacy.bce.stats().cyclesByMode)
                    << ctx;
                expect_engines_identical(legacy, simd, ctx);

                // In place, as the LSTM step runs it.
                std::vector<double> inPlace = in;
                simd.bce.evaluatePwlSpan(t, inPlace.data(), inPlace.data(),
                                         n);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(bits_of(inPlace[i]), bits_of(got[i]))
                        << ctx << " in place, i " << i;
            }
            lengths.pop_back();
        }
    });
}
