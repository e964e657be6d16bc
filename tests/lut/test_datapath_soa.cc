/**
 * @file
 * Structure-of-arrays datapath tables: plane contents against the
 * operand analyzer, packed-delta round-trips, the productsExact fast
 * path flag and generation matching — the invariants the SIMD span
 * kernels consume without re-checking.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "lut/datapath_table.hh"
#include "lut/mult_lut.hh"
#include "lut/operand_analyzer.hh"

namespace {

using namespace bfree;

TEST(DatapathSoa, CoversExactlyFourAndEightBits)
{
    EXPECT_TRUE(lut::DatapathTable::coversBits(4));
    EXPECT_TRUE(lut::DatapathTable::coversBits(8));
    EXPECT_FALSE(lut::DatapathTable::coversBits(2));
    EXPECT_FALSE(lut::DatapathTable::coversBits(16));
}

TEST(DatapathSoa, RomTableMatchesAnalyzerOverFullDomain)
{
    const lut::MultLut rom;
    for (const unsigned bits : {4u, 8u}) {
        const lut::DatapathTable t =
            lut::build_rom_datapath_table(bits, rom);
        ASSERT_TRUE(t.valid());
        EXPECT_EQ(bits, t.bits());
        const std::int32_t half = std::int32_t{1} << (bits - 1);
        EXPECT_EQ(half, t.half());
        EXPECT_EQ(2u * static_cast<unsigned>(half) + 1, t.span());
        EXPECT_EQ(std::size_t{t.span()} * t.span(), t.entryCount());
        EXPECT_TRUE(t.countsRomLookups());

        for (std::int32_t a = -half; a <= half; ++a) {
            for (std::int32_t b = -half; b <= half; ++b) {
                const lut::MultResult r = lut::multiply_signed(
                    a, b, bits, rom, lut::LookupSource::BceRom);
                const lut::DatapathEntry e = t.at(a, b);
                ASSERT_EQ(r.product, e.product)
                    << a << " * " << b << " @ " << bits << " bits";
                EXPECT_EQ(r.counts.romLookups, e.romLookups);
                EXPECT_EQ(0u, e.lutLookups);
                EXPECT_EQ(r.counts.shifts, e.shifts);
                EXPECT_EQ(r.counts.adds, e.adds);
                EXPECT_EQ(r.counts.cycles, e.cycles);
            }
        }
    }
}

TEST(DatapathSoa, AsymmetricEndpointsAreMemoized)
{
    // The analyzer's signed domain is [-2^(bits-1), +2^(bits-1)] —
    // BOTH endpoints, although int8 can only represent the negative
    // one. The planes must cover the full square.
    const lut::MultLut rom;
    for (const unsigned bits : {4u, 8u}) {
        const lut::DatapathTable t =
            lut::build_rom_datapath_table(bits, rom);
        const std::int32_t half = t.half();
        for (const std::int32_t a : {-half, half}) {
            for (const std::int32_t b : {-half, half}) {
                EXPECT_EQ(a * b, t.at(a, b).product)
                    << "endpoint " << a << " * " << b;
                EXPECT_LT(t.index(a, b), t.entryCount());
            }
        }
        // Endpoint rows sit at the plane borders.
        EXPECT_EQ(0u, t.index(-half, -half));
        EXPECT_EQ(t.entryCount() - 1, t.index(half, half));
    }
}

TEST(DatapathSoa, RomProductsAreExact)
{
    // The hardwired ROM holds the pristine multiply image, so the
    // product plane must equal a*b everywhere — the precondition for
    // the kernels' widening-multiply fast path.
    const lut::MultLut rom;
    for (const unsigned bits : {4u, 8u}) {
        const lut::DatapathTable t =
            lut::build_rom_datapath_table(bits, rom);
        EXPECT_TRUE(t.productsExact());
        const std::int32_t half = t.half();
        const std::int32_t *products = t.products();
        for (std::int32_t a = -half; a <= half; ++a)
            for (std::int32_t b = -half; b <= half; ++b)
                ASSERT_EQ(a * b, products[t.index(a, b)]);
    }
}

TEST(DatapathSoa, PoisonedReferenceClearsProductsExact)
{
    // A reference that disagrees with a*b anywhere (a rewritten LUT
    // row) must drop the fast-path flag while the plane still serves
    // the poisoned value.
    const lut::DatapathTable t = lut::DatapathTable::build(
        4, [](std::int32_t a, std::int32_t b) {
            lut::MultResult r;
            r.product = (a == 3 && b == 2) ? 42 : a * b;
            r.counts.lutLookups = 1;
            return r;
        });
    EXPECT_FALSE(t.productsExact());
    EXPECT_FALSE(t.countsRomLookups());
    EXPECT_EQ(42, t.at(3, 2).product);
    EXPECT_EQ(-6, t.at(3, -2).product);
}

TEST(DatapathSoa, PackedDeltaRoundTripsEveryField)
{
    const lut::DatapathTable t = lut::DatapathTable::build(
        4, [](std::int32_t a, std::int32_t b) {
            lut::MultResult r;
            r.product = a * b;
            // Distinct per-field values keyed on the pair, so a
            // mis-shifted unpack cannot cancel out.
            r.counts.lutLookups = static_cast<unsigned>(a + 8) % 5;
            r.counts.shifts = static_cast<unsigned>(b + 8) % 7;
            r.counts.adds = static_cast<unsigned>(a + b + 16) % 11;
            r.counts.cycles = static_cast<unsigned>(a - b + 16) % 13;
            return r;
        });
    for (std::int32_t a = -8; a <= 8; ++a) {
        for (std::int32_t b = -8; b <= 8; ++b) {
            const lut::DatapathEntry e = t.at(a, b);
            EXPECT_EQ(static_cast<unsigned>(a + 8) % 5, e.lutLookups);
            EXPECT_EQ(static_cast<unsigned>(b + 8) % 7, e.shifts);
            EXPECT_EQ(static_cast<unsigned>(a + b + 16) % 11, e.adds);
            EXPECT_EQ(static_cast<unsigned>(a - b + 16) % 13, e.cycles);
        }
    }

    // The packed plane itself uses the documented byte positions.
    const std::uint32_t d = t.deltas()[t.index(3, 2)];
    EXPECT_EQ((3u + 8) % 5,
              (d >> lut::DatapathTable::delta_lookups_shift) & 0xFF);
    EXPECT_EQ((2u + 8) % 7,
              (d >> lut::DatapathTable::delta_shifts_shift) & 0xFF);
    EXPECT_EQ((3u + 2 + 16) % 11,
              (d >> lut::DatapathTable::delta_adds_shift) & 0xFF);
    EXPECT_EQ((3u - 2 + 16) % 13,
              (d >> lut::DatapathTable::delta_cycles_shift) & 0xFF);
}

TEST(DatapathSoa, RomTableIsHistogramExactWithUnitCyclesFactor)
{
    // The analyzer's counts are a pure function of the operand nibble
    // structure, so the 256-entry class collapse and its bilinear
    // feature fold must verify for both ROM precisions; ROM tables
    // charge one cycle per nibble-pair product (cyclesFactor 1).
    const lut::MultLut rom;
    for (const unsigned bits : {4u, 8u}) {
        const lut::DatapathTable t =
            lut::build_rom_datapath_table(bits, rom);
        EXPECT_TRUE(t.histogramExact());
        EXPECT_EQ(1u, t.cyclesFactor());

        // Every memoized delta collapses onto its class key.
        const std::int32_t half = t.half();
        const std::uint32_t *deltas = t.deltas();
        const std::uint32_t *pair = t.pairDeltas();
        for (std::int32_t a = -half; a <= half; ++a)
            for (std::int32_t b = -half; b <= half; ++b)
                ASSERT_EQ(pair[lut::DatapathTable::class_key(a, b)],
                          deltas[t.index(a, b)])
                    << a << " * " << b << " @ " << bits;
    }
}

TEST(DatapathSoa, ZeroCycleReferenceDerivesConvCyclesFactor)
{
    // Conv-style references charge cycles at the span level, not per
    // nibble pair: the factored fold must derive cyclesFactor 0 and
    // stay exact.
    const lut::MultLut rom;
    const lut::DatapathTable t = lut::DatapathTable::build(
        8, [&rom](std::int32_t a, std::int32_t b) {
            lut::MultResult r = lut::multiply_signed(
                a, b, 8, rom, lut::LookupSource::BceRom);
            r.counts.cycles = 0;
            return r;
        });
    EXPECT_TRUE(t.histogramExact());
    EXPECT_EQ(0u, t.cyclesFactor());
}

TEST(DatapathSoa, ValueDependentCountsClearHistogramExact)
{
    // adds = |a| differs between magnitudes 2 and 4 — one structural
    // class — so the class collapse cannot hold. The table must clear
    // the flag (sending spans to the scalar loop over the delta plane) and
    // still serve the arbitrary counts faithfully.
    const lut::DatapathTable t = lut::DatapathTable::build(
        4, [](std::int32_t a, std::int32_t b) {
            lut::MultResult r;
            r.product = a * b;
            r.counts.romLookups = 1;
            r.counts.adds = static_cast<std::uint64_t>(a < 0 ? -a : a);
            return r;
        });
    EXPECT_FALSE(t.histogramExact());
    EXPECT_TRUE(t.productsExact());
    EXPECT_EQ(2u, t.at(2, 1).adds);
    EXPECT_EQ(4u, t.at(-4, 1).adds);
}

TEST(DatapathSoa, ClassConsistentNonBilinearCountsClearHistogramExact)
{
    // Constant counts ARE a pure function of the class key, so the
    // collapse holds — but adds = 1 on zero operands defeats the
    // bilinear feature fold (p = 0 forces adds = 0). The second
    // verification stage must catch it.
    const lut::DatapathTable t = lut::DatapathTable::build(
        4, [](std::int32_t a, std::int32_t b) {
            lut::MultResult r;
            r.product = a * b;
            r.counts.romLookups = 0;
            r.counts.adds = 1;
            return r;
        });
    EXPECT_FALSE(t.histogramExact());
}

TEST(DatapathSoa, MatchesGenerationRequiresValidityAndEquality)
{
    lut::DatapathTable empty;
    EXPECT_FALSE(empty.valid());
    EXPECT_FALSE(empty.matchesGeneration(0)); // invalid never matches

    const lut::MultLut rom;
    lut::DatapathTable t = lut::build_rom_datapath_table(8, rom);
    t.generation = 7;
    EXPECT_TRUE(t.matchesGeneration(7));
    EXPECT_FALSE(t.matchesGeneration(8)); // stale must be rejected
}

TEST(DatapathSoaDeath, MicroOpCountOverflowingItsByteIsFatal)
{
    EXPECT_DEATH(lut::DatapathTable::build(
                     4,
                     [](std::int32_t a, std::int32_t b) {
                         lut::MultResult r;
                         r.product = a * b;
                         r.counts.adds = 0x100; // does not fit a byte
                         return r;
                     }),
                 "overflows its packed byte");
}

TEST(DatapathSoaDeath, MixedLookupSourcesAreFatal)
{
    // One table memoizes one lookup source; a reference that books
    // both LUT-row and ROM reads would make the packed lookups byte
    // ambiguous.
    EXPECT_DEATH(lut::DatapathTable::build(
                     4,
                     [](std::int32_t a, std::int32_t b) {
                         lut::MultResult r;
                         r.product = a * b;
                         r.counts.lutLookups = (a > 0) ? 1 : 0;
                         r.counts.romLookups = (a > 0) ? 0 : 1;
                         return r;
                     }),
                 "mixes LUT-row and ROM lookups");
}

} // namespace
