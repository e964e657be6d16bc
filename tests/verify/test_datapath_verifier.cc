/**
 * @file
 * Split-plane datapath-table auditor: golden fixtures (the ROM tables
 * the tiered engine memoizes pass clean, and a plan-level verify
 * surfaces no lut-plane findings on healthy networks) plus one
 * deliberately-broken plane fixture per failure mode, each asserting
 * the exact rule id fires. Broken fixtures are synthesized through
 * DatapathPlaneView — DatapathTable::build can never emit them, which
 * is precisely why the auditor checks the planes and not the builder.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dnn/model_zoo.hh"
#include "lut/datapath_table.hh"
#include "lut/mult_lut.hh"
#include "verify/datapath_verifier.hh"
#include "verify/plan_verifier.hh"

namespace {

using namespace bfree;
using namespace bfree::verify;

using lut::DatapathTable;

/** A mutable deep copy of a built table's planes. */
struct PlaneFixture
{
    std::vector<std::int32_t> products;
    std::vector<std::uint32_t> deltas;
    std::vector<std::uint32_t> pairDeltas;
    DatapathPlaneView view;

    explicit PlaneFixture(const DatapathTable &t)
        : products(t.products(), t.products() + t.entryCount()),
          deltas(t.deltas(), t.deltas() + t.entryCount()),
          pairDeltas(t.pairDeltas(), t.pairDeltas() + 256)
    {
        view = view_of(t);
        view.products = products.data();
        view.deltas = deltas.data();
        view.pairDeltas = pairDeltas.data();
    }
};

const DatapathTable &
romTable(unsigned bits)
{
    static const lut::MultLut rom;
    static const DatapathTable t4 = lut::build_rom_datapath_table(4, rom);
    static const DatapathTable t8 = lut::build_rom_datapath_table(8, rom);
    return bits == 4 ? t4 : t8;
}

// ----------------------------------------------------------------------
// Golden fixtures
// ----------------------------------------------------------------------

TEST(DatapathVerifier, RomTablesPassClean)
{
    for (const unsigned bits : {4u, 8u}) {
        const VerifyReport report = verify_datapath_table(romTable(bits));
        EXPECT_TRUE(report.ok()) << report.toString();
        EXPECT_TRUE(report.diagnostics().empty());
    }
}

TEST(DatapathVerifier, RomTablesClaimBothFastPaths)
{
    // The auditor's exactness passes only bite when the flags are
    // claimed; prove the golden tables actually claim them.
    for (const unsigned bits : {4u, 8u}) {
        EXPECT_TRUE(romTable(bits).productsExact());
        EXPECT_TRUE(romTable(bits).histogramExact());
    }
}

TEST(DatapathVerifier, PlanVerifyAuditsDatapathClean)
{
    const PlanVerifier verifier{tech::CacheGeometry{}};
    dnn::Network net = dnn::make_tiny_cnn();
    net.setUniformPrecision(8);
    const VerifyReport report = verifier.verifyNetwork(net, 8);
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_FALSE(report.has(RuleId::LutPlaneShape));
    EXPECT_FALSE(report.has(RuleId::LutPlaneExact));
}

TEST(DatapathVerifier, DatapathAuditCanBeDisabled)
{
    PlanVerifierOptions opts;
    opts.checkDatapath = false;
    const PlanVerifier verifier{tech::CacheGeometry{}, opts};
    dnn::Network net = dnn::make_tiny_cnn();
    net.setUniformPrecision(8);
    EXPECT_TRUE(verifier.verifyNetwork(net, 8).ok());
}

// ----------------------------------------------------------------------
// Broken fixtures: shape rules
// ----------------------------------------------------------------------

TEST(DatapathVerifier, UncoveredPrecisionFires)
{
    PlaneFixture f{romTable(4)};
    f.view.bits = 16;
    VerifyReport report;
    verify_datapath_planes(f.view, report, "fixture");
    EXPECT_TRUE(report.has(RuleId::LutPlaneShape));
    EXPECT_FALSE(report.ok());
}

TEST(DatapathVerifier, SpanPrecisionMismatchFires)
{
    PlaneFixture f{romTable(4)};
    f.view.span = 16; // 2^4, off by the asymmetric +half endpoint.
    VerifyReport report;
    verify_datapath_planes(f.view, report, "fixture");
    EXPECT_TRUE(report.has(RuleId::LutPlaneShape));
}

TEST(DatapathVerifier, TruncatedPlaneFiresShapeAndSkipsExactness)
{
    PlaneFixture f{romTable(4)};
    f.view.productCount -= 1;
    f.view.deltaCount -= 1;
    VerifyReport report;
    verify_datapath_planes(f.view, report, "fixture");
    EXPECT_EQ(2u, report.count(RuleId::LutPlaneShape));
    // Exactness over a short plane would read out of bounds; the
    // auditor must not reach it.
    EXPECT_FALSE(report.has(RuleId::LutPlaneExact));
}

TEST(DatapathVerifier, ShortPairDeltaTableFires)
{
    PlaneFixture f{romTable(4)};
    f.view.pairDeltaCount = 128;
    VerifyReport report;
    verify_datapath_planes(f.view, report, "fixture");
    EXPECT_TRUE(report.has(RuleId::LutPlaneShape));
}

// ----------------------------------------------------------------------
// Broken fixtures: exactness rules
// ----------------------------------------------------------------------

TEST(DatapathVerifier, LyingProductsExactFires)
{
    PlaneFixture f{romTable(4)};
    ASSERT_TRUE(f.view.productsExact);
    f.products[f.products.size() / 2] += 1; // one poisoned product
    VerifyReport report;
    verify_datapath_planes(f.view, report, "fixture");
    EXPECT_EQ(1u, report.count(RuleId::LutPlaneExact));
    EXPECT_FALSE(report.ok());
}

TEST(DatapathVerifier, HonestInexactProductsPassClean)
{
    // The same poisoned product with the flag honestly cleared is
    // exactly the scalar-loop fallback — not a finding.
    PlaneFixture f{romTable(4)};
    f.products[f.products.size() / 2] += 1;
    f.view.productsExact = false;
    VerifyReport report;
    verify_datapath_planes(f.view, report, "fixture");
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(DatapathVerifier, LyingHistogramExactFires)
{
    PlaneFixture f{romTable(4)};
    ASSERT_TRUE(f.view.histogramExact);
    // One delta diverges from its class key: the collapse is broken.
    f.deltas[f.deltas.size() / 2] ^= 0x0101;
    VerifyReport report;
    verify_datapath_planes(f.view, report, "fixture");
    EXPECT_EQ(1u, report.count(RuleId::LutPlaneExact));
}

TEST(DatapathVerifier, FoldDivergenceFires)
{
    // Doctor a whole class key consistently: every (a, b) of the
    // (1, 1) class key gets the same wrong delta, so the class
    // collapse still holds but the bilinear feature fold the SIMD
    // kernels compute does not.
    PlaneFixture f{romTable(4)};
    const std::uint8_t key = DatapathTable::class_key(1, 1);
    const std::uint32_t doctored =
        f.pairDeltas[key] + (1u << DatapathTable::delta_adds_shift);
    f.pairDeltas[key] = doctored;
    const std::int32_t half = std::int32_t{1} << (f.view.bits - 1);
    for (std::int32_t a = -half; a <= half; ++a)
        for (std::int32_t b = -half; b <= half; ++b)
            if (DatapathTable::class_key(a, b) == key)
                f.deltas[std::size_t(a + half) * f.view.span
                         + std::size_t(b + half)] = doctored;
    VerifyReport report;
    verify_datapath_planes(f.view, report, "fixture");
    EXPECT_EQ(1u, report.count(RuleId::LutPlaneExact));
}

TEST(DatapathVerifier, CyclesFactorOutOfRangeFires)
{
    PlaneFixture f{romTable(4)};
    f.view.cyclesFactor = 2;
    VerifyReport report;
    verify_datapath_planes(f.view, report, "fixture");
    EXPECT_TRUE(report.has(RuleId::LutPlaneExact));
}

TEST(DatapathVerifier, RuleNamesAreStable)
{
    EXPECT_STREQ("lut-plane-shape", rule_name(RuleId::LutPlaneShape));
    EXPECT_STREQ("lut-plane-exact", rule_name(RuleId::LutPlaneExact));
}

} // namespace
