/**
 * @file
 * The whole-plan static auditor: a golden corpus (every zoo network at
 * both uniform precisions, compiled plans, disjoint multi-plan
 * residency), one deliberately-broken fixture per plan-level rule
 * (asserting the exact rule id fires), and the mergeFrom
 * order-independence guarantee the plan report relies on.
 */

#include <gtest/gtest.h>

#include "core/network_plan.hh"
#include "dnn/model_zoo.hh"
#include "sim/random.hh"
#include "tech/row_layout.hh"
#include "verify/plan_verifier.hh"

using namespace bfree;
using namespace bfree::verify;

namespace {

tech::CacheGeometry
defaultGeometry()
{
    return tech::CacheGeometry{};
}

PlanVerifier
makeVerifier()
{
    return PlanVerifier(defaultGeometry());
}

/** A minimal weight-bearing placed kernel for hand-built layouts. */
PlacedKernel
placedFc(const std::string &name, unsigned base_subarray, unsigned span,
         std::uint64_t weight_bytes)
{
    const tech::CacheGeometry geom = defaultGeometry();
    PlacedKernel pk;
    pk.layer = dnn::make_fc(name, 64, 64);
    pk.kernel.mapping.mode = map::ExecMode::MatmulMode;
    pk.kernel.mapping.weightTiles = span;
    pk.kernel.mapping.weightBytes = weight_bytes;
    pk.kernel.mapping.activeSubarrays = span;
    pk.baseSubarray = base_subarray;
    pk.spanSubarrays = span;
    for (unsigned t = 0; t < span; ++t) {
        map::TileExtent e;
        e.subarray = t;
        e.byteOffset = tech::config_region_bytes;
        e.byteCount = static_cast<std::size_t>(
            std::min<std::uint64_t>(weight_bytes / std::max(1u, span),
                                    tech::usable_weight_bytes(geom)));
        pk.placement.extents.push_back(e);
    }
    pk.placement.weightBytes = weight_bytes;
    return pk;
}

PlanLayout
residentLayout(const std::string &name)
{
    PlanLayout layout;
    layout.name = name;
    layout.resident = true;
    return layout;
}

/** A three-node chain graph (input -> a -> b -> c) to break. */
DataflowGraph
chainGraph()
{
    DataflowGraph g;
    g.inputElems = 16;
    for (std::size_t i = 0; i < 3; ++i) {
        DataflowNode n;
        n.name = std::string(1, static_cast<char>('a' + i));
        n.inElems = 16;
        n.outElems = 16;
        if (i > 0)
            n.producers.push_back(i - 1);
        g.nodes.push_back(std::move(n));
    }
    return g;
}

} // namespace

// ----------------------------------------------------------------------
// Golden corpus
// ----------------------------------------------------------------------

TEST(PlanVerifierGolden, EveryZooNetworkAuditsCleanAtBothPrecisions)
{
    const PlanVerifier verifier = makeVerifier();
    using Factory = dnn::Network (*)();
    const std::initializer_list<Factory> nets = {
        +[] { return dnn::make_vgg16(); },
        +[] { return dnn::make_inception_v3(); },
        +[] { return dnn::make_lstm(); },
        +[] { return dnn::make_bert_base(); },
        +[] { return dnn::make_bert_large(); },
        +[] { return dnn::make_tiny_cnn(); }};
    for (const Factory make : nets) {
        for (unsigned bits : {8u, 4u}) {
            dnn::Network net = make();
            net.setUniformPrecision(bits);
            const VerifyReport report = verifier.verifyNetwork(net, bits);
            EXPECT_TRUE(report.ok())
                << net.name() << " at " << bits << "-bit:\n"
                << report.toString();
        }
    }
}

TEST(PlanVerifierGolden, CompiledPlanCarriesCleanDiagnostics)
{
    const dnn::Network net = dnn::make_tiny_cnn();
    sim::Rng rng(7);
    const core::NetworkWeights weights = core::random_weights(net, rng);
    const core::NetworkPlan plan =
        core::NetworkPlan::compile(net, weights, 8);
    EXPECT_TRUE(plan.diagnostics().ok()) << plan.diagnostics().toString();
    // Compile records exactly what a standalone verifier run reports.
    const VerifyReport standalone = makeVerifier().verify(plan);
    EXPECT_TRUE(standalone.ok());
    EXPECT_EQ(plan.diagnostics().toString(), standalone.toString());
}

TEST(PlanVerifierGolden, PackedTwoPlanResidencyIsClean)
{
    const tech::CacheGeometry geom = defaultGeometry();
    std::vector<PlanLayout> layouts;
    layouts.push_back(layout_network(dnn::make_tiny_cnn(), geom));
    layouts.push_back(layout_network(dnn::make_lstm(), geom));
    pack_layouts(layouts);
    const VerifyReport report = makeVerifier().verifyResidency(layouts);
    EXPECT_TRUE(report.ok()) << report.toString();
    // Packing actually separated the footprints.
    EXPECT_EQ(layouts[1].baseSubarray, layouts[0].spanSubarrays);
}

// ----------------------------------------------------------------------
// Broken corpus: one fixture per rule
// ----------------------------------------------------------------------

TEST(PlanVerifierBroken, PlanEmpty)
{
    const dnn::Network net("empty", dnn::FeatureShape{1, 1, 1});
    const VerifyReport report = makeVerifier().verifyNetwork(net);
    EXPECT_TRUE(report.has(RuleId::PlanEmpty));
    EXPECT_FALSE(report.ok());
}

TEST(PlanVerifierBroken, PlanPrecisionMismatch)
{
    dnn::Network net = dnn::make_tiny_cnn();
    net.setUniformPrecision(8);
    // Pin the plan at 4-bit against 8-bit layers.
    const VerifyReport report = makeVerifier().verifyNetwork(net, 4);
    EXPECT_TRUE(report.has(RuleId::PlanPrecision));
}

TEST(PlanVerifierBroken, PlanPrecisionUnsupported)
{
    dnn::Network net = dnn::make_tiny_cnn();
    net.layers()[0].precisionBits = 5;
    const VerifyReport report = makeVerifier().verifyNetwork(net);
    EXPECT_TRUE(report.has(RuleId::PlanPrecision));
}

TEST(PlanVerifierBroken, RegionBoundsRowsOutsideUsableSpan)
{
    PlanLayout layout = residentLayout("bounds");
    PlacedKernel pk = placedFc("fc0", 0, 1, 128);
    // Push the extent into the config-block region.
    pk.placement.extents[0].byteOffset = 0;
    layout.kernels.push_back(std::move(pk));
    layout.spanSubarrays = 1;

    VerifyReport report;
    makeVerifier().checkRegions({layout}, report);
    EXPECT_TRUE(report.has(RuleId::RegionBounds));
}

TEST(PlanVerifierBroken, RegionBoundsOffFabric)
{
    const unsigned fabric = defaultGeometry().totalSubarrays();
    PlanLayout layout = residentLayout("off-fabric");
    layout.baseSubarray = fabric - 1;
    PlacedKernel pk = placedFc("fc0", fabric - 1, 4, 4 * 1024);
    layout.kernels.push_back(std::move(pk));
    layout.spanSubarrays = 4;

    VerifyReport report;
    makeVerifier().checkRegions({layout}, report);
    EXPECT_TRUE(report.has(RuleId::RegionBounds));
}

TEST(PlanVerifierBroken, RegionOverlapWithinResidentPlan)
{
    PlanLayout layout = residentLayout("overlap");
    layout.kernels.push_back(placedFc("fc0", 0, 2, 1024));
    layout.kernels.push_back(placedFc("fc1", 1, 2, 1024)); // Collides.
    layout.spanSubarrays = 3;

    VerifyReport report;
    makeVerifier().checkRegions({layout}, report);
    EXPECT_TRUE(report.has(RuleId::RegionOverlap));
}

TEST(PlanVerifierBroken, RegionCrossPlanOverlap)
{
    // Two plans laid out at the same base: the multi-model API must
    // reject the co-residency.
    const tech::CacheGeometry geom = defaultGeometry();
    std::vector<PlanLayout> layouts;
    layouts.push_back(layout_network(dnn::make_tiny_cnn(), geom));
    layouts.push_back(layout_network(dnn::make_lstm(), geom));
    // No pack_layouts: both start at sub-array 0.
    const VerifyReport report = makeVerifier().verifyResidency(layouts);
    EXPECT_TRUE(report.has(RuleId::RegionCrossPlan));
    EXPECT_FALSE(report.ok());
}

TEST(PlanVerifierBroken, DataflowCycle)
{
    DataflowGraph g = chainGraph();
    g.nodes[0].producers.push_back(2); // a consumes c: a->b->c->a.
    g.nodes[0].inElems = 32;           // Keep fan-in consistent.

    VerifyReport report;
    makeVerifier().checkDataflow(g, report);
    EXPECT_TRUE(report.has(RuleId::DataflowCycle));
}

TEST(PlanVerifierBroken, DataflowDangling)
{
    DataflowGraph g = chainGraph();
    g.nodes[1].producers.push_back(17); // No such node.

    VerifyReport report;
    makeVerifier().checkDataflow(g, report);
    EXPECT_TRUE(report.has(RuleId::DataflowDangling));
}

TEST(PlanVerifierBroken, DataflowFanin)
{
    DataflowGraph g = chainGraph();
    g.nodes[1].inElems = 99; // Producer supplies 16.

    VerifyReport report;
    makeVerifier().checkDataflow(g, report);
    EXPECT_TRUE(report.has(RuleId::DataflowFanin));
}

TEST(PlanVerifierBroken, DataflowUnreachable)
{
    DataflowGraph g = chainGraph();
    // A fourth node nothing consumes, off the path to the output.
    DataflowNode dead;
    dead.name = "dead";
    dead.inElems = 16;
    dead.outElems = 16;
    g.outputNode = 2;
    g.nodes.push_back(std::move(dead));

    VerifyReport report;
    makeVerifier().checkDataflow(g, report);
    EXPECT_TRUE(report.has(RuleId::DataflowUnreachable));
}

TEST(PlanVerifierBroken, CapacityRowsOverflow)
{
    const unsigned fabric = defaultGeometry().totalSubarrays();
    PlanLayout layout = residentLayout("rows");
    layout.kernels.push_back(placedFc("fc0", 0, fabric / 2 + 1, 1024));
    layout.kernels.push_back(
        placedFc("fc1", fabric / 2 + 1, fabric / 2 + 1, 1024));
    layout.spanSubarrays = fabric + 2;

    VerifyReport report;
    makeVerifier().checkCapacity(layout, report);
    EXPECT_TRUE(report.has(RuleId::CapacityRows));
}

TEST(PlanVerifierBroken, CapacityFabricOverflow)
{
    const tech::CacheGeometry geom = defaultGeometry();
    const std::uint64_t fabric_bytes =
        std::uint64_t(geom.totalSubarrays())
        * tech::usable_weight_bytes(geom);
    PlanLayout layout = residentLayout("bytes");
    layout.kernels.push_back(placedFc("fc0", 0, 1, fabric_bytes + 1));
    layout.spanSubarrays = 1;

    VerifyReport report;
    makeVerifier().checkCapacity(layout, report);
    EXPECT_TRUE(report.has(RuleId::CapacityFabric));
}

TEST(PlanVerifierBroken, CapacityArenaLedger)
{
    core::PlanStats stats;
    stats.activationBytes = 100;
    stats.peakScratchBytes = 50;
    stats.arenaBytes = 100; // Should be 150.

    VerifyReport report;
    makeVerifier().checkArena(stats, {}, report);
    EXPECT_TRUE(report.has(RuleId::CapacityArena));
}

TEST(PlanVerifierBroken, CapacityArenaBudget)
{
    core::PlanStats stats;
    stats.activationBytes = 100;
    stats.peakScratchBytes = 50;
    stats.arenaBytes = 150;

    VerifyReport report;
    makeVerifier().checkArena(stats, {}, report, "arena", 64);
    EXPECT_TRUE(report.has(RuleId::CapacityArena));
}

TEST(PlanVerifierGolden, CompiledPlanEpiloguesAuditClean)
{
    // Every Relu after a Conv or FC folds at compile, at every
    // precision, and the folds it records pass the plan-epilogue rule.
    const dnn::Network net = dnn::make_tiny_cnn();
    sim::Rng rng(23);
    const core::NetworkWeights weights = core::random_weights(net, rng);
    for (unsigned bits : {4u, 8u, 16u}) {
        const core::NetworkPlan plan =
            core::NetworkPlan::compile(net, weights, bits);
        EXPECT_EQ(plan.stats().foldedRelus, 2u) << bits;
        VerifyReport report;
        makeVerifier().checkEpilogue(plan.layers(), report);
        EXPECT_TRUE(report.diagnostics().empty())
            << bits << ":\n" << report.toString();
    }
}

TEST(PlanVerifierBroken, EpilogueWithoutItsRelu)
{
    // A fold on a layer that is not a Conv/FC, a fold whose next layer
    // is not a Relu, and a Relu whose element count disagrees with
    // its producer's store are all errors.
    std::vector<core::PlannedLayer> layers(4);
    layers[0].layer = dnn::make_conv("c", {1, 4, 4}, 2, 3, 1, 1);
    layers[0].outElems = 32;
    layers[0].foldedRelu = true;
    layers[1].layer = dnn::make_pool("p", dnn::LayerKind::MaxPool,
                                     {2, 4, 4}, 2, 2, 0);
    layers[1].inElems = 32;
    layers[1].outElems = 8;
    layers[1].foldedRelu = true;
    layers[2].layer = dnn::make_fc("fc", 8, 4);
    layers[2].outElems = 4;
    layers[2].foldedRelu = true;
    layers[3].layer =
        dnn::make_activation("r", dnn::LayerKind::Relu, {8, 1, 1});
    layers[3].inElems = layers[3].outElems = 8;
    VerifyReport report;
    makeVerifier().checkEpilogue(layers, report);
    EXPECT_EQ(report.errorCount(), 3u) << report.toString();
    EXPECT_TRUE(report.has(RuleId::PlanEpilogue));
    EXPECT_FALSE(report.ok());
}

// ----------------------------------------------------------------------
// mergeFrom: stable per-layer ordering, independent of merge order
// ----------------------------------------------------------------------

namespace {

VerifyReport
layerReport(const std::string &tag, std::size_t findings)
{
    VerifyReport r;
    for (std::size_t i = 0; i < findings; ++i) {
        r.add(RuleId::InstShape, Severity::Error,
              tag + " finding " + std::to_string(i), "broken");
    }
    return r;
}

std::vector<std::string>
locations(const VerifyReport &r)
{
    std::vector<std::string> out;
    for (const Diagnostic &d : r.diagnostics())
        out.push_back(d.location);
    return out;
}

} // namespace

TEST(VerifyReportMerge, MergeFromIsOrderIndependent)
{
    // Three per-layer reports merged in layer order vs reversed vs
    // interleaved must produce one and the same plan report.
    VerifyReport forward;
    forward.mergeFrom(layerReport("a", 2), "layer 'a'", 0);
    forward.mergeFrom(layerReport("b", 1), "layer 'b'", 1);
    forward.mergeFrom(layerReport("c", 3), "layer 'c'", 2);

    VerifyReport reversed;
    reversed.mergeFrom(layerReport("c", 3), "layer 'c'", 2);
    reversed.mergeFrom(layerReport("b", 1), "layer 'b'", 1);
    reversed.mergeFrom(layerReport("a", 2), "layer 'a'", 0);

    VerifyReport interleaved;
    interleaved.mergeFrom(layerReport("b", 1), "layer 'b'", 1);
    interleaved.mergeFrom(layerReport("a", 2), "layer 'a'", 0);
    interleaved.mergeFrom(layerReport("c", 3), "layer 'c'", 2);

    EXPECT_EQ(locations(forward), locations(reversed));
    EXPECT_EQ(locations(forward), locations(interleaved));
    EXPECT_EQ(forward.toString(), reversed.toString());
    EXPECT_EQ(forward.toString(), interleaved.toString());
}

TEST(VerifyReportMerge, MergeFromIsStableWithinOneLayer)
{
    // Findings sharing a sequence key keep their source order.
    VerifyReport r;
    r.mergeFrom(layerReport("x", 3), "layer 'x'", 5);
    const std::vector<std::string> locs = locations(r);
    ASSERT_EQ(locs.size(), 3u);
    EXPECT_EQ(locs[0], "layer 'x': x finding 0");
    EXPECT_EQ(locs[1], "layer 'x': x finding 1");
    EXPECT_EQ(locs[2], "layer 'x': x finding 2");
}

TEST(VerifyReportMerge, MergeFromPrefixesLocations)
{
    VerifyReport inner;
    inner.add(RuleId::InstShape, Severity::Warning, "", "bare");
    VerifyReport outer;
    outer.mergeFrom(std::move(inner), "layer 'y'", 0);
    ASSERT_EQ(outer.diagnostics().size(), 1u);
    EXPECT_EQ(outer.diagnostics()[0].location, "layer 'y'");
    EXPECT_EQ(outer.warningCount(), 1u);
}
