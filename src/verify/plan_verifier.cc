#include "plan_verifier.hh"

#include <algorithm>
#include <cstdint>
#include <sstream>

#include "datapath_verifier.hh"
#include "lut/datapath_table.hh"
#include "lut/mult_lut.hh"
#include "map/mapping.hh"
#include "tech/row_layout.hh"

namespace bfree::verify {

namespace {

/**
 * The ROM-seeded datapath table for @p bits the tiered engine will
 * memoize at run time, built once and shared by every audit: the
 * planes are a pure function of (bits, hardwired ROM), so re-deriving
 * the 66k-entry 8-bit plane per verified plan would be waste.
 */
const lut::DatapathTable &
audit_rom_table(unsigned bits)
{
    static const lut::MultLut rom;
    static const lut::DatapathTable t4 =
        lut::build_rom_datapath_table(4, rom);
    static const lut::DatapathTable t8 =
        lut::build_rom_datapath_table(8, rom);
    return bits == 4 ? t4 : t8;
}

// ----------------------------------------------------------------------
// Element accounting (mirrors core::NetworkPlan's dry planning pass)
// ----------------------------------------------------------------------

/** Activation elements @p l consumes. Matches plan_shapes: FC consumes
 *  its flattened feature vector (fcRows is a batching dimension the
 *  functional walk does not thread through the chain). */
std::size_t
consumed_elems(const dnn::Layer &l)
{
    switch (l.kind) {
      case dnn::LayerKind::Fc:
        return l.inFeatures;
      case dnn::LayerKind::LstmCell:
        return l.lstmInput;
      case dnn::LayerKind::Attention:
      case dnn::LayerKind::LayerNorm:
        return std::size_t(l.seqLen) * l.dModel;
      default:
        return l.input.elements();
    }
}

/** Activation elements @p l produces. */
std::size_t
produced_elems(const dnn::Layer &l)
{
    switch (l.kind) {
      case dnn::LayerKind::Fc:
        return l.outFeatures;
      case dnn::LayerKind::LstmCell:
        return l.lstmHidden;
      case dnn::LayerKind::Attention:
      case dnn::LayerKind::LayerNorm:
        return std::size_t(l.seqLen) * l.dModel;
      default:
        return l.outputShape().elements();
    }
}

/**
 * True when the flattened layer list chains shape-wise: each layer
 * consumes exactly what its predecessor produced. Branched topologies
 * (Inception) flatten to lists that do NOT chain; the linear dataflow
 * analysis is skipped for them (DESIGN.md section 13).
 */
bool
layers_chain(const dnn::Network &net)
{
    std::size_t elems = net.input().elements();
    for (const dnn::Layer &l : net.layers()) {
        if (consumed_elems(l) != elems)
            return false;
        elems = produced_elems(l);
    }
    return true;
}

// ----------------------------------------------------------------------
// Fabric coordinates
// ----------------------------------------------------------------------

/** Decode a flat sub-array id into (slice, bank, sub-bank, sub-array)
 *  coordinates for diagnostics. */
std::string
subarray_location(const tech::CacheGeometry &geom, unsigned sa)
{
    std::ostringstream os;
    const unsigned per_slice = geom.subarraysPerSlice();
    if (per_slice == 0 || sa >= geom.totalSubarrays()) {
        os << "sub-array " << sa << " (out of fabric)";
        return os.str();
    }
    const unsigned slice = sa / per_slice;
    const unsigned rem = sa % per_slice;
    const unsigned per_bank =
        geom.subBanksPerBank * geom.subarraysPerSubBank;
    os << "slice " << slice << " bank " << rem / per_bank << " sub-bank "
       << (rem / geom.subarraysPerSubBank) % geom.subBanksPerBank
       << " sub-array " << rem % geom.subarraysPerSubBank;
    return os.str();
}

// ----------------------------------------------------------------------
// Interval map
// ----------------------------------------------------------------------

/** One rectangular claim on the fabric: a run of sub-arrays crossed
 *  with a row range. */
struct RegionClaim
{
    unsigned saBegin = 0;
    unsigned saEnd = 0; ///< Exclusive.
    unsigned rowBegin = 0;
    unsigned rowEnd = 0; ///< Exclusive.
    std::size_t plan = 0;   ///< Index into the layout list.
    std::size_t layer = 0;  ///< Layer index inside the plan.
    std::string owner;      ///< "plan 'x' layer 'y' weights" etc.
};

bool
claims_overlap(const RegionClaim &a, const RegionClaim &b)
{
    return a.saBegin < b.saEnd && b.saBegin < a.saEnd
           && a.rowBegin < b.rowEnd && b.rowBegin < a.rowEnd;
}

std::string
overlap_location(const tech::CacheGeometry &geom, const RegionClaim &a,
                 const RegionClaim &b)
{
    const unsigned sa = std::max(a.saBegin, b.saBegin);
    std::ostringstream os;
    os << subarray_location(geom, sa) << " rows ["
       << std::max(a.rowBegin, b.rowBegin) << ", "
       << std::min(a.rowEnd, b.rowEnd) << ")";
    return os.str();
}

/** The replica-0 / pass-0 extents — the canonical static image of a
 *  layer. Replica/pass disjointness inside one layer is proven by the
 *  per-kernel verifier (placement-overlap, placement-occupancy); the
 *  plan verifier reasons about the canonical image across layers. */
std::vector<map::TileExtent>
canonical_extents(const map::WeightPlacement &placement)
{
    std::vector<map::TileExtent> out;
    for (const map::TileExtent &e : placement.extents) {
        if (e.replica == 0 && e.pass == 0)
            out.push_back(e);
    }
    return out;
}

} // namespace

// ----------------------------------------------------------------------
// Layout construction
// ----------------------------------------------------------------------

PlanLayout
layout_network(const dnn::Network &net, const tech::CacheGeometry &geom,
               map::MapperOptions mapper_options, unsigned base_subarray)
{
    const map::KernelCompiler compiler(geom, mapper_options);
    const map::Mapper mapper(geom, mapper_options);

    PlanLayout layout;
    layout.name = net.name();
    layout.resident = !net.layers().empty() && mapper.weightsResident(net);
    layout.baseSubarray = base_subarray;

    unsigned uniform_bits = 0;
    bool uniform = true;

    unsigned cursor = 0;     // Resident packing offset.
    unsigned worst_span = 0; // Streamed footprint.
    for (const dnn::Layer &layer : net.layers()) {
        if (uniform_bits == 0)
            uniform_bits = layer.precisionBits;
        else if (layer.precisionBits != uniform_bits)
            uniform = false;

        PlacedKernel pk;
        pk.layer = layer;
        pk.kernel = compiler.compile(layer);
        pk.baseSubarray = base_subarray + (layout.resident ? cursor : 0);

        const map::LayerMapping &m = pk.kernel.mapping;
        if (m.mode != map::ExecMode::SpecialMode && m.weightBytes > 0) {
            pk.placement = map::place_weights(m, geom);
            unsigned span = 0;
            for (const map::TileExtent &e :
                 canonical_extents(pk.placement))
                span = std::max(span, e.subarray + 1);
            pk.spanSubarrays = span;
        }

        if (layout.resident)
            cursor += pk.spanSubarrays;
        worst_span = std::max(worst_span, pk.spanSubarrays);
        layout.kernels.push_back(std::move(pk));
    }

    layout.bits = uniform ? uniform_bits : 0;
    layout.spanSubarrays = layout.resident ? cursor : worst_span;
    return layout;
}

PlanLayout
layout_plan(const core::NetworkPlan &plan, const tech::CacheGeometry &geom,
            map::MapperOptions mapper_options, unsigned base_subarray)
{
    PlanLayout layout = layout_network(plan.network(), geom,
                                       mapper_options, base_subarray);
    layout.bits = plan.bits();
    return layout;
}

void
pack_layouts(std::vector<PlanLayout> &layouts, unsigned base_subarray)
{
    unsigned cursor = base_subarray;
    for (PlanLayout &layout : layouts) {
        const unsigned old_base = layout.baseSubarray;
        layout.baseSubarray = cursor;
        for (PlacedKernel &pk : layout.kernels)
            pk.baseSubarray = cursor + (pk.baseSubarray - old_base);
        cursor += layout.spanSubarrays;
    }
}

// ----------------------------------------------------------------------
// Dataflow graphs
// ----------------------------------------------------------------------

DataflowGraph
dataflow_from_layers(const std::vector<dnn::Layer> &layers,
                     std::size_t input_elems)
{
    DataflowGraph graph;
    graph.inputElems = input_elems;
    graph.nodes.reserve(layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
        DataflowNode node;
        node.name = layers[i].name;
        node.inElems = consumed_elems(layers[i]);
        node.outElems = produced_elems(layers[i]);
        if (i > 0)
            node.producers.push_back(i - 1);
        graph.nodes.push_back(std::move(node));
    }
    return graph;
}

DataflowGraph
dataflow_from_plan(const core::NetworkPlan &plan)
{
    DataflowGraph graph;
    graph.inputElems = plan.inputElems();
    const std::vector<core::PlannedLayer> &layers = plan.layers();
    graph.nodes.reserve(layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
        DataflowNode node;
        node.name = layers[i].layer.name;
        node.inElems = layers[i].inElems;
        node.outElems = layers[i].outElems;
        if (i > 0)
            node.producers.push_back(i - 1);
        graph.nodes.push_back(std::move(node));
    }
    return graph;
}

// ----------------------------------------------------------------------
// The pass
// ----------------------------------------------------------------------

PlanVerifier::PlanVerifier(const tech::CacheGeometry &geometry,
                           PlanVerifierOptions options)
    : geom(geometry), opts(options)
{}

VerifyReport
PlanVerifier::verifyNetwork(const dnn::Network &net, unsigned expected_bits,
                            map::MapperOptions mapper_options) const
{
    VerifyReport report;

    if (net.layers().empty()) {
        report.add(RuleId::PlanEmpty, Severity::Error,
                   "network '" + net.name() + "'",
                   "plan contains no layers; nothing to execute",
                   "add at least one layer before compiling");
        return report;
    }

    std::vector<PlanLayout> layouts;
    layouts.push_back(layout_network(net, geom, mapper_options));
    PlanLayout &layout = layouts.front();

    // Per-kernel findings first: mergeFrom keeps them sorted by layer
    // index, and the plan-level add()s below then append after every
    // merged block (add() must never precede a mergeFrom — it would
    // break the sorted-by-sequence invariant the merge relies on).
    if (opts.checkKernels) {
        for (std::size_t i = 0; i < layout.kernels.size(); ++i) {
            PlacedKernel &pk = layout.kernels[i];
            report.mergeFrom(std::move(pk.kernel.diagnostics),
                             "layer '" + pk.layer.name + "'", i);
        }
    }

    // Precision audit: every layer must use a supported precision, and
    // when the caller pins the plan's compile precision (bfree_audit
    // does) every layer must agree with it.
    for (const dnn::Layer &layer : net.layers()) {
        const unsigned bits = layer.precisionBits;
        if (bits != 4 && bits != 8 && bits != 16) {
            std::ostringstream os;
            os << "unsupported operand precision " << bits << "-bit";
            report.add(RuleId::PlanPrecision, Severity::Error,
                       "layer '" + layer.name + "'", os.str(),
                       "use 4-, 8- or 16-bit operands");
        } else if (expected_bits != 0 && bits != expected_bits) {
            std::ostringstream os;
            os << bits << "-bit layer in a plan compiled at "
               << expected_bits << "-bit";
            report.add(RuleId::PlanPrecision, Severity::Error,
                       "layer '" + layer.name + "'", os.str(),
                       "setUniformPrecision before compiling");
        }
    }

    if (opts.checkRegions)
        checkRegions(layouts, report);

    // The linear dataflow analysis only applies when the flattened
    // layer list chains shape-wise; branched topologies (Inception)
    // are skipped (their per-kernel reduction chains are still checked
    // above). Hand-built graphs exercise the rules directly.
    if (opts.checkDataflow && layers_chain(net)) {
        const DataflowGraph graph =
            dataflow_from_layers(net.layers(), net.input().elements());
        checkDataflow(graph, report,
                      "network '" + net.name() + "' dataflow");
    }

    if (opts.checkCapacity)
        checkCapacity(layout, report);

    // Split-plane audit: re-prove the datapath-table invariants the
    // SIMD span kernels trust (rules lut-plane-*) for every memoizable
    // precision this plan executes at. The ROM-seeded table is the one
    // the verifier can reach statically; conv tables are seeded
    // against live LUT rows and are re-verified at dispatch through
    // their generation tags instead.
    if (opts.checkDatapath) {
        bool audited[17] = {};
        for (const dnn::Layer &layer : net.layers()) {
            const unsigned bits = layer.precisionBits;
            if (bits > 16 || audited[bits]
                || !lut::DatapathTable::coversBits(bits))
                continue;
            audited[bits] = true;
            std::ostringstream os;
            os << "datapath table (" << bits << "-bit ROM)";
            verify_datapath_planes(view_of(audit_rom_table(bits)),
                                   report, os.str());
        }
    }

    return report;
}

VerifyReport
PlanVerifier::verify(const core::NetworkPlan &plan,
                     map::MapperOptions mapper_options) const
{
    VerifyReport report =
        verifyNetwork(plan.network(), 0, mapper_options);

    // The compiled plan adds what the dry network walk cannot see: the
    // frozen per-layer element counts and the TensorArena sizing.
    if (opts.checkDataflow && !plan.layers().empty())
        checkDataflow(dataflow_from_plan(plan), report, "plan dataflow");
    if (opts.checkCapacity)
        checkArena(plan.stats(), plan.layers(), report);
    checkEpilogue(plan.layers(), report);
    return report;
}

VerifyReport
PlanVerifier::verifyResidency(const std::vector<PlanLayout> &layouts) const
{
    VerifyReport report;

    if (opts.checkRegions)
        checkRegions(layouts, report);
    if (opts.checkCapacity) {
        std::uint64_t demand = 0;
        for (const PlanLayout &layout : layouts) {
            checkCapacity(layout, report);
            demand += layout.spanSubarrays;
        }
        if (demand > geom.totalSubarrays()) {
            std::ostringstream os;
            os << "co-resident plans demand " << demand << " of "
               << geom.totalSubarrays() << " sub-arrays";
            report.add(RuleId::CapacityRows, Severity::Error,
                       "residency", os.str(),
                       "evict a plan or stream the largest one");
        }
    }
    return report;
}

void
PlanVerifier::checkRegions(const std::vector<PlanLayout> &layouts,
                           VerifyReport &report) const
{
    const unsigned fabric = geom.totalSubarrays();
    const unsigned rows = tech::total_rows(geom);
    const unsigned weight_base = tech::weight_base_row(geom);
    const unsigned lut_base = tech::first_lut_row(geom);
    const unsigned row_bytes = geom.rowBytes();

    std::vector<RegionClaim> claims;

    for (std::size_t li = 0; li < layouts.size(); ++li) {
        const PlanLayout &layout = layouts[li];
        const std::string plan_tag = "plan '" + layout.name + "'";

        // A streamed plan time-multiplexes its whole footprint, so for
        // overlap purposes it claims every row of [base, base + span).
        if (!layout.resident && layout.spanSubarrays > 0) {
            RegionClaim c;
            c.saBegin = layout.baseSubarray;
            c.saEnd = layout.baseSubarray + layout.spanSubarrays;
            c.rowBegin = 0;
            c.rowEnd = rows;
            c.plan = li;
            c.layer = 0;
            c.owner = plan_tag + " streamed footprint";
            claims.push_back(std::move(c));
        }

        for (std::size_t ki = 0; ki < layout.kernels.size(); ++ki) {
            const PlacedKernel &pk = layout.kernels[ki];
            if (pk.spanSubarrays == 0)
                continue; // Special-mode layer: no static region.
            const std::string tag =
                plan_tag + " layer '" + pk.layer.name + "'";

            // Weight extents of the canonical image, coalescing runs of
            // identical row ranges so full tiles become one claim.
            std::vector<RegionClaim> extents;
            for (const map::TileExtent &e :
                 canonical_extents(pk.placement)) {
                const unsigned sa = pk.baseSubarray + e.subarray;
                const unsigned row_begin =
                    static_cast<unsigned>(e.byteOffset / row_bytes);
                const unsigned row_end = static_cast<unsigned>(
                    (e.byteOffset + e.byteCount + row_bytes - 1)
                    / row_bytes);

                if (sa >= fabric) {
                    std::ostringstream os;
                    os << "weight extent lands in sub-array " << sa
                       << " but the fabric ends at " << fabric;
                    report.add(RuleId::RegionBounds, Severity::Error,
                               tag, os.str(),
                               "lower the base sub-array or shrink the "
                               "plan");
                } else if (row_begin < weight_base
                           || row_end > lut_base || row_begin >= row_end) {
                    std::ostringstream os;
                    os << "weight rows [" << row_begin << ", " << row_end
                       << ") exit the usable region [" << weight_base
                       << ", " << lut_base << ") at "
                       << subarray_location(geom, sa);
                    report.add(RuleId::RegionBounds, Severity::Error,
                               tag, os.str(),
                               "keep weights between the config block "
                               "and the LUT rows");
                }

                RegionClaim c;
                c.saBegin = sa;
                c.saEnd = sa + 1;
                c.rowBegin = row_begin;
                c.rowEnd = row_end;
                c.plan = li;
                c.layer = ki;
                c.owner = tag + " weights";
                if (!extents.empty() && extents.back().saEnd == sa
                    && extents.back().rowBegin == row_begin
                    && extents.back().rowEnd == row_end) {
                    ++extents.back().saEnd;
                } else {
                    extents.push_back(std::move(c));
                }
            }

            // Streamed layouts are covered by the plan-footprint claim;
            // only resident layers contribute fine-grained claims.
            if (!layout.resident)
                continue;

            for (RegionClaim &c : extents)
                claims.push_back(std::move(c));

            // The layer's config-block region and reserved LUT rows in
            // every sub-array it occupies.
            RegionClaim cb;
            cb.saBegin = pk.baseSubarray;
            cb.saEnd = pk.baseSubarray + pk.spanSubarrays;
            cb.rowBegin = 0;
            cb.rowEnd = weight_base;
            cb.plan = li;
            cb.layer = ki;
            cb.owner = tag + " config block";
            claims.push_back(std::move(cb));

            RegionClaim lut;
            lut.saBegin = pk.baseSubarray;
            lut.saEnd = pk.baseSubarray + pk.spanSubarrays;
            lut.rowBegin = lut_base;
            lut.rowEnd = rows;
            lut.plan = li;
            lut.layer = ki;
            lut.owner = tag + " LUT rows";
            claims.push_back(std::move(lut));
        }

        // The layout's own footprint must sit inside the fabric.
        if (layout.baseSubarray + std::uint64_t(layout.spanSubarrays)
            > fabric) {
            std::ostringstream os;
            os << "footprint [" << layout.baseSubarray << ", "
               << layout.baseSubarray + layout.spanSubarrays
               << ") exceeds the " << fabric << "-sub-array fabric";
            report.add(RuleId::RegionBounds, Severity::Error, plan_tag,
                       os.str(), "repack the layouts or free slices");
        }
    }

    // Pairwise sweep. Claim counts are small (full tiles coalesce into
    // sub-array runs), so the quadratic scan is fine.
    for (std::size_t a = 0; a < claims.size(); ++a) {
        for (std::size_t b = a + 1; b < claims.size(); ++b) {
            const RegionClaim &ca = claims[a];
            const RegionClaim &cb = claims[b];
            if (!claims_overlap(ca, cb))
                continue;
            if (ca.plan == cb.plan) {
                if (ca.layer == cb.layer)
                    continue; // Intra-layer claims never conflict here.
                if (!layouts[ca.plan].resident)
                    continue; // Streamed layers time-share the region.
                report.add(RuleId::RegionOverlap, Severity::Error,
                           overlap_location(geom, ca, cb),
                           ca.owner + " collides with " + cb.owner,
                           "repack the plan's layers disjointly");
            } else {
                report.add(RuleId::RegionCrossPlan, Severity::Error,
                           overlap_location(geom, ca, cb),
                           ca.owner + " collides with " + cb.owner,
                           "pack co-resident plans into disjoint "
                           "sub-array ranges");
            }
        }
    }
}

void
PlanVerifier::checkDataflow(const DataflowGraph &graph,
                            VerifyReport &report,
                            const std::string &location) const
{
    const std::size_t n = graph.nodes.size();
    if (n == 0)
        return;

    // Dangling producers: edges to nodes that do not exist.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t p : graph.nodes[i].producers) {
            if (p >= n) {
                std::ostringstream os;
                os << "consumes producer #" << p << " but the graph has "
                   << n << " nodes";
                report.add(RuleId::DataflowDangling, Severity::Error,
                           location + ": node '" + graph.nodes[i].name
                               + "'",
                           os.str(), "drop or repair the edge");
            }
        }
    }

    // Cycle detection: DFS over valid producer edges, reporting the
    // first back edge found.
    {
        std::vector<int> color(n, 0); // 0 white, 1 grey, 2 black.
        bool reported = false;
        for (std::size_t root = 0; root < n && !reported; ++root) {
            if (color[root] != 0)
                continue;
            // Iterative DFS with an explicit (node, next-edge) stack.
            std::vector<std::pair<std::size_t, std::size_t>> stack;
            stack.emplace_back(root, 0);
            color[root] = 1;
            while (!stack.empty() && !reported) {
                auto &[node, edge] = stack.back();
                const std::vector<std::size_t> &prods =
                    graph.nodes[node].producers;
                std::size_t next = n;
                while (edge < prods.size()) {
                    const std::size_t p = prods[edge++];
                    if (p >= n)
                        continue;
                    if (color[p] == 1) {
                        report.add(RuleId::DataflowCycle, Severity::Error,
                                   location + ": node '"
                                       + graph.nodes[node].name + "'",
                                   "producer chain through '"
                                       + graph.nodes[p].name
                                       + "' cycles back on itself",
                                   "break the cycle; inference plans "
                                   "must be acyclic");
                        reported = true;
                        break;
                    }
                    if (color[p] == 0) {
                        next = p;
                        break;
                    }
                }
                if (reported)
                    break;
                if (next != n) {
                    color[next] = 1;
                    stack.emplace_back(next, 0);
                } else {
                    color[node] = 2;
                    stack.pop_back();
                }
            }
        }
    }

    // Fan-in accounting: a node consumes the concatenation of its
    // producers' outputs (or the plan input when it has no producer).
    for (std::size_t i = 0; i < n; ++i) {
        const DataflowNode &node = graph.nodes[i];
        std::size_t supplied = 0;
        bool valid = true;
        if (node.producers.empty()) {
            supplied = graph.inputElems;
        } else {
            for (std::size_t p : node.producers) {
                if (p >= n) {
                    valid = false;
                    break;
                }
                supplied += graph.nodes[p].outElems;
            }
        }
        if (valid && supplied != node.inElems) {
            std::ostringstream os;
            os << "consumes " << node.inElems << " elements but its "
               << (node.producers.empty() ? "plan input supplies "
                                          : "producers supply ")
               << supplied;
            report.add(RuleId::DataflowFanin, Severity::Error,
                       location + ": node '" + node.name + "'", os.str(),
                       "fix the layer shapes or the edges");
        }
    }

    // Dead kernels: reverse reachability from the plan output. Any
    // node whose output feeds neither a consumer on the path to the
    // output nor the output itself computes for nothing.
    {
        const std::size_t out =
            graph.outputNode < n ? graph.outputNode : n - 1;
        std::vector<char> live(n, 0);
        std::vector<std::size_t> frontier{out};
        live[out] = 1;
        while (!frontier.empty()) {
            const std::size_t node = frontier.back();
            frontier.pop_back();
            for (std::size_t p : graph.nodes[node].producers) {
                if (p < n && !live[p]) {
                    live[p] = 1;
                    frontier.push_back(p);
                }
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (!live[i]) {
                report.add(RuleId::DataflowUnreachable, Severity::Error,
                           location + ": node '" + graph.nodes[i].name
                               + "'",
                           "output feeds neither the plan output nor "
                           "any consumer on the path to it",
                           "remove the dead kernel or wire its output");
            }
        }
    }
}

void
PlanVerifier::checkCapacity(const PlanLayout &layout,
                            VerifyReport &report) const
{
    const unsigned fabric = geom.totalSubarrays();
    const std::uint64_t fabric_bytes =
        std::uint64_t(fabric) * tech::usable_weight_bytes(geom);
    const std::string plan_tag = "plan '" + layout.name + "'";

    std::uint64_t rows_demand = 0;
    std::uint64_t bytes_demand = 0;
    bool rows_reported = false;
    bool bytes_reported = false;

    for (const PlacedKernel &pk : layout.kernels) {
        const map::LayerMapping &m = pk.kernel.mapping;
        if (m.mode == map::ExecMode::SpecialMode || m.weightBytes == 0)
            continue;
        const std::string tag =
            plan_tag + " layer '" + pk.layer.name + "'";

        if (!layout.resident) {
            // Streamed layers only need their own footprint at once.
            if (pk.spanSubarrays > fabric) {
                std::ostringstream os;
                os << "single layer needs " << pk.spanSubarrays << " of "
                   << fabric << " sub-arrays at once";
                report.add(RuleId::CapacityRows, Severity::Error, tag,
                           os.str(), "split the layer or add passes");
            }
            continue;
        }

        if (pk.placement.passes() > 1) {
            std::ostringstream os;
            os << "resident plan contains a layer streamed over "
               << pk.placement.passes() << " passes";
            report.add(RuleId::CapacityRows, Severity::Warning, tag,
                       os.str(),
                       "a resident plan should hold every layer in one "
                       "pass");
        }

        // Each packed sub-array carries a config block plus its share
        // of the layer's weight rows; the first layer that pushes the
        // running totals past the fabric is the finding.
        rows_demand += pk.spanSubarrays;
        if (!rows_reported && rows_demand > fabric) {
            std::ostringstream os;
            os << "first overflow: cumulative demand of " << rows_demand
               << " sub-arrays (and config blocks) exceeds the fabric's "
               << fabric;
            report.add(RuleId::CapacityRows, Severity::Error, tag,
                       os.str(), "stream the plan or shrink the model");
            rows_reported = true;
        }

        bytes_demand += m.weightBytes;
        if (!bytes_reported && bytes_demand > fabric_bytes) {
            std::ostringstream os;
            os << "first overflow: cumulative " << bytes_demand
               << " weight bytes exceed the fabric's usable "
               << fabric_bytes;
            report.add(RuleId::CapacityFabric, Severity::Error, tag,
                       os.str(), "stream the plan or lower precision");
            bytes_reported = true;
        }
    }
}

void
PlanVerifier::checkArena(const core::PlanStats &stats,
                         const std::vector<core::PlannedLayer> &layers,
                         VerifyReport &report, const std::string &location,
                         std::size_t arena_budget_bytes) const
{
    if (stats.arenaBytes
        != stats.activationBytes + stats.peakScratchBytes) {
        std::ostringstream os;
        os << "arena ledger inconsistent: " << stats.arenaBytes
           << " reserved != " << stats.activationBytes
           << " activation + " << stats.peakScratchBytes << " scratch";
        report.add(RuleId::CapacityArena, Severity::Error, location,
                   os.str(), "recompute the plan stats");
    }

    for (const core::PlannedLayer &pl : layers) {
        const std::string tag =
            location + ": layer '" + pl.layer.name + "'";
        if (pl.scratchBytes > stats.peakScratchBytes) {
            std::ostringstream os;
            os << "scratch of " << pl.scratchBytes
               << " bytes exceeds the plan's peak of "
               << stats.peakScratchBytes;
            report.add(RuleId::CapacityArena, Severity::Error, tag,
                       os.str(), "re-run the sizing pass");
        }
        if (std::max(pl.inElems, pl.outElems)
            > stats.maxActivationElems) {
            std::ostringstream os;
            os << "activation of "
               << std::max(pl.inElems, pl.outElems)
               << " elements exceeds the plan's maximum of "
               << stats.maxActivationElems;
            report.add(RuleId::CapacityArena, Severity::Error, tag,
                       os.str(), "re-run the sizing pass");
        }
    }

    if (arena_budget_bytes != 0 && stats.arenaBytes > arena_budget_bytes) {
        std::ostringstream os;
        os << "arena of " << stats.arenaBytes
           << " bytes exceeds the budget of " << arena_budget_bytes;
        report.add(RuleId::CapacityArena, Severity::Error, location,
                   os.str(), "raise the budget or shrink activations");
    }
}

void
PlanVerifier::checkEpilogue(const std::vector<core::PlannedLayer> &layers,
                            VerifyReport &report,
                            const std::string &location) const
{
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const core::PlannedLayer &pl = layers[i];
        if (!pl.foldedRelu)
            continue;
        const std::string tag =
            location + ": layer '" + pl.layer.name + "'";
        std::ostringstream os;
        if (pl.layer.kind != dnn::LayerKind::Conv
            && pl.layer.kind != dnn::LayerKind::Fc) {
            os << "a ReLU is folded into a "
               << dnn::layer_kind_name(pl.layer.kind)
               << " layer: only a Conv or FC store applies one";
        } else if (i + 1 == layers.size()
                   || layers[i + 1].layer.kind != dnn::LayerKind::Relu) {
            os << "folded ReLU but the next layer is "
               << (i + 1 == layers.size()
                       ? std::string("the plan output")
                       : std::string("a ") + dnn::layer_kind_name(
                             layers[i + 1].layer.kind));
        } else if (layers[i + 1].inElems != pl.outElems
                   || layers[i + 1].outElems != pl.outElems) {
            os << "folded ReLU '" << layers[i + 1].layer.name << "' maps "
               << layers[i + 1].inElems << " -> "
               << layers[i + 1].outElems << " elements, its producer "
               << "stores " << pl.outElems;
        } else {
            continue;
        }
        report.add(RuleId::PlanEpilogue, Severity::Error, tag, os.str(),
                   "recompile the plan");
    }
}

} // namespace bfree::verify
