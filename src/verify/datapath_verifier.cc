#include "datapath_verifier.hh"

#include <array>
#include <sstream>

#include "lut/datapath_table.hh"

namespace bfree::verify {

namespace {

using lut::DatapathTable;

/** Signed operand at plane coordinate @p i: i - 2^(bits-1). */
std::int32_t
operand_at(const DatapathPlaneView &v, std::size_t i)
{
    return static_cast<std::int32_t>(i)
           - (std::int32_t{1} << (v.bits - 1));
}

/** The bilinear feature fold of one class key (DESIGN.md section 15). */
std::uint32_t
folded_delta(unsigned key, std::uint32_t cycles_factor)
{
    const unsigned cA = key >> 4, cB = key & 0xF;
    const std::uint32_t pp = DatapathTable::class_feature_p[cA]
                             * DatapathTable::class_feature_p[cB];
    const std::uint32_t oo = DatapathTable::class_feature_o[cA]
                             * DatapathTable::class_feature_o[cB];
    const std::uint32_t ll = DatapathTable::class_feature_l[cA]
                             * DatapathTable::class_feature_l[cB];
    const std::uint32_t zz = DatapathTable::class_feature_z[cA]
                             * DatapathTable::class_feature_z[cB];
    return ll << DatapathTable::delta_lookups_shift
           | (pp - oo) << DatapathTable::delta_shifts_shift
           | (pp - zz) << DatapathTable::delta_adds_shift
           | (cycles_factor * pp) << DatapathTable::delta_cycles_shift;
}

/**
 * Shape pass: returns true when the planes the exactness checks read
 * are safe to index (claimed span matches the precision and every
 * present plane has the matching element count).
 */
bool
check_shape(const DatapathPlaneView &v, VerifyReport &report,
            const std::string &location)
{
    bool well_formed = true;

    if (!DatapathTable::coversBits(v.bits)) {
        std::ostringstream os;
        os << "table claims " << v.bits
           << "-bit operands; memoization covers 4- and 8-bit only";
        report.add(RuleId::LutPlaneShape, Severity::Error, location,
                   os.str(), "build tables only for coversBits() widths");
        return false;
    }

    const unsigned want_span = (2u << (v.bits - 1)) + 1;
    if (v.span != want_span) {
        std::ostringstream os;
        os << "plane span " << v.span << " != 2^" << v.bits
           << " + 1 = " << want_span;
        report.add(RuleId::LutPlaneShape, Severity::Error, location,
                   os.str(), "rebuild the table; the span is derived, "
                             "never set");
        well_formed = false;
    }

    const std::size_t want_entries = std::size_t{v.span} * v.span;
    if (v.productCount != want_entries) {
        std::ostringstream os;
        os << "product plane holds " << v.productCount
           << " entries; span " << v.span << " needs " << want_entries;
        report.add(RuleId::LutPlaneShape, Severity::Error, location,
                   os.str());
        well_formed = false;
    }
    if (v.deltaCount != want_entries) {
        std::ostringstream os;
        os << "delta plane holds " << v.deltaCount << " entries; span "
           << v.span << " needs " << want_entries;
        report.add(RuleId::LutPlaneShape, Severity::Error, location,
                   os.str());
        well_formed = false;
    }
    if (v.histogramExact && v.pairDeltaCount != 256) {
        std::ostringstream os;
        os << "histogram-exact table carries " << v.pairDeltaCount
           << " pair-delta entries; the class-key space needs 256";
        report.add(RuleId::LutPlaneShape, Severity::Error, location,
                   os.str());
        well_formed = false;
    }
    return well_formed;
}

/**
 * Exactness pass over well-formed planes: each claimed fast-path flag
 * is re-proven against the plane contents. One finding per lying flag
 * with the first offending pair named and the total mismatch count —
 * a poisoned LUT row disagrees on hundreds of pairs and per-pair
 * findings would drown the report.
 */
void
check_exactness(const DatapathPlaneView &v, VerifyReport &report,
                const std::string &location)
{
    const std::size_t n = std::size_t{v.span} * v.span;

    if (v.productsExact && v.products) {
        std::size_t bad = 0;
        std::size_t first = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::int32_t a = operand_at(v, i / v.span);
            const std::int32_t b = operand_at(v, i % v.span);
            if (v.products[i] != a * b) {
                if (bad == 0)
                    first = i;
                ++bad;
            }
        }
        if (bad != 0) {
            std::ostringstream os;
            os << "productsExact claimed, but " << bad << " of " << n
               << " products disagree with a*b (first: ("
               << operand_at(v, first / v.span) << ", "
               << operand_at(v, first % v.span) << ") holds "
               << v.products[first] << ")";
            report.add(RuleId::LutPlaneExact, Severity::Error, location,
                       os.str(),
                       "clear productsExact so spans read the product "
                       "plane");
        }
    }

    if (!v.histogramExact)
        return;

    if (v.cyclesFactor > 1) {
        std::ostringstream os;
        os << "fold cycles factor " << v.cyclesFactor
           << " outside {0, 1}";
        report.add(RuleId::LutPlaneExact, Severity::Error, location,
                   os.str(),
                   "clear histogramExact so spans read the delta plane");
        return;
    }
    if (!v.deltas || !v.pairDeltas)
        return;

    // The delta plane must collapse onto the class keys...
    std::size_t bad = 0;
    std::size_t first = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t a = operand_at(v, i / v.span);
        const std::int32_t b = operand_at(v, i % v.span);
        const std::uint8_t key = DatapathTable::class_key(a, b);
        if (v.deltas[i] != v.pairDeltas[key]) {
            if (bad == 0)
                first = i;
            ++bad;
        }
    }
    if (bad != 0) {
        std::ostringstream os;
        os << "histogramExact claimed, but " << bad << " of " << n
           << " packed deltas disagree with their class key (first: ("
           << operand_at(v, first / v.span) << ", "
           << operand_at(v, first % v.span) << "))";
        report.add(RuleId::LutPlaneExact, Severity::Error, location,
                   os.str(),
                   "clear histogramExact so spans read the delta plane");
        return;
    }

    // ...and the class keys onto the bilinear feature fold the SIMD
    // kernels actually compute. Only keys that occur in the plane are
    // meaningful; unreachable keys hold 0 by construction.
    std::array<bool, 256> seen{};
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t a = operand_at(v, i / v.span);
        const std::int32_t b = operand_at(v, i % v.span);
        seen[DatapathTable::class_key(a, b)] = true;
    }
    for (unsigned key = 0; key < 256; ++key) {
        if (!seen[key])
            continue;
        const std::uint32_t expect = folded_delta(key, v.cyclesFactor);
        if (v.pairDeltas[key] != expect) {
            std::ostringstream os;
            os << "histogramExact claimed, but class key 0x" << std::hex
               << key << std::dec << " holds delta 0x" << std::hex
               << v.pairDeltas[key] << " where the feature fold gives 0x"
               << expect << std::dec;
            report.add(RuleId::LutPlaneExact, Severity::Error, location,
                       os.str(),
                       "clear histogramExact so spans read the delta plane");
            return;
        }
    }
}

} // namespace

DatapathPlaneView
view_of(const lut::DatapathTable &table)
{
    DatapathPlaneView v;
    v.bits = table.bits();
    v.span = table.span();
    v.products = table.products();
    v.productCount = table.entryCount();
    v.deltas = table.deltas();
    v.deltaCount = table.entryCount();
    v.pairDeltas = table.pairDeltas();
    v.pairDeltaCount = 256;
    v.productsExact = table.productsExact();
    v.histogramExact = table.histogramExact();
    v.cyclesFactor = table.cyclesFactor();
    return v;
}

void
verify_datapath_planes(const DatapathPlaneView &view, VerifyReport &report,
                       const std::string &location)
{
    if (check_shape(view, report, location))
        check_exactness(view, report, location);
}

VerifyReport
verify_datapath_table(const lut::DatapathTable &table,
                      const std::string &location)
{
    VerifyReport report;
    verify_datapath_planes(view_of(table), report, location);
    return report;
}

} // namespace bfree::verify
