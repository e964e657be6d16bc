#include "diagnostic.hh"

#include <algorithm>
#include <sstream>
#include <utility>

namespace bfree::verify {

const char *
severity_name(Severity severity)
{
    switch (severity) {
      case Severity::Error:
        return "error";
      case Severity::Warning:
        return "warning";
      case Severity::Note:
        return "note";
    }
    return "?";
}

const char *
rule_name(RuleId rule)
{
    switch (rule) {
      case RuleId::CbOpcodeByte:
        return "cb-opcode-byte";
      case RuleId::CbPrecision:
        return "cb-precision";
      case RuleId::CbRowRange:
        return "cb-row-range";
      case RuleId::CbIterations:
        return "cb-iterations";
      case RuleId::CbRoundTrip:
        return "cb-round-trip";
      case RuleId::OpPrecision:
        return "op-precision";
      case RuleId::InstShape:
        return "inst-shape";
      case RuleId::InstMacOverflow:
        return "inst-mac-overflow";
      case RuleId::LutOversize:
        return "lut-oversize";
      case RuleId::LutPartitionConflict:
        return "lut-partition-conflict";
      case RuleId::WeightLutOverlap:
        return "weight-lut-overlap";
      case RuleId::LutPlaneShape:
        return "lut-plane-shape";
      case RuleId::LutPlaneExact:
        return "lut-plane-exact";
      case RuleId::MacConservation:
        return "mac-conservation";
      case RuleId::PlacementOccupancy:
        return "placement-occupancy";
      case RuleId::PlacementOverlap:
        return "placement-overlap";
      case RuleId::ChainCyclic:
        return "chain-cyclic";
      case RuleId::ChainFanout:
        return "chain-fanout";
      case RuleId::ChainDisconnected:
        return "chain-disconnected";
      case RuleId::ModeDatapath:
        return "mode-datapath";
      case RuleId::OperandRange:
        return "operand-range";
      case RuleId::PlanEmpty:
        return "plan-empty";
      case RuleId::PlanPrecision:
        return "plan-precision";
      case RuleId::RegionBounds:
        return "region-bounds";
      case RuleId::RegionOverlap:
        return "region-overlap";
      case RuleId::RegionCrossPlan:
        return "region-cross-plan";
      case RuleId::DataflowCycle:
        return "dataflow-cycle";
      case RuleId::DataflowDangling:
        return "dataflow-dangling";
      case RuleId::DataflowFanin:
        return "dataflow-fanin";
      case RuleId::DataflowUnreachable:
        return "dataflow-unreachable";
      case RuleId::CapacityRows:
        return "capacity-rows";
      case RuleId::CapacityFabric:
        return "capacity-fabric";
      case RuleId::CapacityArena:
        return "capacity-arena";
      case RuleId::PlanEpilogue:
        return "plan-epilogue";
    }
    return "?";
}

std::string
Diagnostic::toString() const
{
    std::ostringstream os;
    os << severity_name(severity) << "[" << rule_name(rule) << "]";
    if (!location.empty())
        os << " " << location;
    os << ": " << message;
    if (!fixHint.empty())
        os << " (fix: " << fixHint << ")";
    return os.str();
}

void
VerifyReport::add(RuleId rule, Severity severity, std::string location,
                  std::string message, std::string fix_hint)
{
    Diagnostic d;
    d.rule = rule;
    d.severity = severity;
    d.location = std::move(location);
    d.message = std::move(message);
    d.fixHint = std::move(fix_hint);
    diags.push_back(std::move(d));
}

void
VerifyReport::merge(const VerifyReport &other, const std::string &location)
{
    for (const Diagnostic &d : other.diags) {
        Diagnostic copy = d;
        if (!location.empty()) {
            copy.location = copy.location.empty()
                                ? location
                                : location + ": " + copy.location;
        }
        diags.push_back(std::move(copy));
    }
}

void
VerifyReport::mergeFrom(VerifyReport &&other, const std::string &location,
                        std::size_t sequence)
{
    // Findings of one source report share a key, so the insertion
    // point is found once: past every finding with key <= sequence.
    // upper_bound keeps the vector sorted by key; distinct keys make
    // the final order independent of the merge order.
    const auto at = std::upper_bound(
        diags.begin(), diags.end(), sequence,
        [](std::size_t key, const Diagnostic &d) {
            return key < d.sequence;
        });
    const std::size_t pos = static_cast<std::size_t>(at - diags.begin());

    std::vector<Diagnostic> incoming = std::move(other.diags);
    other.diags.clear();
    for (Diagnostic &d : incoming) {
        if (!location.empty()) {
            d.location = d.location.empty()
                             ? location
                             : location + ": " + d.location;
        }
        d.sequence = sequence;
    }
    diags.insert(diags.begin() + static_cast<std::ptrdiff_t>(pos),
                 std::make_move_iterator(incoming.begin()),
                 std::make_move_iterator(incoming.end()));
}

bool
VerifyReport::ok() const
{
    return errorCount() == 0;
}

std::size_t
VerifyReport::errorCount() const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diags)
        n += d.severity == Severity::Error ? 1 : 0;
    return n;
}

std::size_t
VerifyReport::warningCount() const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diags)
        n += d.severity == Severity::Warning ? 1 : 0;
    return n;
}

bool
VerifyReport::has(RuleId rule) const
{
    return count(rule) > 0;
}

std::size_t
VerifyReport::count(RuleId rule) const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diags)
        n += d.rule == rule ? 1 : 0;
    return n;
}

std::string
VerifyReport::toString() const
{
    std::ostringstream os;
    for (const Diagnostic &d : diags)
        os << d.toString() << "\n";
    os << errorCount() << " error(s), " << warningCount()
       << " warning(s)\n";
    return os.str();
}

} // namespace bfree::verify
