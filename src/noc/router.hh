/**
 * @file
 * Sub-bank routers for the systolic dataflow (Section III-D, Fig. 8).
 *
 * BFree augments the conventional sub-array interconnect with simple
 * unidirectional routers: within a sub-bank, the data-out of one
 * sub-array connects to the data-in of its neighbour, forming the
 * partial-sum reduction chain; across sub-banks, the existing column
 * connectivity streams inputs. A router hop takes one sub-array clock
 * cycle and one flit's worth of wire/driver energy.
 */

#ifndef BFREE_NOC_ROUTER_HH
#define BFREE_NOC_ROUTER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/energy_account.hh"
#include "sim/clocked.hh"
#include "tech/tech_params.hh"

namespace bfree::noc {

/** A 64-bit payload moving through the systolic fabric. */
struct Flit
{
    std::uint64_t payload = 0;
    std::uint32_t tag = 0; ///< Free-form routing/sequence metadata.
};

/**
 * An event-driven unidirectional router: accepts a flit, delivers it to
 * the downstream sink after routerHopCycles, charging hop energy.
 */
class Router : public sim::ClockedObject
{
  public:
    using Sink = std::function<void(const Flit &)>;

    Router(sim::EventQueue &queue, std::string name,
           const sim::ClockDomain &domain, const tech::TechParams &tech,
           mem::EnergyAccount &energy);

    /** Connect the downstream consumer. */
    void connect(Sink sink) { downstream = std::move(sink); }

    /** Inject a flit; it arrives downstream after the hop latency. */
    void send(const Flit &flit);

    /** Flits forwarded so far. */
    std::uint64_t flitsForwarded() const { return numFlits; }

  private:
    void deliver();

    tech::TechParams tech;
    mem::EnergyAccount *energy;
    Sink downstream;
    std::uint64_t numFlits = 0;

    // One outstanding flit per hop-latency window is enough for the
    // systolic traffic pattern (one flit per cycle per link); a short
    // FIFO keeps the model honest if a sender bursts.
    std::vector<Flit> inFlight;
    sim::EventFunctionWrapper deliverEvent;
};

/**
 * Closed-form timing of a K-stage systolic chain processing @p steps
 * waves: fill (K-1 hops) + steps, in cycles. Matches the event-driven
 * model; tests assert the equality.
 */
std::uint64_t systolic_chain_cycles(unsigned stages, std::uint64_t steps,
                                    unsigned hop_cycles);

} // namespace bfree::noc

#endif // BFREE_NOC_ROUTER_HH
