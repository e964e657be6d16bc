#include "router.hh"

#include <utility>

#include "sim/logging.hh"

namespace bfree::noc {

Router::Router(sim::EventQueue &queue, std::string name,
               const sim::ClockDomain &domain,
               const tech::TechParams &tech, mem::EnergyAccount &energy)
    : sim::ClockedObject(queue, std::move(name), domain), tech(tech),
      energy(&energy),
      deliverEvent([this] { deliver(); }, this->name() + ".deliver")
{}

void
Router::send(const Flit &flit)
{
    energy->addPj(mem::EnergyCategory::Router, tech.routerHopPj);
    ++numFlits;
    inFlight.push_back(flit);
    if (!deliverEvent.scheduled())
        scheduleClocked(deliverEvent, sim::Cycles(tech.routerHopCycles));
}

void
Router::deliver()
{
    if (inFlight.empty())
        bfree_panic("router ", name(), " delivery with no flit in flight");
    if (!downstream)
        bfree_panic("router ", name(), " has no downstream sink");

    const Flit flit = inFlight.front();
    inFlight.erase(inFlight.begin());
    downstream(flit);

    if (!inFlight.empty())
        scheduleClocked(deliverEvent, sim::Cycles(tech.routerHopCycles));
}

std::uint64_t
systolic_chain_cycles(unsigned stages, std::uint64_t steps,
                      unsigned hop_cycles)
{
    if (stages == 0)
        return 0;
    // The first wave reaches the last stage after (stages - 1) hops;
    // one result then drains per step.
    return static_cast<std::uint64_t>(stages - 1) * hop_cycles + steps;
}

} // namespace bfree::noc
