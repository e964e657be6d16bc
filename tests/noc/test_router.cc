/**
 * @file
 * Systolic routers and the inter-slice ring.
 */

#include <gtest/gtest.h>

#include <vector>

#include "noc/ring.hh"
#include "noc/router.hh"

using namespace bfree::noc;
using namespace bfree::sim;
using bfree::mem::EnergyAccount;
using bfree::mem::EnergyCategory;
using bfree::tech::TechParams;

namespace {

struct RouterFixture
{
    TechParams tech;
    EventQueue queue;
    ClockDomain clock{1.5e9};
    EnergyAccount energy;
    Router router{queue, "r0", clock, tech, energy};
};

} // namespace

TEST(Router, DeliversAfterOneHopCycle)
{
    RouterFixture f;
    std::vector<Flit> received;
    f.router.connect([&](const Flit &flit) { received.push_back(flit); });

    f.router.send(Flit{0xDEAD, 7});
    f.queue.run();

    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(received[0].payload, 0xDEADu);
    EXPECT_EQ(received[0].tag, 7u);
    EXPECT_EQ(f.clock.ticksToCycles(f.queue.now()).value(), 1u);
}

TEST(Router, BurstDrainsOnePerCycle)
{
    RouterFixture f;
    std::vector<Tick> arrival_ticks;
    f.router.connect(
        [&](const Flit &) { arrival_ticks.push_back(f.queue.now()); });

    f.router.send(Flit{1, 0});
    f.router.send(Flit{2, 1});
    f.router.send(Flit{3, 2});
    f.queue.run();

    ASSERT_EQ(arrival_ticks.size(), 3u);
    EXPECT_LT(arrival_ticks[0], arrival_ticks[1]);
    EXPECT_LT(arrival_ticks[1], arrival_ticks[2]);
    EXPECT_EQ(f.router.flitsForwarded(), 3u);
}

TEST(Router, ChargesHopEnergy)
{
    RouterFixture f;
    f.router.connect([](const Flit &) {});
    f.router.send(Flit{});
    f.queue.run();
    EXPECT_NEAR(f.energy.joules(EnergyCategory::Router),
                f.tech.routerHopPj * 1e-12, 1e-20);
}

TEST(Router, ChainedRoutersAccumulateLatency)
{
    TechParams tech;
    EventQueue queue;
    ClockDomain clock(1.5e9);
    EnergyAccount energy;
    Router r0(queue, "r0", clock, tech, energy);
    Router r1(queue, "r1", clock, tech, energy);

    bool done = false;
    r0.connect([&](const Flit &flit) { r1.send(flit); });
    r1.connect([&](const Flit &) { done = true; });

    r0.send(Flit{42, 0});
    queue.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(clock.ticksToCycles(queue.now()).value(), 2u);
}

TEST(Router, BackToBackScalarSendsChargePerFlit)
{
    RouterFixture f;
    f.router.connect([](const Flit &) {});
    for (int i = 0; i < 5; ++i)
        f.router.send(Flit{});
    f.queue.run();
    EXPECT_NEAR(f.energy.joules(EnergyCategory::Router),
                5 * f.tech.routerHopPj * 1e-12, 1e-19);
    EXPECT_EQ(f.router.flitsForwarded(), 5u);
}

TEST(SystolicChainFormula, KnownValues)
{
    // One stage: no hops, just the steps.
    EXPECT_EQ(systolic_chain_cycles(1, 10, 1), 10u);
    // Eight stages, one wave: 7 hops + 1 step.
    EXPECT_EQ(systolic_chain_cycles(8, 1, 1), 8u);
    // Paper sub-bank: 8 stages, 100 waves.
    EXPECT_EQ(systolic_chain_cycles(8, 100, 1), 107u);
    EXPECT_EQ(systolic_chain_cycles(0, 5, 1), 0u);
}

TEST(Ring, BroadcastTimeScalesWithBytes)
{
    TechParams tech;
    EnergyAccount energy;
    RingInterconnect ring(14, tech, energy);
    const double t1 = ring.broadcast(1e6);
    const double t2 = ring.broadcast(2e6);
    EXPECT_GT(t2, t1);
    EXPECT_NEAR(t2 / t1, 2.0, 0.01);
    EXPECT_GT(energy.joules(EnergyCategory::Interconnect), 0.0);
}

TEST(Ring, BandwidthExceedsDram)
{
    // The ring must not bottleneck DRAM-rate weight broadcast: 32 B /
    // cycle at 1.5 GHz = 48 GB/s > 20 GB/s.
    TechParams tech;
    EnergyAccount energy;
    RingInterconnect ring(14, tech, energy);
    EXPECT_GT(ring.busBytesPerCycle() * ring.clockHz(), 20e9);
}

TEST(Ring, TransferChargesPerHop)
{
    TechParams tech;
    EnergyAccount e1;
    EnergyAccount e2;
    RingInterconnect ring1(14, tech, e1);
    RingInterconnect ring2(14, tech, e2);
    ring1.transfer(1e6, 1);
    ring2.transfer(1e6, 7);
    EXPECT_GT(e2.joules(EnergyCategory::Interconnect),
              e1.joules(EnergyCategory::Interconnect));
}

TEST(RouterDeath, UnconnectedRouterPanics)
{
    RouterFixture f;
    f.router.send(Flit{});
    EXPECT_DEATH(f.queue.run(), "no downstream");
}
