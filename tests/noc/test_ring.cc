/**
 * @file
 * The inter-slice ring.
 */

#include <gtest/gtest.h>

#include "noc/ring.hh"

using namespace bfree::noc;
using bfree::mem::EnergyAccount;
using bfree::mem::EnergyCategory;
using bfree::tech::TechParams;

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
