/**
 * @file
 * 16 nm technology parameters for the BFree architecture model.
 *
 * Every constant in this file is anchored either to a number published in
 * the paper (Section V-A/V-B gives the circuit-level characterisation
 * results) or to a standard planning number for a 16 nm FinFET process.
 * The architecture model downstream consumes only these scalars, which is
 * the same modelling altitude the paper's own evaluation used (SPICE +
 * Synopsys characterisation feeding a cycle-level simulator).
 */

#ifndef BFREE_TECH_TECH_PARAMS_HH
#define BFREE_TECH_TECH_PARAMS_HH

#include <cstdint>

namespace bfree::tech {

/**
 * Scalar technology/circuit parameters. Defaults model the paper's
 * TSMC 16 nm design point.
 */
struct TechParams
{
    // ------------------------------------------------------------------
    // Clocks
    // ------------------------------------------------------------------
    /** Sub-array (and therefore BFree PIM) clock in Hz. Paper: 1.5 GHz. */
    double subarrayClockHz = 1.5e9;

    /**
     * Neural Cache effective array clock in Hz. Multi-row activation
     * requires ~2/3 wordline underdrive and dual sense amplifiers, which
     * slows the array relative to the unmodified BFree sub-array
     * (Section V-D: "Neural Cache ... decreasing the sub-array's
     * frequency").
     */
    double neuralCacheClockHz = 0.75e9;

    // ------------------------------------------------------------------
    // Sub-array access energy (dynamic, per access)
    // ------------------------------------------------------------------
    /** Full-bitline sub-array read/write of one 64-bit row slice. Paper:
     *  8.6 pJ. */
    double subarrayAccessPj = 8.6;

    /** Bitline compute op (multi-row activation) for Neural Cache.
     *  Paper: 15.4 pJ. */
    double bitlineComputeOpPj = 15.4;

    /** Energy ratio of a decoupled-bitline LUT-row access relative to a
     *  full sub-array access. Paper: 231x lower. */
    double lutAccessEnergyRatio = 1.0 / 231.0;

    /** Latency ratio of a decoupled-bitline LUT access. Paper: 3x
     *  faster. */
    double lutAccessLatencyRatio = 1.0 / 3.0;

    /** BCE hardwired multiply-LUT (ROM) MAC energy. Paper: ~0.5 pJ. */
    double bceMacPj = 0.5;

    // ------------------------------------------------------------------
    // BCE / controller power (static + clocking, per instance)
    // ------------------------------------------------------------------
    /** BCE power in convolution mode (1 MUX, 1 adder, 2 shifters). */
    double bceConvModeMw = 0.4;

    /** BCE power in matrix-multiply mode (switch MUX, all adders). */
    double bceMatmulModeMw = 1.3;

    /** BCE power for the remaining (scalar/special-function) ops. */
    double bceOtherModeMw = 0.4;

    /** Cache-level controller power. Paper: 0.8 mW. */
    double cacheControllerMw = 0.8;

    /** Slice-level controller power. Paper: 1.4 mW. */
    double sliceControllerMw = 1.4;

    /** SRAM array leakage per MB (16 nm LLC planning number). */
    double sramLeakageMwPerMb = 100.0;

    // ------------------------------------------------------------------
    // Geometry / area
    // ------------------------------------------------------------------
    /** 6T bit-cell area at 16 nm, in um^2. */
    double bitcellAreaUm2 = 0.074;

    /** Sub-array peripheral area overhead (decoder, mux, SA, precharge)
     *  as a fraction of the raw cell array. */
    double peripheryAreaFraction = 0.35;

    /** LUT local-precharge circuitry area as a fraction of one
     *  sub-array. Paper: 0.5%. */
    double lutPrechargeAreaFraction = 0.005;

    /** BCE area overhead as a fraction of a 2.5 MB slice. Paper: 6%. */
    double bceAreaFractionOfSlice = 0.06;

    /** Controllers' area as a fraction of the whole cache. Paper: 0.1%. */
    double controllerAreaFractionOfCache = 0.001;

    /** Specialized-MAC alternative: area relative to BCE (paper: BCE is
     *  3% smaller) and energy relative to BCE (paper: BCE is 48% more
     *  energy efficient). */
    double specializedMacAreaVsBce = 1.03;
    double specializedMacEnergyVsBce = 1.48;

    /** Intra-slice routing/repeater area as a fraction of the sub-array
     *  silicon in a slice. */
    double sliceWiringAreaFraction = 0.15;

    /** Inter-slice ring, tag and global-control area as a fraction of
     *  the summed slice area. */
    double cacheGlobalAreaFraction = 0.15;

    // ------------------------------------------------------------------
    // Interconnect (slice H-tree)
    // ------------------------------------------------------------------
    /** Slice-internal global wire latency in ns per mm. This is loaded,
     *  mux-interrupted cache routing, not an optimally repeated
     *  point-to-point wire, hence much slower than raw repeated-wire
     *  delay. */
    double wireLatencyNsPerMm = 3.0;

    /** Wire energy in pJ per bit per mm (data + its share of address and
     *  control toggling). */
    double wireEnergyPjPerBitPerMm = 0.40;

    /** Data width of the slice data bus in bits. */
    unsigned sliceBusBits = 64;

    /** Bus driver/mux energy per access along the slice H-tree, in pJ. */
    double busDriverPj = 6.0;

    /** Decoder + timing circuitry latency per access, in ns. */
    double decodeTimingNs = 0.33;

    /** Decoder + timing circuitry energy per access, in pJ. */
    double decodeTimingPj = 1.0;

    /** Router traversal energy per 64-bit flit (systolic hop). */
    double routerHopPj = 0.35;

    /** Router traversal latency in cycles of the sub-array clock. */
    unsigned routerHopCycles = 1;

    // ------------------------------------------------------------------
    // Sub-array timing
    // ------------------------------------------------------------------
    /** Sub-array random access latency in cycles of the sub-array
     *  clock (decode + bitline + sense). One PIM cycle. */
    unsigned subarrayAccessCycles = 1;

    /** Derived: one sub-array clock period in ns. */
    double
    subarrayPeriodNs() const
    {
        return 1e9 / subarrayClockHz;
    }

    /** Derived: decoupled LUT-row access energy in pJ. */
    double
    lutAccessPj() const
    {
        return subarrayAccessPj * lutAccessEnergyRatio;
    }

    /** Derived: decoupled LUT-row access latency in ns. */
    double
    lutAccessNs() const
    {
        return subarrayPeriodNs() * subarrayAccessCycles
               * lutAccessLatencyRatio;
    }

    /** Derived: BCE energy per cycle in a given mode, in pJ. */
    double
    bceEnergyPerCyclePj(double mode_mw) const
    {
        // mW * ns = pJ
        return mode_mw * subarrayPeriodNs();
    }
};

/**
 * Main-memory technology options used in Fig. 14.
 */
enum class MainMemoryKind
{
    DRAM,  ///< Commodity DDR: 20 GB/s.
    EDRAM, ///< Embedded DRAM: 64 GB/s.
    HBM,   ///< High-bandwidth memory: 100 GB/s.
};

/** Bandwidth/energy description of one main-memory option. */
struct MainMemoryParams
{
    MainMemoryKind kind = MainMemoryKind::DRAM;
    double bandwidthGBps = 20.0; ///< Sustained streaming bandwidth.
    double energyPjPerByte = 160.0; ///< Dynamic transfer energy.
    double staticPowerMw = 500.0;   ///< Background power of the channel.

    /** Name for reports. */
    const char *name() const;

    /** Time in seconds to stream @p bytes. */
    double
    streamSeconds(double bytes) const
    {
        return bytes / (bandwidthGBps * 1e9);
    }

    /** Dynamic energy in joules to stream @p bytes. */
    double
    streamJoules(double bytes) const
    {
        return bytes * energyPjPerByte * 1e-12;
    }
};

/** Canonical parameter set for a memory kind (paper Fig. 14 values). */
MainMemoryParams main_memory_params(MainMemoryKind kind);

} // namespace bfree::tech

#endif // BFREE_TECH_TECH_PARAMS_HH
