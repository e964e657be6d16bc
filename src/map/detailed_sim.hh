/**
 * @file
 * Event-driven detailed model of one sub-bank systolic chain.
 *
 * This is the cycle-accurate counterpart of the analytic execution
 * model: K sub-arrays with their BCEs form a reduction chain joined by
 * routers (Fig. 8/9(b)). Input-vector slices stream in one wave per
 * compute interval; each node computes its slice's dot product through
 * the real LUT datapath (exact integers), adds the partial sum arriving
 * from its upstream neighbour and forwards the result.
 *
 * The wall-clock cycle count obeys the closed form
 *
 *   cycles = (waves - 1 + K) * cps + (K - 1) * hop
 *
 * with cps the per-node compute interval; tests assert the event-driven
 * simulation matches this exactly, which is the evidence that the
 * analytic full-network model and the detailed microarchitecture agree.
 */

#ifndef BFREE_MAP_DETAILED_SIM_HH
#define BFREE_MAP_DETAILED_SIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bce/bce.hh"
#include "mem/subarray.hh"
#include "noc/router.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"

namespace bfree::map {

/** Result of a detailed chain run. */
struct DetailedRunResult
{
    std::vector<std::int32_t> outputs; ///< One dot product per wave.
    std::uint64_t cycles = 0;          ///< Wall-clock cycles.
    std::uint64_t events = 0;          ///< Events dispatched.
};

/**
 * Closed-form cycle count the detailed model must match.
 */
std::uint64_t detailed_chain_formula(unsigned nodes, unsigned waves,
                                     std::uint64_t cps, unsigned hop);

/**
 * An event-driven simulation of a K-node reduction chain computing
 * dot products of signed 8-bit vectors.
 */
class DetailedSubBankSim
{
  public:
    /**
     * @param nodes     Sub-arrays in the chain (the sub-bank holds 8).
     * @param slice_len Elements of the dot product each node owns.
     * @param bits      Operand precision (4 or 8).
     */
    DetailedSubBankSim(const tech::CacheGeometry &geom,
                       const tech::TechParams &tech, unsigned nodes,
                       unsigned slice_len, unsigned bits);

    ~DetailedSubBankSim(); // out of line: Node is incomplete here

    /**
     * Load per-node weight slices: @p weights is [nodes][slice_len].
     */
    void loadWeights(const std::vector<std::vector<std::int8_t>> &weights);

    /**
     * Stream @p waves input vectors (each [nodes][slice_len], i.e. the
     * full dot-product operand) and run to completion.
     */
    DetailedRunResult
    run(const std::vector<std::vector<std::int8_t>> &inputs);

    /** Per-node compute interval in cycles. */
    std::uint64_t cyclesPerStep() const;

    /** Shared energy account of the simulated chain. */
    const mem::EnergyAccount &energy() const { return account; }

  private:
    struct Node;

    /** Pass a partial sum downstream (or record the chain output). */
    void forward(unsigned from, unsigned wave, std::int32_t sum);

    tech::CacheGeometry geom;
    tech::TechParams tech;
    unsigned numNodes;
    unsigned sliceLen;
    unsigned bits;

    sim::EventQueue queue;
    sim::ClockDomain clock;
    mem::EnergyAccount account;
    std::vector<std::unique_ptr<Node>> chain;
    std::vector<std::unique_ptr<noc::Router>> routers;
    std::vector<std::int32_t> completed;
};

/** One self-contained detailed chain run (weights + input waves). */
struct DetailedJob
{
    unsigned nodes = 8;
    unsigned sliceLen = 16;
    unsigned bits = 8;
    std::vector<std::vector<std::int8_t>> weights; ///< [nodes][sliceLen]
    std::vector<std::vector<std::int8_t>> inputs;  ///< [waves][nodes*sliceLen]
};

/**
 * Run each job through a private DetailedSubBankSim (its own event
 * queue, clock and energy account), sharded across the fork/join
 * thread pool. Results come back in job order and are bit-identical
 * for any thread count; @p threads = 0 uses the CPUs the process
 * may run on.
 */
std::vector<DetailedRunResult>
run_detailed_batch(const tech::CacheGeometry &geom,
                   const tech::TechParams &tech,
                   const std::vector<DetailedJob> &jobs,
                   unsigned threads = 0);

} // namespace bfree::map

#endif // BFREE_MAP_DETAILED_SIM_HH
