/**
 * @file
 * Event-driven detailed model of the full 2-D systolic pattern inside
 * a slice (Fig. 8 / Fig. 9(b)).
 *
 * Filters are distributed across columns of sub-arrays (one sub-bank
 * chain per filter) and input channels across the rows within each
 * column. Input waves stream horizontally: the slice of wave w for
 * row r enters column 0 and hops to column c+1 every router cycle.
 * Within a column, partial products reduce vertically exactly like
 * DetailedSubBankSim. Column c therefore finishes wave w at
 *
 *     (w + 1) * cps + c * hop + (rows - 1) * hop
 *
 * and the whole grid drains at
 *
 *     waves * cps + (cols - 1 + rows - 1) * hop.
 *
 * Every multiply goes through real Subarray + Bce objects, so the
 * functional outputs are exact and the wall clock cross-validates the
 * closed form used by the analytic model. Router traffic is literal:
 * one scheduled delivery per flit per hop, so a run dispatches
 *
 *     waves + waves * (cols - 1) + waves * cols * (rows - 1)
 *
 * events (one injection per wave, then the horizontal and vertical
 * hops), which is waves * rows * cols.
 */

#ifndef BFREE_MAP_DETAILED_SLICE_SIM_HH
#define BFREE_MAP_DETAILED_SLICE_SIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bce/bce.hh"
#include "mem/subarray.hh"
#include "noc/router.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"

namespace bfree::map {

/** Result of a detailed grid run. */
struct DetailedGridResult
{
    /** outputs[column][wave]: one dot product per filter per wave. */
    std::vector<std::vector<std::int32_t>> outputs;
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
};

/** The closed-form cycle count of the grid. */
std::uint64_t detailed_grid_formula(unsigned rows, unsigned cols,
                                    unsigned waves, std::uint64_t cps,
                                    unsigned hop);

/**
 * The 2-D systolic grid simulation.
 */
class DetailedSliceSim
{
  public:
    /**
     * @param rows      Sub-arrays per column (input-channel slices).
     * @param cols      Columns (filters / sub-bank chains).
     * @param slice_len Dot-product elements each node owns.
     */
    DetailedSliceSim(const tech::CacheGeometry &geom,
                     const tech::TechParams &tech, unsigned rows,
                     unsigned cols, unsigned slice_len, unsigned bits);

    ~DetailedSliceSim();

    /** Load weights[col][row] slices of slice_len int8 values. */
    void loadWeights(
        const std::vector<std::vector<std::vector<std::int8_t>>> &w);

    /**
     * Stream @p waves input vectors (each rows * slice_len elements;
     * every column sees the same inputs) and run to completion. Wave w
     * enters column 0 (w + 1) * cyclesPerStep() cycles after the start.
     */
    DetailedGridResult
    run(const std::vector<std::vector<std::int8_t>> &inputs);

    /** Per-node compute interval in cycles. */
    std::uint64_t cyclesPerStep() const;

    /** Energy account charged by this grid. */
    const mem::EnergyAccount &energy() const { return account; }

  private:
    struct Node;

    /** Wave w has arrived (horizontally) at column @p col. */
    void triggerColumn(unsigned col, unsigned wave);

    /** Vertical forwarding inside a column. */
    void forward(unsigned col, unsigned row, unsigned wave,
                 std::int32_t sum);

    tech::CacheGeometry geom;
    tech::TechParams tech;
    unsigned numRows;
    unsigned numCols;
    unsigned sliceLen;
    unsigned bits;

    /** Declared before the grid so nodes can hold references. */
    sim::EventQueue queue;
    mem::EnergyAccount account;

    sim::ClockDomain clock;
    /** nodes[col][row]. */
    std::vector<std::vector<std::unique_ptr<Node>>> grid;
    /** Vertical reduction routers per column (rows - 1 each). */
    std::vector<std::vector<std::unique_ptr<noc::Router>>> vertical;
    /** Horizontal streaming routers between columns (cols - 1). */
    std::vector<std::unique_ptr<noc::Router>> horizontal;

    std::vector<std::vector<std::int32_t>> completed;
    const std::vector<std::vector<std::int8_t>> *currentInputs = nullptr;
    sim::Tick drain_tick = 0;
};

} // namespace bfree::map

#endif // BFREE_MAP_DETAILED_SLICE_SIM_HH
