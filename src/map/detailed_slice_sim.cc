#include "detailed_slice_sim.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "sim/logging.hh"

namespace bfree::map {

namespace {

/**
 * Router-name helpers: one snprintf into a stack buffer and a single
 * (SSO-sized) string construction, instead of the four temporary
 * strings std::to_string-based concatenation costs per node.
 */
std::string
vertical_router_name(unsigned col, unsigned row)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "v%u_%u", col, row);
    return buf;
}

std::string
horizontal_router_name(unsigned col)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "h%u", col);
    return buf;
}

} // namespace

std::uint64_t
detailed_grid_formula(unsigned rows, unsigned cols, unsigned waves,
                      std::uint64_t cps, unsigned hop)
{
    if (rows == 0 || cols == 0 || waves == 0)
        return 0;
    return static_cast<std::uint64_t>(waves) * cps
           + static_cast<std::uint64_t>(cols - 1 + rows - 1) * hop;
}

/** One grid node: sub-array + BCE computing its channel slice. */
struct DetailedSliceSim::Node
{
    Node(DetailedSliceSim &parent, unsigned col, unsigned row)
        : parent(parent), col(col), row(row),
          subarray(parent.geom, parent.tech, parent.account),
          bce(subarray, parent.tech, parent.account)
    {
        bce.loadMultLutImage();
        bce.setMode(bce::BceMode::Conv);
    }

    std::int32_t
    localProduct(unsigned wave)
    {
        const std::vector<std::int8_t> &input =
            (*parent.currentInputs)[wave];
        const std::size_t base =
            static_cast<std::size_t>(row) * parent.sliceLen;
        return bce.dotProduct(0, input.data() + base, parent.sliceLen,
                              parent.bits);
    }

    void
    onPartial(const noc::Flit &flit)
    {
        const auto wave = flit.tag;
        const auto incoming = static_cast<std::int32_t>(flit.payload);
        const std::int32_t sum =
            bce.accumulateIncoming(localProduct(wave), incoming);
        parent.forward(col, row, wave, sum);
    }

    DetailedSliceSim &parent;
    unsigned col;
    unsigned row;
    mem::Subarray subarray;
    bce::Bce bce;
};

DetailedSliceSim::DetailedSliceSim(const tech::CacheGeometry &geom,
                                   const tech::TechParams &tech,
                                   unsigned rows, unsigned cols,
                                   unsigned slice_len, unsigned bits)
    : geom(geom), tech(tech), numRows(rows), numCols(cols),
      sliceLen(slice_len), bits(bits), clock(tech.subarrayClockHz)
{
    if (rows == 0 || rows > geom.subarraysPerSubBank)
        bfree_fatal("grid rows ", rows, " outside [1, ",
                    geom.subarraysPerSubBank, "]");
    if (cols == 0)
        bfree_fatal("grid needs at least one column");
    if (bits != 4 && bits != 8)
        bfree_fatal("detailed grid supports 4- or 8-bit operands");

    grid.resize(cols);
    vertical.resize(cols);
    for (unsigned c = 0; c < cols; ++c) {
        for (unsigned r = 0; r < rows; ++r)
            grid[c].push_back(std::make_unique<Node>(*this, c, r));
        for (unsigned r = 0; r + 1 < rows; ++r) {
            vertical[c].push_back(std::make_unique<noc::Router>(
                queue, vertical_router_name(c, r), clock, tech,
                account));
            Node *next = grid[c][r + 1].get();
            vertical[c].back()->connect(
                [next](const noc::Flit &flit) { next->onPartial(flit); });
        }
    }

    for (unsigned c = 0; c + 1 < cols; ++c) {
        horizontal.push_back(std::make_unique<noc::Router>(
            queue, horizontal_router_name(c), clock, tech, account));
        const unsigned next_col = c + 1;
        horizontal[c]->connect([this, next_col](const noc::Flit &flit) {
            triggerColumn(next_col, flit.tag);
        });
    }
}

DetailedSliceSim::~DetailedSliceSim() = default;

void
DetailedSliceSim::loadWeights(
    const std::vector<std::vector<std::vector<std::int8_t>>> &w)
{
    if (w.size() != numCols)
        bfree_fatal("expected ", numCols, " weight columns");
    for (unsigned c = 0; c < numCols; ++c) {
        if (w[c].size() != numRows)
            bfree_fatal("column ", c, ": expected ", numRows,
                        " row slices");
        for (unsigned r = 0; r < numRows; ++r) {
            if (w[c][r].size() != sliceLen)
                bfree_fatal("weight slice (", c, ",", r, ") has ",
                            w[c][r].size(), " elements, expected ",
                            sliceLen);
            grid[c][r]->subarray.write(
                0,
                reinterpret_cast<const std::uint8_t *>(w[c][r].data()),
                sliceLen);
        }
    }
}

std::uint64_t
DetailedSliceSim::cyclesPerStep() const
{
    return static_cast<std::uint64_t>(sliceLen) * (bits / 4);
}

void
DetailedSliceSim::triggerColumn(unsigned col, unsigned wave)
{
    // Propagate the wave to the next column first (the streaming link
    // runs concurrently with this column's compute).
    if (col + 1 < numCols)
        horizontal[col]->send(noc::Flit{0, wave});

    const std::int32_t local = grid[col][0]->localProduct(wave);
    forward(col, 0, wave, local);
}

void
DetailedSliceSim::forward(unsigned col, unsigned row, unsigned wave,
                          std::int32_t sum)
{
    if (row + 1 < numRows) {
        vertical[col][row]->send(noc::Flit{
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(sum)),
            wave});
    } else {
        if (wave != completed[col].size())
            bfree_panic("column ", col, ": wave ", wave,
                        " completed out of order");
        completed[col].push_back(sum);
        drain_tick = std::max(drain_tick, queue.now());
    }
}

DetailedGridResult
DetailedSliceSim::run(const std::vector<std::vector<std::int8_t>> &inputs)
{
    for (const auto &wave : inputs) {
        if (wave.size() != std::size_t(numRows) * sliceLen)
            bfree_fatal("each input wave must carry rows * slice_len "
                        "elements");
    }
    const auto waves = static_cast<unsigned>(inputs.size());
    currentInputs = &inputs;
    completed.assign(numCols, {});
    for (auto &col : completed)
        col.reserve(waves);
    const std::uint64_t events_at_start = queue.processed();

    // The queue's clock keeps running across runs: time this run from
    // its own start, so a second run on the same grid reports its own
    // cycles.
    const sim::Tick base = queue.now();
    drain_tick = base;
    const sim::Tick cps_ticks =
        clock.cyclesToTicks(sim::Cycles(cyclesPerStep()));
    for (unsigned w = 0; w < waves; ++w) {
        queue.scheduleCallback(base + (w + 1) * cps_ticks,
                               [this, w] { triggerColumn(0, w); });
    }
    queue.run();

    for (unsigned c = 0; c < numCols; ++c) {
        if (completed[c].size() != waves)
            bfree_panic("column ", c, " drained ", completed[c].size(),
                        " of ", waves, " waves");
    }

    // Convert every node's integer micro-op tallies into joules before
    // the account is read, in fixed grid order.
    for (auto &column : grid)
        for (auto &node : column)
            node->bce.flushEnergy();

    DetailedGridResult result;
    result.outputs = std::move(completed);
    result.cycles = clock.ticksToCycles(drain_tick - base).value();
    result.events = queue.processed() - events_at_start;
    currentInputs = nullptr;
    return result;
}

} // namespace bfree::map
