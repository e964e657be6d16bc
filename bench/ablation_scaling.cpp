/**
 * @file
 * Ablation — fabric scaling.
 *
 * BFree's performance comes from sub-array-level parallelism: 4480
 * sub-arrays x 4 MACs/cycle at full cache. This ablation sweeps the
 * slice count (i.e. how much of the LLC is converted to PIM) and the
 * batch size, to show where compute parallelism stops paying because
 * the main-memory channel takes over — the system-level story behind
 * Fig. 13/14.
 *
 * All sweep points run on the parallel sweep engine (--threads N,
 * default: the CPUs it may use); results are joined in job order, so
 * the output is bit-identical for any thread count. Each slice-count
 * point is additionally cross-validated through the event-driven
 * detailed sub-bank model, which gives the sweep real per-job work and
 * ties the analytic numbers back to the cycle-accurate datapath.
 */

#include <cstdio>
#include <vector>

#include "core/bfree.hh"
#include "core/report.hh"
#include "map/detailed_sim.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"

namespace {

using namespace bfree;

/** Deterministic detailed-chain job for one sweep point. */
map::DetailedJob
make_detailed_job(unsigned nodes, unsigned slice_len, unsigned waves,
                  unsigned bits, std::uint64_t seed)
{
    map::DetailedJob job;
    job.nodes = nodes;
    job.sliceLen = slice_len;
    job.bits = bits;
    sim::Rng rng(seed);
    const std::int64_t lo = bits == 4 ? -8 : -128;
    const std::int64_t hi = bits == 4 ? 7 : 127;
    job.weights.assign(nodes, std::vector<std::int8_t>(slice_len));
    for (auto &slice : job.weights) {
        for (auto &w : slice)
            w = static_cast<std::int8_t>(rng.uniformInt(lo, hi));
    }
    job.inputs.assign(
        waves,
        std::vector<std::int8_t>(std::size_t(nodes) * slice_len));
    for (auto &wave : job.inputs) {
        for (auto &x : wave)
            x = static_cast<std::int8_t>(rng.uniformInt(lo, hi));
    }
    return job;
}

/** Reference dot product of wave @p wave against the job's weights. */
std::int32_t
reference_dot(const map::DetailedJob &job, unsigned wave)
{
    std::int32_t sum = 0;
    for (unsigned n = 0; n < job.nodes; ++n) {
        for (unsigned i = 0; i < job.sliceLen; ++i) {
            sum += std::int32_t(job.weights[n][i])
                   * std::int32_t(
                         job.inputs[wave][std::size_t(n) * job.sliceLen
                                          + i]);
        }
    }
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bfree;

    const unsigned threads = sim::threads_from_args(argc, argv);
    core::BFreeAccelerator acc;

    const std::vector<unsigned> slice_points = {1u, 2u, 4u, 7u, 14u};
    const std::vector<unsigned> batch_points = {1u, 2u, 4u, 8u, 16u, 32u};

    // One job list covers both sweeps; runMany shards it across the
    // thread pool and returns results in job order.
    std::vector<map::ExecJob> jobs;
    for (unsigned slices : slice_points) {
        map::ExecConfig cfg;
        cfg.batch = 16;
        cfg.mapper.slices = slices;
        jobs.push_back({dnn::make_vgg16(), cfg});
    }
    for (unsigned batch : batch_points) {
        map::ExecConfig cfg;
        cfg.batch = batch;
        jobs.push_back({dnn::make_bert_base(), cfg});
    }
    const std::vector<map::RunResult> results = acc.runMany(jobs, threads);

    std::printf("Ablation — slice-count scaling (VGG-16, batch 16, "
                "DRAM)\n\n");
    std::printf("%7s %12s %14s %12s %12s\n", "slices", "subarrays",
                "latency(ms)", "compute(ms)", "speedup");
    const double base = results[0].secondsPerInference();
    for (std::size_t i = 0; i < slice_points.size(); ++i) {
        const map::RunResult &r = results[i];
        std::printf("%7u %12u %14.3f %12.3f %11.2fx\n", slice_points[i],
                    slice_points[i] * acc.geometry().subarraysPerSlice(),
                    r.secondsPerInference() * 1e3,
                    r.time.compute * 1e3,
                    base / r.secondsPerInference());
    }

    std::printf("\nAblation — batch scaling (BERT-base, DRAM)\n\n");
    std::printf("%7s %16s %16s %14s\n", "batch", "latency/inf(ms)",
                "weight-load(ms)", "energy/inf(mJ)");
    for (std::size_t i = 0; i < batch_points.size(); ++i) {
        const map::RunResult &r = results[slice_points.size() + i];
        std::printf("%7u %16.3f %16.3f %14.2f\n", batch_points[i],
                    r.secondsPerInference() * 1e3,
                    r.time.weightLoad * 1e3,
                    r.joulesPerInference() * 1e3);
    }

    // Cross-validate each slice point through the event-driven model:
    // one sub-bank chain per (point, precision), exact LUT-datapath
    // integers. These jobs carry the sweep's real CPU work, so this is
    // also where extra worker threads pay off.
    std::printf("\nDetailed cross-validation (8-node chains)\n\n");
    std::printf("%7s %6s %10s %8s %10s %8s\n", "point", "bits",
                "slice_len", "waves", "cycles", "exact");
    std::vector<map::DetailedJob> detailed;
    const unsigned waves = 96;
    const unsigned slice_len = 128;
    for (std::size_t i = 0; i < slice_points.size(); ++i) {
        for (unsigned bits : {8u, 4u}) {
            detailed.push_back(make_detailed_job(
                8, slice_len, waves, bits,
                0xab1a7e00ULL + 2 * slice_points[i] + bits));
        }
    }
    const std::vector<map::DetailedRunResult> runs = map::run_detailed_batch(
        acc.geometry(), acc.techParams(), detailed, threads);
    bool all_exact = true;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        bool exact = runs[i].outputs.size() == waves;
        for (unsigned w = 0; exact && w < waves; ++w)
            exact = runs[i].outputs[w] == reference_dot(detailed[i], w);
        all_exact = all_exact && exact;
        std::printf("%7zu %6u %10u %8u %10llu %8s\n", i / 2,
                    detailed[i].bits, slice_len, waves,
                    static_cast<unsigned long long>(runs[i].cycles),
                    exact ? "yes" : "NO");
    }

    std::printf("\nCompute scales with slices until the channel "
                "dominates; batching amortizes the weight stream until "
                "intermediate spill traffic takes over.\n");
    return all_exact ? 0 : 1;
}
