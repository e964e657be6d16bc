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
 * Every point comes from the closed-form execution model. All sweep
 * points run on the parallel sweep engine (--threads N, default: the
 * CPUs it may use); results are joined in job order, so the output is
 * bit-identical for any thread count.
 */

#include <cstdio>
#include <vector>

#include "core/bfree.hh"
#include "core/report.hh"
#include "sim/parallel.hh"

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

    std::printf("\nCompute scales with slices until the channel "
                "dominates; batching amortizes the weight stream until "
                "intermediate spill traffic takes over.\n");
    return 0;
}
