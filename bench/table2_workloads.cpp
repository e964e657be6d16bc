/**
 * @file
 * Table II — Summary of neural network workloads: layers, parameters
 * and multiplies of each evaluated network, derived from the rebuilt
 * architectures, plus the functional execution-plan footprint (the
 * steady-state scratch arena a compiled core::NetworkPlan would
 * reserve; '-' where the flattened layer list cannot be planned, e.g.
 * branched Inception or the BERT residual/LayerNorm blocks).
 *
 * Each network is rebuilt and characterized in its own sweep job
 * (--threads N, default: the CPUs it may use); rows are joined in
 * job-index order, so the table is bit-identical for any thread count.
 */

#include <cstdio>
#include <iostream>

#include "core/network_plan.hh"
#include "dnn/model_zoo.hh"
#include "sim/parallel.hh"

namespace {

using namespace bfree;

/** Plan arena column: "12.3K" / "24.5M" or "-" when unplannable. */
void
plan_arena(const dnn::Network &net, char *buf, std::size_t len)
{
    core::PlanStats ps;
    if (!core::NetworkPlan::tryEstimate(net, 8, ps)) {
        std::snprintf(buf, len, "%9s", "-");
        return;
    }
    const double bytes = static_cast<double>(ps.arenaBytes);
    if (bytes >= 1024.0 * 1024.0)
        std::snprintf(buf, len, "%8.1fM", bytes / (1024.0 * 1024.0));
    else
        std::snprintf(buf, len, "%8.1fK", bytes / 1024.0);
}

void
row(std::ostream &os, const dnn::Network &net, const char *paper_params,
    const char *paper_mults, const char *dataset)
{
    char arena[16];
    plan_arena(net, arena, sizeof(arena));
    char line[192];
    std::snprintf(line, sizeof(line),
                  "%-14s %7u %9.1fM %9.2fG %s   %-9s (paper: %s params, "
                  "%s mults)\n",
                  net.name().c_str(), net.reportedDepth,
                  static_cast<double>(net.totalParams()) / 1e6,
                  static_cast<double>(net.totalMacs()) / 1e9, arena,
                  dataset, paper_params, paper_mults);
    os << line;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bfree::dnn;

    const unsigned threads = bfree::sim::threads_from_args(argc, argv);

    std::vector<bfree::sim::SweepJob> jobs;
    jobs.push_back({"inception", [](bfree::sim::SweepContext &ctx) {
        row(ctx.out, make_inception_v3(), "24M", "4.7G", "ImageNet");
    }});
    jobs.push_back({"vgg16", [](bfree::sim::SweepContext &ctx) {
        row(ctx.out, make_vgg16(), "138M", "15.5G", "ImageNet");
    }});
    jobs.push_back({"lstm", [](bfree::sim::SweepContext &ctx) {
        const Network lstm = make_lstm();
        char arena[16];
        plan_arena(lstm, arena, sizeof(arena));
        char line[192];
        std::snprintf(line, sizeof(line),
                      "%-14s %7u %9.1fM %9.2fM %s   %-9s (paper: 4.3M "
                      "params, 4.35M mults/step)\n",
                      lstm.name().c_str(), lstm.reportedDepth,
                      static_cast<double>(lstm.totalParams()) / 1e6,
                      static_cast<double>(lstm.totalMacs()) / 1e6, arena,
                      "TIMIT");
        ctx.out << line;
    }});
    jobs.push_back({"bert_base", [](bfree::sim::SweepContext &ctx) {
        row(ctx.out, make_bert_base(), "87M", "11.1G", "MRPC");
    }});
    jobs.push_back({"bert_large", [](bfree::sim::SweepContext &ctx) {
        row(ctx.out, make_bert_large(), "324M", "39.5G", "MRPC");
    }});

    bfree::sim::SweepRunner sweeper(threads);
    const bfree::sim::SweepReport report = sweeper.run(std::move(jobs));

    std::printf("Table II — summary of neural network workloads\n\n");
    std::printf("%-14s %7s %10s %10s %9s   %-9s\n", "network", "layers",
                "params", "mults", "plan", "dataset");
    std::cout << report.output();

    std::printf("\nnote: 'layers' is the publication's depth; branched "
                "topologies flatten to more operators (Inception-v3: "
                "%zu MAC layers). 'plan' is the steady-state scratch "
                "arena of a compiled execution plan.\n",
                make_inception_v3().computeLayerCount());
    return 0;
}
