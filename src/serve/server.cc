#include "serve/server.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"
#include "verify/plan_verifier.hh"

namespace bfree::serve {

ServeEngine::ServeEngine(const core::NetworkPlan &plan, ServeConfig cfg)
    : plan(plan), cfg(cfg), stats_(cfg.stats)
{
    // Reject-on-serve: a config the static audit finds inconsistent, or
    // a plan that failed its verify-on-compile audit, never admits a
    // request.
    verify::ServeAuditConfig audit;
    audit.queueDepth = this->cfg.queueDepth;
    audit.maxBatch = this->cfg.batcher.maxBatch;
    audit.windowTicks = this->cfg.batcher.windowTicks;
    audit.cyclesPerTick = this->cfg.cyclesPerTick;
    audit.minServiceTicks = this->cfg.minServiceTicks;
    audit.sloDeadlineTicks = this->cfg.sloDeadlineTicks;
    const verify::VerifyReport report =
        verify::audit_serve_config(audit);
    if (!report.ok())
        bfree_fatal("serve engine rejected its config:\n",
                    report.toString());
    if (!plan.diagnostics().ok())
        bfree_fatal("serve engine rejected plan '",
                    plan.network().name(),
                    "' (failed verify-on-compile):\n",
                    plan.diagnostics().toString());
}

ReplayReport
ServeEngine::replay(const ArrivalTrace &trace)
{
    RequestQueue queue(cfg.queueDepth);
    ContinuousBatcher batcher(queue, cfg.batcher);
    VirtualClock clock;
    std::ostringstream log;

    ReplayReport rep;
    rep.outputs.resize(trace.size());
    rep.served.reserve(trace.size());

    core::BatchOptions batchOpts;
    batchOpts.threads = cfg.threads;
    batchOpts.geom = cfg.geom;
    batchOpts.tech = cfg.tech;

    // The in-flight batch: requests dispatched but not yet complete at
    // virtual time. Their outputs are computed at dispatch (host time)
    // and delivered at the batch's modelled completion tick.
    std::vector<Request> inflight;
    std::vector<dnn::FloatTensor> inflightOut;
    bool busy = false;

    auto completeInflight = [&](sim::Tick at) {
        for (std::size_t i = 0; i < inflight.size(); ++i) {
            Request &r = inflight[i];
            r.completeTick = at;
            stats_.recordCompletion(r);
            rep.outputs[r.id] = std::move(inflightOut[i]);
            rep.served.push_back(std::move(r));
        }
        inflight.clear();
        inflightOut.clear();
        busy = false;
        rep.endTick = at;
    };

    std::size_t ai = 0; // next un-admitted arrival
    std::uint64_t batchSeq = 0;

    while (true) {
        // Earliest next event: in-flight completion, next arrival, or
        // a batch release (full queue / window expiry).
        sim::Tick next = sim::max_tick;
        if (busy)
            next = std::min(next, batcher.busyUntil());
        if (ai < trace.arrivals.size())
            next = std::min(next, trace.arrivals[ai].tick);
        if (!busy)
            next = std::min(next, batcher.nextDispatchTick(clock.now()));
        if (next == sim::max_tick)
            break;
        clock.advanceTo(std::max(next, clock.now()));
        const sim::Tick now = clock.now();

        // Fixed intra-tick order keeps the schedule deterministic:
        // 1) a batch completing at this tick frees the server;
        if (busy && batcher.busyUntil() <= now)
            completeInflight(batcher.busyUntil());

        // 2) this tick's arrivals go through admission (they may join
        //    a batch formed at this same tick);
        while (ai < trace.arrivals.size()
               && trace.arrivals[ai].tick <= now) {
            const Arrival &a = trace.arrivals[ai];
            Request r;
            r.id = ai;
            r.deadlineTicks = a.deadlineTicks;
            r.input = make_request_input(plan, a.inputSeed);
            const AdmitResult res = queue.tryEnqueue(r, now);
            stats_.recordAdmission(res);
            if (res != AdmitResult::Admitted) {
                log << "reject req " << ai << " @" << now << " "
                    << admit_result_name(res) << "\n";
            }
            ++ai;
        }

        // 3) the batcher may release the next batch.
        std::vector<Request> batch = batcher.tryForm(now);
        if (batch.empty())
            continue;

        std::vector<const dnn::FloatTensor *> ptrs;
        ptrs.reserve(batch.size());
        for (const Request &r : batch)
            ptrs.push_back(&r.input);
        core::BatchResult br =
            core::run_functional_batch(plan, ptrs, batchOpts);
        rep.datapathStats += br.stats;
        rep.energyJoules += br.energy.total();

        const sim::Tick service =
            std::max(cfg.minServiceTicks,
                     static_cast<sim::Tick>(br.stats.cycles
                                            / cfg.cyclesPerTick));
        const sim::Tick doneAt = now + service;
        batcher.noteDispatch(doneAt);
        busy = true;
        stats_.recordDispatch(batch.size());

        log << "batch " << batchSeq++ << " dispatch@" << now << " size "
            << batch.size() << " reqs [";
        for (std::size_t i = 0; i < batch.size(); ++i)
            log << (i ? "," : "") << batch[i].id;
        log << "] service " << service << " complete@" << doneAt << "\n";

        inflight = std::move(batch);
        inflightOut = std::move(br.outputs);
    }

    rep.batchLog = log.str();
    return rep;
}

} // namespace bfree::serve
