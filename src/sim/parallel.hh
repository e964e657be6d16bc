/**
 * @file
 * The parallel sweep engine: a fork/join thread pool and a
 * deterministic SweepRunner.
 *
 * Design-space sweeps and full-network evaluations are embarrassingly
 * parallel across configuration points, layers and sub-bank chains, but
 * a naive fork/join makes the output depend on completion order. The
 * engine here separates the two concerns:
 *
 *  - ThreadPool is a fork/join over an index range: the caller and
 *    the workers claim the next index from one shared counter, so a
 *    thread that is free takes the next piece of work and unbalanced
 *    job costs still fill every core. Its parallelFor allocates
 *    nothing, so the functional executor splits each layer with it;
 *
 *  - SweepRunner gives every job a private output stream and a private
 *    StatGroup, then merges both at join in STABLE JOB-INDEX ORDER.
 *    Nothing observable depends on which worker ran a job or when it
 *    finished, so sweep output and stats dumps are bit-identical for
 *    any thread count, including --threads 1.
 *
 * Jobs must not touch shared mutable state; everything they produce
 * goes through their SweepContext (or into a pre-sized slot owned by
 * the caller, indexed by job).
 */

#ifndef BFREE_SIM_PARALLEL_HH
#define BFREE_SIM_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "stats.hh"

namespace bfree::sim {

/**
 * Resolve a thread-count request: 0 means the CPUs this thread may run
 * on (its sched_getaffinity mask, so a taskset- or cpuset-limited
 * process does not oversubscribe), or hardware concurrency where that
 * mask cannot be read.
 */
unsigned resolve_threads(unsigned requested);

/**
 * Scan argv for a "--threads N" option (benchmark convenience).
 * Returns @p fallback when the flag is absent; exits with an error on a
 * malformed value. Other arguments are ignored.
 */
unsigned threads_from_args(int argc, char **argv, unsigned fallback = 0);

/**
 * A fork/join thread pool.
 *
 * A pool of N threads is the calling thread plus N - 1 workers. Every
 * batch is an index range: the caller and the workers claim indices
 * from one shared counter until none are left, so whichever thread is
 * free takes the next index. A pool of one thread runs everything
 * inline on the calling thread in index order, with no worker threads
 * at all. Idle workers poll for the next batch for a short window
 * (batches often come back to back, one per layer), then block on a
 * condition variable. One thread submits at a time.
 */
class ThreadPool
{
  public:
    /** @param threads Threads, the caller included; 0 means
     *                 resolve_threads(0). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of threads, the caller included (1 means inline). */
    unsigned threads() const { return numThreads; }

    /**
     * Execute every task to completion; blocks the caller. Tasks may
     * run in any order and on any thread, the caller included. If a
     * task throws, the batch still drains and the first exception is
     * rethrown here.
     */
    void run(std::vector<std::function<void()>> tasks);

    /**
     * Call body(i, slot) for every i in [0, count) and return once all
     * calls have. The caller claims indices too; workers join as they
     * wake, so a late worker only loses its share. @p slot in
     * [0, threads()) names the thread making the call (0 is the
     * caller): calls that run at the same time never share a slot, so
     * per-slot scratch needs no lock. Allocates nothing. If a call
     * throws, the rest still run and the first exception is rethrown.
     */
    template <typename Body>
    void
    parallelFor(std::size_t count, const Body &body)
    {
        runFor(count,
               [](const void *ctx, std::size_t i, unsigned slot) {
                   (*static_cast<const Body *>(ctx))(i, slot);
               },
               &body);
    }

  private:
    /** The type-erased body of one parallelFor. */
    using ForFn = void (*)(const void *, std::size_t, unsigned);
    struct ForJob
    {
        ForFn fn = nullptr;
        const void *ctx = nullptr;
        std::size_t count = 0;
    };

    void runFor(std::size_t count, ForFn fn, const void *ctx);
    /** Claim and run indices of @p batch until none are left. */
    void drain(const ForJob &batch, unsigned slot);
    void workerLoop(unsigned self);

    unsigned numThreads;
    std::vector<std::thread> workers;

    std::mutex mutex;             ///< Guards the fields below.
    std::condition_variable wake; ///< Workers sleep here when idle.
    std::condition_variable done; ///< The caller sleeps here at join.
    std::exception_ptr firstError;
    ForJob job;
    /** Written under the mutex; idle workers and the join also poll
     *  these three without it. */
    std::atomic<bool> stopping{false};
    std::atomic<std::uint64_t> generation{0}; ///< Bumped per batch.
    std::atomic<unsigned> running{0};         ///< Workers in a drain.
    /** Next unclaimed index; claimed without the mutex. */
    std::atomic<std::size_t> next{0};
};

/** What one sweep job sees while it runs. */
class SweepContext
{
  public:
    /** Index of this job in the submitted list. */
    std::size_t jobIndex;

    /**
     * Private buffered output; the concatenation in job-index order
     * becomes SweepReport::output().
     */
    std::ostream &out;

    /** Private stat group, nested under the report root. */
    StatGroup &stats;

    /**
     * Create a stat inside this job's group, owned by the SweepReport
     * (it stays valid for the report's lifetime, unlike a stack-local
     * stat, which would unregister when the job returns).
     */
    Scalar &scalar(std::string name, std::string description = "");

  private:
    friend class SweepRunner;

    SweepContext(std::size_t index, std::ostream &out, StatGroup &stats,
                 std::vector<std::unique_ptr<StatBase>> &owned)
        : jobIndex(index), out(out), stats(stats), owned(owned)
    {}

    std::vector<std::unique_ptr<StatBase>> &owned;
};

/** One independent unit of sweep work. */
struct SweepJob
{
    /** Names the job's stat group; keep unique within one sweep. */
    std::string name;
    std::function<void(SweepContext &)> work;
};

/** Per-job outcome. */
struct SweepJobResult
{
    std::string name;
    std::string output; ///< Everything the job wrote to ctx.out.
    double seconds = 0.0; ///< Wall clock; informational only, never part
                          ///< of deterministic output.
};

/**
 * The joined result of a sweep. Owns the per-job stat groups, nested
 * under a root group named "sweep" in job-index order.
 */
class SweepReport
{
  public:
    SweepReport();
    SweepReport(SweepReport &&) = default;
    SweepReport &operator=(SweepReport &&) = default;

    /** Per-job results in job-index order. */
    const std::vector<SweepJobResult> &jobs() const { return results; }

    /** All job output concatenated in job-index order. */
    std::string output() const;

    /** The root stat group holding one child group per job. */
    const StatGroup &stats() const { return *root; }

    /** Dump the merged stats hierarchy (deterministic). */
    void dumpStats(std::ostream &os) const { root->dumpAll(os); }

    /** Sum of per-job wall-clock seconds (informational). */
    double totalJobSeconds() const;

  private:
    friend class SweepRunner;

    std::unique_ptr<StatGroup> root;
    std::vector<std::unique_ptr<StatGroup>> jobGroups; ///< Job order.
    /** Stats created through SweepContext, per job; declared after
     *  jobGroups so they are destroyed first (they unregister from
     *  their group on destruction). */
    std::vector<std::vector<std::unique_ptr<StatBase>>> ownedStats;
    std::vector<SweepJobResult> results;
};

/**
 * Runs a list of independent jobs on a ThreadPool and joins their
 * outputs deterministically.
 */
class SweepRunner
{
  public:
    /** @param threads Thread count; 0 means resolve_threads(0). */
    explicit SweepRunner(unsigned threads = 0) : pool(threads) {}

    unsigned threads() const { return pool.threads(); }

    /** Run all jobs; returns once every job has finished. */
    SweepReport run(std::vector<SweepJob> jobs);

  private:
    ThreadPool pool;
};

} // namespace bfree::sim

#endif // BFREE_SIM_PARALLEL_HH
