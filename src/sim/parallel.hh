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
 *  - ThreadPool is a fork/join over an index range: index i belongs
 *    to thread i % threads, which runs it unless it has not started
 *    it within a short window, when any free thread takes it. The same
 *    thread then meets the same slice of the data every fork, and a
 *    late thread cannot stall the join. Its parallelFor allocates
 *    nothing, and parallelForBlocks, written on it, hands each thread
 *    one contiguous run of blocks of a range: the functional executor
 *    splits each layer with it;
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

#include <algorithm>
#include <atomic>
#include <chrono>
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
 * A pool of N threads is the calling thread (slot 0) plus N - 1
 * workers (slots 1 .. N - 1). Every batch is an index range, and index
 * i is owned by slot i % N: each thread first claims its own indices,
 * in order, so a fork that splits the same data the same way every
 * time keeps each slice in one core's cache. A thread out of indices
 * of its own takes any index still unclaimed once the batch is older
 * than the spin window (a late steal), so a worker that is asleep,
 * descheduled or busy with an earlier index cannot hold the join for
 * longer than that; lateSteals() counts those. An eager steal (any
 * free index at once) would drag a second slice through the thief's
 * cache. A pool of one thread runs everything inline on the calling
 * thread in index order, with no worker threads at all.
 *
 * Batches often come back to back (one per layer or LSTM step), so an
 * idle worker polls for the next one for the spin window, and a
 * polling worker joins a batch without a lock: the caller publishes a
 * batch behind an odd generation, once no worker is registered in a
 * drain, and a worker registers before it re-reads the generation
 * (both sides sequentially consistent, so a late worker can neither
 * read a batch being written nor claim from counters reset for a newer
 * one). Only a thread that sleeps takes the mutex: a worker idle past
 * the window, the caller whose join outlasts it, and whoever wakes
 * them. One submit at a time: a submit while a batch is in flight (a
 * body calling parallelFor on its own pool, or a second thread) is a
 * bfree_panic; sequential submits from different threads are fine.
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
     * Execute every task to completion; blocks the caller. Task i
     * normally runs on slot i % threads(), but tasks may run in any
     * order and on any thread, the caller included. If a task throws,
     * the batch still drains and the first exception is rethrown here.
     */
    void run(std::vector<std::function<void()>> tasks);

    /**
     * Call body(i, slot) for every i in [0, count) exactly once and
     * return once all calls have. @p slot in [0, threads()) names the
     * thread making the call (0 is the caller); it is i % threads()
     * unless that thread was late and another took index i. Calls
     * that run at the same time never share a slot, so per-slot
     * scratch needs no lock; anything that must not depend on the
     * thread belongs to the index. Allocates nothing. If a call
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

    /**
     * Blocks a parallelForBlocks batch gives each thread at most. With
     * one block per thread a layer ends when its slowest core does;
     * with several, a core slowed for a while (a shared host, a
     * frequency dip) loses its last blocks to threads that are done,
     * and the layer waits for one block of it, not a quarter of the
     * layer. On a 4-vCPU Xeon, VGG-16 8-bit read 66.3 img/s at 8
     * against 48.8 at 1 and 61.3 against 48.9 at 2 (medians of six
     * alternating pairs, 8 higher in 6/6 and 5/6); 32 read 56.6
     * against 8's 53.7 (8 higher in 3/6): no better, for four times
     * the claims (DESIGN.md section 17, "Balanced layer forks").
     */
    static constexpr std::size_t blocksPerThread = 8;

    /**
     * Call body(begin, end, slot) over contiguous blocks that cover
     * [0, n) exactly once, each at least @p grain long (one block of
     * all n when n < 2 * grain), and return once all calls have;
     * nothing runs for n = 0. There are min(n / grain,
     * blocksPerThread * threads()) blocks, at least 1, rounded down to
     * a multiple of threads() once there are that many, and their
     * sizes differ by at most one.
     * Slot s owns an equal run of them, in order, so its own indices
     * form one ascending range: its p-th block is s * blocks /
     * threads() + p. A thread out of blocks of its own takes a late
     * owner's next block (a late steal, as in parallelFor). @p slot
     * follows parallelFor's rules: per-slot scratch needs no lock, and
     * a result that must not depend on the thread belongs to the
     * indices. Allocates nothing.
     */
    template <typename Body>
    void
    parallelForBlocks(std::size_t n, std::size_t grain, const Body &body)
    {
        if (n == 0)
            return;
        std::size_t blocks =
            std::clamp<std::size_t>(n / std::max<std::size_t>(grain, 1), 1,
                                    blocksPerThread * numThreads);
        if (blocks >= numThreads)
            blocks -= blocks % numThreads;
        const std::size_t perSlot =
            std::max<std::size_t>(blocks / numThreads, 1);
        const std::size_t size = n / blocks;
        const std::size_t extra = n % blocks;
        const auto start = [=](std::size_t b) {
            return b * size + std::min(b, extra);
        };
        // parallelFor hands index j to slot j % threads as that slot's
        // (j / threads)-th: map it to the slot's own run of blocks.
        parallelFor(blocks, [&](std::size_t j, unsigned slot) {
            const std::size_t b =
                j % numThreads * perSlot + j / numThreads;
            body(start(b), start(b + 1), slot);
        });
    }

    /**
     * Indices run by a thread other than their owner, since the pool
     * was made: each one an owner that had not started it within the
     * spin window. Read with relaxed order, for tests and reports.
     */
    std::uint64_t
    lateSteals() const
    {
        return steals.load(std::memory_order_relaxed);
    }

  private:
    /** The type-erased body of one parallelFor. */
    using ForFn = void (*)(const void *, std::size_t, unsigned);
    struct ForJob
    {
        ForFn fn = nullptr;
        const void *ctx = nullptr;
        std::size_t count = 0;
        /** Published at; indices unclaimed past start + the spin
         *  window are anyone's. */
        std::chrono::steady_clock::time_point start{};
    };

    /** One slot's claim counter: its p-th index is slot + p * threads.
     *  A cache line each, so owners do not share one. */
    struct alignas(64) Claim
    {
        std::atomic<std::size_t> next{0};
    };

    void runFor(std::size_t count, ForFn fn, const void *ctx);
    /** Stamp @p batch's start and publish it to the workers: the
     *  odd/even handoff. */
    void publish(ForJob &batch);
    /** Return once no worker is registered in a drain: poll for the
     *  spin window, then sleep on done. */
    void awaitWorkers();
    /** Deregister a worker from its drain, waking a sleeping caller
     *  if it was the last one. */
    void leave();
    /** Claim and run @p slot's own indices of @p batch, then steal
     *  late ones until no index is left unclaimed. */
    void drain(const ForJob &batch, unsigned slot);
    /** Whether some index of @p owner's is not yet claimed. */
    bool unclaimed(const ForJob &batch, unsigned owner) const;
    /** Claim the next index of @p owner's, or return false when its
     *  indices are all claimed. */
    bool claim(const ForJob &batch, unsigned owner, std::size_t &index);
    void call(const ForJob &batch, std::size_t index, unsigned slot);
    void workerLoop(unsigned self);

    unsigned numThreads;

    /** Set while a submit is in flight; the one-submit guard. */
    std::atomic<bool> submitting{false};
    /** Bumped twice per batch: odd while the caller writes job and
     *  resets the claims, even once the batch is published. Written
     *  by the submitting thread only. */
    alignas(64) std::atomic<std::uint64_t> generation{0};
    /** The batch of the current even generation; written only while
     *  the generation is odd and no worker is registered. */
    ForJob job;
    /** Workers registered in a drain (or checking the generation
     *  before one). */
    alignas(64) std::atomic<unsigned> running{0};
    /** Workers asleep on wake, or about to be. */
    std::atomic<unsigned> sleepers{0};
    /** The caller is asleep on done (or about to be). */
    std::atomic<bool> callerWaits{false};
    std::atomic<bool> stopping{false};

    /** Only sleeping threads and their wakers take it; it also guards
     *  firstError. The two waits' predicates read atomics written
     *  without it: a sleeper first sets sleepers or callerWaits, and
     *  its waker reads that after its own store (all seq_cst), so a
     *  wake-up cannot be lost. */
    std::mutex mutex;
    std::condition_variable wake; ///< Idle workers sleep here.
    std::condition_variable done; ///< The caller sleeps here at join.
    std::exception_ptr firstError;
    /** Per-slot claim counters, numThreads of them; claimed without
     *  the mutex, reset while the generation is odd and no worker is
     *  registered. */
    std::unique_ptr<Claim[]> claims;
    std::atomic<std::uint64_t> steals{0}; ///< lateSteals().
    /** Declared last: its threads use every member above. */
    std::vector<std::thread> workers;
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
