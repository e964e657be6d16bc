#include "parallel.hh"

#include <sched.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

#include "logging.hh"

namespace bfree::sim {

namespace {

/** Sanity cap on the CLI flag; far above any real machine. */
constexpr unsigned long maxThreads = 4096;

/**
 * How long an idle worker polls for the next batch, and the caller for
 * the workers at a fork or join, before sleeping; and how long an
 * index waits for its owner before any free thread may take it. The
 * executor forks once per layer or LSTM step, so batches come back to
 * back; blocking at once there cost 2-6% of vgg16-8b and lstm-8b
 * throughput (DESIGN.md section 17, "Polling before blocking"). A
 * polling worker joins a batch without the mutex; one idle for longer
 * sleeps on a condition variable, and the caller wakes it through the
 * mutex. An owner that is awake starts its index within a few
 * microseconds; one that is not (asleep, descheduled on a shared CPU,
 * busy with an earlier index) loses it after the window, so the join
 * waits for no late worker much longer than that.
 */
constexpr std::chrono::microseconds spinWindow{100};

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

} // namespace

unsigned
resolve_threads(unsigned requested)
{
    if (requested != 0)
        return requested;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

unsigned
threads_from_args(int argc, char **argv, unsigned fallback)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) != "--threads")
            continue;
        if (i + 1 >= argc)
            bfree_fatal("--threads needs a value");
        // strtoul accepts a leading '-' and wraps; reject it explicitly
        // before it turns into a four-billion-thread request.
        char *end = nullptr;
        const unsigned long v = std::strtoul(argv[i + 1], &end, 10);
        if (end == argv[i + 1] || *end != '\0' || argv[i + 1][0] == '-')
            bfree_fatal("--threads got '", argv[i + 1],
                        "', expected a non-negative number");
        if (v > maxThreads)
            bfree_fatal("--threads got ", v, ", max is ", maxThreads);
        return resolve_threads(static_cast<unsigned>(v));
    }
    return resolve_threads(fallback);
}

ThreadPool::ThreadPool(unsigned threads)
    : numThreads(resolve_threads(threads)),
      claims(std::make_unique<Claim[]>(numThreads))
{
    // The caller is one of the threads: numThreads - 1 workers.
    workers.reserve(numThreads - 1);
    for (unsigned i = 0; i + 1 < numThreads; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    wake.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ThreadPool::run(std::vector<std::function<void()>> tasks)
{
    parallelFor(tasks.size(),
                [&tasks](std::size_t i, unsigned) { tasks[i](); });
}

void
ThreadPool::runFor(std::size_t count, ForFn fn, const void *ctx)
{
    // A second submit would reset the claims under a running batch
    // (or, inline, share slot 0 with it); the acquire/release pair
    // also orders sequential submits from different threads.
    if (submitting.exchange(true, std::memory_order_acquire))
        bfree_panic("ThreadPool: a batch was submitted while another "
                    "is in flight (a body calling parallelFor on its "
                    "own pool, or two threads submitting at once)");
    std::exception_ptr error;
    if (workers.empty() || count < 2) {
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(ctx, i, 0);
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
    } else {
        ForJob batch{fn, ctx, count};
        publish(batch);
        drain(batch, 0);
        // Every index is claimed; wait for the workers still running
        // theirs (a worker registers before it claims). A worker's
        // call stored any exception before it left, so firstError
        // needs no lock here.
        awaitWorkers();
        error = std::exchange(firstError, nullptr);
    }
    submitting.store(false, std::memory_order_release);
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::publish(ForJob &batch)
{
    // An odd generation tells polling workers a batch is being
    // written. A worker registers in running before it re-reads the
    // generation, and both sides are seq_cst: once running reads 0
    // after the odd store, every worker that registered earlier has
    // left, and every later one sees the odd (or a newer) generation
    // and backs out without reading job or touching the claims.
    const std::uint64_t g = generation.load(std::memory_order_relaxed);
    generation.store(g + 1);
    awaitWorkers();
    for (unsigned s = 0; s < numThreads; ++s)
        claims[s].next.store(0, std::memory_order_relaxed);
    batch.start = std::chrono::steady_clock::now();
    job = batch;
    generation.store(g + 2);
    // A worker counts itself in sleepers before it checks the
    // generation under the mutex: either it sees the even store, or
    // this sees it and wakes it.
    if (sleepers.load() != 0) {
        { std::lock_guard<std::mutex> lock(mutex); }
        wake.notify_all();
    }
}

void
ThreadPool::awaitWorkers()
{
    // Workers' drains end about when the caller's does, so poll first.
    const auto since = std::chrono::steady_clock::now();
    while (running.load() != 0) {
        if (std::chrono::steady_clock::now() - since >= spinWindow) {
            std::unique_lock<std::mutex> lock(mutex);
            callerWaits.store(true);
            done.wait(lock, [this] { return running.load() == 0; });
            callerWaits.store(false, std::memory_order_relaxed);
            return;
        }
        cpuRelax();
    }
}

void
ThreadPool::leave()
{
    // Against awaitWorkers' store then load (all seq_cst): either the
    // caller sees this decrement, or this sees it waiting and wakes it
    // under the mutex it holds until it sleeps.
    if (running.fetch_sub(1) == 1 && callerWaits.load()) {
        std::lock_guard<std::mutex> lock(mutex);
        done.notify_all();
    }
}

bool
ThreadPool::unclaimed(const ForJob &batch, unsigned owner) const
{
    // Acquire pairs with claim's release: a caller that sees every
    // index claimed then sees each claimer registered in running.
    return owner
               + claims[owner].next.load(std::memory_order_acquire)
                     * numThreads
           < batch.count;
}

bool
ThreadPool::claim(const ForJob &batch, unsigned owner, std::size_t &index)
{
    // A counter only grows, so one that has passed the owner's last
    // index stays there: checking first keeps finished slots from
    // taking a fetch_add each time a thief looks.
    if (!unclaimed(batch, owner))
        return false;
    index = owner
            + claims[owner].next.fetch_add(1, std::memory_order_acq_rel)
                  * numThreads;
    return index < batch.count;
}

void
ThreadPool::call(const ForJob &batch, std::size_t index, unsigned slot)
{
    try {
        batch.fn(batch.ctx, index, slot);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!firstError)
            firstError = std::current_exception();
    }
}

void
ThreadPool::drain(const ForJob &batch, unsigned slot)
{
    std::size_t i = 0;
    while (claim(batch, slot, i))
        call(batch, i, slot);

    // Out of indices of its own, a thread waits for the other owners
    // to claim theirs; an index still unclaimed once the batch is older
    // than the window is taken here, by the next slot on from this one
    // that has any.
    bool late = false;
    for (;;) {
        bool left = false;
        for (unsigned d = 1; d < numThreads; ++d) {
            const unsigned owner = (slot + d) % numThreads;
            if (!unclaimed(batch, owner))
                continue;
            left = true;
            if (!late)
                break;
            while (claim(batch, owner, i)) {
                steals.fetch_add(1, std::memory_order_relaxed);
                call(batch, i, slot);
            }
        }
        if (!left)
            return;
        if (!late) {
            late = std::chrono::steady_clock::now() - batch.start
                   >= spinWindow;
            if (!late)
                cpuRelax();
        }
    }
}

void
ThreadPool::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    // An odd generation is a publish under way: as idle as the one
    // already seen. A worker that took it for new would register and
    // back out in a loop, and starve the publisher's wait for running
    // to reach 0.
    const auto fresh = [&seen](std::uint64_t g) {
        return g != seen && g % 2 == 0;
    };
    for (;;) {
        std::uint64_t g = generation.load(std::memory_order_acquire);
        const auto idleSince = std::chrono::steady_clock::now();
        while (!fresh(g) && !stopping.load(std::memory_order_relaxed)
               && std::chrono::steady_clock::now() - idleSince
                      < spinWindow) {
            cpuRelax();
            g = generation.load(std::memory_order_acquire);
        }
        if (!fresh(g)) {
            sleepers.fetch_add(1);
            {
                std::unique_lock<std::mutex> lock(mutex);
                wake.wait(lock, [&] {
                    g = generation.load();
                    return stopping.load() || fresh(g);
                });
            }
            sleepers.fetch_sub(1, std::memory_order_relaxed);
        }
        if (stopping.load(std::memory_order_relaxed))
            return;

        // Register, then check the generation still reads g: if the
        // caller has begun another publish it waits for this worker to
        // leave, so job and the claims are g's until then.
        running.fetch_add(1);
        if (generation.load() != g) {
            leave();
            continue;
        }
        seen = g;
        const ForJob batch = job;
        drain(batch, self + 1);
        leave();
    }
}

Scalar &
SweepContext::scalar(std::string name, std::string description)
{
    auto stat = std::make_unique<Scalar>(stats, std::move(name),
                                         std::move(description));
    Scalar &ref = *stat;
    owned.push_back(std::move(stat));
    return ref;
}

SweepReport::SweepReport() : root(std::make_unique<StatGroup>("sweep")) {}

std::string
SweepReport::output() const
{
    std::string all;
    for (const SweepJobResult &r : results)
        all += r.output;
    return all;
}

double
SweepReport::totalJobSeconds() const
{
    double total = 0.0;
    for (const SweepJobResult &r : results)
        total += r.seconds;
    return total;
}

SweepReport
SweepRunner::run(std::vector<SweepJob> jobs)
{
    SweepReport report;
    const std::size_t n = jobs.size();
    report.results.resize(n);
    report.ownedStats.resize(n);

    // Groups are created up front on the calling thread so the root's
    // child list is in job-index order regardless of scheduling; each
    // worker then only touches its own job's group.
    report.jobGroups.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::string name = jobs[i].name.empty()
                               ? "job" + std::to_string(i)
                               : jobs[i].name;
        report.jobGroups.push_back(
            std::make_unique<StatGroup>(*report.root, std::move(name)));
        report.results[i].name = jobs[i].name;
    }

    std::vector<std::ostringstream> streams(n);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back([&, i] {
            const auto start = std::chrono::steady_clock::now();
            SweepContext ctx(i, streams[i], *report.jobGroups[i],
                             report.ownedStats[i]);
            jobs[i].work(ctx);
            report.results[i].seconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
        });
    }
    pool.run(std::move(tasks));

    for (std::size_t i = 0; i < n; ++i)
        report.results[i].output = streams[i].str();
    return report;
}

} // namespace bfree::sim
