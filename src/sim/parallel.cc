#include "parallel.hh"

#include <sched.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>

#include "logging.hh"

namespace bfree::sim {

namespace {

/** Sanity cap on the CLI flag; far above any real machine. */
constexpr unsigned long maxThreads = 4096;

/**
 * How long an idle worker polls for the next batch, and the caller for
 * the join, before blocking; and how long an index waits for its owner
 * before any free thread may take it. The executor forks once per
 * layer or LSTM step, so batches come back to back; blocking at once
 * there cost 2-6% of vgg16-8b and lstm-8b throughput (DESIGN.md
 * section 17, "Polling before blocking"). A worker idle for longer
 * sleeps. An owner that is awake starts its index within a few
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
    if (workers.empty() || count < 2) {
        std::exception_ptr error;
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(ctx, i, 0);
            } catch (...) {
                if (!error)
                    error = std::current_exception();
            }
        }
        if (error)
            std::rethrow_exception(error);
        return;
    }
    ForJob batch{fn, ctx, count};
    {
        std::unique_lock<std::mutex> lock(mutex);
        // A worker that woke after the previous batch joined may still
        // be inside its (empty) drain: let it leave before the claim
        // counters restart.
        done.wait(lock, [this] { return running.load() == 0; });
        for (unsigned s = 0; s < numThreads; ++s)
            claims[s].next.store(0, std::memory_order_relaxed);
        batch.start = std::chrono::steady_clock::now();
        job = batch;
        ++generation;
    }
    wake.notify_all();
    drain(batch, 0);

    // Every index is claimed; wait for the workers still running
    // theirs (a worker counts itself in before it claims). Their
    // indices end about when the caller's do, so poll first.
    const auto joinSince = std::chrono::steady_clock::now();
    while (running.load(std::memory_order_acquire) != 0
           && std::chrono::steady_clock::now() - joinSince < spinWindow)
        cpuRelax();
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex);
        done.wait(lock, [this] { return running.load() == 0; });
        error = firstError;
        firstError = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

bool
ThreadPool::unclaimed(const ForJob &batch, unsigned owner) const
{
    return owner
               + claims[owner].next.load(std::memory_order_relaxed)
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
            + claims[owner].next.fetch_add(1, std::memory_order_relaxed)
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
    for (;;) {
        const auto idleSince = std::chrono::steady_clock::now();
        while (generation.load(std::memory_order_acquire) == seen
               && !stopping.load(std::memory_order_relaxed)
               && std::chrono::steady_clock::now() - idleSince
                      < spinWindow)
            cpuRelax();

        std::unique_lock<std::mutex> lock(mutex);
        wake.wait(lock, [this, seen] {
            return stopping.load() || generation.load() != seen;
        });
        if (stopping.load())
            return;
        seen = generation.load();
        const ForJob batch = job;
        ++running;
        lock.unlock();
        drain(batch, self + 1);
        // The caller polls running, or sleeps on done after reading it
        // under the mutex: notify under the mutex.
        if (running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            lock.lock();
            done.notify_all();
        }
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
