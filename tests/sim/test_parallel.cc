/**
 * @file
 * The parallel sweep engine: fork/join pool, deterministic stats
 * merge, and cross-thread-count reproducibility.
 *
 * The determinism contract under test: a SweepRunner joins job output
 * and job stats in stable job-index order, so every observable result
 * is byte-identical for any thread count — including --threads 1.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "dnn/model_zoo.hh"
#include "map/exec_model.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "tech/geometry.hh"
#include "tech/tech_params.hh"

using namespace bfree;
using namespace bfree::sim;

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::atomic<int> count{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 500; ++i)
        tasks.push_back([&count] { ++count; });
    pool.run(std::move(tasks));
    EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 10; ++batch) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 17; ++i)
            tasks.push_back([&count] { ++count; });
        pool.run(std::move(tasks));
    }
    EXPECT_EQ(count.load(), 170);
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::vector<int> order;
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([&order, caller, i] {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            order.push_back(i);
        });
    }
    pool.run(std::move(tasks));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPool, UnbalancedTasksAllComplete)
{
    // One task is 1000x heavier than the rest; the other threads must
    // keep claiming the light ones while it runs.
    ThreadPool pool(4);
    std::atomic<long> sum{0};
    std::vector<std::function<void()>> tasks;
    tasks.push_back([&sum] {
        long s = 0;
        for (int i = 0; i < 1000000; ++i)
            s += i % 7;
        sum += s;
    });
    for (int i = 0; i < 64; ++i)
        tasks.push_back([&sum] { sum += 1; });
    pool.run(std::move(tasks));
    EXPECT_GE(sum.load(), 64);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 20; ++i) {
        tasks.push_back([&count, i] {
            if (i == 7)
                throw std::runtime_error("boom");
            ++count;
        });
    }
    EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
    EXPECT_EQ(count.load(), 19); // the batch still drains

    // The pool stays usable after a failed batch.
    std::vector<std::function<void()>> more;
    more.push_back([&count] { ++count; });
    pool.run(std::move(more));
    EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPool, EveryWorkerSurvivesManySmallBatches)
{
    // Batches smaller than the pool leave some workers with nothing to
    // claim; none of them may quit. After many such batches, a batch of
    // four tasks that each wait for all four to have started completes
    // only if the caller and all three workers still take work.
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int batch = 0; batch < 3000; ++batch) {
        std::vector<std::function<void()>> tasks(
            1 + batch % 3, [&count] { ++count; });
        pool.run(std::move(tasks));
    }
    EXPECT_EQ(count.load(), 1000 * (1 + 2 + 3));

    for (int round = 0; round < 3; ++round) {
        std::mutex m;
        std::condition_variable allIn;
        int arrived = 0;
        std::atomic<int> timedOut{0};
        std::vector<std::function<void()>> tasks(4, [&] {
            std::unique_lock<std::mutex> lock(m);
            if (++arrived == 4)
                allIn.notify_all();
            if (!allIn.wait_for(lock, std::chrono::seconds(20),
                                [&] { return arrived == 4; }))
                ++timedOut;
        });
        pool.run(std::move(tasks));
        EXPECT_EQ(timedOut.load(), 0) << "round " << round;
    }
}

TEST(ThreadPool, ZeroResolvesToHardwareConcurrency)
{
    EXPECT_GE(resolve_threads(0), 1u);
    EXPECT_EQ(resolve_threads(5), 5u);
}

TEST(ThreadPool, ZeroResolvesToTheAffinityMask)
{
    // Narrow this thread to one CPU of its own mask: 0 must then mean
    // one thread, not the whole machine.
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    const unsigned narrowed = resolve_threads(0);
    ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
    EXPECT_EQ(narrowed, 1u);
    EXPECT_EQ(resolve_threads(0),
              static_cast<unsigned>(CPU_COUNT(&saved)));
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnce)
{
    for (const unsigned threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        for (const std::size_t count : {0u, 1u, 3u, 1000u}) {
            std::vector<std::atomic<int>> hits(count);
            std::atomic<bool> slotInRange{true};
            pool.parallelFor(count, [&](std::size_t i, unsigned slot) {
                ++hits[i];
                if (slot >= threads)
                    slotInRange = false;
            });
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(hits[i].load(), 1) << i << " of " << count;
            EXPECT_TRUE(slotInRange.load()) << threads;
        }
    }
}

TEST(ThreadPool, ParallelForSlotsAreNeverShared)
{
    // Per-slot scratch needs no lock: no two calls that overlap in time
    // may carry the same slot.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> busy(pool.threads());
    std::atomic<bool> shared{false};
    for (int round = 0; round < 50; ++round) {
        pool.parallelFor(64, [&](std::size_t, unsigned slot) {
            if (busy[slot].fetch_add(1) != 0)
                shared = true;
            long s = 0;
            for (int i = 0; i < 2000; ++i)
                s += i % 3;
            EXPECT_GT(s, 0);
            busy[slot].fetch_sub(1);
        });
    }
    EXPECT_FALSE(shared.load());
}

TEST(ThreadPool, SingleThreadParallelForRunsInlineInOrder)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.parallelFor(6, [&](std::size_t i, unsigned slot) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(slot, 0u);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    EXPECT_THROW(pool.parallelFor(40,
                                  [&](std::size_t i, unsigned) {
                                      if (i == 11)
                                          throw std::runtime_error("boom");
                                      ++count;
                                  }),
                 std::runtime_error);
    EXPECT_EQ(count.load(), 39); // every other index still ran

    // The pool stays usable, for both kinds of batch.
    pool.parallelFor(5, [&](std::size_t, unsigned) { ++count; });
    std::vector<std::function<void()>> more;
    more.push_back([&count] { ++count; });
    pool.run(std::move(more));
    EXPECT_EQ(count.load(), 45);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnceOverThousandsOfBatches)
{
    // Counts below, at and above the thread count: the owner-first
    // claims and the late steals between them must cover every index
    // exactly once, batch after batch.
    ThreadPool pool(4);
    for (const std::size_t count : {1u, 2u, 3u, 4u, 5u, 9u, 67u}) {
        std::vector<std::atomic<int>> hits(count);
        const int batches = 3000;
        for (int b = 0; b < batches; ++b)
            pool.parallelFor(count,
                             [&](std::size_t i, unsigned) { ++hits[i]; });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(hits[i].load(), batches) << i << " of " << count;
    }
}

TEST(ThreadPool, IndexRunsOnItsOwnerSlot)
{
    // Index i belongs to slot i % threads. Each call here holds until
    // all four have started, so no thread finishes its own index while
    // another is unclaimed and nobody can steal: every index must run
    // on its owner, every batch. A pool whose threads take indices from
    // one shared counter places them in arrival order instead.
    ThreadPool pool(4);
    const std::uint64_t stealsBefore = pool.lateSteals();
    int misplaced = 0;
    int timedOut = 0;
    for (int batch = 0; batch < 200; ++batch) {
        std::mutex m;
        std::condition_variable allIn;
        int arrived = 0;
        std::array<unsigned, 4> ranOn{};
        pool.parallelFor(4, [&](std::size_t i, unsigned slot) {
            std::unique_lock<std::mutex> lock(m);
            ranOn[i] = slot;
            if (++arrived == 4)
                allIn.notify_all();
            if (!allIn.wait_for(lock, std::chrono::seconds(20),
                                [&] { return arrived == 4; }))
                ++timedOut;
        });
        for (unsigned i = 0; i < 4; ++i)
            misplaced += ranOn[i] != i;
    }
    EXPECT_EQ(timedOut, 0);
    EXPECT_EQ(misplaced, 0);
    EXPECT_EQ(pool.lateSteals(), stealsBefore);
}

TEST(ThreadPool, LateOwnersIndexIsStolenAndRunsOnce)
{
    // Slot 1 owns indices 1 and 5 of 8. Index 1 holds whoever runs it
    // until index 5 has started, so 5 can only start on another thread
    // after the spin window: a late steal (of 5, or of 1 if slot 1 was
    // late for it too). Without steals the batch would wait out the
    // 20 s timeout.
    ThreadPool pool(4);
    for (int warm = 0; warm < 10; ++warm)
        pool.parallelFor(4, [](std::size_t, unsigned) {});
    const std::uint64_t stealsBefore = pool.lateSteals();
    std::vector<std::atomic<int>> hits(8);
    std::array<std::atomic<unsigned>, 8> ranOn{};
    std::mutex m;
    std::condition_variable started;
    bool fiveStarted = false;
    bool timedOut = false;
    pool.parallelFor(8, [&](std::size_t i, unsigned slot) {
        ++hits[i];
        ranOn[i] = slot;
        std::unique_lock<std::mutex> lock(m);
        if (i == 5) {
            fiveStarted = true;
            started.notify_all();
        } else if (i == 1
                   && !started.wait_for(lock, std::chrono::seconds(20),
                                        [&] { return fiveStarted; })) {
            timedOut = true;
        }
    });
    EXPECT_FALSE(timedOut);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
    EXPECT_NE(ranOn[1].load(), ranOn[5].load());
    EXPECT_GE(pool.lateSteals(), stealsBefore + 1);

    // A late steal leaves nothing behind: the next batches run clean.
    std::atomic<int> count{0};
    for (int b = 0; b < 100; ++b)
        pool.parallelFor(8, [&](std::size_t, unsigned) { ++count; });
    EXPECT_EQ(count.load(), 800);
}

TEST(ThreadPool, ExceptionsFromOwnersAndThievesPropagate)
{
    // Throwing indices on several owners, with more indices than
    // threads: one of the exceptions comes back, every other index
    // still ran exactly once, and the pool stays usable.
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(23);
    try {
        pool.parallelFor(hits.size(), [&](std::size_t i, unsigned) {
            ++hits[i];
            if (i % 5 == 2)
                throw std::runtime_error("index " + std::to_string(i));
        });
        ADD_FAILURE() << "no exception propagated";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()).rfind("index ", 0), 0u);
    }
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
    std::atomic<int> count{0};
    pool.parallelFor(9, [&](std::size_t, unsigned) { ++count; });
    EXPECT_EQ(count.load(), 9);
}

TEST(ThreadPool, NoWorkerRunsABatchAfterItsJoin)
{
    // Back-to-back batches of every size from 1 to 2 * threads + 1;
    // every 50th waits three spin windows first, so the workers go to
    // sleep and the batch goes through the condition-variable path.
    // The caller bumps a plain epoch after each join: a worker that
    // ran a batch's body after its join (or a newer batch's claims
    // with an old body) reads a changed epoch, and a race on it trips
    // TSan. Each index runs once, and overlapping calls share no slot.
    ThreadPool pool(4);
    const unsigned threads = pool.threads();
    const std::size_t maxCount = 2 * threads + 1;
    std::uint64_t epoch = 0;
    std::vector<std::atomic<int>> hits(maxCount);
    std::vector<std::atomic<int>> busy(threads);
    std::atomic<int> stale{0};
    std::atomic<int> shared{0};
    int miscounted = 0;
    for (int b = 0; b < 20000; ++b) {
        if (b % 50 == 49)
            std::this_thread::sleep_for(std::chrono::microseconds(300));
        const std::size_t count = 1 + b % maxCount;
        const std::uint64_t mine = epoch;
        pool.parallelFor(count, [&, mine](std::size_t i, unsigned slot) {
            if (busy[slot].fetch_add(1) != 0)
                ++shared;
            if (epoch != mine)
                ++stale;
            ++hits[i];
            busy[slot].fetch_sub(1);
        });
        for (std::size_t i = 0; i < maxCount; ++i)
            miscounted += hits[i].exchange(0) != (i < count ? 1 : 0);
        ++epoch;
    }
    EXPECT_EQ(stale.load(), 0);
    EXPECT_EQ(shared.load(), 0);
    EXPECT_EQ(miscounted, 0);
}

TEST(ThreadPool, SequentialSubmitsFromDifferentThreadsAreFine)
{
    // One submit at a time, from whichever thread: two threads take
    // turns on one pool under a lock of their own.
    ThreadPool pool(4);
    std::mutex turn;
    std::atomic<int> count{0};
    const auto submitter = [&] {
        for (int b = 0; b < 500; ++b) {
            std::lock_guard<std::mutex> lock(turn);
            pool.parallelFor(7, [&](std::size_t, unsigned) { ++count; });
        }
    };
    std::thread other(submitter);
    submitter();
    other.join();
    EXPECT_EQ(count.load(), 2 * 500 * 7);
}

TEST(ThreadPoolDeathTest, SubmitWhileABatchIsInFlightPanics)
{
    // A body calling parallelFor on its own pool, and a second thread
    // submitting during a batch: both would reset the claims under the
    // running batch, so both stop with a message naming the pool. A
    // one-thread pool keeps the same rule.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto noop = [](std::size_t, unsigned) {};
    EXPECT_DEATH(
        {
            ThreadPool pool(4);
            pool.parallelFor(4, [&](std::size_t i, unsigned) {
                if (i == 1)
                    pool.parallelFor(2, noop);
            });
        },
        "ThreadPool");
    EXPECT_DEATH(
        {
            ThreadPool pool(4);
            pool.parallelFor(2, [&](std::size_t i, unsigned) {
                if (i == 0)
                    std::thread([&] { pool.parallelFor(2, noop); }).join();
            });
        },
        "ThreadPool");
    EXPECT_DEATH(
        {
            ThreadPool pool(1);
            pool.parallelFor(2, [&](std::size_t, unsigned) {
                pool.parallelFor(1, noop);
            });
        },
        "ThreadPool");
}

namespace {

/** A job mix with data-dependent cost, text output and both stat kinds. */
std::vector<SweepJob>
make_mixed_jobs(unsigned count)
{
    std::vector<SweepJob> jobs;
    for (unsigned j = 0; j < count; ++j) {
        jobs.push_back({"mix" + std::to_string(j),
                        [j](SweepContext &ctx) {
            Rng rng(1000 + j);
            // Unbalanced, deterministic amount of work per job.
            const int iters =
                static_cast<int>(rng.uniformInt(1000, 20000));
            double acc = 0.0;
            Scalar &draws = ctx.scalar("draws", "rng draws");
            for (int i = 0; i < iters; ++i) {
                const double g = rng.gaussian(0.0, 1.0);
                acc += g;
                ++draws;
            }
            ctx.out << "job " << ctx.jobIndex << " iters " << iters
                    << " acc " << acc << "\n";
        }});
    }
    return jobs;
}

/** Full observable state of a finished sweep as one string. */
std::string
sweep_fingerprint(const SweepReport &report)
{
    std::ostringstream os;
    os << report.output() << "---\n";
    report.dumpStats(os);
    for (const SweepJobResult &r : report.jobs())
        os << r.name << "\n"; // order + names, not timing
    return os.str();
}

} // namespace

TEST(SweepRunner, ByteIdenticalAcrossThreadCounts)
{
    std::string reference;
    for (unsigned threads : {1u, 2u, 8u}) {
        SweepRunner runner(threads);
        const SweepReport report = runner.run(make_mixed_jobs(24));
        const std::string fp = sweep_fingerprint(report);
        if (reference.empty())
            reference = fp;
        else
            EXPECT_EQ(fp, reference) << threads << " threads";
    }
    EXPECT_FALSE(reference.empty());
}

TEST(SweepRunner, JobGroupsNestUnderSweepRootInJobOrder)
{
    SweepRunner runner(2);
    std::vector<SweepJob> jobs;
    jobs.push_back({"alpha", [](SweepContext &ctx) {
        ctx.scalar("value", "v").set(1.0);
    }});
    jobs.push_back({"", [](SweepContext &ctx) { // unnamed -> job1
        ctx.scalar("value", "v").set(2.0);
    }});
    const SweepReport report = runner.run(std::move(jobs));

    const StatGroup *alpha = report.stats().findChild("alpha");
    const StatGroup *anon = report.stats().findChild("job1");
    ASSERT_NE(alpha, nullptr);
    ASSERT_NE(anon, nullptr);
    const auto *v = dynamic_cast<Scalar *>(alpha->findStat("value"));
    ASSERT_NE(v, nullptr);
    EXPECT_DOUBLE_EQ(v->value(), 1.0);
    EXPECT_EQ(alpha->fullName(), "sweep.alpha");
}

TEST(SweepRunner, RecordsPerJobTiming)
{
    SweepRunner runner(2);
    std::vector<SweepJob> jobs = make_mixed_jobs(4);
    const SweepReport report = runner.run(std::move(jobs));
    ASSERT_EQ(report.jobs().size(), 4u);
    for (const SweepJobResult &r : report.jobs())
        EXPECT_GE(r.seconds, 0.0);
    EXPECT_GE(report.totalJobSeconds(), 0.0);
}

TEST(ExecSweep, ResultsBitIdenticalAcrossThreadCounts)
{
    const tech::CacheGeometry geom;
    const tech::TechParams tech;
    std::vector<map::ExecJob> jobs;
    for (unsigned slices : {1u, 2u, 4u, 7u, 14u}) {
        map::ExecConfig cfg;
        cfg.mapper.slices = slices;
        jobs.push_back({dnn::make_tiny_cnn(), cfg});
    }

    const auto serial = map::run_sweep(geom, tech, jobs, 1);
    const auto parallel = map::run_sweep(geom, tech, jobs, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        // Bit-identical, not approximately equal.
        EXPECT_EQ(serial[i].secondsPerInference(),
                  parallel[i].secondsPerInference())
            << i;
        EXPECT_EQ(serial[i].joulesPerInference(),
                  parallel[i].joulesPerInference())
            << i;
        EXPECT_EQ(serial[i].layers.size(), parallel[i].layers.size());
    }
    // Larger fabrics are not slower on the same network.
    EXPECT_LE(serial.back().time.compute, serial.front().time.compute);
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(0xfeedULL);
    Rng b(0xfeedULL);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.uniformInt(-1000000, 1000000),
                  b.uniformInt(-1000000, 1000000));
        EXPECT_EQ(a.uniformReal(0.0, 1.0), b.uniformReal(0.0, 1.0));
        EXPECT_EQ(a.gaussian(0.0, 1.0), b.gaussian(0.0, 1.0));
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int differing = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniformInt(0, 1u << 30) != b.uniformInt(0, 1u << 30))
            ++differing;
    }
    EXPECT_GT(differing, 90);
}

TEST(Rng, PerJobStreamsUnaffectedByThreadCount)
{
    // Each job owns a seeded Rng; interleaving with other threads must
    // not perturb any job's stream.
    auto draw_sums = [](unsigned threads) {
        std::vector<double> sums(16, 0.0);
        std::vector<SweepJob> jobs;
        for (unsigned j = 0; j < 16; ++j) {
            jobs.push_back({"rng" + std::to_string(j),
                            [j, &sums](SweepContext &) {
                Rng rng(7000 + j);
                double s = 0.0;
                for (int i = 0; i < 5000; ++i)
                    s += rng.uniformReal(-1.0, 1.0);
                sums[j] = s;
            }});
        }
        SweepRunner runner(threads);
        runner.run(std::move(jobs));
        return sums;
    };
    const auto serial = draw_sums(1);
    EXPECT_EQ(draw_sums(2), serial);
    EXPECT_EQ(draw_sums(8), serial);
}
