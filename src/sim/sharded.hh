/**
 * @file
 * Conservative parallel discrete-event engine over per-shard EventQueues.
 *
 * The detailed cache model shards naturally: each LLC slice owns an
 * independent grid of sub-arrays whose events never touch another
 * slice's state, except for the input-streaming traffic that hops from
 * slice s to slice s+1 with a fixed, non-zero latency. That minimum
 * cross-shard latency is the classic PDES *lookahead*: any message a
 * shard posts at local time t arrives no earlier than t + lookahead, so
 * every shard may safely advance through the window
 * [t_min, t_min + lookahead) — where t_min is the earliest pending event
 * across all shards — without ever seeing a message from the "future".
 *
 * ShardedEngine implements exactly that conservative epoch loop:
 *
 *   1. t_min  = min over shards of nextEventTick()
 *   2. barrier = t_min + lookahead
 *   3. every shard runs runUntilBarrier(barrier) — in parallel on the
 *      ThreadPool, each queue touched by exactly one task
 *   4. rendezvous: cross-shard messages posted during the epoch are
 *      drained on the coordinating thread in (shard index, post order),
 *      delivering each into its target queue at its arrival tick
 *
 * Determinism: the barrier sequence is a pure function of queue state
 * (never of thread timing), each queue is single-threaded within an
 * epoch, and the drain order at the rendezvous is fixed. Results are
 * therefore bit-identical for any worker count, including inline
 * execution at --threads 1.
 */

#ifndef BFREE_SIM_SHARDED_HH
#define BFREE_SIM_SHARDED_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "event_queue.hh"
#include "parallel.hh"
#include "types.hh"

namespace bfree::sim {

/**
 * Runs N event queues in lockstep epochs bounded by a lookahead.
 *
 * The engine does not own the queues; callers keep them (and the model
 * objects scheduled on them) alive for the engine's lifetime. Shards are
 * identified by their index in the constructor vector.
 */
class ShardedEngine
{
  public:
    /**
     * @param queues    One event queue per shard (non-owning).
     * @param lookahead Minimum cross-shard message latency in ticks;
     *                  must be positive (a zero lookahead admits no
     *                  parallel window).
     * @param threads   Worker count for the epoch pool; 0 means
     *                  the CPUs the process may run on.
     */
    ShardedEngine(std::vector<EventQueue *> queues, Tick lookahead,
                  unsigned threads = 0);

    /**
     * Post a cross-shard message. Must be called from shard @p from's
     * epoch task (each shard's outbox is touched by exactly one worker
     * per epoch). @p when must be at least the poster's current time
     * plus the lookahead; @p deliver runs at the rendezvous on the
     * coordinating thread and typically schedules work on shard
     * @p to's queue at tick @p when.
     */
    void post(unsigned from, unsigned to, Tick when,
              std::function<void()> deliver);

    /** Run epochs until every queue drains and no messages remain. */
    void run();

    /** Epochs executed by the last / current run(). */
    std::uint64_t epochs() const { return num_epochs; }

    /** Cross-shard messages delivered so far. */
    std::uint64_t messages() const { return num_messages; }

    /** Total events dispatched across all shards. */
    std::uint64_t processed() const;

    /** Number of shards. */
    unsigned shards() const
    { return static_cast<unsigned>(queues.size()); }

  private:
    struct Message
    {
        unsigned to;
        Tick when;
        std::function<void()> deliver;
    };

    std::vector<EventQueue *> queues;
    Tick lookahead;
    ThreadPool pool;

    /** One outbox per posting shard; private to that shard's task
     *  during an epoch, drained by the coordinator at the barrier. */
    std::vector<std::vector<Message>> outboxes;

    std::uint64_t num_epochs = 0;
    std::uint64_t num_messages = 0;
};

} // namespace bfree::sim

#endif // BFREE_SIM_SHARDED_HH
