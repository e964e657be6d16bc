/**
 * @file
 * Discrete-event simulation core: Event, EventQueue and the helper
 * EventFunctionWrapper.
 *
 * The queue orders events by (when, priority, insertion sequence), so that
 * two events scheduled for the same tick with the same priority fire in
 * the order they were scheduled. This makes simulations fully
 * deterministic, which the cross-validation tests between the detailed
 * and analytic timing models rely on.
 *
 * scheduleCallback() draws one-shot events from an object pool linked
 * through an intrusive free list, so the detailed models' per-wave
 * emitters allocate nothing once the pool has warmed up.
 */

#ifndef BFREE_SIM_EVENT_QUEUE_HH
#define BFREE_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "types.hh"

namespace bfree::sim {

class EventQueue;

/**
 * Base class for schedulable events.
 *
 * Derive and implement process(). An Event may be rescheduled after it
 * fires, but must not be scheduled twice concurrently; the queue enforces
 * this with panics in debug-friendly fashion.
 */
class Event
{
  public:
    /** Default priority; lower values fire first within a tick. */
    static constexpr int default_priority = 0;

    explicit Event(int priority = default_priority)
        : _priority(priority)
    {}

    virtual ~Event() = default;

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked by the queue when simulated time reaches when(). */
    virtual void process() = 0;

    /** Human-readable description used in diagnostics. */
    virtual std::string name() const { return "anonymous event"; }

    /** Tick at which this event is (or was last) scheduled. */
    Tick when() const { return _when; }

    /** Intra-tick ordering; lower fires first. */
    int priority() const { return _priority; }

    /** True while the event sits in a queue awaiting dispatch. */
    bool scheduled() const { return _scheduled; }

  private:
    friend class EventQueue;

    Tick _when = 0;
    std::uint64_t _sequence = 0;
    int _priority;
    bool _scheduled = false;
    bool _squashed = false;
};

/** An Event that simply invokes a bound callable. */
class EventFunctionWrapper : public Event
{
  public:
    EventFunctionWrapper(std::function<void()> callback,
                         std::string description,
                         int priority = default_priority)
        : Event(priority), callback(std::move(callback)),
          description(std::move(description))
    {}

    void process() override { callback(); }
    std::string name() const override { return description; }

  private:
    std::function<void()> callback;
    std::string description;
};

/**
 * The global ordering structure for a simulation.
 *
 * Not a singleton: tests and parallel experiments each own an instance.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Schedule @p event to fire at absolute tick @p when. */
    void schedule(Event *event, Tick when);

    /**
     * Remove a pending event. The event object stays valid and may be
     * rescheduled later.
     */
    void deschedule(Event *event);

    /**
     * Schedule a one-shot callback at absolute tick @p when. The event
     * object behind it comes from an internal pool threaded on an
     * intrusive free list and is recycled the moment it fires, so a
     * steady stream of transient events costs no allocation once the
     * pool has warmed up (the callback itself is also move-assigned
     * into the pooled slot, reusing small-buffer storage).
     */
    void scheduleCallback(Tick when, std::function<void()> callback,
                          int priority = Event::default_priority);

    /** Current simulated time. */
    Tick now() const { return current_tick; }

    /** True when no events remain. */
    bool empty() const { return num_pending == 0; }

    /** Number of events waiting to fire. */
    std::size_t size() const { return num_pending; }

    /** Total number of events dispatched so far. */
    std::uint64_t processed() const { return num_processed; }

    /**
     * Pool slots ever allocated by scheduleCallback (monotonic; a
     * steady-state workload should see this plateau).
     */
    std::size_t callbackPoolSize() const { return pool_storage.size(); }

    /**
     * Run until the queue drains or simulated time would exceed
     * @p stop_at. Returns the tick of the last processed event (or the
     * current tick when nothing ran).
     */
    Tick run(Tick stop_at = max_tick);

    /** Dispatch exactly one event; returns false if the queue is empty. */
    bool step();

  private:
    class PoolEvent;

    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t sequence;
        Event *event;
    };

    struct EntryCompare
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.sequence > b.sequence;
        }
    };

    /**
     * Drop squashed / superseded entries from the top of the heap so
     * heap.top(), when present, is the genuine next event.
     */
    void pruneStale();

    std::priority_queue<Entry, std::vector<Entry>, EntryCompare> heap;
    Tick current_tick = 0;
    std::uint64_t next_sequence = 0;
    std::uint64_t num_processed = 0;
    std::size_t num_pending = 0;

    /** Owning storage for pooled events (stable addresses). */
    std::vector<std::unique_ptr<PoolEvent>> pool_storage;
    /** Head of the intrusive free list of recycled pool events. */
    PoolEvent *free_list = nullptr;
};

} // namespace bfree::sim

#endif // BFREE_SIM_EVENT_QUEUE_HH
