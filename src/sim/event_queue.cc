#include "event_queue.hh"

#include <utility>

#include "logging.hh"

namespace bfree::sim {

/**
 * A pooled one-shot event backing EventQueue::scheduleCallback.
 *
 * Fired events recycle themselves onto the owning queue's intrusive
 * free list *before* invoking the callback, so a callback may schedule
 * further pooled events (including, transitively, itself) and reuse the
 * very slot it ran from.
 */
class EventQueue::PoolEvent : public Event
{
  public:
    explicit PoolEvent(EventQueue &owner) : owner(owner) {}

    void
    arm(std::function<void()> fn)
    {
        callback = std::move(fn);
    }

    void
    process() override
    {
        // Move the callback to the stack and recycle the slot first:
        // after this point the callback may freely schedule new pooled
        // events without invalidating the one that is running.
        std::function<void()> fn = std::move(callback);
        callback = nullptr;
        next_free = owner.free_list;
        owner.free_list = this;
        fn();
    }

    std::string name() const override { return "pooled callback"; }

  private:
    friend class EventQueue;

    EventQueue &owner;
    std::function<void()> callback;
    PoolEvent *next_free = nullptr;
};

EventQueue::EventQueue() = default;
EventQueue::~EventQueue() = default;

void
EventQueue::schedule(Event *event, Tick when)
{
    if (event == nullptr)
        bfree_panic("scheduling a null event");
    if (event->_scheduled)
        bfree_panic("event '", event->name(), "' is already scheduled");
    if (when < current_tick) {
        bfree_panic("scheduling event '", event->name(), "' at tick ", when,
                    " in the past (now ", current_tick, ")");
    }

    event->_when = when;
    event->_sequence = next_sequence++;
    event->_scheduled = true;
    event->_squashed = false;
    heap.push(Entry{when, event->priority(), event->_sequence, event});
    ++num_pending;
}

void
EventQueue::deschedule(Event *event)
{
    if (event == nullptr || !event->_scheduled)
        bfree_panic("descheduling an event that is not scheduled");
    // Lazy removal: mark squashed and drop it when it surfaces.
    event->_scheduled = false;
    event->_squashed = true;
    --num_pending;
}

void
EventQueue::scheduleCallback(Tick when, std::function<void()> callback,
                             int priority)
{
    PoolEvent *ev = free_list;
    if (ev != nullptr) {
        free_list = ev->next_free;
        ev->next_free = nullptr;
    } else {
        pool_storage.push_back(std::make_unique<PoolEvent>(*this));
        ev = pool_storage.back().get();
    }
    ev->_priority = priority;
    ev->arm(std::move(callback));
    schedule(ev, when);
}

void
EventQueue::pruneStale()
{
    while (!heap.empty()) {
        const Entry &top = heap.top();
        if (top.event->_squashed && top.event->_sequence == top.sequence) {
            top.event->_squashed = false;
            heap.pop();
            continue;
        }
        if (!top.event->_scheduled
            || top.event->_sequence != top.sequence) {
            // Stale entry from a deschedule + reschedule: the live
            // entry for this event sits elsewhere in the heap.
            heap.pop();
            continue;
        }
        break;
    }
}

bool
EventQueue::step()
{
    pruneStale();
    if (heap.empty())
        return false;
    Entry top = heap.top();
    heap.pop();
    current_tick = top.when;
    top.event->_scheduled = false;
    --num_pending;
    ++num_processed;
    top.event->process();
    return true;
}

Tick
EventQueue::run(Tick stop_at)
{
    for (;;) {
        pruneStale();
        if (heap.empty() || heap.top().when > stop_at)
            break;
        step();
    }
    return current_tick;
}

} // namespace bfree::sim
