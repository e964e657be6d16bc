/**
 * @file
 * EventQueue: ordering, determinism, descheduling and time advance.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

using namespace bfree::sim;

namespace {

/** Records its firing time and order into shared logs. */
class RecordingEvent : public Event
{
  public:
    RecordingEvent(std::vector<int> &log, int id,
                   int priority = Event::default_priority)
        : Event(priority), log(&log), id(id)
    {}

    void process() override { log->push_back(id); }

  private:
    std::vector<int> *log;
    int id;
};

} // namespace

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.processed(), 0u);
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    RecordingEvent c(log, 3);
    q.schedule(&b, 200);
    q.schedule(&a, 100);
    q.schedule(&c, 300);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 300u);
    EXPECT_EQ(q.processed(), 3u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    RecordingEvent c(log, 3);
    q.schedule(&c, 50);
    q.schedule(&a, 50);
    q.schedule(&b, 50);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{3, 1, 2}));
}

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent low(log, 1, 10);
    RecordingEvent high(log, 2, -10);
    q.schedule(&low, 50);
    q.schedule(&high, 50);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, StepProcessesExactlyOne)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(log.size(), 1u);
    EXPECT_EQ(q.now(), 10u);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunStopsAtBound)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 1000);
    q.run(500);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(log.size(), 2u);
}

TEST(EventQueue, DescheduledEventDoesNotFire)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleAfterDeschedule)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    q.schedule(&a, 10);
    q.deschedule(&a);
    q.schedule(&a, 30);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, EventCanRescheduleItself)
{
    EventQueue q;
    int fired = 0;
    EventFunctionWrapper ev(
        [&] {
            ++fired;
            if (fired < 5)
                q.schedule(&ev, q.now() + 10);
        },
        "self rescheduling");
    q.schedule(&ev, 10);
    q.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, ScheduledFlagTracksLifecycle)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    EXPECT_FALSE(a.scheduled());
    q.schedule(&a, 10);
    EXPECT_TRUE(a.scheduled());
    q.run();
    EXPECT_FALSE(a.scheduled());
}

TEST(EventQueue, FunctionWrapperCarriesName)
{
    EventFunctionWrapper ev([] {}, "my event");
    EXPECT_EQ(ev.name(), "my event");
}

TEST(EventQueue, RescheduleEarlierThanOriginalFiltersStaleEntry)
{
    // Deschedule + reschedule EARLIER: the stale heap entry (sequence
    // of the first schedule) still sits at tick 100 and must be
    // filtered by the sequence comparison after the live entry fires.
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    q.schedule(&a, 100);
    q.deschedule(&a);
    q.schedule(&a, 10);
    q.schedule(&b, 100);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 100u);
    // Only the two live firings count; the stale entry is not an event.
    EXPECT_EQ(q.processed(), 2u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleLaterThanOriginalFiltersStaleEntry)
{
    // Deschedule + reschedule LATER: the stale entry surfaces FIRST.
    // If it were dispatched, the event would fire at tick 10 and the
    // live entry at 50 would be dropped as superseded.
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    q.schedule(&a, 10);
    q.deschedule(&a);
    q.schedule(&a, 50);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(q.processed(), 1u);
}

TEST(EventQueue, RepeatedDescheduleRescheduleLeavesOneLiveEntry)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    for (int i = 0; i < 4; ++i) {
        q.schedule(&a, 10 + 10 * i);
        q.deschedule(&a);
    }
    q.schedule(&a, 25);
    EXPECT_EQ(q.size(), 1u);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_EQ(q.now(), 25u);
    EXPECT_EQ(q.processed(), 1u);
}

TEST(EventQueue, DescheduledNeverRescheduledIsSquashedSilently)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    q.schedule(&a, 10);
    q.schedule(&b, 20);
    q.deschedule(&a);
    EXPECT_EQ(q.size(), 1u);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
    EXPECT_EQ(q.processed(), 1u);
    // The event is reusable afterwards.
    q.schedule(&a, 30);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, ScheduleCallbackFiresAndRecycles)
{
    EventQueue q;
    std::vector<int> log;
    q.scheduleCallback(10, [&] { log.push_back(1); });
    q.scheduleCallback(20, [&] { log.push_back(2); });
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.callbackPoolSize(), 2u);

    // The fired events are back on the free list: scheduling two more
    // must not grow the pool.
    q.scheduleCallback(30, [&] { log.push_back(3); });
    q.scheduleCallback(40, [&] { log.push_back(4); });
    EXPECT_EQ(q.callbackPoolSize(), 2u);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, PooledCallbackCanScheduleFromInsideItself)
{
    // A callback scheduling another pooled callback may get the very
    // slot it is running from (it was recycled before invocation).
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            q.scheduleCallback(q.now() + 10, chain);
    };
    q.scheduleCallback(10, chain);
    q.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(q.now(), 50u);
    EXPECT_EQ(q.callbackPoolSize(), 1u);
}

TEST(EventQueue, CallbackRespectsPriority)
{
    EventQueue q;
    std::vector<int> log;
    q.scheduleCallback(10, [&] { log.push_back(1); }, 10);
    q.scheduleCallback(10, [&] { log.push_back(2); }, -10);
    q.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    RecordingEvent b(log, 2);
    q.schedule(&a, 100);
    q.run();
    EXPECT_DEATH(q.schedule(&b, 50), "in the past");
}

TEST(EventQueueDeath, DoubleSchedulePanics)
{
    EventQueue q;
    std::vector<int> log;
    RecordingEvent a(log, 1);
    q.schedule(&a, 10);
    EXPECT_DEATH(q.schedule(&a, 20), "already scheduled");
}
