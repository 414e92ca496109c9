/**
 * @file
 * Stress tests for the two-level (ladder + far heap) event queue and
 * the kernel's recycling pools.
 *
 * The queue promises exactly one observable behavior: events pop in
 * (tick, priority, insertion sequence) order, identical to a single
 * global priority queue. The randomized test here drives schedule /
 * deschedule / reschedule / destroy / run at mixed horizons — spanning
 * the solo register, the ladder granules, window rebases, and the far
 * heap — and cross-checks every fired event against a std::multimap
 * reference model that implements the ordering contract directly.
 *
 * The pool tests pin down the steady-state-allocation-free property:
 * callback events and payload buffers must recycle rather than grow
 * their arenas.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "net/payload_buffer.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace f4t::sim
{
namespace
{

/** Reference ordering key, mirroring the queue's contract. */
using RefKey = std::tuple<Tick, int, std::uint64_t>;

struct FiredRecord
{
    Tick when;
    int id;
};

struct StressEvent : Event
{
    using Event::Event;
    int id = -1;
    const EventQueue *queue = nullptr;
    std::vector<FiredRecord> *log = nullptr;
    void process() override { log->push_back({queue->now(), id}); }
};

TEST(EventQueueStress, RandomizedAgainstReferenceModel)
{
    constexpr int numEvents = 48;
    constexpr int priorities[] = {Event::clockPriority,
                                  Event::defaultPriority,
                                  Event::statsPriority};

    EventQueue queue;
    std::vector<FiredRecord> log;
    Random rng(0xF47F47);

    // id -> reference entry for scheduled events; multimap carries the
    // authoritative fire order.
    std::multimap<RefKey, int> ref;
    std::map<int, std::multimap<RefKey, int>::iterator> byId;
    std::uint64_t seqCounter = 0;

    // Separately allocated, so ASan flags any access the queue makes
    // to a destroyed event.
    std::vector<std::unique_ptr<StressEvent>> events(numEvents);
    auto make_event = [&](int id) {
        events[id] = std::make_unique<StressEvent>(priorities[id % 3]);
        events[id]->id = id;
        events[id]->queue = &queue;
        events[id]->log = &log;
    };
    for (int i = 0; i < numEvents; ++i)
        make_event(i);

    // Horizon mix: same-granule, in-window, a few windows out, and
    // deep heap territory (forces batched rebases when reached).
    auto random_when = [&]() -> Tick {
        switch (rng.below(8)) {
        case 0:
        case 1:
        case 2:
            return queue.now() + rng.below(64);
        case 3:
        case 4:
        case 5:
            return queue.now() + rng.below(EventQueue::ladderSpan);
        case 6:
            return queue.now() + rng.below(4 * EventQueue::ladderSpan);
        default:
            return queue.now() + rng.below(64 * EventQueue::ladderSpan);
        }
    };

    auto check_front = [&]() {
        ASSERT_FALSE(log.empty());
        ASSERT_FALSE(ref.empty());
        auto front = ref.begin();
        EXPECT_EQ(log.back().id, front->second);
        EXPECT_EQ(log.back().when, std::get<0>(front->first));
        byId.erase(front->second);
        ref.erase(front);
        log.pop_back();
    };

    for (int op = 0; op < 50000; ++op) {
        int id = static_cast<int>(rng.below(numEvents));
        StressEvent &ev = *events[id];
        switch (rng.below(16)) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4:
        case 5: // schedule
            if (!ev.scheduled()) {
                Tick when = random_when();
                queue.schedule(&ev, when);
                auto it = ref.emplace(RefKey{when, ev.priority(),
                                             seqCounter++},
                                      id);
                byId[id] = it;
            }
            break;
        case 6:
        case 7: // deschedule
            if (ev.scheduled()) {
                queue.deschedule(&ev);
                ref.erase(byId.at(id));
                byId.erase(id);
            }
            break;
        case 8:
        case 9: // reschedule (works scheduled or not)
        {
            Tick when = random_when();
            queue.reschedule(&ev, when);
            if (auto it = byId.find(id); it != byId.end())
                ref.erase(it->second);
            byId[id] = ref.emplace(RefKey{when, ev.priority(),
                                          seqCounter++},
                                   id);
            break;
        }
        case 10: // destroy, scheduled or not, and replace
            events[id].reset();
            if (auto it = byId.find(id); it != byId.end()) {
                ref.erase(it->second);
                byId.erase(it);
            }
            make_event(id);
            break;
        default: // run one event
            if (queue.runOne()) {
                check_front();
                if (::testing::Test::HasFailure())
                    return;
            }
            break;
        }
        ASSERT_EQ(queue.size(), ref.size());
    }

    // Drain: the remaining events must fire in exact reference order.
    while (queue.runOne()) {
        check_front();
        if (::testing::Test::HasFailure())
            return;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_TRUE(ref.empty());
}

TEST(EventQueueStress, SoloRegisterMetronome)
{
    // The steady state of a saturated pipeline: exactly one live
    // self-rescheduling event. Must pop/push without touching the
    // containers and stay exactly ordered across thousands of laps,
    // including laps longer than the ladder window.
    EventQueue queue;
    Tick expect = 0;
    int fired = 0;
    for (int lap = 0; lap < 5000; ++lap) {
        Tick step = (lap % 7 == 0) ? EventQueue::ladderSpan + 17 : 4000;
        expect += step;
        queue.scheduleCallback(expect, "metronome", [&] { ++fired; });
        ASSERT_TRUE(queue.runOne());
        ASSERT_EQ(queue.now(), expect);
    }
    EXPECT_EQ(fired, 5000);
    EXPECT_TRUE(queue.empty());
    // One pooled callback event serviced the whole run.
    EXPECT_EQ(queue.callbackPoolAllocated(), 1u);
    EXPECT_EQ(queue.callbackPoolFree(), 1u);
}

TEST(EventQueueStress, SoloDescheduleIsEager)
{
    EventQueue queue;
    StressEvent ev;
    std::vector<FiredRecord> log;
    ev.id = 0;
    ev.queue = &queue;
    ev.log = &log;

    queue.schedule(&ev, 100);
    EXPECT_EQ(queue.size(), 1u);
    queue.deschedule(&ev);
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.nextEventLowerBound(), maxTick);

    queue.schedule(&ev, 200);
    queue.run();
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0].when, 200u);
}

TEST(EventQueueStress, CallbackPoolRecyclesAcrossBursts)
{
    EventQueue queue;
    int fired = 0;

    // First burst sets the pool's high-water mark...
    for (int i = 0; i < 64; ++i)
        queue.scheduleCallback(queue.now() + 10 + i, "burst",
                               [&] { ++fired; });
    queue.run();
    std::size_t high_water = queue.callbackPoolAllocated();
    EXPECT_GE(high_water, 64u);
    EXPECT_EQ(queue.callbackPoolFree(), high_water);

    // ...and every later burst of the same width reuses it.
    for (int round = 0; round < 100; ++round) {
        for (int i = 0; i < 64; ++i)
            queue.scheduleCallback(queue.now() + 10 + i, "burst",
                                   [&] { ++fired; });
        queue.run();
    }
    EXPECT_EQ(fired, 64 * 101);
    EXPECT_EQ(queue.callbackPoolAllocated(), high_water);
    EXPECT_EQ(queue.callbackPoolFree(), high_water);
}

TEST(PayloadPool, RecyclesBuffersByDelta)
{
    // The pool is process-wide, so measure deltas from the current
    // state rather than absolute counts.
    auto &pool = net::PayloadBufferPool::instance();
    {
        net::PayloadBuffer warm(1500);
    }
    std::size_t base_allocated = pool.allocated();
    std::size_t base_outstanding = pool.outstanding();

    for (int i = 0; i < 1000; ++i) {
        net::PayloadBuffer p(1500);
        p[0] = static_cast<std::uint8_t>(i);
    }
    // Sequential buffers all reused one pooled vector.
    EXPECT_EQ(pool.allocated(), base_allocated);
    EXPECT_EQ(pool.outstanding(), base_outstanding);
}

TEST(PayloadPool, LiveBuffersNeverShareStorage)
{
    net::PayloadBuffer a(64);
    a[0] = 0xAA;
    net::PayloadBuffer b(64);
    b[0] = 0xBB;
    // A buffer still referenced must never be handed out again.
    EXPECT_NE(a.data(), b.data());
    EXPECT_EQ(a[0], 0xAA);

    net::PayloadBuffer copy(a);
    EXPECT_NE(copy.data(), a.data());
    EXPECT_EQ(copy[0], 0xAA);

    const std::uint8_t *storage = a.data();
    net::PayloadBuffer moved(std::move(a));
    EXPECT_EQ(moved.data(), storage); // moves steal, never copy
    EXPECT_TRUE(a.empty());
}

TEST(PayloadPool, VectorMoveDonatesCapacity)
{
    auto &pool = net::PayloadBufferPool::instance();
    std::vector<std::uint8_t> v(4096, 0x5A);
    const std::uint8_t *storage = v.data();
    std::size_t outstanding = pool.outstanding();
    net::PayloadBuffer p(std::move(v));
    EXPECT_EQ(p.data(), storage);
    EXPECT_EQ(p.size(), 4096u);
    EXPECT_EQ(pool.outstanding(), outstanding + 1);
}

} // namespace
} // namespace f4t::sim
