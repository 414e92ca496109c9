/**
 * @file
 * Unit tests for the conservative parallel kernel building blocks:
 * the SPSC mailbox, the event-queue lower bound, the executor's
 * window/barrier mechanics, and cross-partition delivery through a
 * SplitLink — all at the level below the full-stack differential
 * fuzzer (tests/fuzz/test_parallel_differential.cc).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "net/split_link.hh"
#include "sim/parallel.hh"
#include "sim/simulation.hh"
#include "sim/spsc_mailbox.hh"

namespace
{

using namespace f4t;
using sim::Tick;

// --- SpscMailbox ---------------------------------------------------------

TEST(SpscMailbox, DrainsInPushOrder)
{
    sim::SpscMailbox<int> box(8);
    for (int i = 0; i < 5; ++i)
        box.push(int(i));
    std::vector<int> seen;
    EXPECT_EQ(box.drain([&](int &&v) { seen.push_back(v); }), 5u);
    EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(box.empty());
}

TEST(SpscMailbox, OverflowSpillsAndKeepsOrder)
{
    sim::SpscMailbox<int> box(4);
    for (int i = 0; i < 11; ++i)
        box.push(int(i));
    EXPECT_GT(box.spillsObserved(), 0u);
    std::vector<int> seen;
    EXPECT_EQ(box.drain([&](int &&v) { seen.push_back(v); }), 11u);
    for (int i = 0; i < 11; ++i)
        EXPECT_EQ(seen[i], i);
    EXPECT_TRUE(box.empty());
    // The ring is free again after the drain.
    box.push(42);
    EXPECT_EQ(box.drain([&](int &&v) { EXPECT_EQ(v, 42); }), 1u);
}

TEST(SpscMailbox, CrossThreadHandoff)
{
    sim::SpscMailbox<std::uint64_t> box(1024);
    constexpr std::uint64_t rounds = 200;
    std::uint64_t received = 0, expect = 0;
    bool in_order = true;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        // One "window": a producer thread pushes, joins (the barrier),
        // then the consumer drains.
        std::thread producer([&box, round] {
            for (std::uint64_t i = 0; i < 17; ++i)
                box.push(round * 17 + i);
        });
        producer.join();
        received += box.drain([&](std::uint64_t &&v) {
            in_order = in_order && v == expect;
            ++expect;
        });
    }
    EXPECT_TRUE(in_order);
    EXPECT_EQ(received, rounds * 17);
}

// --- EventQueue::nextEventLowerBound -------------------------------------

struct CountingEvent : sim::Event
{
    void process() override { ++fired; }
    int fired = 0;
};

TEST(EventQueueLowerBound, TracksSoloLadderAndHeap)
{
    sim::Simulation sim;
    EXPECT_EQ(sim.queue().nextEventLowerBound(), sim::maxTick);

    CountingEvent solo;
    sim.queue().schedule(&solo, 100);
    EXPECT_EQ(sim.queue().nextEventLowerBound(), 100u);

    CountingEvent far;
    sim.queue().schedule(&far, 1'000'000); // far heap
    EXPECT_EQ(sim.queue().nextEventLowerBound(), 100u);

    sim.run(100);
    EXPECT_EQ(solo.fired, 1);
    EXPECT_EQ(sim.queue().nextEventLowerBound(), 1'000'000u);

    sim.run(1'000'000);
    EXPECT_EQ(far.fired, 1);
    EXPECT_EQ(sim.queue().nextEventLowerBound(), sim::maxTick);
}

TEST(EventQueueLowerBound, NeverExceedsNextLiveEvent)
{
    sim::Simulation sim;
    CountingEvent a, b;
    sim.queue().schedule(&a, 500);
    sim.queue().schedule(&b, 700);
    sim.queue().deschedule(&a); // removed in place, so it cannot lead
    Tick bound = sim.queue().nextEventLowerBound();
    EXPECT_EQ(bound, 700u); // exact: the next pending event's tick
    sim.run(700);
    EXPECT_EQ(a.fired, 0);
    EXPECT_EQ(b.fired, 1);
}

// --- ParallelExecutor ----------------------------------------------------

/** Channel stub: fixed lookahead, hand-fed pending callbacks. */
struct StubChannel : sim::CrossChannel
{
    explicit StubChannel(Tick la) : la_(la) {}
    Tick lookahead() const override { return la_; }
    std::size_t
    drainInto() override
    {
        std::size_t n = pending.size();
        for (auto &fn : pending)
            fn();
        pending.clear();
        return n;
    }
    bool idle() const override { return pending.empty(); }
    Tick la_;
    std::vector<std::function<void()>> pending;
};

TEST(ParallelExecutor, WindowsDerivedFromMinLookahead)
{
    sim::Simulation pa, pb;
    sim::ParallelExecutor ex(1);
    ex.addPartition(pa, "a");
    ex.addPartition(pb, "b");
    StubChannel wide(10'000), narrow(2'000);
    ex.addChannel(wide);
    ex.addChannel(narrow);
    EXPECT_EQ(ex.lookahead(), 2'000u);

    // Self-rescheduling tick in each partition keeps both queues busy.
    int ticks_a = 0, ticks_b = 0;
    std::function<void()> tick_a = [&] {
        ++ticks_a;
        pa.queue().scheduleCallback(pa.now() + 100, "tick", [&] { tick_a(); });
    };
    std::function<void()> tick_b = [&] {
        ++ticks_b;
        pb.queue().scheduleCallback(pb.now() + 100, "tick", [&] { tick_b(); });
    };
    pa.queue().scheduleCallback(0, "tick", [&] { tick_a(); });
    pb.queue().scheduleCallback(0, "tick", [&] { tick_b(); });

    EXPECT_EQ(ex.run(10'000), 10'000u);
    EXPECT_EQ(ticks_a, 101); // ticks at 0, 100, ..., 10000
    EXPECT_EQ(ticks_b, 101);
    EXPECT_EQ(ex.windowsRun(), 5u); // 10000 / 2000
    EXPECT_EQ(pa.now(), 10'000u);
    EXPECT_EQ(pb.now(), 10'000u);
}

TEST(ParallelExecutor, StopsOnGlobalDrainAndJumpsIdleGaps)
{
    sim::Simulation pa, pb;
    sim::ParallelExecutor ex(1);
    ex.addPartition(pa, "a");
    ex.addPartition(pb, "b");
    StubChannel ch(1'000);
    ex.addChannel(ch);

    int fired = 0;
    // One lonely far-future event: the executor should not grind
    // through ~1000 empty windows to reach it.
    pa.queue().scheduleCallback(1'000'000, "late", [&] { ++fired; });
    EXPECT_EQ(ex.run(2'000'000), 2'000'000u);
    EXPECT_EQ(fired, 1);
    EXPECT_LE(ex.windowsRun(), 3u); // idle-gap jump, not 2000 windows
    // Drained clocks still pin to the limit (serial run() contract).
    EXPECT_EQ(pa.now(), 2'000'000u);
    EXPECT_EQ(pb.now(), 2'000'000u);

    // Nothing pending at all: the horizon still advances to the limit.
    std::uint64_t windows_before = ex.windowsRun();
    EXPECT_EQ(ex.run(3'000'000), 3'000'000u);
    EXPECT_EQ(ex.windowsRun(), windows_before); // one fast-forward, no windows
}

TEST(ParallelExecutor, CrossEventsDeliveredAtBarriers)
{
    sim::Simulation pa, pb;
    sim::ParallelExecutor ex(2);
    ex.addPartition(pa, "a");
    ex.addPartition(pb, "b");
    StubChannel ch(5'000);
    ex.addChannel(ch);

    // Partition A "sends" at tick 100: the effect lands in partition B
    // no earlier than the next barrier, at its stamped delivery tick.
    std::vector<Tick> deliveries;
    pa.queue().scheduleCallback(100, "send", [&] {
        ch.pending.push_back([&] {
            pb.queue().scheduleCallback(100 + 5'000, "recv", [&] {
                deliveries.push_back(pb.now());
            });
        });
    });
    ex.run(20'000);
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0], 5'100u);
    EXPECT_EQ(ex.crossEventsDelivered(), 1u);
}

// --- SplitLink end-to-end ------------------------------------------------

struct RecordingSink : net::PacketSink
{
    explicit RecordingSink(sim::Simulation &sim) : sim(sim) {}
    void
    receivePacket(net::Packet &&pkt) override
    {
        arrivals.push_back(sim.now());
        bytes += pkt.payload.size();
    }
    sim::Simulation &sim;
    std::vector<Tick> arrivals;
    std::size_t bytes = 0;
};

net::Packet
makePacket(std::size_t payload_bytes)
{
    net::Packet pkt = net::Packet::makeTcp(
        net::MacAddress{}, net::MacAddress{}, net::Ipv4Address{},
        net::Ipv4Address{}, net::TcpHeader{});
    pkt.payload.resize(payload_bytes);
    return pkt;
}

TEST(SplitLink, DeliversAcrossPartitionsAtModeledArrival)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        sim::Simulation pa, pb;
        net::SplitLink link(pa, pb, "cable", 100e9,
                            sim::nanosecondsToTicks(500));
        RecordingSink sink_a(pa), sink_b(pb);
        link.connect(sink_a, sink_b);

        sim::ParallelExecutor ex(threads);
        ex.addPartition(pa, "a");
        ex.addPartition(pb, "b");
        link.registerChannels(ex);

        pa.queue().scheduleCallback(0, "tx", [&] {
            link.aToB().send(makePacket(1000));
            link.aToB().send(makePacket(1000));
        });
        ex.run(sim::microsecondsToTicks(10));

        ASSERT_EQ(sink_b.arrivals.size(), 2u);
        EXPECT_EQ(sink_b.bytes, 2000u);
        // Never before the modeled wire time: serialization of one
        // 1000 B frame at 100 Gbps ≈ 82 ns, propagation 500 ns.
        EXPECT_GE(sink_b.arrivals[0], sim::nanosecondsToTicks(500));
        EXPECT_LE(sink_b.arrivals[0], sink_b.arrivals[1]);
        EXPECT_EQ(link.aToB().packetsSent(), 2u);
        EXPECT_TRUE(sink_a.arrivals.empty());
    }
}

TEST(SplitLink, ThreadCountInvariantDeliverySchedule)
{
    auto run = [](std::size_t threads) {
        sim::Simulation pa, pb;
        net::SplitLink link(pa, pb, "cable", 100e9,
                            sim::nanosecondsToTicks(500));
        RecordingSink sink_a(pa), sink_b(pb);
        link.connect(sink_a, sink_b);
        sim::ParallelExecutor ex(threads);
        ex.addPartition(pa, "a");
        ex.addPartition(pb, "b");
        link.registerChannels(ex);

        // A paced train: one frame every 2 µs for 40 µs, so deliveries
        // span many windows.
        for (int i = 0; i < 20; ++i) {
            pa.queue().scheduleCallback(
                sim::microsecondsToTicks(2 * i), "tx",
                [&] { link.aToB().send(makePacket(512)); });
        }
        ex.run(sim::microsecondsToTicks(100));
        return sink_b.arrivals;
    };
    auto solo = run(1);
    auto multi = run(2);
    EXPECT_EQ(solo.size(), 20u);
    EXPECT_EQ(solo, multi); // tick-exact, not just byte-exact
}

} // namespace
