/**
 * @file
 * Timer wheel: one queue entry per armed (flow, kind), exact firing
 * order, cancellation, and teardown; plus the event-population bound
 * it buys a many-flow echo run.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/workloads.hh"
#include "core/timer_wheel.hh"
#include "harness.hh"

namespace f4t
{
namespace
{

using core::TimerWheel;
using tcp::TimeoutKind;

/** One fire as seen by the sink. */
struct Fired
{
    tcp::FlowId flow;
    TimeoutKind kind;
    sim::Tick when;
};

struct WheelBench
{
    WheelBench()
    {
        wheel = std::make_unique<TimerWheel>(sim, "timers");
        wheel->setSink([this](const tcp::TcpEvent &event) {
            EXPECT_EQ(event.type, tcp::TcpEventType::timeout);
            fired.push_back({event.flow, event.timeoutKind, sim.now()});
        });
    }

    void
    program(tcp::FlowId flow, TimeoutKind kind, std::uint64_t deadline_us)
    {
        wheel->program(tcp::TimerRequest{flow, kind, deadline_us});
    }

    sim::Simulation sim;
    std::unique_ptr<TimerWheel> wheel;
    std::vector<Fired> fired;
};

TEST(TimerWheel, RearmKeepsOneQueueEntry)
{
    WheelBench b;
    std::size_t base = b.sim.queue().size();
    for (std::uint64_t i = 0; i < 1000; ++i) {
        b.program(3, TimeoutKind::retransmit, 5000 + i);
        ASSERT_LE(b.sim.queue().size(), base + 1);
    }
    b.sim.run();
    ASSERT_EQ(b.fired.size(), 1u);
    EXPECT_EQ(b.fired[0].when, sim::microsecondsToTicks(5999));
}

TEST(TimerWheel, ZeroDeadlineRemovesTheEntry)
{
    WheelBench b;
    std::size_t base = b.sim.queue().size();
    b.program(1, TimeoutKind::delayedAck, 40);
    EXPECT_EQ(b.sim.queue().size(), base + 1);
    b.program(1, TimeoutKind::delayedAck, 0);
    EXPECT_EQ(b.sim.queue().size(), base);
    // Cancelling a timer never armed (or a flow never seen) is a no-op.
    b.program(9, TimeoutKind::probe, 0);
    b.sim.run();
    EXPECT_TRUE(b.fired.empty());
}

TEST(TimerWheel, CancelAllThenFlowReuseNeverFiresOldDeadline)
{
    WheelBench b;
    for (auto kind : {TimeoutKind::retransmit, TimeoutKind::probe,
                      TimeoutKind::delayedAck, TimeoutKind::timeWait})
        b.program(5, kind, 100);
    b.wheel->cancelAll(5);
    EXPECT_TRUE(b.sim.queue().empty());
    // The FlowId is recycled and re-armed with a later deadline.
    b.program(5, TimeoutKind::retransmit, 300);
    b.sim.run();
    ASSERT_EQ(b.fired.size(), 1u);
    EXPECT_EQ(b.fired[0].flow, 5u);
    EXPECT_EQ(b.fired[0].kind, TimeoutKind::retransmit);
    EXPECT_EQ(b.fired[0].when, sim::microsecondsToTicks(300));
}

TEST(TimerWheel, EqualDeadlinesFireInProgramOrder)
{
    // Each program() takes one sequence number, exactly like the plain
    // callback scheduled between the two: ties resolve in call order.
    WheelBench b;
    std::vector<int> order;
    b.wheel->setSink([&](const tcp::TcpEvent &event) {
        order.push_back(static_cast<int>(event.flow));
    });
    sim::Tick when = sim::microsecondsToTicks(50);
    b.program(7, TimeoutKind::retransmit, 50);
    b.sim.queue().scheduleCallback(when, "between",
                                   [&] { order.push_back(-1); });
    b.program(2, TimeoutKind::retransmit, 50);
    b.sim.run();
    EXPECT_EQ(order, (std::vector<int>{7, -1, 2}));

    // A re-arm takes a fresh sequence number: flow 7, re-armed last,
    // now fires after flow 2.
    order.clear();
    b.program(7, TimeoutKind::probe, 80);
    b.program(2, TimeoutKind::probe, 80);
    b.program(7, TimeoutKind::probe, 80);
    b.sim.run();
    EXPECT_EQ(order, (std::vector<int>{2, 7}));
}

TEST(TimerWheel, RearmFromInsideItsOwnSink)
{
    WheelBench b;
    b.wheel->setSink([&](const tcp::TcpEvent &event) {
        b.fired.push_back({event.flow, event.timeoutKind, b.sim.now()});
        std::uint64_t next_us = 10 * (b.fired.size() + 1);
        if (b.fired.size() < 3)
            b.program(event.flow, event.timeoutKind, next_us);
    });
    b.program(4, TimeoutKind::retransmit, 10);
    b.sim.run();
    ASSERT_EQ(b.fired.size(), 3u);
    EXPECT_EQ(b.fired[0].when, sim::microsecondsToTicks(10));
    EXPECT_EQ(b.fired[1].when, sim::microsecondsToTicks(20));
    EXPECT_EQ(b.fired[2].when, sim::microsecondsToTicks(30));
}

TEST(TimerWheel, PastDeadlineIsClampedToNow)
{
    WheelBench b;
    b.sim.runFor(sim::microsecondsToTicks(100));
    sim::Tick now = b.sim.now();
    b.program(6, TimeoutKind::timeWait, 20);
    b.sim.run();
    ASSERT_EQ(b.fired.size(), 1u);
    EXPECT_EQ(b.fired[0].when, now);
}

TEST(TimerWheel, TeardownPurgesEveryArmedTimer)
{
    WheelBench b;
    constexpr tcp::FlowId flows = 2000;
    // Re-arm one timer per flow and arm a second kind: teardown must
    // remove every armed timer from the queue.
    for (tcp::FlowId f = 0; f < flows; ++f) {
        b.program(f * 3, TimeoutKind::retransmit, 1000 + f);
        b.program(f * 3, TimeoutKind::retransmit, 5000 + f);
        b.program(f * 3, TimeoutKind::delayedAck, 40);
    }
    b.sim.queue().scheduleCallback(sim::microsecondsToTicks(7),
                                   "survivor", [] {});
    ASSERT_EQ(b.sim.queue().size(), 2 * flows + 1);
    b.wheel.reset();
    EXPECT_EQ(b.sim.queue().size(), 1u);
    EXPECT_FALSE(b.sim.queue().empty());
    // The survivor still runs; nothing of the wheel remains.
    EXPECT_TRUE(b.sim.queue().runOne());
    EXPECT_TRUE(b.sim.queue().empty());
    EXPECT_TRUE(b.fired.empty());
}

/**
 * Many-flow echo (10x more flows than TCB slots, so flows migrate) on
 * the timer-heavy path: every request arms a retransmission timer that
 * the echo cancels one RTT later. The live queue population must stay
 * a small constant per flow, and the callback pool small, however
 * many re-arms the run makes.
 */
TEST(EventPopulation, ManyFlowEchoStaysBounded)
{
    core::EngineConfig config;
    config.numFpcs = 2;
    config.flowsPerFpc = 16;
    config.maxFlows = 1024;
    config.tcpBufferBytes = 8 * 1024;
    test::EnginePairWorld world(2, config);

    apps::F4tSocketApi server_api = world.apiB(0);
    apps::EchoServerApp server(server_api, apps::EchoServerConfig{});
    server.start();
    world.sim.runFor(sim::microsecondsToTicks(20));

    constexpr std::size_t flows = 320;
    apps::F4tSocketApi client_api = world.apiA(1);
    apps::EchoClientConfig client_config;
    client_config.peer = testbed::ipB();
    client_config.flows = flows;
    client_config.connectSpacing = sim::nanosecondsToTicks(100);
    apps::EchoClientApp client(client_api, nullptr, client_config);
    client.start();

    std::size_t live_peak = 0;
    for (int step = 0; step < 40; ++step) {
        world.sim.runFor(sim::microsecondsToTicks(50));
        live_peak = std::max(live_peak, world.sim.queue().size());
    }

    ASSERT_EQ(client.connectedFlows(), flows);
    EXPECT_GT(client.roundTrips(), 10 * flows);
    double per_flow = static_cast<double>(live_peak) / flows;
    EXPECT_LE(per_flow, 5.0) << "peak live events " << live_peak;
    EXPECT_LT(world.sim.queue().callbackPoolAllocated(), 1000u);
}

} // namespace
} // namespace f4t
