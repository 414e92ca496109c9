/**
 * @file
 * Tests for the host and memory substrates: CPU cycle accounting,
 * PCIe bandwidth/latency, command rings, host TCP buffers, the BRAM
 * port budget, the DRAM channel, the direct-mapped TCB cache, and the
 * F4T library's fd/FlowId routing tables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/workloads.hh"
#include "f4t/library.hh"
#include "harness.hh"
#include "host/command_queue.hh"
#include "host/cpu.hh"
#include "host/host_memory.hh"
#include "host/pcie.hh"
#include "mem/bram.hh"
#include "mem/dram.hh"
#include "mem/tcb_cache.hh"
#include "sim/simulation.hh"

namespace f4t
{
namespace
{

TEST(CpuCore, ChargesAdvanceBusyHorizon)
{
    sim::Simulation sim;
    host::CpuCore core(sim, "core", 2.3e9);

    EXPECT_TRUE(core.idle());
    core.charge(tcp::CostCategory::application, 2300.0); // 1 us at 2.3 GHz
    EXPECT_FALSE(core.idle());
    EXPECT_NEAR(static_cast<double>(core.busyUntil()),
                static_cast<double>(sim::microsecondsToTicks(1)), 1000);

    // A second charge queues behind the first.
    core.charge(tcp::CostCategory::tcpStack, 2300.0);
    EXPECT_NEAR(static_cast<double>(core.busyUntil()),
                static_cast<double>(sim::microsecondsToTicks(2)), 2000);

    EXPECT_DOUBLE_EQ(core.categoryCycles(tcp::CostCategory::application),
                     2300.0);
    EXPECT_DOUBLE_EQ(core.categoryCycles(tcp::CostCategory::tcpStack),
                     2300.0);
    EXPECT_DOUBLE_EQ(core.totalBusyCycles(), 4600.0);
}

TEST(CpuCore, RunAfterChargeSequencesWork)
{
    sim::Simulation sim;
    host::CpuCore core(sim, "core", 1e9); // 1 GHz: 1 cycle = 1 ns

    std::vector<sim::Tick> stamps;
    core.runAfterCharge(tcp::CostCategory::application, 1000.0,
                        [&] { stamps.push_back(sim.now()); });
    core.runAfterCharge(tcp::CostCategory::application, 1000.0,
                        [&] { stamps.push_back(sim.now()); });
    sim.run();

    ASSERT_EQ(stamps.size(), 2u);
    EXPECT_NEAR(static_cast<double>(stamps[0]), 1000e3, 10); // 1 us
    EXPECT_NEAR(static_cast<double>(stamps[1]), 2000e3, 10); // serialized
}

TEST(Pcie, BandwidthSerializesTransfers)
{
    sim::Simulation sim;
    host::PcieConfig config;
    config.bandwidthBytesPerSec = 10e9;
    config.dmaLatency = sim::nanosecondsToTicks(500);
    config.transactionOverheadBytes = 0;
    host::PcieModel pcie(sim, "pcie", config);

    // Two 10 KB transfers: 1 us each on the wire, plus latency.
    sim::Tick first = pcie.hostToDevice(10'000);
    sim::Tick second = pcie.hostToDevice(10'000);
    EXPECT_NEAR(static_cast<double>(first),
                static_cast<double>(sim::microsecondsToTicks(1.5)), 2000);
    EXPECT_NEAR(static_cast<double>(second),
                static_cast<double>(sim::microsecondsToTicks(2.5)), 2000);

    // Directions are independent.
    sim::Tick reverse = pcie.deviceToHost(10'000);
    EXPECT_LT(reverse, second);
}

TEST(CommandQueue, RingDepthBackpressures)
{
    host::CommandQueue queue(4, 16);
    host::Command cmd;
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(queue.push(cmd));
    EXPECT_TRUE(queue.full());
    // Past the nominal depth: reported as backpressure, but the
    // elastic model still stores the entry (nothing is ever lost).
    EXPECT_FALSE(queue.push(cmd));
    auto batch = queue.popBatch(8);
    EXPECT_EQ(batch.size(), 5u);
    EXPECT_TRUE(queue.empty());
}

TEST(HostMemory, FlowBuffersLifecycle)
{
    host::HostMemory memory(1024);
    EXPECT_EQ(memory.find(5), nullptr);
    host::FlowBuffers &buffers = memory.ensure(5);
    EXPECT_EQ(buffers.tx.capacity(), 1024u);
    EXPECT_EQ(memory.flowCount(), 1u);
    EXPECT_EQ(&memory.ensure(5), &buffers);
    memory.release(5);
    EXPECT_EQ(memory.find(5), nullptr);
}

TEST(HostMemory, SparseFlowIds)
{
    host::HostMemory memory(256);
    EXPECT_EQ(memory.find(40000), nullptr);
    EXPECT_EQ(memory.find(tcp::invalidFlowId), nullptr);
    host::FlowBuffers &high = memory.ensure(40000);
    host::FlowBuffers &low = memory.ensure(2);
    EXPECT_EQ(memory.flowCount(), 2u);
    EXPECT_EQ(memory.find(40000), &high);
    EXPECT_EQ(memory.find(2), &low);
    EXPECT_EQ(memory.find(3), nullptr);
    EXPECT_EQ(memory.find(39999), nullptr);

    memory.release(40000);
    memory.release(40000); // releasing twice is harmless
    memory.release(7);     // as is releasing a flow never seen
    EXPECT_EQ(memory.flowCount(), 1u);
    EXPECT_EQ(memory.find(40000), nullptr);
    EXPECT_EQ(memory.find(2), &low);

    // A reused FlowId gets fresh buffers.
    host::FlowBuffers &again = memory.ensure(40000);
    EXPECT_EQ(again.rxWritten, 0u);
    EXPECT_EQ(memory.flowCount(), 2u);
}

/**
 * Many-flow echo over 8 KiB host rings: each flow has one 128 B message
 * in flight, so the lazily backed rings of both hosts hold at most a
 * chunk per ring, never the four 8 KiB rings a flow's capacity allows.
 */
TEST(HostMemory, EchoResidencyStaysBounded)
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

    host::HostMemory &memory_a = world.runtimeA->memory();
    host::HostMemory &memory_b = world.runtimeB->memory();
    auto backed = [&](host::HostMemory &memory) {
        std::size_t bytes = 0;
        for (tcp::FlowId flow = 0; flow < config.maxFlows; ++flow) {
            if (const host::FlowBuffers *buffers = memory.find(flow))
                bytes += buffers->tx.backedBytes() + buffers->rx.backedBytes();
        }
        return bytes;
    };
    std::size_t peak = 0;
    for (int step = 0; step < 200; ++step) {
        world.sim.runFor(sim::microsecondsToTicks(10));
        peak = std::max(peak, backed(memory_a) + backed(memory_b));
    }

    ASSERT_EQ(client.connectedFlows(), flows);
    EXPECT_EQ(memory_a.flowCount(), flows);
    EXPECT_EQ(memory_b.flowCount(), flows);
    EXPECT_GT(client.roundTrips(), 10 * flows);
    EXPECT_GT(peak, 0u);
    EXPECT_LE(peak, flows * 4 * net::ByteRing::chunkBytes)
        << "peak backed ring bytes " << peak;
}

/**
 * Drives one F4tLibrary with completions staged straight into its
 * engine's host interface, so the tests choose the FlowIds (and their
 * order) instead of the TCP engine.
 */
struct LibraryBench
{
    LibraryBench()
    {
        lib::F4tCallbacks callbacks;
        callbacks.onAccepted = [this](lib::SockFd fd, std::uint16_t) {
            accepted.push_back(fd);
        };
        callbacks.onReadable = [this](lib::SockFd fd, std::size_t n) {
            readable.push_back({fd, n});
        };
        callbacks.onClosed = [this](lib::SockFd fd) {
            closed.push_back(fd);
        };
        library.setCallbacks(callbacks);
    }

    void
    complete(host::CmdOp op, tcp::FlowId flow, std::uint32_t arg0 = 0)
    {
        host::Command cmd;
        cmd.op = op;
        cmd.flow = flow;
        cmd.arg0 = arg0;
        cmd.arg1 = 80;
        world.engineA->hostInterface().setFlowQueue(flow, 0);
        world.engineA->hostInterface().postCompletion(flow, cmd);
        test::runFor(world.sim, 20);
    }

    test::EnginePairWorld world;
    lib::F4tLibrary library{*world.runtimeA, 0, world.cpuA->core(0)};
    std::vector<lib::SockFd> accepted;
    std::vector<std::pair<lib::SockFd, std::size_t>> readable;
    std::vector<lib::SockFd> closed;
};

TEST(F4tLibrary, IgnoresLateCompletionForClosedFd)
{
    LibraryBench b;
    b.complete(host::CmdOp::accepted, 9);
    ASSERT_EQ(b.accepted.size(), 1u);
    lib::SockFd fd = b.accepted[0];
    EXPECT_TRUE(b.library.established(fd));

    b.complete(host::CmdOp::received, 9, 100);
    ASSERT_EQ(b.readable.size(), 1u);
    EXPECT_EQ(b.readable[0].first, fd);
    EXPECT_EQ(b.readable[0].second, 100u);

    b.complete(host::CmdOp::closed, 9);
    ASSERT_EQ(b.closed.size(), 1u);
    EXPECT_EQ(b.closed[0], fd);
    EXPECT_FALSE(b.library.established(fd));
    EXPECT_EQ(b.world.runtimeA->memory().find(9), nullptr);

    // Late completions for the closed socket's flow go nowhere.
    b.complete(host::CmdOp::received, 9, 300);
    b.complete(host::CmdOp::acked, 9, 50);
    b.complete(host::CmdOp::closed, 9);
    EXPECT_EQ(b.readable.size(), 1u);
    EXPECT_EQ(b.closed.size(), 1u);
    // So do completions for a FlowId the library never saw.
    b.complete(host::CmdOp::received, 31000, 8);
    EXPECT_EQ(b.readable.size(), 1u);
    EXPECT_FALSE(b.library.established(31000));
}

TEST(F4tLibrary, ReusedFlowIdRoutesToNewFd)
{
    LibraryBench b;
    b.complete(host::CmdOp::accepted, 4000);
    b.complete(host::CmdOp::accepted, 5);
    ASSERT_EQ(b.accepted.size(), 2u);
    lib::SockFd old_fd = b.accepted[0];
    lib::SockFd other_fd = b.accepted[1];
    b.complete(host::CmdOp::closed, 4000);

    // The engine recycles FlowId 4000 for a new connection.
    b.complete(host::CmdOp::accepted, 4000);
    ASSERT_EQ(b.accepted.size(), 3u);
    lib::SockFd new_fd = b.accepted[2];
    EXPECT_NE(new_fd, old_fd); // fds are never reused
    EXPECT_FALSE(b.library.established(old_fd));
    EXPECT_TRUE(b.library.established(new_fd));

    b.complete(host::CmdOp::received, 4000, 64);
    b.complete(host::CmdOp::received, 5, 32);
    ASSERT_EQ(b.readable.size(), 2u);
    EXPECT_EQ(b.readable[0], std::make_pair(new_fd, std::size_t{64}));
    EXPECT_EQ(b.readable[1], std::make_pair(other_fd, std::size_t{32}));
    EXPECT_EQ(b.world.runtimeA->memory().flowCount(), 2u);
}

TEST(Bram, PortBudgetEnforced)
{
    mem::DualPortBram<int> bram(8);
    bram.newCycle(0);
    bram.write(0, 1);
    bram.read(0);
    EXPECT_DEATH(bram.read(1), "port overcommit");
}

TEST(Bram, NewCycleResetsBudget)
{
    mem::DualPortBram<int> bram(8);
    bram.newCycle(0);
    bram.write(3, 42);
    bram.read(3);
    bram.newCycle(1);
    EXPECT_EQ(bram.read(3), 42);
    bram.write(3, 43);
    EXPECT_EQ(bram.peek(3), 43);
}

TEST(Dram, BandwidthAndFloorGovernServiceTime)
{
    sim::Simulation sim;
    mem::DramConfig config = mem::DramConfig::ddr4();
    mem::DramModel dram(sim, "dram", config);

    // A TCB-sized transfer is floor-bound (30 ns >> 128 B / 38 GB/s).
    sim::Tick first = dram.accessTime(128);
    sim::Tick second = dram.accessTime(128);
    EXPECT_EQ(second - first, config.minServicePerRequest);

    // A large transfer is bandwidth-bound.
    sim::Tick big_start = dram.accessTime(0);
    sim::Tick big_end = dram.accessTime(1 << 20);
    double seconds = sim::ticksToSeconds(big_end - big_start);
    EXPECT_NEAR(seconds, (1 << 20) / 38e9, 5e-7);
}

TEST(Dram, HbmFloorsAreTighter)
{
    EXPECT_LT(mem::DramConfig::hbm().minServicePerRequest,
              mem::DramConfig::ddr4().minServicePerRequest);
    EXPECT_GT(mem::DramConfig::hbm().bandwidthBytesPerSec,
              mem::DramConfig::ddr4().bandwidthBytesPerSec);
}

TEST(TcbCache, DirectMappedConflictEvictsDirtyVictim)
{
    mem::DirectMappedCache<int> cache(4);
    EXPECT_FALSE(cache.insert(1, 100, true).has_value());
    EXPECT_TRUE(cache.contains(1));

    // 5 maps to the same line as 1 (mod 4): dirty victim pops out.
    auto victim = cache.insert(5, 500, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->flowId, 1u);
    EXPECT_EQ(victim->entry, 100);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(5));

    // Clean victims are dropped silently.
    EXPECT_FALSE(cache.insert(9, 900, true).has_value());
}

TEST(TcbCache, InvalidateReturnsContentAndDirtiness)
{
    mem::DirectMappedCache<int> cache(4);
    cache.insert(2, 20, false);
    cache.markDirty(2);
    auto out = cache.invalidate(2);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->first, 20);
    EXPECT_TRUE(out->second);
    EXPECT_FALSE(cache.invalidate(2).has_value());
}

} // namespace
} // namespace f4t
