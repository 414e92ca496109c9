/**
 * @file
 * Tests for the software reference TCP stack: connection lifecycle,
 * data transfer, flow control, loss recovery, and teardown over a
 * real simulated link.
 */

#include <gtest/gtest.h>

#include "net/link.hh"
#include "sim/simulation.hh"
#include "tcp/soft_tcp.hh"

namespace f4t::tcp
{
namespace
{

struct SoftTcpFixture : ::testing::Test
{
    sim::Simulation sim;
    std::unique_ptr<SoftTcpStack> stackA;
    std::unique_ptr<SoftTcpStack> stackB;
    std::unique_ptr<net::Link> link;

    void
    build(SoftCcAlgo cc = SoftCcAlgo::newReno,
          const net::FaultModel &faults = {})
    {
        SoftTcpConfig config_a;
        config_a.ip = net::Ipv4Address::fromOctets(10, 0, 0, 1);
        config_a.mac = net::MacAddress{{2, 0, 0, 0, 0, 1}};
        config_a.cc = cc;
        SoftTcpConfig config_b = config_a;
        config_b.ip = net::Ipv4Address::fromOctets(10, 0, 0, 2);
        config_b.mac = net::MacAddress{{2, 0, 0, 0, 0, 2}};

        stackA = std::make_unique<SoftTcpStack>(sim, "stackA", config_a);
        stackB = std::make_unique<SoftTcpStack>(sim, "stackB", config_b);
        link = std::make_unique<net::Link>(sim, "link", 100e9,
                                           sim::nanosecondsToTicks(500),
                                           faults);
        link->connect(*stackA, *stackB);
        stackA->setTransmit([this](net::Packet &&pkt) {
            link->aToB().send(std::move(pkt));
        });
        stackB->setTransmit([this](net::Packet &&pkt) {
            link->bToA().send(std::move(pkt));
        });
        stackA->addArpEntry(config_b.ip, config_b.mac);
        stackB->addArpEntry(config_a.ip, config_a.mac);
    }

    void run(double us) { sim.runFor(sim::microsecondsToTicks(us)); }
};

TEST_F(SoftTcpFixture, HandshakeEstablishesBothEnds)
{
    build();
    stackB->listen(80);

    SoftConnId accepted = invalidSoftConn;
    SoftTcpCallbacks callbacks_b;
    callbacks_b.onAccept = [&](SoftConnId id, std::uint16_t port) {
        EXPECT_EQ(port, 80);
        accepted = id;
    };
    stackB->setCallbacks(callbacks_b);

    bool connected = false;
    SoftTcpCallbacks callbacks_a;
    callbacks_a.onConnected = [&](SoftConnId) { connected = true; };
    stackA->setCallbacks(callbacks_a);

    SoftConnId conn = stackA->connect(
        net::Ipv4Address::fromOctets(10, 0, 0, 2), 80);
    run(50);

    EXPECT_TRUE(connected);
    EXPECT_NE(accepted, invalidSoftConn);
    EXPECT_EQ(stackA->state(conn), ConnState::established);
    EXPECT_EQ(stackB->state(accepted), ConnState::established);
}

TEST_F(SoftTcpFixture, SynToClosedPortGetsReset)
{
    build();
    bool reset = false;
    SoftTcpCallbacks callbacks;
    callbacks.onReset = [&](SoftConnId) { reset = true; };
    stackA->setCallbacks(callbacks);
    stackA->connect(net::Ipv4Address::fromOctets(10, 0, 0, 2), 81);
    run(50);
    EXPECT_TRUE(reset);
}

TEST_F(SoftTcpFixture, BulkBytesArriveIntactAndInOrder)
{
    build();
    stackB->listen(80);

    std::vector<std::uint8_t> received;
    SoftTcpCallbacks callbacks_b;
    callbacks_b.onReadable = [&](SoftConnId id, std::size_t) {
        std::uint8_t buf[4096];
        std::size_t n;
        while ((n = stackB->recv(id, std::span<std::uint8_t>(buf, 4096))) >
               0) {
            received.insert(received.end(), buf, buf + n);
        }
    };
    stackB->setCallbacks(callbacks_b);

    constexpr std::size_t total = 200'000;
    std::vector<std::uint8_t> payload(total);
    for (std::size_t i = 0; i < total; ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7);

    std::size_t sent = 0;
    SoftConnId conn = invalidSoftConn;
    SoftTcpCallbacks callbacks_a;
    auto pump = [&](SoftConnId id) {
        while (sent < total) {
            std::size_t n = stackA->send(
                id, std::span(payload).subspan(sent,
                                               std::min<std::size_t>(
                                                   8192, total - sent)));
            sent += n;
            if (n == 0)
                return;
        }
    };
    callbacks_a.onConnected = pump;
    callbacks_a.onWritable = pump;
    stackA->setCallbacks(callbacks_a);
    conn = stackA->connect(net::Ipv4Address::fromOctets(10, 0, 0, 2), 80);
    (void)conn;
    run(2000);

    ASSERT_EQ(received.size(), total);
    EXPECT_EQ(received, payload);
}

/**
 * Every ACK of a bulk transfer re-arms the sender's retransmission
 * timer. Each connection owns one timer event that a re-arm moves, so
 * the queue holds the timers plus the packets on the wire, however
 * many re-arms the transfer makes.
 */
TEST_F(SoftTcpFixture, RtoRearmKeepsOneQueueEntry)
{
    build();
    stackB->listen(80);

    std::size_t received = 0;
    SoftTcpCallbacks callbacks_b;
    callbacks_b.onReadable = [&](SoftConnId id, std::size_t) {
        std::uint8_t buf[4096];
        std::size_t n;
        while ((n = stackB->recv(id, std::span<std::uint8_t>(buf, 4096))) >
               0)
            received += n;
    };
    stackB->setCallbacks(callbacks_b);

    constexpr std::size_t total = 1'000'000;
    std::vector<std::uint8_t> payload(8192, 0x5a);
    std::size_t sent = 0;
    SoftTcpCallbacks callbacks_a;
    auto pump = [&](SoftConnId id) {
        while (sent < total) {
            std::size_t n = stackA->send(
                id, std::span(payload).first(
                        std::min<std::size_t>(payload.size(), total - sent)));
            sent += n;
            if (n == 0)
                return;
        }
    };
    callbacks_a.onConnected = pump;
    callbacks_a.onWritable = pump;
    stackA->setCallbacks(callbacks_a);
    stackA->connect(net::Ipv4Address::fromOctets(10, 0, 0, 2), 80);

    std::size_t live_peak = 0;
    for (int step = 0; step < 400 && received < total; ++step) {
        run(5);
        live_peak = std::max(live_peak, sim.queue().size());
    }

    ASSERT_EQ(received, total);
    EXPECT_GT(stackA->segmentsReceived(), 100u); // many ACKs, many re-arms
    constexpr std::size_t connections = 2;
    EXPECT_LE(live_peak, 16 * connections) << "peak live events";
}

TEST_F(SoftTcpFixture, RecoversFromHeavyLossExactlyOnce)
{
    net::FaultModel faults;
    faults.dropProbability = 0.05;
    faults.reorderProbability = 0.05;
    faults.duplicateProbability = 0.02;
    faults.seed = 321;
    build(SoftCcAlgo::cubic, faults);
    stackB->listen(80);

    std::vector<std::uint8_t> received;
    SoftTcpCallbacks callbacks_b;
    callbacks_b.onReadable = [&](SoftConnId id, std::size_t) {
        std::uint8_t buf[4096];
        std::size_t n;
        while ((n = stackB->recv(id, std::span<std::uint8_t>(buf, 4096))) >
               0) {
            received.insert(received.end(), buf, buf + n);
        }
    };
    stackB->setCallbacks(callbacks_b);

    constexpr std::size_t total = 60'000;
    std::vector<std::uint8_t> payload(total);
    for (std::size_t i = 0; i < total; ++i)
        payload[i] = static_cast<std::uint8_t>(i * 13 + 5);

    std::size_t sent = 0;
    SoftTcpCallbacks callbacks_a;
    auto pump = [&](SoftConnId id) {
        while (sent < total) {
            std::size_t n = stackA->send(
                id, std::span(payload).subspan(sent,
                                               std::min<std::size_t>(
                                                   4096, total - sent)));
            sent += n;
            if (n == 0)
                return;
        }
    };
    callbacks_a.onConnected = pump;
    callbacks_a.onWritable = pump;
    stackA->setCallbacks(callbacks_a);
    stackA->connect(net::Ipv4Address::fromOctets(10, 0, 0, 2), 80);
    run(100'000); // losses force RTO waits (5 ms floor)

    ASSERT_EQ(received.size(), total);
    EXPECT_EQ(received, payload);
    EXPECT_GT(stackA->retransmissions(), 0u);
}

TEST_F(SoftTcpFixture, GracefulCloseWalksTheStateMachine)
{
    build();
    stackB->listen(80);

    SoftConnId accepted = invalidSoftConn;
    bool b_peer_closed = false;
    bool b_closed = false;
    SoftTcpCallbacks callbacks_b;
    callbacks_b.onAccept = [&](SoftConnId id, std::uint16_t) {
        accepted = id;
    };
    callbacks_b.onPeerClosed = [&](SoftConnId id) {
        b_peer_closed = true;
        stackB->close(id); // close our half too
    };
    callbacks_b.onClosed = [&](SoftConnId) { b_closed = true; };
    stackB->setCallbacks(callbacks_b);

    bool a_closed = false;
    SoftConnId conn = invalidSoftConn;
    SoftTcpCallbacks callbacks_a;
    callbacks_a.onConnected = [&](SoftConnId id) { stackA->close(id); };
    callbacks_a.onClosed = [&](SoftConnId) { a_closed = true; };
    stackA->setCallbacks(callbacks_a);
    conn = stackA->connect(net::Ipv4Address::fromOctets(10, 0, 0, 2), 80);
    run(50'000); // covers TIME_WAIT (10 ms model)

    EXPECT_TRUE(b_peer_closed);
    EXPECT_TRUE(b_closed);
    EXPECT_TRUE(a_closed);
    // Both connections fully recycled.
    EXPECT_EQ(stackA->state(conn), ConnState::closed);
    EXPECT_EQ(stackB->state(accepted), ConnState::closed);
}

TEST_F(SoftTcpFixture, ZeroWindowBlocksAndRecovers)
{
    build();
    stackB->listen(80);

    // The receiver refuses to read until told: window must close.
    bool draining = false;
    std::uint64_t drained = 0;
    SoftConnId accepted = invalidSoftConn;
    SoftTcpCallbacks callbacks_b;
    callbacks_b.onAccept = [&](SoftConnId id, std::uint16_t) {
        accepted = id;
    };
    callbacks_b.onReadable = [&](SoftConnId id, std::size_t) {
        if (!draining)
            return;
        std::uint8_t buf[8192];
        std::size_t n;
        while ((n = stackB->recv(id, std::span<std::uint8_t>(buf, 8192))) >
               0) {
            drained += n;
        }
    };
    stackB->setCallbacks(callbacks_b);

    constexpr std::size_t total = 900'000; // exceeds the 512 KB window
    std::size_t sent = 0;
    std::vector<std::uint8_t> chunk(8192, 0x5a);
    SoftTcpCallbacks callbacks_a;
    auto pump = [&](SoftConnId id) {
        while (sent < total) {
            std::size_t n = stackA->send(
                id, std::span(chunk).subspan(
                        0, std::min(chunk.size(), total - sent)));
            sent += n;
            if (n == 0)
                return;
        }
    };
    callbacks_a.onConnected = pump;
    callbacks_a.onWritable = pump;
    stackA->setCallbacks(callbacks_a);
    stackA->connect(net::Ipv4Address::fromOctets(10, 0, 0, 2), 80);

    run(30'000);
    // The receive window is fully closed: the receiver buffered
    // exactly its 512 KB and nothing has been delivered to the app.
    EXPECT_EQ(drained, 0u);
    EXPECT_EQ(stackB->readable(accepted), 512u * 1024u);

    // Open the floodgates; everything must flow through.
    draining = true;
    std::uint8_t buf[8192];
    std::size_t n;
    while ((n = stackB->recv(accepted,
                             std::span<std::uint8_t>(buf, 8192))) > 0)
        drained += n;
    run(60'000);

    EXPECT_EQ(sent, total);
    EXPECT_EQ(drained, total);
}

} // namespace
} // namespace f4t::tcp
