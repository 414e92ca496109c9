/**
 * @file
 * Unit and property tests for the networking substrate: byte-accurate
 * header round trips, checksums, sequence arithmetic, the cuckoo hash
 * table, interval sets, byte rings, and the link model's timing and
 * fault injection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/byte_ring.hh"
#include "net/checksum.hh"
#include "net/cuckoo_hash.hh"
#include "net/four_tuple.hh"
#include "net/interval_set.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "net/seq.hh"
#include "harness.hh"
#include "sim/simulation.hh"

namespace f4t::net
{
namespace
{

// ---------------------------------------------------------------------
// sequence arithmetic
// ---------------------------------------------------------------------

TEST(SeqArith, WrapAroundComparisons)
{
    SeqNum high = 0xffff'fff0u;
    SeqNum low = 0x10u; // 0x20 ahead of high in sequence space

    EXPECT_TRUE(seqLt(high, low));
    EXPECT_TRUE(seqGt(low, high));
    EXPECT_TRUE(seqLeq(high, high));
    EXPECT_TRUE(seqGeq(low, low));
    EXPECT_EQ(seqMax(high, low), low);
    EXPECT_EQ(seqMin(high, low), high);
    EXPECT_EQ(seqDiff(low, high), 0x20);
    EXPECT_EQ(seqDiff(high, low), -0x20);
}

class SeqOrderProperty : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(SeqOrderProperty, AdditionPreservesOrdering)
{
    SeqNum base = GetParam();
    for (std::uint32_t step : {1u, 100u, 1460u, 1u << 20, 1u << 30}) {
        SeqNum next = base + step;
        EXPECT_TRUE(seqLt(base, next)) << base << " + " << step;
        EXPECT_EQ(seqDiff(next, base), static_cast<std::int32_t>(step));
    }
}

INSTANTIATE_TEST_SUITE_P(WrapPoints, SeqOrderProperty,
                         ::testing::Values(0u, 1u, 0x7fff'ffffu,
                                           0x8000'0000u, 0xffff'0000u,
                                           0xffff'ffffu));

// ---------------------------------------------------------------------
// checksum
// ---------------------------------------------------------------------

TEST(Checksum, Rfc1071ReferenceVector)
{
    // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
    std::vector<std::uint8_t> bytes{0x00, 0x01, 0xf2, 0x03,
                                    0xf4, 0xf5, 0xf6, 0xf7};
    EXPECT_EQ(internetChecksum(bytes), 0x220d);
}

TEST(Checksum, OddLengthPadsWithZero)
{
    std::vector<std::uint8_t> odd{0xab};
    ChecksumAccumulator acc;
    acc.addWord(0xab00);
    EXPECT_EQ(internetChecksum(odd), acc.finish());
}

TEST(Checksum, ValidatesToZeroWhenIncluded)
{
    std::vector<std::uint8_t> data{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc};
    std::uint16_t csum = internetChecksum(data);
    data.push_back(static_cast<std::uint8_t>(csum >> 8));
    data.push_back(static_cast<std::uint8_t>(csum));
    // Sum over data + checksum folds to 0xffff -> finish() == 0.
    EXPECT_EQ(internetChecksum(data), 0);
}

// ---------------------------------------------------------------------
// headers
// ---------------------------------------------------------------------

TEST(Headers, EthernetRoundTrip)
{
    EthernetHeader header;
    header.src = MacAddress{{1, 2, 3, 4, 5, 6}};
    header.dst = MacAddress{{7, 8, 9, 10, 11, 12}};
    header.etherType = EthernetHeader::typeArp;

    std::vector<std::uint8_t> raw;
    ByteWriter writer(raw);
    header.serialize(writer);
    ASSERT_EQ(raw.size(), EthernetHeader::wireSize);

    ByteReader reader(raw);
    EXPECT_EQ(EthernetHeader::parse(reader), header);
}

TEST(Headers, ArpRoundTrip)
{
    ArpMessage msg;
    msg.opcode = ArpMessage::opReply;
    msg.senderMac = MacAddress{{1, 2, 3, 4, 5, 6}};
    msg.senderIp = Ipv4Address::fromOctets(10, 0, 0, 1);
    msg.targetMac = MacAddress{{9, 9, 9, 9, 9, 9}};
    msg.targetIp = Ipv4Address::fromOctets(10, 0, 0, 2);

    std::vector<std::uint8_t> raw;
    ByteWriter writer(raw);
    msg.serialize(writer);
    ASSERT_EQ(raw.size(), ArpMessage::wireSize);

    ByteReader reader(raw);
    EXPECT_EQ(ArpMessage::parse(reader), msg);
}

TEST(Headers, Ipv4ChecksumSelfConsistent)
{
    Ipv4Header header;
    header.src = Ipv4Address::fromOctets(192, 168, 1, 10);
    header.dst = Ipv4Address::fromOctets(192, 168, 1, 20);
    header.totalLength = 1500;
    header.identification = 0x4242;

    std::vector<std::uint8_t> raw;
    ByteWriter writer(raw);
    header.serialize(writer);
    ASSERT_EQ(raw.size(), Ipv4Header::wireSize);

    // A serialized IPv4 header checksums to zero.
    EXPECT_EQ(internetChecksum(raw), 0);

    ByteReader reader(raw);
    Ipv4Header parsed = Ipv4Header::parse(reader);
    EXPECT_EQ(parsed.src, header.src);
    EXPECT_EQ(parsed.dst, header.dst);
    EXPECT_EQ(parsed.totalLength, header.totalLength);
    EXPECT_EQ(parsed.headerChecksum, header.computeChecksum());
}

TEST(Headers, TcpRoundTripWithMssOption)
{
    TcpHeader header;
    header.srcPort = 40000;
    header.dstPort = 80;
    header.seq = 0xdeadbeef;
    header.ack = 0xfeedface;
    header.flags = TcpFlags::syn | TcpFlags::ack;
    header.window = 512 * 1024;
    header.mssOption = 1460;

    std::vector<std::uint8_t> raw;
    ByteWriter writer(raw);
    header.serialize(writer);
    ASSERT_EQ(raw.size(), header.wireSize());
    ASSERT_EQ(header.wireSize(), 24u);

    ByteReader reader(raw);
    TcpHeader parsed = TcpHeader::parse(reader);
    EXPECT_EQ(parsed.srcPort, header.srcPort);
    EXPECT_EQ(parsed.seq, header.seq);
    EXPECT_EQ(parsed.ack, header.ack);
    EXPECT_EQ(parsed.flags, header.flags);
    EXPECT_EQ(parsed.mssOption, 1460);
    // Window scaling floors to 64-byte granularity.
    EXPECT_EQ(parsed.window, 512u * 1024u);
}

TEST(Headers, WindowScalingGranularity)
{
    TcpHeader header;
    header.window = 1000; // not a multiple of 64
    std::vector<std::uint8_t> raw;
    ByteWriter writer(raw);
    header.serialize(writer);
    ByteReader reader(raw);
    TcpHeader parsed = TcpHeader::parse(reader);
    EXPECT_EQ(parsed.window, (1000u >> 6) << 6);
    EXPECT_LE(parsed.window, 1000u);
}

TEST(Packet, TcpWireRoundTripWithPayload)
{
    TcpHeader tcp;
    tcp.srcPort = 1234;
    tcp.dstPort = 5678;
    tcp.seq = 42;
    tcp.ack = 77;
    tcp.flags = TcpFlags::ack | TcpFlags::psh;
    tcp.window = 8192;

    std::vector<std::uint8_t> payload(200);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i);

    Packet pkt = Packet::makeTcp(MacAddress{{1, 1, 1, 1, 1, 1}},
                                 MacAddress{{2, 2, 2, 2, 2, 2}},
                                 Ipv4Address::fromOctets(10, 0, 0, 1),
                                 Ipv4Address::fromOctets(10, 0, 0, 2), tcp,
                                 payload);

    auto wire = pkt.serialize();
    auto parsed = Packet::parseWire(wire);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->isTcp());
    EXPECT_EQ(parsed->tcp().seq, 42u);
    EXPECT_EQ(parsed->tcp().ack, 77u);
    EXPECT_EQ(parsed->payload, payload);

    // TCP checksum validates: recompute over the parsed packet.
    std::uint16_t expect = parsed->tcp().computeChecksum(
        parsed->ip->src, parsed->ip->dst, parsed->payload);
    EXPECT_EQ(parsed->tcp().checksum, expect);
}

TEST(Packet, WireBytesMatchPaperOverheadAccounting)
{
    TcpHeader tcp;
    Packet pkt = Packet::makeTcp(MacAddress{}, MacAddress{},
                                 Ipv4Address{}, Ipv4Address{}, tcp,
                                 std::vector<std::uint8_t>(128));
    // 128 B payload + 78 B overhead (40 TCP/IP + 18 eth+FCS + 20
    // preamble/IFG): the paper's goodput arithmetic (Section 5.1).
    EXPECT_EQ(pkt.wireBytes(), 128u + 78u);
}

TEST(Packet, ShortFramesArePadded)
{
    TcpHeader tcp;
    Packet pkt = Packet::makeTcp(MacAddress{}, MacAddress{},
                                 Ipv4Address{}, Ipv4Address{}, tcp);
    EXPECT_EQ(pkt.frameBytes(), 60u);
    EXPECT_EQ(pkt.serialize().size(), 60u);
}

TEST(Packet, IcmpEchoRoundTrip)
{
    Packet pkt;
    pkt.eth.etherType = EthernetHeader::typeIpv4;
    Ipv4Header ip;
    ip.src = Ipv4Address::fromOctets(10, 0, 0, 1);
    ip.dst = Ipv4Address::fromOctets(10, 0, 0, 2);
    ip.protocol = Ipv4Header::protoIcmp;
    pkt.ip = ip;
    IcmpMessage icmp;
    icmp.type = IcmpMessage::typeEchoRequest;
    icmp.identifier = 7;
    icmp.sequence = 3;
    icmp.payload = {1, 2, 3, 4};
    pkt.l4 = icmp;

    auto wire = pkt.serialize();
    auto parsed = Packet::parseWire(wire);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_TRUE(parsed->isIcmp());
    EXPECT_EQ(parsed->icmp().identifier, 7);
    EXPECT_EQ(parsed->icmp().payload, icmp.payload);
}

TEST(Packet, MalformedBytesRejected)
{
    std::vector<std::uint8_t> junk(10, 0xff);
    EXPECT_FALSE(Packet::parseWire(junk).has_value());

    std::vector<std::uint8_t> truncated(20, 0);
    truncated[12] = 0x08; // IPv4 ethertype
    truncated[13] = 0x00;
    EXPECT_FALSE(Packet::parseWire(truncated).has_value());
}

// ---------------------------------------------------------------------
// cuckoo hash
// ---------------------------------------------------------------------

FourTuple
tupleFor(std::uint32_t i)
{
    return FourTuple{Ipv4Address{0x0a000001},
                     static_cast<std::uint16_t>(1000 + (i % 60000)),
                     Ipv4Address{0x0a000002 + i / 60000},
                     static_cast<std::uint16_t>(2000 + (i % 50000))};
}

TEST(CuckooHash, InsertFindErase)
{
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash> table(64);
    for (std::uint32_t i = 0; i < 100; ++i)
        ASSERT_TRUE(table.insert(tupleFor(i), i));
    EXPECT_EQ(table.size(), 100u);

    for (std::uint32_t i = 0; i < 100; ++i) {
        auto found = table.find(tupleFor(i));
        ASSERT_TRUE(found.has_value());
        EXPECT_EQ(*found, i);
    }

    EXPECT_TRUE(table.erase(tupleFor(50)));
    EXPECT_FALSE(table.find(tupleFor(50)).has_value());
    EXPECT_FALSE(table.erase(tupleFor(50)));
    EXPECT_EQ(table.size(), 99u);
}

TEST(CuckooHash, UpdateExistingKey)
{
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash> table(16);
    ASSERT_TRUE(table.insert(tupleFor(1), 10));
    ASSERT_TRUE(table.insert(tupleFor(1), 20));
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(*table.find(tupleFor(1)), 20u);
}

TEST(CuckooHash, HighLoadFactorViaKicks)
{
    // 2 ways x 4 slots x 64 buckets = 512 capacity; fill to ~85 %.
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash> table(64);
    std::uint32_t inserted = 0;
    for (std::uint32_t i = 0; i < 440; ++i) {
        if (table.insert(tupleFor(i), i))
            ++inserted;
    }
    EXPECT_GE(inserted, 430u);
    // Everything that reported success must be findable.
    std::uint32_t found = 0;
    for (std::uint32_t i = 0; i < 440; ++i) {
        if (table.find(tupleFor(i)).has_value())
            ++found;
    }
    EXPECT_EQ(found, inserted);
}

TEST(CuckooHash, FailedInsertLosesNothing)
{
    // Tiny table forced to overflow: residents must all survive.
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash, 1> table(2, 2);
    std::vector<std::uint32_t> resident;
    for (std::uint32_t i = 0; i < 32; ++i) {
        if (table.insert(tupleFor(i), i))
            resident.push_back(i);
    }
    EXPECT_LT(resident.size(), 32u); // some inserts must have failed
    for (std::uint32_t i : resident) {
        ASSERT_TRUE(table.find(tupleFor(i)).has_value())
            << "resident key " << i << " lost by a failed insert";
    }
    EXPECT_EQ(table.size(), resident.size());
}

TEST(CuckooHash, SupportsFullFlowScale)
{
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash> table(65536);
    for (std::uint32_t i = 0; i < 65536; ++i)
        ASSERT_TRUE(table.insert(tupleFor(i), i)) << i;
    EXPECT_EQ(table.size(), 65536u);
    EXPECT_EQ(*table.find(tupleFor(65535)), 65535u);
}

TEST(CuckooHash, ChurnAtHighLoadFactor64k)
{
    // 2 ways x 8192 buckets x 4 slots = 65536 slots (+8 stash). Fill
    // to ~90 % occupancy, then churn rotating quarters of the keys
    // through erase/re-insert. Inserting at this load factor exercises
    // the kick path constantly; the table must keep placing every key
    // (an insert that kicks from one way while the other still has a
    // free slot walks needless cuckoo chains and starts failing well
    // below nominal capacity).
    CuckooHashTable<FourTuple, std::uint32_t, FourTupleHash> table(8192);
    const std::uint32_t target = 59000;
    for (std::uint32_t i = 0; i < target; ++i) {
        ASSERT_TRUE(table.insert(tupleFor(i), i))
            << "insert " << i << " failed at occupancy " << table.size()
            << "/65536";
    }
    ASSERT_EQ(table.size(), target);

    for (std::uint32_t round = 0; round < 3; ++round) {
        for (std::uint32_t i = round; i < target; i += 4)
            ASSERT_TRUE(table.erase(tupleFor(i))) << i;
        for (std::uint32_t i = round; i < target; i += 4) {
            ASSERT_TRUE(table.insert(tupleFor(i), i + round))
                << "re-insert " << i << " failed in round " << round;
        }
        ASSERT_EQ(table.size(), target);
    }

    // Every key resolves to its last-written value. Keys with residue
    // 0..2 were rewritten in the matching round; residue 3 never moved.
    for (std::uint32_t i = 0; i < target; ++i) {
        auto found = table.find(tupleFor(i));
        ASSERT_TRUE(found.has_value()) << i;
        std::uint32_t residue = i % 4;
        EXPECT_EQ(*found, residue < 3 ? i + residue : i) << i;
    }
}

// ---------------------------------------------------------------------
// interval set
// ---------------------------------------------------------------------

TEST(IntervalSet, MergesAdjacentAndOverlapping)
{
    IntervalSet set;
    set.insert(10, 20);
    set.insert(30, 40);
    EXPECT_EQ(set.chunkCount(), 2u);

    set.insert(20, 30); // bridges the two
    EXPECT_EQ(set.chunkCount(), 1u);
    EXPECT_TRUE(set.contains(10, 40));
    EXPECT_FALSE(set.contains(9, 11));
    EXPECT_EQ(set.contiguousEnd(10), 40u);
    EXPECT_EQ(set.contiguousEnd(5), 5u);
}

TEST(IntervalSet, EraseBelowTruncates)
{
    IntervalSet set;
    set.insert(0, 100);
    set.insert(200, 300);
    set.eraseBelow(50);
    EXPECT_FALSE(set.contains(0, 10));
    EXPECT_TRUE(set.contains(50, 100));
    EXPECT_TRUE(set.contains(200, 300));
    set.eraseBelow(250);
    EXPECT_TRUE(set.contains(250, 300));
    EXPECT_FALSE(set.contains(200, 249));
}

TEST(IntervalSet, RandomizedAgainstBitmapOracle)
{
    test::ScopedRng rng(5);
    constexpr std::size_t space = 2048;
    for (int round = 0; round < 20; ++round) {
        IntervalSet set;
        std::vector<bool> oracle(space, false);
        for (int op = 0; op < 200; ++op) {
            std::uint64_t start = rng.below(space - 1);
            std::uint64_t end = start + 1 + rng.below(64);
            if (end > space)
                end = space;
            set.insert(start, end);
            for (std::uint64_t i = start; i < end; ++i)
                oracle[i] = true;
        }
        // contiguousEnd from 0 must match the oracle's first gap.
        std::uint64_t expect = 0;
        while (expect < space && oracle[expect])
            ++expect;
        EXPECT_EQ(set.contiguousEnd(0), expect);
        // Spot-check membership.
        for (int probe = 0; probe < 100; ++probe) {
            std::uint64_t p = rng.below(space);
            EXPECT_EQ(set.contains(p, p + 1), static_cast<bool>(oracle[p]));
        }
    }
}

// ---------------------------------------------------------------------
// byte ring
// ---------------------------------------------------------------------

TEST(ByteRing, AppendCopyOutRelease)
{
    ByteRing ring(16);
    std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
    EXPECT_EQ(ring.append(data), 5u);
    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.freeSpace(), 11u);

    std::vector<std::uint8_t> out(5);
    ring.copyOut(0, out);
    EXPECT_EQ(out, data);

    ring.release(3);
    EXPECT_EQ(ring.base(), 3u);
    std::vector<std::uint8_t> tail(2);
    ring.copyOut(3, tail);
    EXPECT_EQ(tail[0], 4);
    EXPECT_EQ(tail[1], 5);
}

TEST(ByteRing, WrapsAroundCapacity)
{
    ByteRing ring(8);
    std::vector<std::uint8_t> first{1, 2, 3, 4, 5, 6};
    ring.append(first);
    ring.release(6);
    std::vector<std::uint8_t> second{7, 8, 9, 10, 11};
    EXPECT_EQ(ring.append(second), 5u); // crosses the wrap point
    std::vector<std::uint8_t> out(5);
    ring.copyOut(6, out);
    EXPECT_EQ(out, second);
}

TEST(ByteRing, AppendTruncatesAtCapacity)
{
    ByteRing ring(4);
    std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6};
    EXPECT_EQ(ring.append(data), 4u);
    EXPECT_EQ(ring.freeSpace(), 0u);
    EXPECT_EQ(ring.append(data), 0u);
}

TEST(ByteRing, OutOfOrderWriteAtExtendsEnd)
{
    ByteRing ring(32);
    std::vector<std::uint8_t> chunk{9, 9, 9};
    ring.writeAt(10, chunk); // hole at [0, 10)
    EXPECT_EQ(ring.end(), 13u);
    std::vector<std::uint8_t> out(3);
    ring.copyOut(10, out);
    EXPECT_EQ(out, chunk);
}

/**
 * The flat ring ByteRing used to be: one zero-filled array of the full
 * capacity, allocated up front. Kept as the reference the chunked ring
 * must match byte for byte.
 */
class FlatRing
{
  public:
    explicit FlatRing(std::size_t capacity) : data_(capacity) {}

    std::size_t capacity() const { return data_.size(); }
    std::uint64_t base() const { return base_; }
    std::uint64_t end() const { return end_; }
    std::size_t size() const { return static_cast<std::size_t>(end_ - base_); }
    std::size_t freeSpace() const { return capacity() - size(); }

    void rebase(std::uint64_t base) { base_ = end_ = base; }

    std::size_t
    append(std::span<const std::uint8_t> bytes)
    {
        std::size_t n = std::min(bytes.size(), freeSpace());
        writeAt(end_, bytes.first(n));
        return n;
    }

    void
    writeAt(std::uint64_t offset, std::span<const std::uint8_t> bytes)
    {
        for (std::size_t i = 0; i < bytes.size(); ++i)
            data_[(offset + i) % capacity()] = bytes[i];
        end_ = std::max(end_, offset + bytes.size());
    }

    void
    copyOut(std::uint64_t offset, std::span<std::uint8_t> out) const
    {
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = data_[(offset + i) % capacity()];
    }

    void release(std::size_t n) { base_ += n; }

  private:
    std::vector<std::uint8_t> data_;
    std::uint64_t base_ = 0;
    std::uint64_t end_ = 0;
};

/**
 * A ByteRing beside its flat reference, plus a model of which ring
 * positions hold written bytes (reads must avoid receive holes) and of
 * which chunks must be backed: a chunk is backed from the first write
 * that touches it until no byte of [base, end) maps to it.
 */
struct RingPair
{
    explicit RingPair(std::size_t capacity)
        : ring(capacity), flat(capacity), written(capacity),
          backed((capacity + ByteRing::chunkBytes - 1) /
                 ByteRing::chunkBytes)
    {}

    std::size_t pos(std::uint64_t offset) const
    {
        return static_cast<std::size_t>(offset % flat.capacity());
    }

    void
    noteWrite(std::uint64_t offset, std::size_t len)
    {
        for (std::size_t i = 0; i < len; ++i) {
            written[pos(offset + i)] = true;
            backed[pos(offset + i) / ByteRing::chunkBytes] = true;
        }
    }

    void
    append(std::span<const std::uint8_t> bytes)
    {
        std::uint64_t at = flat.end();
        std::size_t n = flat.append(bytes);
        ASSERT_EQ(ring.append(bytes), n);
        noteWrite(at, n);
    }

    void
    writeAt(std::uint64_t offset, std::span<const std::uint8_t> bytes)
    {
        ring.writeAt(offset, bytes);
        flat.writeAt(offset, bytes);
        noteWrite(offset, bytes.size());
    }

    void
    release(std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            written[pos(flat.base() + i)] = false;
        ring.release(n);
        flat.release(n);
        dropUnretained();
    }

    void
    rebase(std::uint64_t base)
    {
        ring.rebase(base);
        flat.rebase(base);
        std::fill(written.begin(), written.end(), false);
        dropUnretained();
    }

    void
    dropUnretained()
    {
        std::vector<bool> retained(backed.size());
        for (std::uint64_t o = flat.base(); o < flat.end(); ++o)
            retained[pos(o) / ByteRing::chunkBytes] = true;
        for (std::size_t c = 0; c < backed.size(); ++c)
            backed[c] = backed[c] && retained[c];
    }

    std::size_t
    expectedBackedBytes() const
    {
        std::size_t bytes = 0;
        for (std::size_t c = 0; c < backed.size(); ++c) {
            if (backed[c]) {
                bytes += std::min(ByteRing::chunkBytes,
                                  flat.capacity() - c * ByteRing::chunkBytes);
            }
        }
        return bytes;
    }

    /** Read [offset, +len) from both rings; they must agree. */
    void
    expectSameBytes(std::uint64_t offset, std::size_t len)
    {
        std::vector<std::uint8_t> got(len), want(len);
        ring.copyOut(offset, got);
        flat.copyOut(offset, want);
        EXPECT_EQ(got, want) << "read [" << offset << ", +" << len << ")";
    }

    /** Compare every written run of the retained range. */
    void
    expectSameContents()
    {
        std::uint64_t o = flat.base();
        while (o < flat.end()) {
            if (!written[pos(o)]) {
                ++o;
                continue;
            }
            std::uint64_t run = o;
            while (run < flat.end() && written[pos(run)])
                ++run;
            expectSameBytes(o, static_cast<std::size_t>(run - o));
            o = run;
        }
    }

    void
    expectSameShape() const
    {
        EXPECT_EQ(ring.capacity(), flat.capacity());
        EXPECT_EQ(ring.base(), flat.base());
        EXPECT_EQ(ring.end(), flat.end());
        EXPECT_EQ(ring.size(), flat.size());
        EXPECT_EQ(ring.freeSpace(), flat.freeSpace());
        EXPECT_EQ(ring.backedBytes(), expectedBackedBytes());
    }

    ByteRing ring;
    FlatRing flat;
    std::vector<bool> written;
    std::vector<bool> backed;
};

std::vector<std::uint8_t>
randomBytes(sim::Random &rng, std::size_t len)
{
    std::vector<std::uint8_t> bytes(len);
    for (std::uint8_t &b : bytes)
        b = static_cast<std::uint8_t>(rng.next());
    return bytes;
}

TEST(ByteRing, RandomizedAgainstFlatReference)
{
    for (std::size_t capacity : {4, 8, 10, 16, 2500, 8192}) {
        SCOPED_TRACE(testing::Message() << "capacity " << capacity);
        sim::Random rng(0xb17e5 + capacity);
        RingPair rings(capacity);
        // Occasionally long writes so the bigger rings fill and wrap.
        auto length = [&](std::size_t limit) {
            std::size_t cap = rng.chance(0.2) ? limit
                                              : std::min<std::size_t>(
                                                    limit, 300);
            return static_cast<std::size_t>(rng.between(0, cap));
        };
        for (int step = 0; step < 3000; ++step) {
            std::uint64_t op = rng.below(100);
            if (op < 35) {
                rings.append(randomBytes(rng, length(capacity + 2)));
            } else if (op < 55) {
                std::uint64_t offset =
                    rings.flat.base() + rng.below(capacity);
                std::size_t room = static_cast<std::size_t>(
                    rings.flat.base() + capacity - offset);
                rings.writeAt(offset, randomBytes(rng, length(room)));
            } else if (op < 80) {
                rings.release(static_cast<std::size_t>(
                    rng.between(0, rings.flat.size())));
            } else if (op < 82) {
                rings.rebase(rings.flat.end() + rng.below(3 * capacity));
            } else if (rings.flat.size() > 0) {
                std::uint64_t start =
                    rings.flat.base() + rng.below(rings.flat.size());
                std::uint64_t stop = start;
                std::uint64_t limit = start + length(capacity);
                while (stop < rings.flat.end() && stop < limit &&
                       rings.written[rings.pos(stop)])
                    ++stop;
                rings.expectSameBytes(start,
                                      static_cast<std::size_t>(stop - start));
            }
            rings.expectSameShape();
            if (step % 50 == 0)
                rings.expectSameContents();
            if (testing::Test::HasFailure())
                return;
        }
        rings.release(rings.flat.size());
        EXPECT_EQ(rings.ring.backedBytes(), 0u);
    }
}

TEST(ByteRing, WrappedOldestAndNewestShareAChunk)
{
    constexpr std::size_t chunk = ByteRing::chunkBytes;
    sim::Random rng(7);
    RingPair rings(8 * chunk);
    rings.append(randomBytes(rng, 8 * chunk)); // full: every chunk backed
    rings.release(100);
    rings.append(randomBytes(rng, 50)); // wraps into chunk 0 again
    // Chunk 0 now holds both the oldest retained bytes [100, 1024) and
    // the newest [0, 50). Release up to chunk 7: chunk 0 must survive
    // for the newest bytes, chunk 7 for the new base, 1-6 must go.
    rings.release(8 * chunk - 100 - 92);
    EXPECT_EQ(rings.ring.backedBytes(), 2 * chunk);
    rings.expectSameShape();
    rings.expectSameContents();
    // Past the wrap only chunk 0 remains.
    rings.release(92);
    EXPECT_EQ(rings.ring.backedBytes(), chunk);
    rings.expectSameContents();
}

TEST(ByteRing, ReleaseToEmptyReturnsEveryChunk)
{
    PayloadBufferPool &pool = PayloadBufferPool::instance();
    std::size_t outstanding = pool.outstanding();
    sim::Random rng(11);
    ByteRing ring(8192, 5);
    std::vector<std::uint8_t> bytes = randomBytes(rng, 3000);
    ring.append(bytes);
    ring.writeAt(ring.end() + 2000, bytes); // a hole, then more data
    EXPECT_EQ(ring.backedBytes(), 7 * ByteRing::chunkBytes);
    EXPECT_EQ(pool.outstanding(), outstanding + 7);
    ring.release(ring.size());
    EXPECT_EQ(ring.backedBytes(), 0u);
    EXPECT_EQ(pool.outstanding(), outstanding);

    // Rebase likewise returns everything, and an idle ring holds none.
    ring.append(bytes);
    ring.rebase(0);
    EXPECT_EQ(ring.backedBytes(), 0u);
    EXPECT_EQ(pool.outstanding(), outstanding);
}

TEST(ByteRingDeathTest, ReadingAReceiveHoleAsserts)
{
    ByteRing ring(8192);
    std::vector<std::uint8_t> bytes{9, 9, 9};
    ring.writeAt(100, bytes);  // chunk 0 written up to 103
    ring.writeAt(4000, bytes); // [103, 4000) is a hole
    std::vector<std::uint8_t> out(3);
    ring.copyOut(100, out);
    EXPECT_EQ(out, bytes);
    // A chunk no write reached, and the unwritten tail of one that a
    // write did reach.
    EXPECT_DEATH(ring.copyOut(2000, out), "past the written part");
    EXPECT_DEATH(ring.copyOut(500, out), "past the written part");
}

// ---------------------------------------------------------------------
// link model
// ---------------------------------------------------------------------

struct CollectingSink : PacketSink
{
    std::vector<Packet> packets;
    std::vector<sim::Tick> arrivals;
    sim::Simulation *sim = nullptr;

    void
    receivePacket(Packet &&pkt) override
    {
        packets.push_back(std::move(pkt));
        if (sim)
            arrivals.push_back(sim->now());
    }
};

Packet
dataPacket(std::size_t payload_bytes)
{
    TcpHeader tcp;
    return Packet::makeTcp(MacAddress{}, MacAddress{}, Ipv4Address{},
                           Ipv4Address{},
                           tcp, std::vector<std::uint8_t>(payload_bytes));
}

/** Caller-located tick comparison with a small tolerance. */
void
expectTickNear(sim::Tick actual, sim::Tick expected, test::SourceLoc loc)
{
    sim::Tick delta =
        actual > expected ? actual - expected : expected - actual;
    if (delta > 10) {
        ADD_FAILURE_AT(loc.file, loc.line)
            << "tick " << actual << " not within 10 of " << expected;
    }
}

TEST(LinkModel, SerializationTimeMatchesBandwidth)
{
    sim::Simulation sim;
    Link link(sim, "link", 100e9, sim::nanosecondsToTicks(500));
    CollectingSink a, b;
    b.sim = &sim;
    link.connect(a, b);

    // 1460 B payload -> 1538 wire bytes -> 123.04 ns at 100 Gbps,
    // plus 500 ns propagation.
    link.aToB().send(dataPacket(1460));
    sim.run();

    ASSERT_EQ(b.packets.size(), 1u);
    sim::Tick expect = sim::secondsToTicks(1538.0 * 8 / 100e9) +
                       sim::nanosecondsToTicks(500);
    expectTickNear(b.arrivals[0], expect, F4T_TEST_HERE);
}

/** Restore the process-wide batching switch on scope exit. */
struct BatchingMode
{
    explicit BatchingMode(bool enabled)
        : saved_(datapathBatchingEnabled())
    {
        setDatapathBatching(enabled);
    }
    ~BatchingMode() { setDatapathBatching(saved_); }
    bool saved_;
};

TEST(LinkModel, BackToBackPacketsQueueBehindEachOther)
{
    // Per-packet reference mode: every delivery is its own host event
    // at the modeled arrival tick, so the sink observes serialization
    // spacing directly.
    BatchingMode reference(false);
    sim::Simulation sim;
    Link link(sim, "link", 100e9, 0);
    CollectingSink a, b;
    b.sim = &sim;
    link.connect(a, b);

    for (int i = 0; i < 10; ++i)
        link.aToB().send(dataPacket(1460));
    sim.run();

    ASSERT_EQ(b.packets.size(), 10u);
    sim::Tick per_packet = sim::secondsToTicks(1538.0 * 8 / 100e9);
    for (std::size_t i = 1; i < b.arrivals.size(); ++i) {
        expectTickNear(b.arrivals[i] - b.arrivals[i - 1], per_packet,
                       F4T_TEST_HERE);
    }
}

TEST(LinkModel, BatchedDeliveryIsCausalOrderedAndBounded)
{
    // Batched mode: a wire train reaches the sink in fewer host
    // events, but every packet is delivered in order, never before its
    // modeled arrival, and never more than the burst-hold window after
    // it.
    BatchingMode batched(true);
    sim::Simulation sim;
    Link link(sim, "link", 100e9, 0);
    CollectingSink a, b;
    b.sim = &sim;
    link.connect(a, b);

    std::vector<sim::Tick> modeled;
    for (int i = 0; i < 10; ++i)
        modeled.push_back(link.aToB().send(dataPacket(1460)));
    sim.run();

    ASSERT_EQ(b.packets.size(), 10u);
    for (std::size_t i = 0; i < modeled.size(); ++i) {
        EXPECT_GE(b.arrivals[i], modeled[i]);
        EXPECT_LE(b.arrivals[i],
                  modeled[i] + LinkDirection::maxBurstHold);
        if (i > 0) {
            EXPECT_GE(b.arrivals[i], b.arrivals[i - 1]);
        }
    }
    // A 123 ns-spaced train must not cost one event per packet.
    EXPECT_LT(sim.queue().eventsProcessed(), 10u);
}

TEST(LinkModel, FullDuplexDirectionsAreIndependent)
{
    sim::Simulation sim;
    Link link(sim, "link", 100e9, 0);
    CollectingSink a, b;
    a.sim = &sim;
    b.sim = &sim;
    link.connect(a, b);

    link.aToB().send(dataPacket(1460));
    link.bToA().send(dataPacket(1460));
    sim.run();

    ASSERT_EQ(a.packets.size(), 1u);
    ASSERT_EQ(b.packets.size(), 1u);
    // Identical timing: neither direction queued behind the other.
    EXPECT_EQ(a.arrivals[0], b.arrivals[0]);
}

TEST(LinkModel, DropProbabilityRoughlyHolds)
{
    sim::Simulation sim;
    FaultModel faults;
    faults.dropProbability = 0.1;
    faults.seed = 3;
    Link link(sim, "link", 100e9, 0, faults);
    CollectingSink a, b;
    link.connect(a, b);

    constexpr int n = 5000;
    for (int i = 0; i < n; ++i)
        link.aToB().send(dataPacket(100));
    sim.run();

    double delivered = static_cast<double>(b.packets.size());
    EXPECT_NEAR(delivered / n, 0.9, 0.02);
    EXPECT_EQ(link.aToB().packetsDropped() + b.packets.size(),
              static_cast<std::uint64_t>(n));
}

TEST(LinkModel, DuplicationDeliversExtraCopies)
{
    sim::Simulation sim;
    FaultModel faults;
    faults.duplicateProbability = 0.2;
    faults.seed = 11;
    Link link(sim, "link", 100e9, 0, faults);
    CollectingSink a, b;
    link.connect(a, b);

    constexpr int n = 2000;
    for (int i = 0; i < n; ++i)
        link.aToB().send(dataPacket(64));
    sim.run();

    EXPECT_GT(b.packets.size(), static_cast<std::size_t>(n * 1.15));
    EXPECT_LT(b.packets.size(), static_cast<std::size_t>(n * 1.25));
}

} // namespace
} // namespace f4t::net
