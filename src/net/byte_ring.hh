/**
 * @file
 * A fixed-capacity ring buffer addressed by absolute stream offset.
 *
 * Models the TCP data buffers allocated in hugepages (Section 4.1.1):
 * the transmit ring keeps unacknowledged bytes addressable by sequence
 * offset for (re)transmission; the receive ring accepts out-of-order
 * writes at their sequence offset, exactly like the RX parser's DMA.
 *
 * Storage is lazily backed. The ring's positions [0, capacity) are cut
 * into chunks of chunkBytes; a chunk borrows a buffer from the
 * per-thread PayloadBufferPool on the first write that touches it and
 * hands it back as soon as no retained byte [base, end) maps to it. An
 * empty ring owns no storage, so a flow with nothing in flight costs
 * one pointer per chunk slot however large its window is.
 *
 * A backed chunk's buffer grows to its highest written byte, so a write
 * touches only the bytes it writes (a gap it skips reads as zero, as in
 * a zero-filled array); zero-filling whole chunks on every reuse costs
 * a cache miss per line on the echo path. Receive holes are never
 * read: readers stay below the in-order boundary, and a read of a
 * chunk, or of a chunk's tail, that no write reached is an error.
 */

#ifndef F4T_NET_BYTE_RING_HH
#define F4T_NET_BYTE_RING_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "net/payload_buffer.hh"
#include "sim/logging.hh"

namespace f4t::net
{

class ByteRing
{
  public:
    /**
     * Bytes per storage chunk. Small enough that a flow with one short
     * message in flight holds one chunk per ring, large enough that an
     * MSS-sized copy spans at most three. Rings smaller than a chunk
     * use a single chunk of their own capacity.
     */
    static constexpr std::size_t chunkBytes = 1024;

    explicit ByteRing(std::size_t capacity, std::uint64_t base = 0)
        : chunks_((capacity + chunkBytes - 1) / chunkBytes),
          capacity_(capacity), base_(base), end_(base)
    {
        f4t_assert(capacity > 0, "byte ring needs nonzero capacity");
    }

    std::size_t capacity() const { return capacity_; }

    /** Absolute offset of the first retained byte. */
    std::uint64_t base() const { return base_; }

    /** Absolute offset one past the last appended byte. */
    std::uint64_t end() const { return end_; }

    /** Bytes currently retained. */
    std::size_t size() const { return static_cast<std::size_t>(end_ - base_); }

    /** Bytes that can still be appended. */
    std::size_t freeSpace() const { return capacity() - size(); }

    /** Bytes of pooled storage the ring holds right now. */
    std::size_t backedBytes() const { return backedBytes_; }

    /** Reset to an empty ring starting at @p base. */
    void
    rebase(std::uint64_t base)
    {
        base_ = base;
        end_ = base;
        dropAll();
    }

    /** Append up to freeSpace() bytes; returns the count accepted. */
    std::size_t
    append(std::span<const std::uint8_t> bytes)
    {
        std::size_t n = bytes.size() < freeSpace() ? bytes.size()
                                                   : freeSpace();
        copyIn(end_, bytes.first(n));
        end_ += n;
        return n;
    }

    /**
     * Random-offset write within [base, base + capacity), extending
     * end() as needed — the receive-side out-of-order DMA path. The
     * caller guarantees the range fits the window (asserted).
     */
    void
    writeAt(std::uint64_t offset, std::span<const std::uint8_t> bytes)
    {
        f4t_assert(offset >= base_,
                   "ring write below base (%llu < %llu)",
                   static_cast<unsigned long long>(offset),
                   static_cast<unsigned long long>(base_));
        f4t_assert(offset + bytes.size() <= base_ + capacity(),
                   "ring write past capacity");
        copyIn(offset, bytes);
        if (offset + bytes.size() > end_)
            end_ = offset + bytes.size();
    }

    /** Copy out [offset, offset + out.size()); must be retained. */
    void
    copyOut(std::uint64_t offset, std::span<std::uint8_t> out) const
    {
        f4t_assert(offset >= base_ && offset + out.size() <= end_,
                   "ring read [%llu, +%zu) outside [%llu, %llu)",
                   static_cast<unsigned long long>(offset), out.size(),
                   static_cast<unsigned long long>(base_),
                   static_cast<unsigned long long>(end_));
        forEachPiece(offset, out.size(),
                     [&](std::size_t slot, std::size_t at, std::size_t done,
                         std::size_t len) {
                         const PayloadBuffer &chunk = chunks_[slot];
                         f4t_assert(at + len <= chunk.size(),
                                    "ring read [%llu, +%zu) past the "
                                    "written part of chunk %zu (a receive "
                                    "hole)",
                                    static_cast<unsigned long long>(offset),
                                    out.size(), slot);
                         std::memcpy(out.data() + done, chunk.data() + at,
                                     len);
                     });
    }

    /** Release @p n bytes from the front (acknowledged / consumed). */
    void
    release(std::size_t n)
    {
        f4t_assert(n <= size(), "releasing %zu of %zu retained bytes", n,
                   size());
        std::uint64_t from = base_;
        base_ += n;
        if (base_ == end_) {
            dropAll();
            return;
        }
        // A released chunk survives only if a retained byte still maps
        // to it: the chunk holding the new base, or — once the ring has
        // wrapped — the chunk holding the newest byte, which can share
        // a slot with the oldest released ones.
        std::size_t keep_first = slotOf(base_);
        std::size_t keep_last = slotOf(end_ - 1);
        forEachPiece(from, n,
                     [&](std::size_t slot, std::size_t, std::size_t,
                         std::size_t) {
                         if (slot != keep_first && slot != keep_last)
                             drop(slot);
                     });
    }

  private:
    std::size_t
    slotOf(std::uint64_t offset) const
    {
        return static_cast<std::size_t>(offset % capacity_) / chunkBytes;
    }

    std::size_t
    chunkSize(std::size_t slot) const
    {
        return std::min(chunkBytes, capacity_ - slot * chunkBytes);
    }

    /**
     * Walk [offset, offset + len) as per-chunk pieces, wrapping at the
     * capacity: fn(slot, offset within the chunk, bytes walked so far,
     * piece length).
     */
    template <typename Fn>
    void
    forEachPiece(std::uint64_t offset, std::size_t len, Fn &&fn) const
    {
        std::size_t pos = static_cast<std::size_t>(offset % capacity_);
        std::size_t done = 0;
        while (done < len) {
            std::size_t slot = pos / chunkBytes;
            std::size_t at = pos - slot * chunkBytes;
            std::size_t piece = std::min(len - done, chunkSize(slot) - at);
            fn(slot, at, done, piece);
            done += piece;
            pos += piece;
            if (pos == capacity_)
                pos = 0;
        }
    }

    /** Block copy into the ring, backing each chunk it touches. */
    void
    copyIn(std::uint64_t offset, std::span<const std::uint8_t> bytes)
    {
        forEachPiece(offset, bytes.size(),
                     [&](std::size_t slot, std::size_t at, std::size_t done,
                         std::size_t len) {
                         PayloadBuffer &chunk = chunks_[slot];
                         if (chunk.empty())
                             backedBytes_ += chunkSize(slot);
                         if (chunk.size() < at + len)
                             chunk.resize(at + len);
                         std::memcpy(chunk.data() + at, bytes.data() + done,
                                     len);
                     });
    }

    /** Return one chunk's storage to the pool (no-op if unbacked). */
    void
    drop(std::size_t slot)
    {
        PayloadBuffer &chunk = chunks_[slot];
        if (chunk.empty())
            return;
        backedBytes_ -= chunkSize(slot);
        chunk = PayloadBuffer();
    }

    void
    dropAll()
    {
        for (std::size_t slot = 0; backedBytes_ > 0; ++slot)
            drop(slot);
    }

    /** One slot per chunk; an empty PayloadBuffer owns no storage. */
    std::vector<PayloadBuffer> chunks_;
    std::size_t capacity_;
    std::uint64_t base_;
    std::uint64_t end_;
    std::size_t backedBytes_ = 0;
};

} // namespace f4t::net

#endif // F4T_NET_BYTE_RING_HH
