/**
 * @file
 * Discrete-event simulation queue.
 *
 * The queue orders Event objects by (tick, priority, insertion
 * sequence) — the order of a single global priority queue, bit for
 * bit, which is what keeps every simulated result deterministic.
 *
 * Events are intrusive: each Event carries its own key and its
 * position in the queue, so deschedule() removes it in place and a
 * container never holds anything but live events. A scheduled event
 * sits in exactly one of three places:
 *
 *  - the solo register, when it is the only pending event. A region
 *    driven by one self-rescheduling clock — the steady state of every
 *    saturated-pipeline scenario — then schedules and pops without
 *    touching either container;
 *  - a near-future "ladder" of 64-tick granule buckets covering the
 *    next ladderSpan ticks, with an occupancy bitmap (the whole index
 *    stays L1-resident). Each bucket is a sorted chain linked through
 *    the events' prev_/next_ pointers, with a tail pointer so the
 *    dominant in-order insertion appends in O(1) and any event
 *    unlinks in O(1). Clock ticks, link serialization slots and
 *    DRAM/PCIe completions live here;
 *  - a far-future binary heap of {key, event} entries, each event
 *    remembering its slot so it can be sifted out in O(log n).
 *    Retransmission timers and other long horizons live here. When
 *    the ladder drains, its window is rebased onto the earliest heap
 *    entry and every heap entry inside the new window moves over in
 *    one batch.
 *
 * One-shot callbacks (scheduleCallback) draw their event objects from
 * a free-list pool, and the callable lives in small-buffer-optimized
 * storage inside the pooled event, so the simulator's hottest path —
 * packet delivery and completion callbacks — never touches the
 * allocator in steady state.
 *
 * Lifetime rule: ~Event deschedules the event, so an Event may be
 * destroyed at any time, even from inside its own process(). The
 * queue detaches every event still pending when it is destroyed, so
 * events may also outlive their queue.
 */

#ifndef F4T_SIM_EVENT_QUEUE_HH
#define F4T_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/profile_scope.hh"
#include "sim/small_function.hh"
#include "sim/types.hh"

namespace f4t::sim
{

class EventQueue;

/**
 * Dispatch tag for the hot-path tagged-union representation: the two
 * event shapes that dominate every run — pooled one-shot callbacks and
 * ClockedObject ticks — carry a kind byte so the queue can dispatch
 * them with a switch and a direct (inlinable) call instead of a
 * virtual process(). Everything else stays `generic` and takes the
 * virtual path; cold/rare event types never need to opt in.
 */
enum class EventKind : std::uint8_t
{
    generic,  ///< dispatch through virtual process()
    callback, ///< EventQueue::CallbackEvent — invoke the SmallFunction
    tick,     ///< ClockedObject::TickEvent — run the tick/re-arm logic
};

/** The queue's total order: tick, then priority, then sequence. */
struct EventKey
{
    Tick when;
    int priority;
    std::uint64_t seq;

    bool
    operator<(const EventKey &o) const
    {
        if (when != o.when)
            return when < o.when;
        if (priority != o.priority)
            return priority < o.priority;
        return seq < o.seq;
    }
};

/**
 * Base class for all schedulable events. Subclasses implement process().
 * An Event may be scheduled on at most one queue at a time.
 */
class Event
{
  public:
    /** Lower value runs first among events at the same tick. */
    enum Priority : int
    {
        clockPriority = 0,     ///< per-cycle module ticks
        defaultPriority = 50,  ///< ordinary events
        statsPriority = 90,    ///< end-of-interval bookkeeping
    };

    explicit Event(int priority = defaultPriority) : key_{0, priority, 0} {}
    virtual ~Event();

  protected:
    /** For the known hot subclasses: tag the event for switch dispatch
     *  (see EventKind). The tag must match the dynamic type — fire()
     *  static_casts on it. */
    Event(int priority, EventKind kind) : key_{0, priority, 0}, kind_(kind)
    {}

  public:

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when the event fires. */
    virtual void process() = 0;

    /** Human-readable description for debugging. */
    virtual std::string description() const { return "generic event"; }

    /**
     * Cheap tag for wall-clock cost attribution (profile builds): a
     * stable C string the profiler buckets into a prof::Cat, or
     * nullptr for Cat::otherEvent. Unlike description(), this must not
     * allocate — it is consulted on every event fire when profiling is
     * runtime-enabled. The returned pointer only needs to stay valid
     * for the duration of the fire (it is looked up, not retained).
     */
    virtual const char *profileTag() const { return nullptr; }

    bool scheduled() const { return queue_ != nullptr; }
    Tick when() const { return key_.when; }
    int priority() const { return key_.priority; }

  private:
    friend class EventQueue;

    /** heapSlot_ of an event outside the far heap. */
    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};

    EventKey key_;
    EventKind kind_ = EventKind::generic;
    std::uint32_t heapSlot_ = noSlot; ///< far-heap index, if there
    Event *prev_ = nullptr;           ///< ladder chain, if there
    Event *next_ = nullptr;
    EventQueue *queue_ = nullptr;     ///< set exactly while scheduled
};

/**
 * The global time-ordered event queue. One instance per Simulation.
 */
class EventQueue
{
  public:
    /**
     * Width of the near-future window in ticks (one tick = 1 ps, so
     * ~33 ns). Chosen to cover several periods of the fastest clock
     * domains; longer horizons (DMA latencies, RTOs) take one batch
     * trip through the far heap. Must be a power of two.
     */
    static constexpr std::size_t ladderSpan = 32768;

    /** log2 of the bucket granule in ticks: each ladder bucket covers
     *  2^granuleShift ticks, keeping the bucket array small enough to
     *  live in L1 while the window stays ~33 ns wide. */
    static constexpr std::size_t granuleShift = 6;

    /** Number of ladder buckets (the occupancy bitmap is 8 words). */
    static constexpr std::size_t numBuckets = ladderSpan >> granuleShift;

    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p ev at absolute tick @p when (>= now). */
    void
    schedule(Event *ev, Tick when)
    {
        // Empty-queue fast path, inline: park the event in the solo
        // register. The self-rescheduling clock tick that drives every
        // saturated-pipeline run lands here each cycle. Error cases
        // (past tick, double schedule) fall through to push(), whose
        // asserts report them.
        if (liveEvents_ == 0 && ev->queue_ == nullptr && when >= now_) {
            ev->key_.when = when;
            ev->key_.seq = nextSeq_++;
            ev->queue_ = this;
            soloEvent_ = ev;
            liveEvents_ = 1;
            return;
        }
        push(ev, when);
    }

    /** Remove a scheduled event in place; no-op if it is not scheduled. */
    void deschedule(Event *ev);

    /** Deschedule if needed and schedule at the new time. */
    void reschedule(Event *ev, Tick when);

    /**
     * Schedule a one-shot callback on a pooled event. @p what is a
     * call-site tag used by debug logging and assertion messages; it
     * must point to storage that outlives the callback (string
     * literals by convention).
     */
    void scheduleCallback(Tick when, const char *what, SmallFunction fn,
                          int priority = Event::defaultPriority);

    /** Untagged convenience overload (tests, ad-hoc callbacks). */
    void
    scheduleCallback(Tick when, SmallFunction fn,
                     int priority = Event::defaultPriority)
    {
        scheduleCallback(when, "callback", std::move(fn), priority);
    }

    /** True when no events are pending. */
    bool empty() const { return liveEvents_ == 0; }

    /**
     * The next pending event's tick, exactly; maxTick when none is
     * pending. O(1), no container mutation: the parallel executor
     * polls every partition's queue at each window barrier.
     */
    Tick
    nextEventLowerBound() const
    {
        if (soloEvent_ != nullptr)
            return soloEvent_->key_.when;
        Tick bound = maxTick;
        if (ladderNodes_ != 0)
            bound = buckets_[findBucketFrom(cursor_)]->key_.when;
        if (!heap_.empty() && heap_.front().key.when < bound)
            bound = heap_.front().key.when;
        return bound;
    }

    /** Number of pending events. */
    std::size_t size() const { return liveEvents_; }

    /**
     * Run events until the queue drains or simulated time would pass
     * @p limit. Events scheduled exactly at @p limit still run.
     * @return the tick at which the run stopped.
     */
    Tick
    run(Tick limit = maxTick)
    {
        // Root profiling scope: queue bookkeeping (ladder scans, heap
        // ops, pops) accrues here as self time once per-event scopes
        // subtract themselves out; its elapsed total is the wall time
        // the per-category attribution must sum to.
        prof::Scope profile_root(prof::Cat::eventQueue);
        while (runOne(limit)) {
        }
        if (now_ < limit && limit != maxTick)
            now_ = limit;
        return now_;
    }

    /** Run exactly one event if any is pending within @p limit. */
    bool
    runOne(Tick limit = maxTick)
    {
        // Solo fast path, inline (see schedule()); container pops take
        // the out-of-line slow path.
        if (Event *ev = soloEvent_; ev != nullptr) {
            if (ev->key_.when > limit)
                return false;
            soloEvent_ = nullptr;
            fire(ev);
            return true;
        }
        return runOneSlow(limit);
    }

    /** Total number of events processed since construction. */
    std::uint64_t eventsProcessed() const { return processed_; }

    // --- introspection (tests, perf harnesses) --------------------------

    /** Callback events ever constructed (pool high-water mark). */
    std::size_t callbackPoolAllocated() const { return callbackArena_.size(); }
    /** Callback events currently parked on the free list. */
    std::size_t callbackPoolFree() const { return freeCallbackCount_; }
    /** Always 0: removal is eager. Kept for the benchmark harness,
     *  which still reports it as sim.eq.squashed_peak. */
    std::size_t squashedEntries() const { return 0; }

  private:
    /** Far-heap entry: the key, copied for cache-friendly sifts. */
    struct HeapEntry
    {
        EventKey key;
        Event *event;
    };

    /** Pooled one-shot callback event (see scheduleCallback). */
    class CallbackEvent : public Event
    {
      public:
        CallbackEvent() : Event(defaultPriority, EventKind::callback) {}
        void process() override { fn_(); }
        std::string description() const override { return what_; }
        const char *profileTag() const override { return what_; }

      private:
        friend class EventQueue;
        SmallFunction fn_;
        const char *what_ = "callback";
        CallbackEvent *nextFree_ = nullptr;
    };

    bool inWindow(Tick when) const
    {
        return when - ladderBase_ < ladderSpan;
    }

    std::size_t
    bucketOf(Tick when) const
    {
        return static_cast<std::size_t>(when - ladderBase_) >> granuleShift;
    }

    void push(Event *ev, Tick when);
    /** File @p ev into the ladder or the far heap. */
    void place(Event *ev);
    /** runOne() when the solo register is empty. */
    bool runOneSlow(Tick limit);
    void insertLadder(Event *ev);
    void unlinkLadder(Event *ev);
    /** Fire tail: pop bookkeeping + dispatch + recycle. */
    void fire(Event *ev);
    /** Invoke the event body: switch on the EventKind tag. */
    void dispatch(Event *ev);

    CallbackEvent *acquireCallback();
    void recycleCallback(CallbackEvent *ev);

    void setBit(std::size_t idx);
    void clearBit(std::size_t idx);
    /** First non-empty bucket at or after @p from; numBuckets if none. */
    std::size_t findBucketFrom(std::size_t from) const;

    // Far-heap primitives; every move records the entry's new slot in
    // its event.
    void heapSet(std::size_t slot, const HeapEntry &entry);
    void heapPush(Event *ev);
    void heapErase(std::size_t slot);
    void siftUp(std::size_t slot);
    void siftDown(std::size_t slot);
    /** Move every heap entry inside the new window into the ladder. */
    void rebaseLadder();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t liveEvents_ = 0;

    // Solo register: when the queue is otherwise empty, the sole
    // pending event lives here instead of in a container. Invariant:
    // while soloEvent_ is set, the ladder and the heap are empty (the
    // next push spills the occupant before inserting), so the solo
    // event is trivially the global minimum.
    Event *soloEvent_ = nullptr;

    // Ladder state. Each bucket holds a chain, sorted by key, of the
    // events inside its granule (the window is exactly one span wide,
    // so bucket indices cannot alias). The sorted order makes the head
    // the bucket minimum, and the per-bucket tail pointer makes the
    // common ascending-key insertion an O(1) append.
    Tick ladderBase_ = 0;
    std::size_t cursor_ = 0; ///< no non-empty bucket below this index
    std::size_t ladderNodes_ = 0;
    std::vector<Event *> buckets_;
    std::vector<Event *> tails_;
    std::vector<std::uint64_t> bits_;

    // Far-future binary min-heap; heap_[i].event->heapSlot_ == i.
    std::vector<HeapEntry> heap_;

    // Callback-event pool. The deque gives stable addresses; the free
    // list is threaded through the events themselves.
    std::deque<CallbackEvent> callbackArena_;
    CallbackEvent *freeCallbacks_ = nullptr;
    std::size_t freeCallbackCount_ = 0;
};

} // namespace f4t::sim

#endif // F4T_SIM_EVENT_QUEUE_HH
