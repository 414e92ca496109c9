#include "event_queue.hh"

#include "sim/flight_recorder.hh"
#include "sim/simulation.hh" // ClockedObject::TickEvent (tagged dispatch)

#include <bit>

namespace f4t::sim
{

namespace
{

/** Occupancy bitmap geometry: one bit per granule bucket. */
constexpr std::size_t bitsWords = EventQueue::numBuckets / 64;
static_assert(EventQueue::numBuckets % 64 == 0,
              "ladder buckets must fill whole bitmap words");

/** Profiling category for a firing event, via its cheap tag. */
prof::Cat
eventCategory(const Event *ev)
{
    const char *tag = ev->profileTag();
    return tag != nullptr ? prof::categorizeTagCached(tag)
                          : prof::Cat::otherEvent;
}

} // namespace

Event::~Event()
{
    // Removal is eager, so nothing in the queue names this event once
    // it is descheduled. An unscheduled event never touches the queue,
    // which may legitimately have been destroyed first.
    if (queue_ != nullptr)
        queue_->deschedule(this);
}

EventQueue::EventQueue()
    : buckets_(numBuckets, nullptr), tails_(numBuckets, nullptr),
      bits_(bitsWords, 0)
{
    // 512 buckets × 8 B plus an 8-word bitmap: the entire ladder
    // index fits in a few cache lines, so pops and pushes stay
    // L1-resident no matter how sparse the schedule is.
}

EventQueue::~EventQueue()
{
    // Detach every pending event, so an external one outliving the
    // queue does not call back into it from its destructor. Pending
    // pooled callbacks drop their captured state with the arena.
    auto detach = [](Event *ev) {
        ev->queue_ = nullptr;
        ev->heapSlot_ = Event::noSlot;
    };
    if (soloEvent_ != nullptr)
        detach(soloEvent_);
    for (Event *head : buckets_) {
        for (Event *ev = head; ev != nullptr; ev = ev->next_)
            detach(ev);
    }
    for (const HeapEntry &entry : heap_)
        detach(entry.event);
}

// --- callback pool --------------------------------------------------------

EventQueue::CallbackEvent *
EventQueue::acquireCallback()
{
    if (freeCallbacks_ != nullptr) {
        CallbackEvent *ev = freeCallbacks_;
        freeCallbacks_ = ev->nextFree_;
        ev->nextFree_ = nullptr;
        --freeCallbackCount_;
        return ev;
    }
    callbackArena_.emplace_back();
    return &callbackArena_.back();
}

void
EventQueue::recycleCallback(CallbackEvent *ev)
{
    // Drop the captured state eagerly: callbacks routinely hold whole
    // packets, and those buffers must return to their pools now, not
    // when this pool slot happens to be reused.
    ev->fn_.reset();
    ev->what_ = "callback";
    ev->nextFree_ = freeCallbacks_;
    freeCallbacks_ = ev;
    ++freeCallbackCount_;
}

// --- ladder ---------------------------------------------------------------

void
EventQueue::setBit(std::size_t idx)
{
    bits_[idx >> 6] |= 1ULL << (idx & 63);
}

void
EventQueue::clearBit(std::size_t idx)
{
    bits_[idx >> 6] &= ~(1ULL << (idx & 63));
}

std::size_t
EventQueue::findBucketFrom(std::size_t from) const
{
    // The whole bitmap is eight words (one cache line): a straight
    // scan beats any summary level.
    if (from >= numBuckets)
        return numBuckets;
    std::size_t word = from >> 6;
    std::uint64_t w = bits_[word] & (~0ULL << (from & 63));
    while (w == 0) {
        if (++word >= bitsWords)
            return numBuckets;
        w = bits_[word];
    }
    return (word << 6) + std::countr_zero(w);
}

void
EventQueue::insertLadder(Event *ev)
{
    std::size_t idx = bucketOf(ev->key_.when);
    Event *tail = tails_[idx];
    if (tail == nullptr) {
        ev->prev_ = ev->next_ = nullptr;
        buckets_[idx] = tails_[idx] = ev;
        setBit(idx);
    } else if (!(ev->key_ < tail->key_)) {
        // Ascending keys — clock ticks marching forward, same-tick
        // callbacks with rising seq — append in O(1).
        ev->prev_ = tail;
        ev->next_ = nullptr;
        tail->next_ = ev;
        tails_[idx] = ev;
    } else {
        // Out-of-order arrival within the granule: sorted insert
        // before the first later event (the tail is one, so the walk
        // always stops inside the chain).
        Event *at = buckets_[idx];
        while (!(ev->key_ < at->key_))
            at = at->next_;
        ev->prev_ = at->prev_;
        ev->next_ = at;
        (at->prev_ != nullptr ? at->prev_->next_ : buckets_[idx]) = ev;
        at->prev_ = ev;
    }
    ++ladderNodes_;
}

void
EventQueue::unlinkLadder(Event *ev)
{
    std::size_t idx = bucketOf(ev->key_.when);
    (ev->prev_ != nullptr ? ev->prev_->next_ : buckets_[idx]) = ev->next_;
    (ev->next_ != nullptr ? ev->next_->prev_ : tails_[idx]) = ev->prev_;
    if (buckets_[idx] == nullptr)
        clearBit(idx);
    --ladderNodes_;
}

// --- far heap -------------------------------------------------------------

void
EventQueue::heapSet(std::size_t slot, const HeapEntry &entry)
{
    heap_[slot] = entry;
    entry.event->heapSlot_ = static_cast<std::uint32_t>(slot);
}

void
EventQueue::siftUp(std::size_t slot)
{
    HeapEntry entry = heap_[slot];
    while (slot > 0) {
        std::size_t parent = (slot - 1) / 2;
        if (!(entry.key < heap_[parent].key))
            break;
        heapSet(slot, heap_[parent]);
        slot = parent;
    }
    heapSet(slot, entry);
}

void
EventQueue::siftDown(std::size_t slot)
{
    HeapEntry entry = heap_[slot];
    std::size_t n = heap_.size();
    while (true) {
        std::size_t child = 2 * slot + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap_[child + 1].key < heap_[child].key)
            ++child;
        if (!(heap_[child].key < entry.key))
            break;
        heapSet(slot, heap_[child]);
        slot = child;
    }
    heapSet(slot, entry);
}

void
EventQueue::heapPush(Event *ev)
{
    f4t_assert(heap_.size() < Event::noSlot, "far heap overflow");
    heap_.push_back(HeapEntry{ev->key_, ev});
    siftUp(heap_.size() - 1);
}

void
EventQueue::heapErase(std::size_t slot)
{
    heap_[slot].event->heapSlot_ = Event::noSlot;
    HeapEntry last = heap_.back();
    heap_.pop_back();
    if (slot == heap_.size())
        return;
    heapSet(slot, last);
    if (slot > 0 && last.key < heap_[(slot - 1) / 2].key)
        siftUp(slot);
    else
        siftDown(slot);
}

void
EventQueue::rebaseLadder()
{
    f4t_assert(ladderNodes_ == 0, "rebase with a non-empty ladder");
    f4t_assert(!heap_.empty(), "rebase needs a heap entry");
    ladderBase_ = heap_.front().key.when;
    cursor_ = 0;
    // Batch refill: move every heap entry inside the new window into
    // its bucket. The front entry lands in bucket 0, so the ladder is
    // guaranteed non-empty afterwards.
    while (!heap_.empty() && inWindow(heap_.front().key.when)) {
        Event *ev = heap_.front().event;
        heapErase(0);
        insertLadder(ev);
    }
}

// --- scheduling -----------------------------------------------------------

void
EventQueue::push(Event *ev, Tick when)
{
    f4t_assert(when >= now_,
               "scheduling event '%s' in the past (%llu < %llu)",
               ev->description().c_str(),
               static_cast<unsigned long long>(when),
               static_cast<unsigned long long>(now_));
    f4t_assert(!ev->scheduled(), "event '%s' already scheduled",
               ev->description().c_str());

    ev->key_.when = when;
    ev->key_.seq = nextSeq_++;
    ev->queue_ = this;

    if (liveEvents_++ == 0) {
        // Nothing pending anywhere: park the event in the solo
        // register — no chain, no bitmap, no heap.
        soloEvent_ = ev;
        return;
    }
    if (soloEvent_ != nullptr) {
        // The solo invariant says both containers are empty, so the
        // window may snap onto the spilled event (see place()).
        f4t_assert(ladderNodes_ == 0 && heap_.empty(),
                   "solo register set while containers hold entries");
        place(soloEvent_);
        soloEvent_ = nullptr;
    }
    place(ev);
}

void
EventQueue::place(Event *ev)
{
    Tick when = ev->key_.when;
    if (!inWindow(when) && ladderNodes_ == 0 && heap_.empty()) {
        // Containers are empty: snap the window onto this event so it
        // (and its short-horizon successors) schedule O(1).
        ladderBase_ = when;
        cursor_ = 0;
    }
    if (inWindow(when))
        insertLadder(ev);
    else
        heapPush(ev);
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->scheduled())
        return;
    f4t_assert(ev->queue_ == this, "event '%s' scheduled on another queue",
               ev->description().c_str());
    f4t_assert(liveEvents_ > 0, "live event count underflow");
    --liveEvents_;
    ev->queue_ = nullptr;
    if (ev == soloEvent_)
        soloEvent_ = nullptr;
    else if (ev->heapSlot_ != Event::noSlot)
        heapErase(ev->heapSlot_);
    else
        unlinkLadder(ev);
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    deschedule(ev);
    schedule(ev, when);
}

void
EventQueue::scheduleCallback(Tick when, const char *what, SmallFunction fn,
                             int priority)
{
    CallbackEvent *ev = acquireCallback();
    ev->fn_ = std::move(fn);
    ev->what_ = what;
    ev->key_.priority = priority;
    push(ev, when);
}

// --- popping --------------------------------------------------------------

void
EventQueue::fire(Event *ev)
{
    Tick when = ev->key_.when;
    f4t_assert(when >= now_, "event queue time went backwards");
    now_ = when;
    ev->queue_ = nullptr;
    f4t_assert(liveEvents_ > 0, "live event count underflow");
    --liveEvents_;
    ++processed_;
    // Black box + watchdog heartbeat. The record is the flight
    // recorder's hot-path cost contract (relaxed store + index bump);
    // the beat piggybacks on the existing dispatch counter so the
    // watchdog sees progress without another atomic on every fire.
    fr::record(fr::Kind::evDispatch, when, 0, 0,
               static_cast<std::uint64_t>(ev->key_.priority), processed_);
    if ((processed_ & 0x3fff) == 0)
        fr::beat();
    // A generic event may destroy itself in process(): read all we
    // need now and never touch *ev after dispatch. Pooled callbacks
    // are owned by the queue and recycled afterwards.
    auto *callback = ev->kind_ == EventKind::callback
                         ? static_cast<CallbackEvent *>(ev)
                         : nullptr;
    if (prof::enabled()) {
        prof::Scope event_scope(eventCategory(ev));
        dispatch(ev);
    } else {
        dispatch(ev);
    }
    if (callback != nullptr)
        recycleCallback(callback);
}

void
EventQueue::dispatch(Event *ev)
{
    // Tagged-union hot path: the two shapes that account for nearly
    // every fire — pooled callbacks and ClockedObject ticks — are
    // reached through a switch on the kind byte and a direct call to
    // the same body their virtual process() forwards to; `generic`
    // takes the virtual path.
    switch (ev->kind_) {
      case EventKind::callback:
        static_cast<CallbackEvent *>(ev)->fn_();
        return;
      case EventKind::tick:
        static_cast<ClockedObject::TickEvent *>(ev)->run();
        return;
      case EventKind::generic:
        break;
    }
    ev->process();
}

bool
EventQueue::runOneSlow(Tick limit)
{
    if (ladderNodes_ == 0) {
        // Ladder drained: rebase the window onto the earliest heap
        // entry, or report an empty queue.
        if (heap_.empty())
            return false;
        rebaseLadder();
    }
    std::size_t bucket = findBucketFrom(cursor_);
    Event *ev = buckets_[bucket];
    // The ladder window normally precedes every heap entry, but an
    // event scheduled below a rebased window lands in the heap, so the
    // global minimum needs one comparison between the two fronts.
    bool from_heap = !heap_.empty() && heap_.front().key < ev->key_;
    if (from_heap)
        ev = heap_.front().event;
    if (ev->key_.when > limit)
        return false;
    if (from_heap) {
        heapErase(0);
    } else {
        unlinkLadder(ev);
        // Nothing can be scheduled before this event's tick once it
        // fires, so the scan may start here permanently.
        cursor_ = bucket;
    }
    fire(ev);
    return true;
}

} // namespace f4t::sim
