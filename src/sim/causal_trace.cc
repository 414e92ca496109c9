#include "sim/causal_trace.hh"

#include <algorithm>
#include <cstdio>

namespace f4t::sim::ctrace
{

namespace
{

/** Microseconds for histogram samples (Tick is picoseconds). */
double
us(Tick t)
{
    return ticksToSeconds(t) * 1e6;
}

/** Wrapping sequence-space compare: a - b as a signed distance. */
std::int32_t
seqDelta(std::uint32_t a, std::uint32_t b)
{
    return static_cast<std::int32_t>(a - b);
}

/** Unwrap a 32-bit cumulative offset against a 64-bit reference. */
std::uint64_t
unwrap32(std::uint64_t reference, std::uint32_t value)
{
    std::int64_t result =
        static_cast<std::int64_t>(reference) +
        seqDelta(value, static_cast<std::uint32_t>(reference));
    return result >= 0 ? static_cast<std::uint64_t>(result) : value;
}

} // namespace

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::appQueue: return "appQueue";
      case Stage::doorbell: return "doorbell";
      case Stage::pcie: return "pcie";
      case Stage::fpcQueue: return "fpcQueue";
      case Stage::fpcExec: return "fpcExec";
      case Stage::wire: return "wire";
      case Stage::rxParse: return "rxParse";
      case Stage::upcall: return "upcall";
      case Stage::nStages: break;
    }
    return "?";
}

const Span *
Request::lastOpen(Stage stage) const
{
    for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
        if (it->stage == stage && it->open)
            return &*it;
    }
    return nullptr;
}

Span *
Request::lastOpen(Stage stage)
{
    return const_cast<Span *>(
        static_cast<const Request *>(this)->lastOpen(stage));
}

Tick
Request::sampledTotal() const
{
    Tick total = 0;
    for (const Span &span : spans) {
        if (!span.open && !span.abandoned)
            total += span.duration();
    }
    return total;
}

CausalTracer::CausalTracer(Simulation &sim, std::size_t keep_completed,
                           std::size_t max_live)
    : sim_(sim), keepCompleted_(keep_completed), maxLive_(max_live),
      started_(sim.stats(), "ctrace.requestsStarted",
               "traced requests allocated"),
      completedCount_(sim.stats(), "ctrace.requestsCompleted",
                      "traced requests delivered to the peer app"),
      aborted_(sim.stats(), "ctrace.requestsAborted",
               "traced requests whose flow died first"),
      outOfOrder_(sim.stats(), "ctrace.outOfOrderCloses",
                  "span closes with no matching open span"),
      duplicates_(sim.stats(), "ctrace.duplicateArrivals",
                  "stamped packets arriving with no open wire span"),
      coalesced_(sim.stats(), "ctrace.coalescedMerges",
                 "request events merged into an earlier queued event"),
      wireReentries_(sim.stats(), "ctrace.wireReentries",
                     "wire re-entries (retransmitted requests)"),
      abandonedSpans_(sim.stats(), "ctrace.abandonedSpans",
                      "spans left open at completion/abort (e.g. drops)"),
      overflow_(sim.stats(), "ctrace.overflowDropped",
                "requests not traced: live-request cap reached")
{
    for (std::size_t i = 0; i < numStages; ++i) {
        const char *stage = stageName(static_cast<Stage>(i));
        total_[i] = std::make_unique<Histogram>(
            sim.stats(), std::string("ctrace.") + stage + ".total",
            "stage latency, us");
        queue_[i] = std::make_unique<Histogram>(
            sim.stats(), std::string("ctrace.") + stage + ".queue",
            "stage queueing time, us");
        service_[i] = std::make_unique<Histogram>(
            sim.stats(), std::string("ctrace.") + stage + ".service",
            "stage service time, us");
    }
    e2e_ = std::make_unique<Histogram>(sim.stats(), "ctrace.e2e",
                                       "end-to-end request latency, us");
    sim_.setCausalTracer(this);
}

CausalTracer::~CausalTracer()
{
    if (sim_.causalTracer() == this)
        sim_.setCausalTracer(nullptr);
}

Request *
CausalTracer::get(Token t)
{
    if (!t.valid())
        return nullptr;
    auto it = live_.find(t.id);
    return it == live_.end() ? nullptr : &it->second;
}

const Request *
CausalTracer::get(Token t) const
{
    return const_cast<CausalTracer *>(this)->get(t);
}

const Request *
CausalTracer::findLive(Token t) const
{
    return get(t);
}

const Request *
CausalTracer::slowestCompleted() const
{
    const Request *best = nullptr;
    for (const Request &r : completed_) {
        if (!r.aborted && (!best || r.latency() > best->latency()))
            best = &r;
    }
    return best;
}

void
CausalTracer::emitTimeline(const Request &req, const Span &span)
{
    trace::TraceEventSink *tl = sim_.timeline();
    if (!tl)
        return;
    char name[48];
    std::snprintf(name, sizeof(name), "req%u", req.id);
    tl->span(std::string("ctrace.") + stageName(span.stage), "ctrace",
             name, span.begin, span.end);
}

void
CausalTracer::closeAndSample(Request &req, Span &span, Tick at)
{
    span.end = at;
    span.open = false;
    total_[idx(span.stage)]->sample(us(span.duration()));
    queue_[idx(span.stage)]->sample(us(span.queueTime()));
    service_[idx(span.stage)]->sample(us(span.serviceTime()));
    emitTimeline(req, span);
}

Token
CausalTracer::beginRequest(const void *domain, std::uint32_t flow,
                           std::uint64_t target_offset, Tick at)
{
    if (live_.size() >= maxLive_) {
        ++overflow_;
        return {};
    }
    std::uint32_t id = nextId_++;
    if (nextId_ == 0)
        nextId_ = 1;

    Request req;
    req.id = id;
    req.senderDomain = domain;
    req.senderFlow = flow;
    req.targetOffset = target_offset;
    req.begin = at;
    req.spans.push_back(Span{Stage::appQueue, at, 0, 0, false, true, false});
    live_.emplace(id, std::move(req));
    senderIndex_[FlowKey{domain, flow}].push_back(id);
    ++started_;
    return Token{id};
}

void
CausalTracer::submitted(Token t, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    if (Span *s = req->lastOpen(Stage::appQueue))
        closeAndSample(*req, *s, at);
    req->spans.push_back(Span{Stage::doorbell, at, 0, 0, false, true, false});
}

void
CausalTracer::fetched(Token t, Tick fetch_start, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    if (Span *s = req->lastOpen(Stage::doorbell))
        closeAndSample(*req, *s, fetch_start);
    Span pcie{Stage::pcie, fetch_start, fetch_start, 0, true, true, false};
    req->spans.push_back(pcie);
    closeAndSample(*req, req->spans.back(), at);
}

void
CausalTracer::eventQueued(Token t, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    req->spans.push_back(Span{Stage::fpcQueue, at, 0, 0, false, true, false});
}

void
CausalTracer::setWireTarget(Token t, std::uint32_t seq)
{
    Request *req = get(t);
    if (!req)
        return;
    req->wireTarget = seq;
    req->wireTargetSet = true;
}

void
CausalTracer::coalescedInto(Token t, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    if (Span *s = req->lastOpen(Stage::fpcQueue))
        closeAndSample(*req, *s, at);
    req->coalesced = true;
    ++coalesced_;
}

void
CausalTracer::absorbed(Token t, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    if (Span *s = req->lastOpen(Stage::fpcQueue))
        closeAndSample(*req, *s, at);
    if (!req->hasOpen(Stage::fpcExec)) {
        req->spans.push_back(
            Span{Stage::fpcExec, at, 0, 0, false, true, false});
    }
}

void
CausalTracer::execStarted(Token t, Tick at)
{
    markService(t, Stage::fpcExec, at);
}

void
CausalTracer::processed(Token t, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    if (Span *s = req->lastOpen(Stage::fpcExec)) {
        closeAndSample(*req, *s, at);
    } else if (Span *q = req->lastOpen(Stage::fpcQueue)) {
        // DRAM-resident flow: the event was absorbed by the memory
        // manager, not an FPC input queue — the whole wait shows as
        // fpcQueue, closed when the merged TCB finally executes.
        closeAndSample(*req, *q, at);
    }
}

void
CausalTracer::wireQueued(const void *domain, std::uint32_t flow,
                         std::uint32_t from_seq, std::uint32_t to_seq,
                         Tick at)
{
    auto it = senderIndex_.find(FlowKey{domain, flow});
    if (it == senderIndex_.end())
        return;
    for (std::uint32_t id : it->second) {
        Request *req = get(Token{id});
        if (!req || req->done || !req->wireTargetSet)
            continue;
        if (seqDelta(req->wireTarget, from_seq) <= 0 ||
            seqDelta(to_seq, req->wireTarget) < 0) {
            continue;
        }
        if (Span *open = req->lastOpen(Stage::wire)) {
            // The previous copy never arrived (drop, or still in
            // flight at retransmit time): supersede it.
            open->end = at;
            open->open = false;
            open->abandoned = true;
            ++wireReentries_;
            ++abandonedSpans_;
        }
        req->spans.push_back(Span{Stage::wire, at, 0, 0, false, true, false});
        ++req->wireEntries;
    }
}

Token
CausalTracer::wireToken(const void *domain, std::uint32_t flow,
                        std::uint32_t seq, std::uint32_t payload_len) const
{
    auto it = senderIndex_.find(FlowKey{domain, flow});
    if (it == senderIndex_.end())
        return {};
    const Request *best = nullptr;
    for (std::uint32_t id : it->second) {
        const Request *req = get(Token{id});
        if (!req || req->done || !req->wireTargetSet ||
            !req->hasOpen(Stage::wire)) {
            continue;
        }
        if (seqDelta(req->wireTarget, seq) <= 0 ||
            seqDelta(req->wireTarget, seq) >
                static_cast<std::int32_t>(payload_len)) {
            continue;
        }
        if (!best || seqDelta(req->wireTarget, best->wireTarget) > 0)
            best = req;
    }
    return best ? Token{best->id} : Token{};
}

void
CausalTracer::wireService(Token t, Tick tx_start)
{
    markService(t, Stage::wire, tx_start);
}

void
CausalTracer::arrivedRx(Token t, const void *peer_domain,
                        std::uint32_t peer_flow, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    if (!req->hasOpen(Stage::wire)) {
        // A duplicated packet (fault injection) carrying a token whose
        // wire span was already closed by the first copy.
        ++duplicates_;
        return;
    }
    // Cumulative arrival: everything this flow sent up to this
    // request's target byte is now at the peer.
    auto it = senderIndex_.find(
        FlowKey{req->senderDomain, req->senderFlow});
    if (it == senderIndex_.end())
        return;
    for (std::uint32_t id : it->second) {
        Request *covered = get(Token{id});
        if (!covered || covered->done ||
            covered->targetOffset > req->targetOffset) {
            continue;
        }
        if (Span *w = covered->lastOpen(Stage::wire))
            closeAndSample(*covered, *w, at);
        else if (covered->id != req->id)
            continue; // its own copy already arrived
        Span rx{Stage::rxParse, at, at, 0, true, true, false};
        covered->spans.push_back(rx);
        closeAndSample(*covered, covered->spans.back(), at);
        if (!covered->peerBound) {
            covered->peerBound = true;
            covered->peerDomain = peer_domain;
            covered->peerFlow = peer_flow;
            peerIndex_[FlowKey{peer_domain, peer_flow}].push_back(
                covered->id);
        }
    }
}

Token
CausalTracer::upcallPosted(const void *peer_domain, std::uint32_t peer_flow,
                           std::uint32_t offset32, Tick at)
{
    FlowKey key{peer_domain, peer_flow};
    auto it = peerIndex_.find(key);
    if (it == peerIndex_.end())
        return {};
    std::uint64_t &ref = deliveredRef_[key];
    std::uint64_t offset = unwrap32(ref, offset32);
    if (offset > ref)
        ref = offset;

    const Request *best = nullptr;
    for (std::uint32_t id : it->second) {
        Request *req = get(Token{id});
        if (!req || req->done || req->targetOffset > offset)
            continue;
        if (!req->hasOpen(Stage::upcall)) {
            req->spans.push_back(
                Span{Stage::upcall, at, 0, 0, false, true, false});
        }
        if (!best || req->targetOffset > best->targetOffset)
            best = req;
    }
    return best ? Token{best->id} : Token{};
}

void
CausalTracer::upcallService(Token t, Tick at)
{
    markService(t, Stage::upcall, at);
}

void
CausalTracer::delivered(Token t, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    std::vector<std::uint32_t> done_ids;
    if (req->peerBound) {
        auto it = peerIndex_.find(FlowKey{req->peerDomain, req->peerFlow});
        if (it != peerIndex_.end()) {
            for (std::uint32_t id : it->second) {
                Request *covered = get(Token{id});
                if (covered && !covered->done &&
                    covered->targetOffset <= req->targetOffset &&
                    covered->hasOpen(Stage::upcall)) {
                    done_ids.push_back(id);
                }
            }
        }
    }
    if (std::find(done_ids.begin(), done_ids.end(), req->id) ==
        done_ids.end()) {
        done_ids.push_back(req->id);
    }
    for (std::uint32_t id : done_ids) {
        Request *covered = get(Token{id});
        if (!covered)
            continue;
        if (Span *u = covered->lastOpen(Stage::upcall))
            closeAndSample(*covered, *u, at);
        finish(*covered, at);
        retire(id);
    }
}

void
CausalTracer::finish(Request &req, Tick at)
{
    req.done = true;
    req.end = at;
    for (Span &span : req.spans) {
        if (span.open) {
            span.open = false;
            span.end = at;
            span.abandoned = true;
            ++abandonedSpans_;
        }
    }
    e2e_->sample(us(req.latency()));
    ++completedCount_;
}

void
CausalTracer::abort(Request &req, Tick at)
{
    req.done = true;
    req.aborted = true;
    req.end = at;
    for (Span &span : req.spans) {
        if (span.open) {
            span.open = false;
            span.end = at;
            span.abandoned = true;
            ++abandonedSpans_;
        }
    }
    ++aborted_;
}

void
CausalTracer::retire(std::uint32_t id)
{
    auto it = live_.find(id);
    if (it == live_.end())
        return;
    Request &req = it->second;
    auto unindex = [id](std::map<FlowKey, std::vector<std::uint32_t>> &index,
                        FlowKey key) {
        auto vec = index.find(key);
        if (vec != index.end()) {
            std::erase(vec->second, id);
            if (vec->second.empty())
                index.erase(vec);
        }
    };
    unindex(senderIndex_, FlowKey{req.senderDomain, req.senderFlow});
    if (req.peerBound)
        unindex(peerIndex_, FlowKey{req.peerDomain, req.peerFlow});

    completed_.push_back(std::move(req));
    if (completed_.size() > keepCompleted_)
        completed_.pop_front();
    live_.erase(it);
}

void
CausalTracer::flowAborted(const void *domain, std::uint32_t flow, Tick at)
{
    std::vector<std::uint32_t> ids;
    for (auto *index : {&senderIndex_, &peerIndex_}) {
        auto it = index->find(FlowKey{domain, flow});
        if (it != index->end())
            ids.insert(ids.end(), it->second.begin(), it->second.end());
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (std::uint32_t id : ids) {
        Request *req = get(Token{id});
        if (!req || req->done)
            continue;
        abort(*req, at);
        retire(id);
    }
}

void
CausalTracer::openSpan(Token t, Stage stage, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    req->spans.push_back(Span{stage, at, 0, 0, false, true, false});
}

void
CausalTracer::markService(Token t, Stage stage, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    if (Span *s = req->lastOpen(stage)) {
        s->serviceBegin = at;
        s->serviceSet = true;
    }
}

void
CausalTracer::closeSpan(Token t, Stage stage, Tick at)
{
    Request *req = get(t);
    if (!req)
        return;
    Span *s = req->lastOpen(stage);
    if (!s) {
        ++outOfOrder_;
        return;
    }
    closeAndSample(*req, *s, at);
}

std::string
CausalTracer::criticalPath(const Request &request) const
{
    std::vector<const Span *> ordered;
    for (const Span &span : request.spans)
        ordered.push_back(&span);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Span *a, const Span *b) {
                         return a->begin < b->begin;
                     });

    char line[160];
    std::snprintf(line, sizeof(line),
                  "req#%u flow=%u e2e=%.3fus spans=%zu%s\n", request.id,
                  request.senderFlow, us(request.latency()),
                  request.spans.size(),
                  request.aborted ? " (aborted)" : "");
    std::string out = line;
    Tick prev_end = request.begin;
    for (const Span *span : ordered) {
        Tick gap = span->begin > prev_end ? span->begin - prev_end : 0;
        std::snprintf(
            line, sizeof(line),
            "  %-8s %9.3fus  (queue %.3f, service %.3f)%s%s\n",
            stageName(span->stage), us(span->duration()),
            us(span->queueTime()), us(span->serviceTime()),
            span->abandoned ? "  [abandoned]" : "",
            gap ? "  [gap before]" : "");
        out += line;
        if (!span->abandoned && span->end > prev_end)
            prev_end = span->end;
    }
    return out;
}

} // namespace f4t::sim::ctrace
