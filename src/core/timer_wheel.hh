/**
 * @file
 * Per-flow timer module (Section 4.1.2): retransmission, zero-window
 * probe, delayed-ACK, and TIME_WAIT deadlines. Expiry produces a
 * timeout event into the scheduler, which treats it like any other
 * event (accumulated by overwriting — only the occurrence matters,
 * Section 4.2.1).
 */

#ifndef F4T_CORE_TIMER_WHEEL_HH
#define F4T_CORE_TIMER_WHEEL_HH

#include <cstdint>
#include <functional>
#include <map>

#include "sim/simulation.hh"
#include "tcp/fpu_program.hh"
#include "tcp/tcb.hh"

namespace f4t::core
{

class TimerWheel : public sim::SimObject
{
  public:
    using TimeoutSink = std::function<void(const tcp::TcpEvent &)>;

    TimerWheel(sim::Simulation &sim, std::string name)
        : SimObject(sim, std::move(name)),
          timeoutsFired_(sim.stats(), statName("timeoutsFired"),
                         "timeout events generated")
    {}

    void setSink(TimeoutSink sink) { sink_ = std::move(sink); }

    /** Apply a TimerRequest from an FPU pass (deadline 0 = cancel). */
    void
    program(const tcp::TimerRequest &request)
    {
        Key key{request.flow, request.kind};
        std::uint64_t generation = ++generations_[key];
        if (request.deadlineUs == 0)
            return; // cancelled: the generation bump squashes any firing

        sim::Tick when = static_cast<sim::Tick>(request.deadlineUs) *
                         1'000'000ULL;
        if (when < now())
            when = now();
        queue().scheduleCallback(when, "timer.fire", [this, key, generation] {
            auto it = generations_.find(key);
            if (it == generations_.end() || it->second != generation)
                return;
            tcp::TcpEvent event;
            event.flow = key.flow;
            event.type = tcp::TcpEventType::timeout;
            event.timeoutKind = key.kind;
            ++timeoutsFired_;
            probe(sim::fr::Kind::timerFire, key.flow,
                  static_cast<std::uint64_t>(key.kind));
            if (sink_)
                sink_(event);
        });
    }

    /** Drop every timer of a recycled flow. The generation bump (not
     *  an erase) guarantees stale callbacks can never match a timer
     *  re-armed after the flow ID is reused. */
    void
    cancelAll(tcp::FlowId flow)
    {
        for (auto kind : {tcp::TimeoutKind::retransmit,
                          tcp::TimeoutKind::probe,
                          tcp::TimeoutKind::delayedAck,
                          tcp::TimeoutKind::timeWait}) {
            ++generations_[Key{flow, kind}];
        }
    }

  private:
    struct Key
    {
        tcp::FlowId flow;
        tcp::TimeoutKind kind;

        bool
        operator<(const Key &other) const
        {
            if (flow != other.flow)
                return flow < other.flow;
            return static_cast<int>(kind) < static_cast<int>(other.kind);
        }
    };

    TimeoutSink sink_;
    std::map<Key, std::uint64_t> generations_;
    sim::Counter timeoutsFired_;
};

} // namespace f4t::core

#endif // F4T_CORE_TIMER_WHEEL_HH
