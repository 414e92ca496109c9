/**
 * @file
 * Per-flow timer module (Section 4.1.2): retransmission, zero-window
 * probe, delayed-ACK, and TIME_WAIT deadlines. Expiry produces a
 * timeout event into the scheduler, which treats it like any other
 * event (accumulated by overwriting — only the occurrence matters,
 * Section 4.2.1).
 *
 * Like the hardware module, the wheel keeps one deadline per (flow,
 * kind): each is an intrusive queue event, allocated on the flow's
 * first program() and rescheduled in place on every re-arm, so an
 * armed timer holds exactly one queue entry and a cancelled one none.
 */

#ifndef F4T_CORE_TIMER_WHEEL_HH
#define F4T_CORE_TIMER_WHEEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

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
        if (request.deadlineUs == 0) {
            if (request.flow < flows_.size() && flows_[request.flow]) {
                queue().deschedule(
                    &timerFor(*flows_[request.flow], request.kind));
            }
            return;
        }
        sim::Tick when = static_cast<sim::Tick>(request.deadlineUs) *
                         1'000'000ULL;
        if (when < now())
            when = now();
        queue().reschedule(&timerFor(arm(request.flow), request.kind), when);
    }

    /** Drop every timer of a recycled flow. The timers leave the
     *  queue, so a flow ID reused later can never see a stale fire. */
    void
    cancelAll(tcp::FlowId flow)
    {
        if (flow >= flows_.size() || !flows_[flow])
            return;
        for (Timer &timer : *flows_[flow])
            queue().deschedule(&timer);
    }

  private:
    static constexpr std::size_t numKinds = 4;
    static_assert(static_cast<std::size_t>(tcp::TimeoutKind::timeWait) ==
                      numKinds - 1,
                  "one timer per TimeoutKind");

    /** One (flow, kind) deadline; fires into the wheel's sink. */
    class Timer : public sim::Event
    {
      public:
        void process() override { wheel->fire(*this); }
        std::string description() const override { return "timer.fire"; }
        const char *profileTag() const override { return "timer.fire"; }

        TimerWheel *wheel = nullptr;
        tcp::FlowId flow = tcp::invalidFlowId;
        tcp::TimeoutKind kind = tcp::TimeoutKind::retransmit;
    };
    using FlowTimers = std::array<Timer, numKinds>;

    static Timer &
    timerFor(FlowTimers &timers, tcp::TimeoutKind kind)
    {
        return timers[static_cast<std::size_t>(kind)];
    }

    /** The flow's timers, allocated on its first program(). */
    FlowTimers &
    arm(tcp::FlowId flow)
    {
        if (flow >= flows_.size())
            flows_.resize(static_cast<std::size_t>(flow) + 1);
        std::unique_ptr<FlowTimers> &slot = flows_[flow];
        if (!slot) {
            slot = std::make_unique<FlowTimers>();
            for (std::size_t k = 0; k < numKinds; ++k) {
                Timer &t = (*slot)[k];
                t.wheel = this;
                t.flow = flow;
                t.kind = static_cast<tcp::TimeoutKind>(k);
            }
        }
        return *slot;
    }

    void
    fire(const Timer &timer)
    {
        tcp::TcpEvent event;
        event.flow = timer.flow;
        event.type = tcp::TcpEventType::timeout;
        event.timeoutKind = timer.kind;
        ++timeoutsFired_;
        probe(sim::fr::Kind::timerFire, timer.flow,
              static_cast<std::uint64_t>(timer.kind));
        if (sink_)
            sink_(event);
    }

    TimeoutSink sink_;
    /** Indexed by FlowId; null until the flow's first program(). */
    std::vector<std::unique_ptr<FlowTimers>> flows_;
    sim::Counter timeoutsFired_;
};

} // namespace f4t::core

#endif // F4T_CORE_TIMER_WHEEL_HH
