/**
 * @file
 * Wall-clock performance harness for the simulation kernel itself.
 *
 * Unlike the per-figure binaries — which report *simulated* rates —
 * this harness measures how fast the host machine chews through the
 * event queue, so every PR has a perf trajectory to compare against:
 *
 *  - "event_rate": the Fig. 15 microbenchmark path (an FPC saturated
 *    with synthetic userSend events), dominated by clock-tick events
 *    and callback scheduling.
 *  - "bulk_transfer": a full two-engine bulk transfer over a 100 Gbps
 *    link (the Fig. 8a path), exercising the packet generator, link
 *    delivery callbacks, payload DMA, and the RX parser.
 *
 * Output: a human-readable summary plus a JSON file (default
 * BENCH_kernel.json) with schema:
 *
 *   { "bench": "kernel", "schema": 5,
 *     "meta": { "git_sha", "preset", "trace_enabled", "checks_enabled",
 *               "profile_enabled", "profiled",
 *               "timestamp" },   // run identity, see obs/run_meta.hh
 *     "scenarios": [ { "name": ...,
 *                      "wall_seconds": ...,
 *                      "host_events_per_sec": ...,
 *                      "events_processed": ...,
 *                      "sim_ticks": ...,
 *                      "sim_ticks_per_wall_sec": ...,
 *                      "sim_packets": ...,          // bulk only
 *                      "sim_packets_per_wall_sec": ...,
 *                      "profile": { ... },          // --profile only
 *                      "fingerprint": ... } ] }
 *
 * Schema 5 (shared by all BENCH writers): run meta gains the profiler
 * gate fields and scenarios may carry a per-category wall-clock
 * "profile" member (obs/profiler.hh) when measured under --profile.
 *
 * "fingerprint" is a determinism check: a stable hash of simulated
 * results (tick counts, stats counters) that must not change when the
 * kernel is optimised — only wall_seconds / *_per_sec may move.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "apps/testbed.hh"
#include "apps/workloads.hh"
#include "baseline/stalling_engine.hh"
#include "bench_util.hh"
#include "core/fpc.hh"
#include "sim/simulation.hh"

namespace f4t
{
namespace
{

struct ScenarioResult : bench::Measurement
{
    std::uint64_t eventsProcessed = 0;
    sim::Tick simTicks = 0;
    std::uint64_t simPackets = 0;

    double
    hostEventsPerSec() const
    {
        return wallSeconds > 0 ? eventsProcessed / wallSeconds : 0;
    }

    double
    simPacketsPerWallSec() const
    {
        return wallSeconds > 0 ? simPackets / wallSeconds : 0;
    }

    /** Simulated-time throughput: how much simulated time one wall
     *  second buys — the kernel-speed metric that is meaningful for
     *  every scenario, packets or not, and CI-gated per schema 5. */
    double
    simTicksPerWallSec() const
    {
        return wallSeconds > 0 ? static_cast<double>(simTicks) / wallSeconds
                               : 0;
    }

    bench::ReportRow
    row() const
    {
        return bench::ReportRow(*this)
            .add("name", name)
            .add("wall_seconds", "%.6f", wallSeconds)
            .add("host_events_per_sec", "%.1f", hostEventsPerSec())
            .add("events_processed", eventsProcessed)
            .add("sim_ticks", simTicks)
            .add("sim_ticks_per_wall_sec", "%.1f", simTicksPerWallSec())
            .add("sim_packets", simPackets)
            .add("sim_packets_per_wall_sec", "%.1f",
                 simPacketsPerWallSec());
    }
};

/**
 * The Fig. 15 event-rate path: one FPC with 16 synthetic established
 * flows, input queue kept saturated with userSend events.
 */
ScenarioResult
runEventRate(sim::Tick window)
{
    sim::Simulation sim;
    tcp::NewRenoPolicy cc;
    tcp::FpuProgram program(cc);
    core::FpcConfig config;
    config.slots = 128;
    config.inputFifoDepth = 128;
    config.fpuLatencyOverride = 14; // NewReno pass length
    core::Fpc fpc(sim, "fpc", sim.engineClock(), program, config);

    constexpr std::size_t flows = 16;
    for (tcp::FlowId flow = 0; flow < flows; ++flow) {
        core::MigratingTcb fresh;
        tcp::Tcb &tcb = fresh.tcb;
        tcb.flowId = flow;
        tcb.iss = tcp::FpuProgram::initialSequence(flow);
        tcb.sndUna = tcb.iss + 1;
        tcb.sndUnaProcessed = tcb.sndUna;
        tcb.sndNxt = tcb.iss + 1;
        tcb.req = tcb.iss + 1;
        tcb.lastAckNotified = tcb.iss + 1;
        tcb.state = tcp::ConnState::established;
        tcb.sndWnd = 1u << 30;
        tcb.cwnd = 1u << 30;
        tcb.ssthresh = 1u << 30;
        tcb.ccPhase = tcp::CcPhase::congestionAvoidance;
        tcb.rcvNxt = 1;
        tcb.userRead = 1;
        tcb.lastAckSent = 1;
        tcb.lastRcvNotified = 1;
        while (!fpc.canAcceptTcb())
            sim.runFor(sim.engineClock().period());
        fpc.installTcb(fresh);
    }

    std::vector<std::uint32_t> offsets(flows, 0);
    sim.runFor(sim::microsecondsToTicks(1)); // settle installs

    ScenarioResult result;
    result.name = "event_rate";
    std::uint64_t injected = 0;
    sim::Tick end = sim.now() + window;
    bench::measure(result, [&] {
        while (sim.now() < end) {
            {
                // Injection runs outside the event loop; attribute it
                // so the category sum still covers the measured wall
                // time.
                sim::prof::Scope inject_scope(sim::prof::Cat::harness);
                while (fpc.inputBacklog() < 64) {
                    tcp::FlowId flow =
                        static_cast<tcp::FlowId>(injected % flows);
                    offsets[flow] += 16;
                    tcp::TcpEvent ev;
                    ev.flow = flow;
                    ev.type = tcp::TcpEventType::userSend;
                    ev.pointer = tcp::FpuProgram::initialSequence(flow) +
                                 1 + offsets[flow];
                    fpc.enqueueEvent(ev);
                    ++injected;
                }
            }
            sim.runFor(sim.engineClock().period() * 16);
        }
    });
    result.eventsProcessed = sim.queue().eventsProcessed();
    result.simTicks = sim.now();

    bench::Fingerprint fp;
    fp.mix(sim.now());
    fp.mix(sim.queue().eventsProcessed());
    fp.mix(fpc.eventsHandled());
    fp.mix(injected);
    result.fingerprint = fp.state;
    return result;
}

/**
 * The Fig. 8a path: two FtEngines cabled at 100 Gbps, one bulk sender
 * streaming into one sink, full payload DMA on both sides.
 */
ScenarioResult
runBulkTransfer(sim::Tick window)
{
    core::EngineConfig config;
    config.numFpcs = 8;
    config.flowsPerFpc = 128;
    config.maxFlows = 4096;
    testbed::EnginePairWorld world(1, config);

    apps::F4tSocketApi sink_api(world.sim, *world.runtimeB, 0,
                                world.cpuB->core(0));
    apps::BulkSinkConfig sink_config;
    sink_config.port = 5001;
    apps::BulkSinkApp sink(sink_api, sink_config);
    sink.start();

    apps::F4tSocketApi send_api(world.sim, *world.runtimeA, 0,
                                world.cpuA->core(0));
    apps::BulkSenderConfig sender_config;
    sender_config.peer = testbed::ipB();
    sender_config.requestBytes = 128;
    apps::BulkSenderApp sender(send_api, sender_config);
    sender.start();

    ScenarioResult result;
    result.name = "bulk_transfer";
    bench::measure(result, [&] { world.sim.runFor(window); });
    result.eventsProcessed = world.sim.queue().eventsProcessed();
    result.simTicks = world.sim.now();
    result.simPackets = world.link->aToB().packetsSent() +
                        world.link->bToA().packetsSent();

    bench::Fingerprint fp;
    fp.mix(world.sim.now());
    fp.mix(world.sim.queue().eventsProcessed());
    fp.mix(result.simPackets);
    fp.mix(sink.bytesReceived());
    fp.mix(world.link->aToB().bytesSent());
    fp.mix(world.link->bToA().bytesSent());
    result.fingerprint = fp.state;
    return result;
}

} // namespace
} // namespace f4t

int
main(int argc, char **argv)
{
    using namespace f4t;
    sim::setVerbose(false);
    bench::Obs::install(argc, argv); // strips capture flags from argv

    // --smoke: tiny windows so a ctest entry keeps the harness building
    // and running without spending real time. --window-us N for custom
    // measurement windows; --out FILE for the JSON destination.
    sim::Tick window_us = 400;
    std::string out_path = "BENCH_kernel.json";
    std::string only;
    auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [--smoke] [--window-us N] [--out FILE]"
                     " [--only event_rate|bulk_transfer]\n",
                     argv[0]);
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            window_us = 10;
        } else if (std::strcmp(argv[i], "--window-us") == 0 && i + 1 < argc) {
            if (!bench::parseCount("--window-us", argv[++i], window_us, 1))
                return usage();
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
            only = argv[++i];
            if (only != "event_rate" && only != "bulk_transfer")
                return usage();
        } else {
            return usage();
        }
    }

    bench::banner("perf_kernel",
                  "wall-clock throughput of the simulation kernel");

    std::vector<ScenarioResult> results;
    if (only.empty() || only == "event_rate")
        results.push_back(runEventRate(sim::microsecondsToTicks(window_us)));
    if (only.empty() || only == "bulk_transfer")
        results.push_back(runBulkTransfer(sim::microsecondsToTicks(window_us)));

    bench::Table table({"scenario", "wall s", "events", "Mev/s (host)",
                        "sim pkts", "kpkt/s (host)", "fingerprint"});
    std::vector<bench::ReportRow> rows;
    for (const ScenarioResult &r : results) {
        table.addRow({r.name, bench::fmt("%.3f", r.wallSeconds),
                      std::to_string(r.eventsProcessed),
                      bench::fmt("%.2f", r.hostEventsPerSec() / 1e6),
                      std::to_string(r.simPackets),
                      bench::fmt("%.1f", r.simPacketsPerWallSec() / 1e3),
                      bench::hex(r.fingerprint)});
        rows.push_back(r.row());
    }
    table.print();
    bench::printProfiles(results);

    return bench::writeReport(out_path, "kernel", 5, "scenarios", rows) ? 0
                                                                        : 1;
}
