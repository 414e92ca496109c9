/**
 * @file
 * Wall-clock scale benchmark for the batched data path: many
 * concurrent flows pushing traffic in both directions at once.
 *
 * perf_kernel measures the kernel on one saturated bulk flow; this
 * harness measures the opposite corner — the Fig. 13 connectivity
 * shape at full width. Two FtEngines are cabled at 100 Gbps and both
 * sides run 128 B echo servers *and* echo clients, so every link
 * direction carries a mix of requests and responses for >= 10 k
 * concurrent connections. That stresses exactly what the batched
 * pipeline and the hash/dense flow tables are for: per-packet flow
 * lookup over a huge working set, burst link delivery, and TCB
 * migration far past the SRAM-resident population.
 *
 * The same workload also runs on the partitioned parallel kernel
 * (sim/parallel.hh): each endpoint in its own Simulation, advanced by
 * a ParallelExecutor at --threads workers. Scenarios are named
 * many_flows (serial oracle) and many_flows_tN (parallel, N workers);
 * all many_flows_tN fingerprints must match each other exactly (the
 * worker count may not leak into simulated behavior — checked at the
 * end of every run, --smoke included).
 *
 * Output: a human-readable summary plus a JSON file (default
 * BENCH_datapath.json) with the same schema perf_kernel emits
 * ({"bench": "datapath", "schema": 5, meta, scenarios[]}), gated in CI
 * by f4t_report against bench/baselines/BENCH_datapath.json. Schema 3
 * added per-scenario "threads" and the per-flow throughput metric
 * "sim_pkts_per_wall_sec_per_flow" (gated: it contains "per_wall");
 * schema 5 adds "round_trips_per_wall_sec", the profiler meta fields,
 * and — under --profile — a per-category "profile" member with the
 * executor's per-worker busy/idle/barrier breakdown on parallel
 * scenarios (obs/profiler.hh).
 *
 * "fingerprint" hashes simulated quantities only (ticks, packet and
 * byte counts, round trips): it must be identical across presets and
 * may only change when modeled behavior legitimately changes.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/testbed.hh"
#include "apps/testbed_parallel.hh"
#include "apps/workloads.hh"
#include "bench_util.hh"
#include "sim/simulation.hh"

namespace f4t
{
namespace
{

constexpr std::size_t threadsPerSide = 8;

struct ScenarioResult : bench::Measurement
{
    std::uint64_t eventsProcessed = 0;
    sim::Tick simTicks = 0;
    std::uint64_t simPackets = 0;
    std::uint64_t flows = 0;
    std::uint64_t roundTrips = 0;

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

    /** The gated scaling metric: throughput normalized by flow count. */
    double
    simPacketsPerWallSecPerFlow() const
    {
        return flows > 0 ? simPacketsPerWallSec() / flows : 0;
    }

    /** Application-visible work rate (echo round trips completed per
     *  wall second), the second schema-5 CI-gated wall-clock metric. */
    double
    roundTripsPerWallSec() const
    {
        return wallSeconds > 0 ? roundTrips / wallSeconds : 0;
    }

    bench::ReportRow
    row() const
    {
        return bench::ReportRow(*this)
            .add("name", name)
            .add("threads", threads)
            .add("wall_seconds", "%.6f", wallSeconds)
            .add("host_events_per_sec", "%.1f", hostEventsPerSec())
            .add("events_processed", eventsProcessed)
            .add("sim_ticks", simTicks)
            .add("sim_packets", simPackets)
            .add("sim_packets_per_wall_sec", "%.1f", simPacketsPerWallSec())
            .add("sim_pkts_per_wall_sec_per_flow", "%.3f",
                 simPacketsPerWallSecPerFlow())
            .add("connected_flows", flows)
            .add("round_trips", roundTrips)
            .add("round_trips_per_wall_sec", "%.1f", roundTripsPerWallSec());
    }

    /**
     * One point of the --flow-curve report: the serial scenario at
     * log-spaced flow counts, so the per-flow overhead the scale
     * ceiling imposes is a tracked artifact
     * (bench/baselines/BENCH_flowcurve.json). The gated wall-clock
     * metrics stay in BENCH_datapath.json; the curve records the shape
     * and carries no profile.
     */
    bench::ReportRow
    curveRow() const
    {
        double us_per_pkt =
            simPackets > 0 ? wallSeconds * 1e6 / simPackets : 0;
        return bench::ReportRow(*this, false)
            .add("flows", flows)
            .add("wall_seconds", "%.6f", wallSeconds)
            .add("sim_packets", simPackets)
            .add("round_trips", roundTrips)
            .add("wall_us_per_sim_pkt", "%.4f", us_per_pkt)
            .add("sim_pkts_per_wall_sec_per_flow", "%.3f",
                 simPacketsPerWallSecPerFlow());
    }
};

/** Engine sizing of both mesh endpoints. */
core::EngineConfig
meshEngine()
{
    core::EngineConfig config;
    config.numFpcs = 8;
    config.flowsPerFpc = 128;
    config.maxFlows = 32768;
    // One 128 B message in flight per flow: small TCP buffers, or host
    // memory for tens of thousands of flows dwarfs the machine
    // running the model (same sizing as the Fig. 13 harness).
    config.tcpBufferBytes = 8 * 1024;
    return config;
}

// The serial oracle keeps both endpoints in one Simulation; the
// partitioned world gives each its own, advanced by a
// ParallelExecutor. Both worlds share runFor(), now(), the link, the
// runtimes and the CPUs; these two accessors cover the rest.
sim::Simulation &
endpointSim(testbed::EnginePairWorld &world, int)
{
    return world.sim;
}

sim::Simulation &
endpointSim(testbed::ParallelEnginePairWorld &world, int side)
{
    return side == 0 ? world.simA : world.simB;
}

std::uint64_t
eventsProcessed(testbed::EnginePairWorld &world)
{
    return world.sim.queue().eventsProcessed();
}

std::uint64_t
eventsProcessed(testbed::ParallelEnginePairWorld &world)
{
    return world.executor.eventsProcessed();
}

/**
 * The echo mesh on @p world, serial or partitioned. On the partitioned
 * world the fingerprint mixes the same simulated quantities in the same
 * order; it is required to be invariant under the worker count
 * (checked in main), while application-level byte-exactness against
 * the serial oracle is the differential fuzzer's job.
 *
 * @param flows    total concurrent connections (split across both
 *                 sides and @c threadsPerSide client threads per side)
 * @param warmup   simulated time for handshakes + ramp before measuring
 * @param window   simulated measurement window
 */
template <typename World>
ScenarioResult
runManyFlows(World &world, std::size_t flows, sim::Tick warmup,
             sim::Tick window)
{
    // Each application thread owns one host queue pair (one
    // F4tLibrary per queue), so server and client threads need
    // disjoint queues: echo servers on both engines take
    // 0..threadsPerSide-1 on each side, clients the next
    // threadsPerSide.
    std::vector<std::unique_ptr<apps::F4tSocketApi>> server_apis;
    std::vector<std::unique_ptr<apps::EchoServerApp>> servers;
    for (std::size_t i = 0; i < threadsPerSide; ++i) {
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            endpointSim(world, 0), *world.runtimeA, i,
            world.cpuA->core(i)));
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            endpointSim(world, 1), *world.runtimeB, i,
            world.cpuB->core(i)));
        apps::EchoServerConfig server_config;
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis[server_apis.size() - 2], server_config));
        servers.back()->start();
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis.back(), server_config));
        servers.back()->start();
    }
    world.runFor(sim::microsecondsToTicks(20));

    // Echo clients on both sides: half the flows originate on A
    // targeting B, half on B targeting A, so requests and responses
    // cross in both link directions simultaneously. Flows are split
    // across the client threads with the remainder on the first ones,
    // so any count down to 2 works (the flow-curve sweep goes far
    // below one flow per thread); exact multiples of the thread count
    // distribute identically to the historical layout.
    std::vector<std::unique_ptr<apps::F4tSocketApi>> client_apis;
    std::vector<std::unique_ptr<apps::EchoClientApp>> clients;
    std::size_t num_clients = 2 * threadsPerSide;
    std::size_t client_index = 0;
    for (std::size_t i = 0; i < threadsPerSide; ++i) {
        std::size_t q = threadsPerSide + i;
        for (int side = 0; side < 2; ++side) {
            client_apis.push_back(std::make_unique<apps::F4tSocketApi>(
                endpointSim(world, side),
                side == 0 ? *world.runtimeA : *world.runtimeB, q,
                side == 0 ? world.cpuA->core(q) : world.cpuB->core(q)));
            apps::EchoClientConfig client_config;
            client_config.peer =
                side == 0 ? testbed::ipB() : testbed::ipA();
            client_config.flows =
                flows / num_clients +
                (client_index < flows % num_clients ? 1 : 0);
            ++client_index;
            client_config.connectSpacing = sim::nanosecondsToTicks(100);
            clients.push_back(std::make_unique<apps::EchoClientApp>(
                *client_apis.back(), nullptr, client_config));
            clients.back()->start();
        }
    }

    world.runFor(warmup);

    std::uint64_t events_before = eventsProcessed(world);
    std::uint64_t packets_before = world.link->aToB().packetsSent() +
                                   world.link->bToA().packetsSent();
    std::uint64_t trips_before = 0;
    for (auto &client : clients)
        trips_before += client->roundTrips();

    ScenarioResult result;
    result.name = "many_flows";
    auto run_window = [&] { world.runFor(window); };
    if constexpr (std::is_same_v<World, testbed::ParallelEnginePairWorld>) {
        std::vector<sim::WorkerProfile> workers_before =
            world.executor.workerProfiles();
        // Coverage divides by the threads a run could actually use —
        // the executor caps at the partition count (2 here), so a
        // --threads=8 request still measures against 2.
        bench::measure(result, run_window,
                       unsigned(world.executor.effectiveThreads()));
        if (result.profiled) {
            obs::attachWorkerProfiles(result.profile, workers_before,
                                      world.executor.workerProfiles());
        }
    } else {
        bench::measure(result, run_window);
    }
    result.eventsProcessed = eventsProcessed(world) - events_before;
    result.simTicks = world.now();
    result.simPackets = world.link->aToB().packetsSent() +
                        world.link->bToA().packetsSent() - packets_before;
    std::uint64_t connected = 0, trips = 0;
    for (auto &client : clients) {
        connected += client->connectedFlows();
        trips += client->roundTrips();
    }
    result.flows = connected;
    result.roundTrips = trips - trips_before;

    bench::Fingerprint fp;
    fp.mix(world.now());
    fp.mix(result.simPackets);
    fp.mix(connected);
    fp.mix(trips);
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

    // --smoke: few flows + tiny windows so a ctest entry keeps the
    // harness building and running without spending real time. The
    // measurement configuration (10240 flows) is the committed
    // baseline CI gates against.
    std::size_t flows = 10240;
    std::size_t threads = 4;
    sim::Tick warmup_us = 0; // 0 = derive from flow count below
    sim::Tick window_us = 200;
    std::string out_path = "BENCH_datapath.json";
    bool smoke = false;
    bool flow_curve = false;
    auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [--smoke] [--flow-curve] [--flows N]"
                     " [--threads N] [--warmup-us N] [--window-us N]"
                     " [--out FILE]\n",
                     argv[0]);
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        bool ok = true;
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
            flows = 160;
            window_us = 20;
        } else if (std::strcmp(argv[i], "--flow-curve") == 0) {
            flow_curve = true;
        } else if (std::strcmp(argv[i], "--flows") == 0 && i + 1 < argc) {
            ok = bench::parseCount("--flows", argv[++i], flows, 1);
        } else if (std::strncmp(argv[i], "--flows=", 8) == 0) {
            ok = bench::parseCount("--flows", argv[i] + 8, flows, 1);
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            ok = bench::parseCount("--threads", argv[++i], threads, 1);
        } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
            ok = bench::parseCount("--threads", argv[i] + 10, threads, 1);
        } else if (std::strcmp(argv[i], "--warmup-us") == 0 &&
                   i + 1 < argc) {
            ok = bench::parseCount("--warmup-us", argv[++i], warmup_us, 0);
        } else if (std::strcmp(argv[i], "--window-us") == 0 &&
                   i + 1 < argc) {
            ok = bench::parseCount("--window-us", argv[++i], window_us, 1);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            ok = false;
        }
        if (!ok)
            return usage();
    }
    if (warmup_us == 0) {
        // Connects are issued per thread at connectSpacing intervals
        // (flows / 16 threads x 100 ns), but establishment beyond FPC
        // capacity is serialized behind TCB migrations (one eviction
        // at a time per FPC), so the tail connects at roughly one
        // flow per microsecond. Budget for that so every flow is
        // ping-ponging before the measurement window opens.
        warmup_us = static_cast<sim::Tick>(200 + flows * 1.2);
        if (smoke)
            warmup_us = 100;
    }

    bench::banner("perf_datapath",
                  "wall-clock throughput at many-connection scale");
    std::printf("flows=%zu threads=%zu warmup=%lluus window=%lluus\n\n",
                flows, threads,
                static_cast<unsigned long long>(warmup_us),
                static_cast<unsigned long long>(window_us));

    sim::Tick warmup = sim::microsecondsToTicks(warmup_us);
    sim::Tick window = sim::microsecondsToTicks(window_us);
    auto serial = [&](std::size_t n, sim::Tick mesh_warmup) {
        testbed::EnginePairWorld world(2 * threadsPerSide, meshEngine());
        return runManyFlows(world, n, mesh_warmup, window);
    };
    // Endpoint A and endpoint B each in their own Simulation, cabled
    // by a SplitLink whose 500 ns propagation delay is the
    // conservative lookahead.
    auto partitioned = [&](std::size_t workers) {
        testbed::ParallelEnginePairWorld world(
            2 * threadsPerSide, meshEngine(), {}, 100e9, {},
            sim::nanosecondsToTicks(500), workers);
        ScenarioResult r = runManyFlows(world, flows, warmup, window);
        r.name += "_t" + std::to_string(workers);
        r.threads = workers;
        return r;
    };

    if (flow_curve) {
        // Log-spaced flow counts (x4 per step) up to the --flows
        // ceiling, serial oracle only: the curve is about per-flow
        // overhead, not executor scaling. Each point re-derives its
        // own warmup from its flow count.
        static constexpr std::size_t curvePoints[] = {2,   8,    32,  128,
                                                      512, 2048, 10240};
        if (out_path == "BENCH_datapath.json")
            out_path = "BENCH_flowcurve.json";
        std::vector<bench::ReportRow> rows;
        bench::Table table({"flows", "wall s", "sim pkts", "trips",
                            "pkt/s/flow", "fingerprint"});
        for (std::size_t n : curvePoints) {
            if (n > flows)
                break;
            ScenarioResult r = serial(
                n, sim::microsecondsToTicks(
                       static_cast<sim::Tick>(200 + n * 1.2)));
            table.addRow({std::to_string(r.flows),
                          bench::fmt("%.3f", r.wallSeconds),
                          std::to_string(r.simPackets),
                          std::to_string(r.roundTrips),
                          bench::fmt("%.3f",
                                     r.simPacketsPerWallSecPerFlow()),
                          bench::hex(r.fingerprint)});
            rows.push_back(r.curveRow());
        }
        table.print();
        return bench::writeReport(out_path, "datapath_flowcurve", 1,
                                  "points", rows)
                   ? 0
                   : 1;
    }

    // Serial oracle first, then the partitioned kernel — always at one
    // worker (the determinism anchor the baseline tracks), and at
    // --threads workers when that is more than one. --smoke therefore
    // exercises both executors on every ctest run.
    std::vector<ScenarioResult> results;
    results.push_back(serial(flows, warmup));
    results.push_back(partitioned(1));
    if (threads > 1)
        results.push_back(partitioned(threads));

    bench::Table table({"scenario", "thr", "flows", "wall s", "events",
                        "Mev/s (host)", "sim pkts", "kpkt/s (host)",
                        "trips", "fingerprint"});
    std::vector<bench::ReportRow> rows;
    for (const ScenarioResult &r : results) {
        table.addRow({r.name, std::to_string(r.threads),
                      std::to_string(r.flows),
                      bench::fmt("%.3f", r.wallSeconds),
                      std::to_string(r.eventsProcessed),
                      bench::fmt("%.2f", r.hostEventsPerSec() / 1e6),
                      std::to_string(r.simPackets),
                      bench::fmt("%.1f", r.simPacketsPerWallSec() / 1e3),
                      std::to_string(r.roundTrips),
                      bench::hex(r.fingerprint)});
        rows.push_back(r.row());
    }
    table.print();
    bench::printProfiles(results);

    // Determinism cross-check: every parallel scenario ran the same
    // partitioned world, so their fingerprints must agree bit-for-bit
    // regardless of worker count. The serial scenario's fingerprint is
    // *not* required to match: the split link cannot see a send until
    // the window barrier, so the delivery port's burst folding may
    // group host events differently than the same-sim link (the same
    // equivalence class as the batching toggle). Application byte
    // streams stay identical either way — that stronger property is
    // what tests/fuzz/test_parallel_differential pins down.
    for (std::size_t i = 2; i < results.size(); ++i) {
        if (results[i].fingerprint != results[1].fingerprint) {
            std::fprintf(stderr,
                         "perf_datapath: FINGERPRINT MISMATCH: %s "
                         "(%016llx) vs %s (%016llx) — worker count "
                         "leaked into simulated behavior\n",
                         results[i].name.c_str(),
                         static_cast<unsigned long long>(
                             results[i].fingerprint),
                         results[1].name.c_str(),
                         static_cast<unsigned long long>(
                             results[1].fingerprint));
            return 1;
        }
    }

    return bench::writeReport(out_path, "datapath", 5, "scenarios", rows)
               ? 0
               : 1;
}
