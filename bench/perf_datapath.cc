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

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
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

struct ScenarioResult
{
    std::string name;
    double wallSeconds = 0;
    std::uint64_t eventsProcessed = 0;
    sim::Tick simTicks = 0;
    std::uint64_t simPackets = 0;
    std::uint64_t flows = 0;
    std::uint64_t roundTrips = 0;
    std::uint64_t fingerprint = 0;
    /** Worker threads driving the kernel (1 = serial event loop). */
    std::uint64_t threads = 1;
    bool profiled = false;
    obs::ProfileReport profile;

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
};

/** FNV-1a over simulated quantities: stable across kernel rewrites. */
struct Fingerprint
{
    std::uint64_t state = 1469598103934665603ULL;

    void
    mix(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            state ^= (value >> (i * 8)) & 0xff;
            state *= 1099511628211ULL;
        }
    }
};

double
wallSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * @param flows    total concurrent connections (split across both
 *                 sides and @c threadsPerSide client threads per side)
 * @param warmup   simulated time for handshakes + ramp before measuring
 * @param window   simured measurement window
 */
ScenarioResult
runManyFlows(std::size_t flows, sim::Tick warmup, sim::Tick window)
{
    core::EngineConfig config;
    config.numFpcs = 8;
    config.flowsPerFpc = 128;
    config.maxFlows = 32768;
    // One 128 B message in flight per flow: small TCP buffers, or host
    // memory for tens of thousands of flows dwarfs the machine
    // running the model (same sizing as the Fig. 13 harness).
    config.tcpBufferBytes = 8 * 1024;
    // Each application thread owns one host queue pair (one
    // F4tLibrary per queue), so server and client threads need
    // disjoint queues: servers take 0..threadsPerSide-1 on each side,
    // clients the next threadsPerSide.
    testbed::EnginePairWorld world(2 * threadsPerSide, config);

    // Echo servers on both engines.
    std::vector<std::unique_ptr<apps::F4tSocketApi>> server_apis;
    std::vector<std::unique_ptr<apps::EchoServerApp>> servers;
    for (std::size_t i = 0; i < threadsPerSide; ++i) {
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world.sim, *world.runtimeA, i, world.cpuA->core(i)));
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world.sim, *world.runtimeB, i, world.cpuB->core(i)));
        apps::EchoServerConfig server_config;
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis[server_apis.size() - 2], server_config));
        servers.back()->start();
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis.back(), server_config));
        servers.back()->start();
    }
    world.sim.runFor(sim::microsecondsToTicks(20));

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
                world.sim, side == 0 ? *world.runtimeA : *world.runtimeB,
                q, side == 0 ? world.cpuA->core(q) : world.cpuB->core(q)));
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

    world.sim.runFor(warmup);

    std::uint64_t events_before = world.sim.queue().eventsProcessed();
    std::uint64_t packets_before = world.link->aToB().packetsSent() +
                                   world.link->bToA().packetsSent();
    std::uint64_t trips_before = 0;
    for (auto &client : clients)
        trips_before += client->roundTrips();

    sim::prof::Snapshot prof_before = sim::prof::capture();
    auto start = std::chrono::steady_clock::now();
    world.sim.runFor(window);

    ScenarioResult result;
    result.name = "many_flows";
    result.wallSeconds = wallSince(start);
    if (bench::Obs::profiling()) {
        result.profiled = true;
        result.profile = obs::makeProfileReport(
            sim::prof::since(prof_before), result.wallSeconds);
    }
    result.eventsProcessed =
        world.sim.queue().eventsProcessed() - events_before;
    result.simTicks = world.sim.now();
    result.simPackets = world.link->aToB().packetsSent() +
                        world.link->bToA().packetsSent() - packets_before;
    std::uint64_t connected = 0, trips = 0;
    for (auto &client : clients) {
        connected += client->connectedFlows();
        trips += client->roundTrips();
    }
    result.flows = connected;
    result.roundTrips = trips - trips_before;

    Fingerprint fp;
    fp.mix(world.sim.now());
    fp.mix(result.simPackets);
    fp.mix(connected);
    fp.mix(trips);
    fp.mix(world.link->aToB().bytesSent());
    fp.mix(world.link->bToA().bytesSent());
    result.fingerprint = fp.state;
    return result;
}

/**
 * The same workload on the partitioned kernel: endpoint A and
 * endpoint B each in their own Simulation, cabled by a SplitLink whose
 * 500 ns propagation delay is the conservative lookahead, advanced by
 * a ParallelExecutor at @p threads workers. The fingerprint mixes the
 * same simulated quantities in the same order as runManyFlows; it is
 * required to be invariant under @p threads (checked in main), while
 * application-level byte-exactness against the serial oracle is the
 * differential fuzzer's job.
 */
ScenarioResult
runManyFlowsParallel(std::size_t flows, sim::Tick warmup, sim::Tick window,
                     std::size_t threads)
{
    core::EngineConfig config;
    config.numFpcs = 8;
    config.flowsPerFpc = 128;
    config.maxFlows = 32768;
    config.tcpBufferBytes = 8 * 1024;
    testbed::ParallelEnginePairWorld world(2 * threadsPerSide, config, {},
                                           100e9, {},
                                           sim::nanosecondsToTicks(500),
                                           threads);

    // Echo servers on both engines (queues 0..threadsPerSide-1), then
    // clients on the next threadsPerSide queues — the same layout as
    // the serial harness, except every endpoint-A app binds to simA
    // and every endpoint-B app to simB.
    std::vector<std::unique_ptr<apps::F4tSocketApi>> server_apis;
    std::vector<std::unique_ptr<apps::EchoServerApp>> servers;
    for (std::size_t i = 0; i < threadsPerSide; ++i) {
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world.simA, *world.runtimeA, i, world.cpuA->core(i)));
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            world.simB, *world.runtimeB, i, world.cpuB->core(i)));
        apps::EchoServerConfig server_config;
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis[server_apis.size() - 2], server_config));
        servers.back()->start();
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis.back(), server_config));
        servers.back()->start();
    }
    world.runFor(sim::microsecondsToTicks(20));

    std::vector<std::unique_ptr<apps::F4tSocketApi>> client_apis;
    std::vector<std::unique_ptr<apps::EchoClientApp>> clients;
    std::size_t num_clients = 2 * threadsPerSide;
    std::size_t client_index = 0;
    for (std::size_t i = 0; i < threadsPerSide; ++i) {
        std::size_t q = threadsPerSide + i;
        for (int side = 0; side < 2; ++side) {
            client_apis.push_back(std::make_unique<apps::F4tSocketApi>(
                side == 0 ? world.simA : world.simB,
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

    std::uint64_t events_before = world.executor.eventsProcessed();
    std::uint64_t packets_before = world.link->aToB().packetsSent() +
                                   world.link->bToA().packetsSent();
    std::uint64_t trips_before = 0;
    for (auto &client : clients)
        trips_before += client->roundTrips();

    sim::prof::Snapshot prof_before = sim::prof::capture();
    std::vector<sim::WorkerProfile> workers_before =
        world.executor.workerProfiles();
    auto start = std::chrono::steady_clock::now();
    world.runFor(window);

    ScenarioResult result;
    result.name = "many_flows_t" + std::to_string(threads);
    result.threads = threads;
    result.wallSeconds = wallSince(start);
    if (bench::Obs::profiling()) {
        result.profiled = true;
        // Coverage divides by the threads a run could actually use —
        // the executor caps at the partition count (2 here), so a
        // --threads=8 request still measures against 2.
        result.profile = obs::makeProfileReport(
            sim::prof::since(prof_before), result.wallSeconds,
            static_cast<unsigned>(world.executor.effectiveThreads()));
        obs::attachWorkerProfiles(result.profile, workers_before,
                                  world.executor.workerProfiles());
    }
    result.eventsProcessed =
        world.executor.eventsProcessed() - events_before;
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

    Fingerprint fp;
    fp.mix(world.now());
    fp.mix(result.simPackets);
    fp.mix(connected);
    fp.mix(trips);
    fp.mix(world.link->aToB().bytesSent());
    fp.mix(world.link->bToA().bytesSent());
    result.fingerprint = fp.state;
    return result;
}

/**
 * Flow-count sweep (--flow-curve): the serial scenario at log-spaced
 * counts from 2 to the --flows ceiling, so the per-flow overhead the
 * scale ceiling imposes is a tracked artifact
 * (bench/baselines/BENCH_flowcurve.json) rather than a one-off
 * observation. The gated wall-clock metrics stay in BENCH_datapath.json;
 * the curve file records the shape.
 */
void
writeCurveJson(const std::string &path,
               const std::vector<ScenarioResult> &points)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "perf_datapath: cannot write %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"datapath_flowcurve\",\n"
                 "  \"schema\": 1,\n");
    bench::writeRunMeta(out, 2, 1);
    std::fprintf(out, ",\n  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ScenarioResult &r = points[i];
        double us_per_pkt =
            r.simPackets > 0 ? r.wallSeconds * 1e6 / r.simPackets : 0;
        std::fprintf(out,
                     "    {\n"
                     "      \"flows\": %llu,\n"
                     "      \"wall_seconds\": %.6f,\n"
                     "      \"sim_packets\": %llu,\n"
                     "      \"round_trips\": %llu,\n"
                     "      \"wall_us_per_sim_pkt\": %.4f,\n"
                     "      \"sim_pkts_per_wall_sec_per_flow\": %.3f,\n"
                     "      \"fingerprint\": \"%016llx\"\n"
                     "    }%s\n",
                     static_cast<unsigned long long>(r.flows),
                     r.wallSeconds,
                     static_cast<unsigned long long>(r.simPackets),
                     static_cast<unsigned long long>(r.roundTrips),
                     us_per_pkt, r.simPacketsPerWallSecPerFlow(),
                     static_cast<unsigned long long>(r.fingerprint),
                     i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
}

void
writeJson(const std::string &path, const std::vector<ScenarioResult> &results)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "perf_datapath: cannot write %s\n",
                     path.c_str());
        return;
    }
    unsigned max_threads = 1;
    for (const ScenarioResult &r : results)
        max_threads = std::max(max_threads, unsigned(r.threads));

    std::fprintf(out, "{\n  \"bench\": \"datapath\",\n  \"schema\": 5,\n");
    bench::writeRunMeta(out, 2, max_threads);
    std::fprintf(out, ",\n  \"scenarios\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult &r = results[i];
        std::fprintf(out,
                     "    {\n"
                     "      \"name\": \"%s\",\n"
                     "      \"threads\": %llu,\n"
                     "      \"wall_seconds\": %.6f,\n"
                     "      \"host_events_per_sec\": %.1f,\n"
                     "      \"events_processed\": %llu,\n"
                     "      \"sim_ticks\": %llu,\n"
                     "      \"sim_packets\": %llu,\n"
                     "      \"sim_packets_per_wall_sec\": %.1f,\n"
                     "      \"sim_pkts_per_wall_sec_per_flow\": %.3f,\n"
                     "      \"connected_flows\": %llu,\n"
                     "      \"round_trips\": %llu,\n"
                     "      \"round_trips_per_wall_sec\": %.1f,\n",
                     r.name.c_str(),
                     static_cast<unsigned long long>(r.threads),
                     r.wallSeconds, r.hostEventsPerSec(),
                     static_cast<unsigned long long>(r.eventsProcessed),
                     static_cast<unsigned long long>(r.simTicks),
                     static_cast<unsigned long long>(r.simPackets),
                     r.simPacketsPerWallSec(),
                     r.simPacketsPerWallSecPerFlow(),
                     static_cast<unsigned long long>(r.flows),
                     static_cast<unsigned long long>(r.roundTrips),
                     r.roundTripsPerWallSec());
        if (r.profiled) {
            obs::writeProfileJson(out, r.profile, 6);
            std::fprintf(out, ",\n");
        }
        std::fprintf(out,
                     "      \"fingerprint\": \"%016llx\"\n"
                     "    }%s\n",
                     static_cast<unsigned long long>(r.fingerprint),
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
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

    if (flow_curve) {
        // Log-spaced flow counts (x4 per step) up to the --flows
        // ceiling, serial oracle only: the curve is about per-flow
        // overhead, not executor scaling. Each point re-derives its
        // own warmup from its flow count.
        static constexpr std::size_t curvePoints[] = {2,   8,    32,  128,
                                                      512, 2048, 10240};
        if (out_path == "BENCH_datapath.json")
            out_path = "BENCH_flowcurve.json";
        std::vector<ScenarioResult> curve;
        bench::Table table({"flows", "wall s", "sim pkts", "trips",
                            "pkt/s/flow", "fingerprint"});
        for (std::size_t n : curvePoints) {
            if (n > flows)
                break;
            sim::Tick point_warmup = sim::microsecondsToTicks(
                static_cast<sim::Tick>(200 + n * 1.2));
            ScenarioResult r = runManyFlows(n, point_warmup, window);
            r.name = "many_flows_" + std::to_string(n);
            curve.push_back(r);
            char fp[32];
            std::snprintf(fp, sizeof(fp), "%016llx",
                          static_cast<unsigned long long>(r.fingerprint));
            table.addRow({std::to_string(r.flows),
                          bench::fmt("%.3f", r.wallSeconds),
                          std::to_string(r.simPackets),
                          std::to_string(r.roundTrips),
                          bench::fmt("%.3f",
                                     r.simPacketsPerWallSecPerFlow()),
                          fp});
        }
        table.print();
        writeCurveJson(out_path, curve);
        std::printf("\nwrote %s\n", out_path.c_str());
        return 0;
    }

    // Serial oracle first, then the partitioned kernel — always at one
    // worker (the determinism anchor the baseline tracks), and at
    // --threads workers when that is more than one. --smoke therefore
    // exercises both executors on every ctest run.
    std::vector<ScenarioResult> results;
    results.push_back(runManyFlows(flows, warmup, window));
    results.push_back(runManyFlowsParallel(flows, warmup, window, 1));
    if (threads > 1)
        results.push_back(
            runManyFlowsParallel(flows, warmup, window, threads));

    bench::Table table({"scenario", "thr", "flows", "wall s", "events",
                        "Mev/s (host)", "sim pkts", "kpkt/s (host)",
                        "trips", "fingerprint"});
    for (const ScenarioResult &r : results) {
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(r.fingerprint));
        table.addRow({r.name, std::to_string(r.threads),
                      std::to_string(r.flows),
                      bench::fmt("%.3f", r.wallSeconds),
                      std::to_string(r.eventsProcessed),
                      bench::fmt("%.2f", r.hostEventsPerSec() / 1e6),
                      std::to_string(r.simPackets),
                      bench::fmt("%.1f", r.simPacketsPerWallSec() / 1e3),
                      std::to_string(r.roundTrips), fp});
    }
    table.print();

    if (bench::Obs::profiling()) {
        std::printf("\nper-scenario wall-clock cost attribution:\n");
        for (const ScenarioResult &r : results) {
            std::printf("%s:\n", r.name.c_str());
            obs::printProfileTable(stdout, r.profile);
        }
    }

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

    writeJson(out_path, results);
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
