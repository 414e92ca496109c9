/**
 * @file
 * f4t_sweep: SET-style configuration auto-sweeper.
 *
 * Runs the perf_datapath echo-mesh workload across a small grid of the
 * knobs the hand-tuned defaults pin — link burst bound, burst hold,
 * FPC count, executor threads — and ranks every combination by host
 * throughput (simulated packets per wall second). The point is to keep
 * the defaults honest: after a hot-path change, one `f4t_sweep` run
 * says whether the tuned constants are still on the plateau or whether
 * the optimum moved.
 *
 * Output: a ranking table per scenario on stdout (optimum vs the
 * hand-tuned default marked), plus a JSON ranking file
 * (default SWEEP_datapath.json) for tracking.
 *
 * Wall-clock scores are machine-dependent by design — this tool is a
 * tuning aid, not a CI gate. Fingerprints are not checked here; the
 * burst knobs legitimately change host-event interleaving (the same
 * equivalence class as the batching toggle, pinned by the differential
 * fuzzers).
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
#include "net/link.hh"
#include "sim/simulation.hh"

namespace f4t
{
namespace
{

constexpr std::size_t threadsPerSide = 8;

struct Combo
{
    std::size_t maxBurst;
    unsigned holdNs;
    std::size_t numFpcs;
    std::size_t threads; ///< 1 = serial kernel, >1 = partitioned
};

struct ComboResult
{
    Combo combo{};
    double wallSeconds = 0;
    std::uint64_t simPackets = 0;
    std::uint64_t roundTrips = 0;

    double
    score() const
    {
        return wallSeconds > 0 ? simPackets / wallSeconds : 0;
    }
};

/** RAII: install a combo's link knobs, restore defaults on exit. */
struct BurstKnobs
{
    BurstKnobs(std::size_t max_burst, unsigned hold_ns)
    {
        net::setLinkMaxBurst(max_burst);
        net::setLinkMaxBurstHold(sim::nanosecondsToTicks(hold_ns));
    }
    ~BurstKnobs()
    {
        net::setLinkMaxBurst(net::DeliveryPort::maxBurst);
        net::setLinkMaxBurstHold(net::DeliveryPort::maxBurstHold);
    }
};

double
wallSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** The perf_datapath echo mesh under one knob combination. */
template <typename World, typename RunFor>
ComboResult
measure(World &world, sim::Simulation &simA, sim::Simulation *simB,
        const Combo &combo, std::size_t flows, sim::Tick warmup,
        sim::Tick window, RunFor &&run_for)
{
    std::vector<std::unique_ptr<apps::F4tSocketApi>> server_apis;
    std::vector<std::unique_ptr<apps::EchoServerApp>> servers;
    for (std::size_t i = 0; i < threadsPerSide; ++i) {
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            simA, *world.runtimeA, i, world.cpuA->core(i)));
        server_apis.push_back(std::make_unique<apps::F4tSocketApi>(
            simB ? *simB : simA, *world.runtimeB, i,
            world.cpuB->core(i)));
        apps::EchoServerConfig server_config;
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis[server_apis.size() - 2], server_config));
        servers.back()->start();
        servers.push_back(std::make_unique<apps::EchoServerApp>(
            *server_apis.back(), server_config));
        servers.back()->start();
    }
    run_for(sim::microsecondsToTicks(20));

    std::vector<std::unique_ptr<apps::F4tSocketApi>> client_apis;
    std::vector<std::unique_ptr<apps::EchoClientApp>> clients;
    std::size_t num_clients = 2 * threadsPerSide;
    std::size_t client_index = 0;
    for (std::size_t i = 0; i < threadsPerSide; ++i) {
        std::size_t q = threadsPerSide + i;
        for (int side = 0; side < 2; ++side) {
            client_apis.push_back(std::make_unique<apps::F4tSocketApi>(
                side == 0 ? simA : (simB ? *simB : simA),
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

    run_for(warmup);
    std::uint64_t packets_before = world.link->aToB().packetsSent() +
                                   world.link->bToA().packetsSent();
    std::uint64_t trips_before = 0;
    for (auto &client : clients)
        trips_before += client->roundTrips();

    auto start = std::chrono::steady_clock::now();
    run_for(window);

    ComboResult result;
    result.combo = combo;
    result.wallSeconds = wallSince(start);
    result.simPackets = world.link->aToB().packetsSent() +
                        world.link->bToA().packetsSent() - packets_before;
    std::uint64_t trips = 0;
    for (auto &client : clients)
        trips += client->roundTrips();
    result.roundTrips = trips - trips_before;
    return result;
}

ComboResult
runCombo(const Combo &combo, std::size_t flows, sim::Tick warmup,
         sim::Tick window)
{
    BurstKnobs knobs(combo.maxBurst, combo.holdNs);
    core::EngineConfig config;
    config.numFpcs = combo.numFpcs;
    config.flowsPerFpc = 128;
    config.maxFlows = 32768;
    config.tcpBufferBytes = 8 * 1024;

    if (combo.threads <= 1) {
        testbed::EnginePairWorld world(2 * threadsPerSide, config);
        return measure(world, world.sim, nullptr, combo, flows, warmup,
                       window,
                       [&](sim::Tick d) { world.sim.runFor(d); });
    }
    testbed::ParallelEnginePairWorld world(
        2 * threadsPerSide, config, {}, 100e9, {},
        sim::nanosecondsToTicks(500), combo.threads);
    return measure(world, world.simA, &world.simB, combo, flows, warmup,
                   window, [&](sim::Tick d) { world.runFor(d); });
}

std::string
comboName(const Combo &c)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "burst=%zu hold=%uns fpcs=%zu thr=%zu",
                  c.maxBurst, c.holdNs, c.numFpcs, c.threads);
    return buf;
}

bool
isDefault(const Combo &c)
{
    return c.maxBurst == net::DeliveryPort::maxBurst &&
           sim::nanosecondsToTicks(c.holdNs) ==
               net::DeliveryPort::maxBurstHold &&
           c.numFpcs == 8 && c.threads == 1;
}

void
writeJson(const std::string &path, std::size_t flows,
          const std::vector<ComboResult> &ranked)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "f4t_sweep: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"sweep_datapath\",\n"
                 "  \"schema\": 1,\n  \"flows\": %zu,\n"
                 "  \"ranking\": [\n",
                 flows);
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const ComboResult &r = ranked[i];
        std::fprintf(out,
                     "    {\n"
                     "      \"max_burst\": %zu,\n"
                     "      \"burst_hold_ns\": %u,\n"
                     "      \"num_fpcs\": %zu,\n"
                     "      \"threads\": %zu,\n"
                     "      \"wall_seconds\": %.6f,\n"
                     "      \"sim_packets\": %llu,\n"
                     "      \"round_trips\": %llu,\n"
                     "      \"sim_packets_per_wall_sec\": %.1f,\n"
                     "      \"is_default\": %s\n"
                     "    }%s\n",
                     r.combo.maxBurst, r.combo.holdNs, r.combo.numFpcs,
                     r.combo.threads, r.wallSeconds,
                     static_cast<unsigned long long>(r.simPackets),
                     static_cast<unsigned long long>(r.roundTrips),
                     r.score(), isDefault(r.combo) ? "true" : "false",
                     i + 1 < ranked.size() ? "," : "");
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

    std::size_t flows = 640;
    sim::Tick window_us = 100;
    std::string out_path = "SWEEP_datapath.json";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        bool ok = true;
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
            flows = 160;
            window_us = 20;
        } else if (std::strcmp(argv[i], "--flows") == 0 && i + 1 < argc) {
            ok = bench::parseCount("--flows", argv[++i], flows, 1);
        } else if (std::strncmp(argv[i], "--flows=", 8) == 0) {
            ok = bench::parseCount("--flows", argv[i] + 8, flows, 1);
        } else if (std::strcmp(argv[i], "--window-us") == 0 &&
                   i + 1 < argc) {
            ok = bench::parseCount("--window-us", argv[++i], window_us, 1);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            ok = false;
        }
        if (!ok) {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--flows N] [--window-us N]"
                         " [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    // The grid: the hand-tuned default of every knob plus one step in
    // each direction. --quick trims to the corners that historically
    // move the score, so a ctest smoke entry stays cheap.
    std::vector<std::size_t> bursts = quick
                                          ? std::vector<std::size_t>{16, 32}
                                          : std::vector<std::size_t>{8, 16,
                                                                     32};
    std::vector<unsigned> holds =
        quick ? std::vector<unsigned>{600}
              : std::vector<unsigned>{300, 600, 1200};
    std::vector<std::size_t> fpcs = quick ? std::vector<std::size_t>{8}
                                          : std::vector<std::size_t>{4, 8};
    std::vector<std::size_t> threads_grid =
        quick ? std::vector<std::size_t>{1}
              : std::vector<std::size_t>{1, 4};

    sim::Tick warmup = sim::microsecondsToTicks(
        static_cast<sim::Tick>(200 + flows * 1.2));
    sim::Tick window = sim::microsecondsToTicks(window_us);

    std::printf("f4t_sweep: flows=%zu window=%lluus grid=%zu combos\n\n",
                flows, static_cast<unsigned long long>(window_us),
                bursts.size() * holds.size() * fpcs.size() *
                    threads_grid.size());

    std::vector<ComboResult> results;
    for (std::size_t t : threads_grid) {
        for (std::size_t f : fpcs) {
            for (unsigned h : holds) {
                for (std::size_t b : bursts) {
                    Combo combo{b, h, f, t};
                    ComboResult r = runCombo(combo, flows, warmup, window);
                    std::printf("  %-38s %9.1f pkt/s (%.3fs wall)\n",
                                comboName(combo).c_str(), r.score(),
                                r.wallSeconds);
                    results.push_back(r);
                }
            }
        }
    }

    std::stable_sort(results.begin(), results.end(),
                     [](const ComboResult &a, const ComboResult &b) {
                         return a.score() > b.score();
                     });

    const ComboResult *def = nullptr;
    for (const ComboResult &r : results)
        if (isDefault(r.combo))
            def = &r;

    std::printf("\noptimum: %s (%.1f pkt/s)\n",
                comboName(results.front().combo).c_str(),
                results.front().score());
    if (def && def != &results.front()) {
        std::printf("default: %s (%.1f pkt/s, %.2fx below optimum)\n",
                    comboName(def->combo).c_str(), def->score(),
                    def->score() > 0
                        ? results.front().score() / def->score()
                        : 0.0);
    } else if (def) {
        std::printf("default is the optimum\n");
    } else {
        std::printf("default combo not in this grid\n");
    }

    writeJson(out_path, flows, results);
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
