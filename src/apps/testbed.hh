/**
 * @file
 * Shared test fixtures: prebuilt two-node worlds.
 *
 *  - EnginePairWorld: two hosts, each with an FtEngine, directly
 *    cabled (the paper's FtEngine-to-FtEngine setup);
 *  - EngineLinuxWorld: an FtEngine host cabled to a Linux host (the
 *    NIC-to-FtEngine setup) — also the interop check that the engine
 *    speaks actual TCP;
 *  - LinuxPairWorld: two Linux hosts (the NIC-to-NIC baseline).
 */

#ifndef F4T_APPS_TESTBED_HH
#define F4T_APPS_TESTBED_HH

#include <memory>
#include <optional>

#include "apps/f4t_socket_api.hh"
#include "apps/linux_socket_api.hh"
#include "baseline/linux_host.hh"
#include "core/engine.hh"
#include "f4t/runtime.hh"
#include "host/cpu.hh"
#include "net/link.hh"
#include "sim/simulation.hh"

namespace f4t::testbed
{

/** Build a world's cable, honoring an optional asymmetric fault model
 *  (distinct per-direction rates; see the fuzz harness). */
inline std::unique_ptr<net::Link>
makeLink(sim::Simulation &sim, double bandwidth_bps,
         const net::FaultModel &faults,
         const std::optional<net::FaultModel> &reverse_faults,
         sim::Tick propagation_delay = sim::nanosecondsToTicks(500))
{
    if (reverse_faults) {
        return std::make_unique<net::Link>(
            sim, "link", bandwidth_bps, propagation_delay,
            faults, *reverse_faults);
    }
    return std::make_unique<net::Link>(
        sim, "link", bandwidth_bps, propagation_delay, faults);
}

inline net::Ipv4Address
ipA()
{
    return net::Ipv4Address::fromOctets(10, 0, 0, 1);
}

inline net::Ipv4Address
ipB()
{
    return net::Ipv4Address::fromOctets(10, 0, 0, 2);
}

inline net::MacAddress
macA()
{
    return net::MacAddress{{0x02, 0xf4, 0, 0, 0, 0x01}};
}

inline net::MacAddress
macB()
{
    return net::MacAddress{{0x02, 0xf4, 0, 0, 0, 0x02}};
}

/** Two FtEngines cabled together, one host (CPU+runtime) each. */
struct EnginePairWorld
{
    explicit EnginePairWorld(
        std::size_t cores_per_host = 1, core::EngineConfig base = {},
        const net::FaultModel &faults = {}, double bandwidth_bps = 100e9,
        const std::optional<net::FaultModel> &reverse_faults = {},
        sim::Tick propagation_delay = sim::nanosecondsToTicks(500))
    {
        core::EngineConfig config_a = base;
        config_a.ip = ipA();
        config_a.mac = macA();
        core::EngineConfig config_b = base;
        config_b.ip = ipB();
        config_b.mac = macB();

        engineA = std::make_unique<core::FtEngine>(sim, "engineA",
                                                   config_a);
        engineB = std::make_unique<core::FtEngine>(sim, "engineB",
                                                   config_b);
        link = makeLink(sim, bandwidth_bps, faults, reverse_faults,
                        propagation_delay);
        link->connect(*engineA, *engineB);
        engineA->setTransmit(
            [this](net::Packet &&pkt) { link->aToB().send(std::move(pkt)); });
        engineB->setTransmit(
            [this](net::Packet &&pkt) { link->bToA().send(std::move(pkt)); });
        engineA->addArpEntry(ipB(), macB());
        engineB->addArpEntry(ipA(), macA());

        cpuA = std::make_unique<host::CpuComplex>(sim, "cpuA",
                                                  cores_per_host);
        cpuB = std::make_unique<host::CpuComplex>(sim, "cpuB",
                                                  cores_per_host);
        runtimeA = std::make_unique<lib::F4tRuntime>(sim, "runtimeA",
                                                     *engineA,
                                                     cores_per_host);
        runtimeB = std::make_unique<lib::F4tRuntime>(sim, "runtimeB",
                                                     *engineB,
                                                     cores_per_host);
    }

    apps::F4tSocketApi
    apiA(std::size_t thread)
    {
        return apps::F4tSocketApi(sim, *runtimeA, thread,
                                  cpuA->core(thread));
    }

    apps::F4tSocketApi
    apiB(std::size_t thread)
    {
        return apps::F4tSocketApi(sim, *runtimeB, thread,
                                  cpuB->core(thread));
    }

    /** Same run/clock surface as ParallelEnginePairWorld. */
    sim::Tick runFor(sim::Tick d) { return sim.runFor(d); }
    sim::Tick now() const { return sim.now(); }

    sim::Simulation sim;
    std::unique_ptr<core::FtEngine> engineA;
    std::unique_ptr<core::FtEngine> engineB;
    std::unique_ptr<net::Link> link;
    std::unique_ptr<host::CpuComplex> cpuA;
    std::unique_ptr<host::CpuComplex> cpuB;
    std::unique_ptr<lib::F4tRuntime> runtimeA;
    std::unique_ptr<lib::F4tRuntime> runtimeB;
};

/** An FtEngine host (A) cabled to a Linux host (B). */
struct EngineLinuxWorld
{
    explicit EngineLinuxWorld(
        std::size_t engine_cores = 1, std::size_t linux_cores = 1,
        core::EngineConfig base = {},
        baseline::LinuxHostConfig linux_base = {},
        const net::FaultModel &faults = {}, double bandwidth_bps = 100e9,
        const std::optional<net::FaultModel> &reverse_faults = {})
    {
        core::EngineConfig config_a = base;
        config_a.ip = ipA();
        config_a.mac = macA();
        engine = std::make_unique<core::FtEngine>(sim, "engine", config_a);

        linux_base.ip = ipB();
        linux_base.mac = macB();
        linux_base.cores = linux_cores;
        linux = std::make_unique<baseline::LinuxHost>(sim, "linux",
                                                      linux_base);

        link = makeLink(sim, bandwidth_bps, faults, reverse_faults);
        link->connect(*engine, *linux);
        engine->setTransmit(
            [this](net::Packet &&pkt) { link->aToB().send(std::move(pkt)); });
        linux->setTransmit(
            [this](net::Packet &&pkt) { link->bToA().send(std::move(pkt)); });
        engine->addArpEntry(ipB(), macB());
        linux->addArpEntry(ipA(), macA());

        cpu = std::make_unique<host::CpuComplex>(sim, "cpuA",
                                                 engine_cores);
        runtime = std::make_unique<lib::F4tRuntime>(sim, "runtime",
                                                    *engine, engine_cores);
    }

    apps::F4tSocketApi
    engineApi(std::size_t thread)
    {
        return apps::F4tSocketApi(sim, *runtime, thread,
                                  cpu->core(thread));
    }

    apps::LinuxSocketApi
    linuxApi(std::size_t core, double penalty = 0.0)
    {
        return apps::LinuxSocketApi(sim, *linux, core, penalty);
    }

    sim::Simulation sim;
    std::unique_ptr<core::FtEngine> engine;
    std::unique_ptr<baseline::LinuxHost> linux;
    std::unique_ptr<net::Link> link;
    std::unique_ptr<host::CpuComplex> cpu;
    std::unique_ptr<lib::F4tRuntime> runtime;
};

/** Two Linux hosts cabled together (the software baseline). */
struct LinuxPairWorld
{
    explicit LinuxPairWorld(
        std::size_t cores = 1, baseline::LinuxHostConfig base = {},
        const net::FaultModel &faults = {}, double bandwidth_bps = 100e9,
        const std::optional<net::FaultModel> &reverse_faults = {})
    {
        baseline::LinuxHostConfig config_a = base;
        config_a.ip = ipA();
        config_a.mac = macA();
        config_a.cores = cores;
        baseline::LinuxHostConfig config_b = base;
        config_b.ip = ipB();
        config_b.mac = macB();
        config_b.cores = cores;

        hostA = std::make_unique<baseline::LinuxHost>(sim, "hostA",
                                                      config_a);
        hostB = std::make_unique<baseline::LinuxHost>(sim, "hostB",
                                                      config_b);
        link = makeLink(sim, bandwidth_bps, faults, reverse_faults);
        link->connect(*hostA, *hostB);
        hostA->setTransmit(
            [this](net::Packet &&pkt) { link->aToB().send(std::move(pkt)); });
        hostB->setTransmit(
            [this](net::Packet &&pkt) { link->bToA().send(std::move(pkt)); });
        hostA->addArpEntry(ipB(), macB());
        hostB->addArpEntry(ipA(), macA());
    }

    apps::LinuxSocketApi
    apiA(std::size_t core, double penalty = 0.0)
    {
        return apps::LinuxSocketApi(sim, *hostA, core, penalty);
    }

    apps::LinuxSocketApi
    apiB(std::size_t core, double penalty = 0.0)
    {
        return apps::LinuxSocketApi(sim, *hostB, core, penalty);
    }

    sim::Simulation sim;
    std::unique_ptr<baseline::LinuxHost> hostA;
    std::unique_ptr<baseline::LinuxHost> hostB;
    std::unique_ptr<net::Link> link;
};

} // namespace f4t::testbed

#endif // F4T_APPS_TESTBED_HH
