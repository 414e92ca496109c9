/**
 * @file
 * fuzz_sweep: the long-running randomized differential sweep.
 *
 *   fuzz_sweep [first_seed] [count]
 *
 * Runs `count` consecutive seeds starting at `first_seed` (defaults:
 * 1000, 50; decimal or 0x hex, anything else prints the usage line
 * and exits 2), each as a full three-world differential run, and exits
 * nonzero on the first divergence or oracle violation. The failure
 * report names the seed; replay it with `fuzz_sweep <seed> 1`.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "fuzz_runner.hh"

int
main(int argc, char **argv)
{
    using namespace f4t::fuzz;
    f4t::bench::Obs::install(argc, argv);

    std::uint64_t first = 1000;
    std::uint64_t count = 50;
    bool ok = argc <= 3;
    if (ok && argc > 1)
        ok = f4t::bench::parseCount("first_seed", argv[1], first, 0, true);
    if (ok && argc > 2)
        ok = f4t::bench::parseCount("count", argv[2], count, 1, true);
    if (!ok) {
        std::fprintf(stderr, "usage: fuzz_sweep [first_seed] [count] "
                             "(decimal or 0x hex)\n");
        return 2;
    }

    std::printf("fuzz_sweep: seeds [%llu, %llu)\n",
                static_cast<unsigned long long>(first),
                static_cast<unsigned long long>(first + count));
    for (std::uint64_t seed = first; seed < first + count; ++seed) {
        std::string report = runDifferential(seed);
        if (!report.empty()) {
            std::printf("FAIL seed %llu\n%s\n",
                        static_cast<unsigned long long>(seed),
                        report.c_str());
            if (!f4t::bench::Obs::active()) {
                // Replay the failing seed with every capture sink on so
                // the divergence arrives with pcap/timeline/stat
                // evidence attached.
                std::string prefix =
                    "fuzz_fail_" + std::to_string(seed);
                std::printf("replaying with capture -> %s.*\n",
                            prefix.c_str());
                f4t::bench::Obs::capturePrefix(prefix);
                runDifferential(seed);
            }
            return 1;
        }
        std::printf("  seed %llu ok\n",
                    static_cast<unsigned long long>(seed));
    }
    std::printf("fuzz_sweep: %llu seeds passed\n",
                static_cast<unsigned long long>(count));
    return 0;
}
