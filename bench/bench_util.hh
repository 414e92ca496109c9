/**
 * @file
 * Shared helpers for the benchmark binaries: a table printer that
 * shows paper-reported values next to measured ones, rate/goodput
 * helpers, strict CLI values, the capture flags (Obs), and the core
 * every perf_* harness measures and reports with (Fingerprint,
 * Measurement, measure, writeReport).
 *
 * Each binary regenerates one table or figure from the paper. The
 * substrate is a simulator, not the authors' testbed, so the binaries
 * print "paper" and "measured" columns side by side: absolute numbers
 * track where behaviour is architectural and the *shape* (who wins,
 * by what factor, where curves break) is the reproduction target.
 */

#ifndef F4T_BENCH_BENCH_UTIL_HH
#define F4T_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hh"
#include "net/pcap_writer.hh"
#include "obs/profiler.hh"
#include "obs/run_meta.hh"
#include "sim/profile_scope.hh"
#include "sim/simulation.hh"
#include "sim/types.hh"

namespace f4t::bench
{

/** Print the standard figure banner. */
inline void
banner(const std::string &figure, const std::string &title)
{
    std::printf("\n");
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", figure.c_str(), title.c_str());
    std::printf("==============================================================\n");
}

/** Simple aligned table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {}

    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void
    print() const
    {
        std::vector<std::size_t> width(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &row : rows_) {
            for (std::size_t c = 0; c < row.size() && c < width.size();
                 ++c) {
                width[c] = std::max(width[c], row[c].size());
            }
        }
        auto print_row = [&](const std::vector<std::string> &cells) {
            for (std::size_t c = 0; c < cells.size(); ++c)
                std::printf("%-*s  ", static_cast<int>(width[c]),
                            cells[c].c_str());
            std::printf("\n");
        };
        print_row(headers_);
        std::size_t total = 0;
        for (std::size_t w : width)
            total += w + 2;
        std::printf("%s\n", std::string(total, '-').c_str());
        for (const auto &row : rows_)
            print_row(row);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

inline std::string
fmt(const char *format, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

/** Goodput in Gbps from bytes over a simulated window. */
inline double
gbps(std::uint64_t bytes, sim::Tick window)
{
    double seconds = sim::ticksToSeconds(window);
    return seconds > 0 ? bytes * 8.0 / seconds / 1e9 : 0.0;
}

/** Rate in millions per second over a simulated window. */
inline double
mrps(std::uint64_t count, sim::Tick window)
{
    double seconds = sim::ticksToSeconds(window);
    return seconds > 0 ? count / seconds / 1e6 : 0.0;
}

/**
 * Strict unsigned CLI value for @p flag: decimal digits only (or, with
 * @p hex, also a 0x-prefixed hex number), no trailing junk, no
 * overflow, and at least @p min. On a bad value it says why on stderr
 * and returns false, so the caller exits 2 with its usage line instead
 * of silently running with 0.
 */
template <typename T>
bool
parseCount(const char *flag, const char *text, T &out, std::uint64_t min,
           bool hex = false)
{
    int base = 10;
    const char *digits = text;
    if (hex && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
        base = 16;
        digits = text + 2;
    }
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(digits, &end, base);
    if (!std::isxdigit(static_cast<unsigned char>(digits[0])) ||
        end == digits || *end != '\0' || errno != 0 ||
        value > std::numeric_limits<T>::max() || value < min) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' (want an integer >= %llu%s)\n",
                     flag, text, static_cast<unsigned long long>(min),
                     hex ? ", decimal or 0x hex" : "");
        return false;
    }
    out = static_cast<T>(value);
    return true;
}

/**
 * Obs: the shared observability front-end for every figure binary,
 * example, and the fuzz replayer. Call Obs::install(argc, argv) at the
 * top of main(); it strips the capture flags below from argv (so
 * binaries with strict parsers never see them) and hooks simulation
 * and link construction so capture needs no per-binary wiring:
 *
 *   --trace=SPEC            per-module text tracepoints (glob over flag
 *                           names, '-' negates: "fpc,sched*,-timer");
 *                           a pattern that names no flag exits 2
 *   --pcap=PATH             one .pcap (+ .index sidecar) per Link
 *   --timeline=PATH         Chrome trace-event JSON per Simulation
 *   --stat-sample=PATH[@US] stat time-series CSV per Simulation,
 *                           sampled every US microseconds (default 100)
 *   --stat-select=GLOB      which stats the CSV columns cover ("*")
 *   --stats-json=PATH       end-of-run StatRegistry JSON per Simulation
 *   --profile               enable the wall-clock self-profiler for the
 *                           whole process (needs F4T_ENABLE_PROFILE);
 *                           bench mains that know their measurement
 *                           windows emit per-scenario tables and JSON,
 *                           and every binary prints a whole-process
 *                           category table at exit
 *
 * Binaries that build several simulations or links get index-suffixed
 * files: timeline.json, timeline.1.json, ... in construction order.
 */
class Obs
{
  public:
    static Obs &
    instance()
    {
        static Obs obs;
        return obs;
    }

    /** Strip capture flags from argv and install the observers. */
    static void
    install(int &argc, char **argv)
    {
        instance().parseArgs(argc, argv);
    }

    /** Programmatic capture with a common file prefix (fuzz replay). */
    static void
    capturePrefix(const std::string &prefix)
    {
        Obs &obs = instance();
        obs.pcapPath_ = prefix + ".pcap";
        obs.timelinePath_ = prefix + ".timeline.json";
        obs.statCsvPath_ = prefix + ".stats.csv";
        obs.statsJsonPath_ = prefix + ".stats.json";
        obs.installObservers();
    }

    /** Add a derived column (e.g. cwnd) to a simulation's sampler.
     *  No-op unless --stat-sample/--stats-json enabled sampling. */
    static void
    probe(sim::Simulation &sim, std::string column,
          std::function<double()> fn)
    {
        for (auto &rec : instance().sims_) {
            if (rec->sim == &sim && rec->sampler) {
                rec->sampler->addProbe(std::move(column), std::move(fn));
                return;
            }
        }
    }

    /** True when any capture sink was requested. */
    static bool
    active()
    {
        return instance().installed_;
    }

    /** True when --profile was passed (and the profiler is compiled
     *  in): bench mains emit per-scenario cost tables and JSON. */
    static bool
    profiling()
    {
        return instance().profileActive_;
    }

  private:
    struct SimRec
    {
        sim::Simulation *sim = nullptr;
        std::string timelinePath;
        std::unique_ptr<sim::trace::TraceEventSink> timeline;
        std::unique_ptr<sim::trace::StatSampler> sampler;
    };

    void
    parseArgs(int &argc, char **argv)
    {
        auto value_of = [](const char *arg,
                           const char *flag) -> const char * {
            std::size_t n = std::strlen(flag);
            return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
        };
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            const char *v;
            if ((v = value_of(argv[i], "--trace="))) {
                std::string bad = sim::trace::unmatchedPattern(v);
                if (!bad.empty()) {
                    std::fprintf(stderr,
                                 "obs: invalid --trace pattern '%s' "
                                 "(matches no trace flag; try '*')\n",
                                 bad.c_str());
                    std::exit(2);
                }
                sim::trace::setFlags(v);
            } else if ((v = value_of(argv[i], "--pcap="))) {
                pcapPath_ = v;
            } else if ((v = value_of(argv[i], "--timeline="))) {
                timelinePath_ = v;
            } else if ((v = value_of(argv[i], "--stat-sample="))) {
                statCsvPath_ = v;
                if (auto at = statCsvPath_.rfind('@');
                    at != std::string::npos) {
                    if (!parseIntervalUs(statCsvPath_.c_str() + at + 1,
                                         statIntervalUs_))
                        std::exit(2);
                    statCsvPath_.resize(at);
                }
            } else if ((v = value_of(argv[i], "--stat-select="))) {
                statSelect_ = v;
            } else if ((v = value_of(argv[i], "--stats-json="))) {
                statsJsonPath_ = v;
            } else if (std::strcmp(argv[i], "--profile") == 0) {
                enableProfiling();
            } else {
                argv[out++] = argv[i];
            }
        }
        argc = out;
        if (!pcapPath_.empty() || !timelinePath_.empty() ||
            !statCsvPath_.empty() || !statsJsonPath_.empty()) {
            installObservers();
        }
    }

    /**
     * Strict --stat-sample interval: a positive decimal number of
     * microseconds, at least one tick and within the Tick range, with
     * no trailing junk. On a bad value it says why and returns false.
     */
    static bool
    parseIntervalUs(const char *text, double &us)
    {
        char *end = nullptr;
        errno = 0;
        double value = std::strtod(text, &end);
        bool decimal = text[0] != '\0' &&
                       std::strspn(text, "0123456789.eE+-") ==
                           std::strlen(text);
        if (!decimal || *end != '\0' || errno != 0 || !(value > 0) ||
            value * 1e6 >= static_cast<double>(sim::maxTick) ||
            sim::microsecondsToTicks(value) < 1) {
            std::fprintf(stderr,
                         "obs: invalid --stat-sample interval '%s' (want "
                         "a positive number of microseconds, at least "
                         "one tick)\n",
                         text);
            return false;
        }
        us = value;
        return true;
    }

    void
    enableProfiling()
    {
        if (!sim::prof::compiledIn) {
            std::fprintf(stderr,
                         "obs: --profile ignored — this build has "
                         "F4T_ENABLE_PROFILE=OFF (use the default "
                         "configure, not the release preset)\n");
            return;
        }
        if (profileActive_)
            return;
        profileActive_ = true;
        sim::prof::setEnabled(true);
        profileStart_ = std::chrono::steady_clock::now();
        // Whole-process fallback: even binaries that never call
        // profiling() themselves print a category table at exit.
        std::atexit([] {
            Obs &obs = instance();
            double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - obs.profileStart_)
                    .count();
            obs::ProfileReport report =
                obs::makeProfileReport(sim::prof::capture(), wall);
            std::fprintf(stderr, "obs: whole-process profile\n");
            obs::printProfileTable(stderr, report);
        });
    }

    void
    installObservers()
    {
        if (installed_)
            return;
        installed_ = true;
        sim::trace::setSimulationObservers(
            [](sim::Simulation &s) { instance().onSimCreated(s); },
            [](sim::Simulation &s) { instance().onSimDestroyed(s); });
        if (!pcapPath_.empty()) {
            net::Link::setCreationObserver(
                [](net::Link &link) { instance().onLinkCreated(link); });
        }
    }

    void
    onSimCreated(sim::Simulation &sim)
    {
        auto rec = std::make_unique<SimRec>();
        rec->sim = &sim;
        std::size_t index = sims_.size();
        if (!timelinePath_.empty()) {
            rec->timelinePath = indexedPath(timelinePath_, index);
            rec->timeline = std::make_unique<sim::trace::TraceEventSink>();
            sim.setTimeline(rec->timeline.get());
        }
        if (!statCsvPath_.empty() || !statsJsonPath_.empty()) {
            rec->sampler = std::make_unique<sim::trace::StatSampler>(
                sim, sim::microsecondsToTicks(statIntervalUs_));
            rec->sampler->selectStats(statSelect_);
            if (!statCsvPath_.empty())
                rec->sampler->setCsvPath(indexedPath(statCsvPath_, index));
            if (!statsJsonPath_.empty()) {
                rec->sampler->setStatsJsonPath(
                    indexedPath(statsJsonPath_, index));
            }
            rec->sampler->start();
        }
        sims_.push_back(std::move(rec));
    }

    void
    onSimDestroyed(sim::Simulation &sim)
    {
        for (auto &rec : sims_) {
            if (rec->sim != &sim)
                continue;
            // The event queue is still alive here (observer fires at the
            // top of ~Simulation), so the sampler event detaches safely.
            rec->sampler.reset();
            if (rec->timeline) {
                rec->sim->setTimeline(nullptr);
                if (rec->timeline->writeFile(rec->timelinePath)) {
                    std::fprintf(stderr, "obs: wrote %s (%zu events)\n",
                                 rec->timelinePath.c_str(),
                                 rec->timeline->eventCount());
                }
                rec->timeline.reset();
            }
            rec->sim = nullptr;
            return;
        }
    }

    void
    onLinkCreated(net::Link &link)
    {
        auto writer = std::make_unique<net::PcapWriter>(
            indexedPath(pcapPath_, pcaps_.size()));
        if (writer->ok()) {
            link.attachPcap(writer.get());
            std::fprintf(stderr, "obs: capturing %s to %s\n",
                         link.name().c_str(), writer->path().c_str());
        }
        pcaps_.push_back(std::move(writer));
    }

    /** base.ext -> base.ext, base.1.ext, base.2.ext, ... */
    static std::string
    indexedPath(const std::string &base, std::size_t index)
    {
        if (index == 0)
            return base;
        std::size_t dot = base.rfind('.');
        std::size_t slash = base.rfind('/');
        if (dot == std::string::npos ||
            (slash != std::string::npos && dot < slash)) {
            return base + "." + std::to_string(index);
        }
        return base.substr(0, dot) + "." + std::to_string(index) +
               base.substr(dot);
    }

    bool installed_ = false;
    bool profileActive_ = false;
    std::chrono::steady_clock::time_point profileStart_{};
    std::string pcapPath_;
    std::string timelinePath_;
    std::string statCsvPath_;
    std::string statSelect_ = "*";
    std::string statsJsonPath_;
    double statIntervalUs_ = 100.0;
    std::vector<std::unique_ptr<SimRec>> sims_;
    std::vector<std::unique_ptr<net::PcapWriter>> pcaps_;
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

/** A fingerprint as reports and tables print it: 16 hex digits. */
inline std::string
hex(std::uint64_t fingerprint)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    return buf;
}

/**
 * What every perf harness records about one scenario: its name, the
 * wall time of its measured window (plus the profiler's attribution of
 * that window under --profile), the worker threads that drove it and
 * the fingerprint of its simulated results. Each harness derives its
 * result struct from this and adds its own counters.
 */
struct Measurement
{
    std::string name;
    double wallSeconds = 0;
    /** Worker threads driving the kernel (1 = serial event loop). */
    std::uint64_t threads = 1;
    std::uint64_t fingerprint = 0;
    /** Set when --profile was active during the measured window. */
    bool profiled = false;
    obs::ProfileReport profile;
};

/**
 * Run @p window as @p m's measured window: record its wall time and,
 * under --profile, the profiler's delta over it, with coverage taken
 * against the @p threads the run could actually use.
 */
template <typename Window>
void
measure(Measurement &m, Window &&window, unsigned threads = 1)
{
    sim::prof::Snapshot before = sim::prof::capture();
    auto start = std::chrono::steady_clock::now();
    window();
    m.wallSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (Obs::profiling()) {
        m.profiled = true;
        m.profile = obs::makeProfileReport(sim::prof::since(before),
                                           m.wallSeconds, threads);
    }
}

/** Under --profile, print each scenario's cost attribution table. */
template <typename Result>
void
printProfiles(const std::vector<Result> &results)
{
    if (!Obs::profiling())
        return;
    std::printf("\nper-scenario wall-clock cost attribution:\n");
    for (const Measurement &r : results) {
        std::printf("%s:\n", r.name.c_str());
        obs::printProfileTable(stdout, r.profile);
    }
}

/**
 * One object of a report's row array: members in the order added,
 * then the scenario's "profile" (when it was measured under --profile
 * and the report carries profiles) and its "fingerprint". The profile
 * is held by pointer: keep the Measurement alive until the report is
 * written.
 */
class ReportRow
{
  public:
    explicit ReportRow(const Measurement &m, bool with_profile = true)
        : profile_(with_profile && m.profiled ? &m.profile : nullptr),
          fingerprint_(m.fingerprint), threads_(m.threads)
    {}

    ReportRow &
    add(const char *key, std::uint64_t value)
    {
        return addText(key, std::to_string(value));
    }

    /** A number printed with the printf @p format (e.g. "%.3f"). */
    ReportRow &
    add(const char *key, const char *format, double value)
    {
        return addText(key, fmt(format, value));
    }

    ReportRow &
    add(const char *key, const std::string &text)
    {
        return addText(key, "\"" + text + "\"");
    }

  private:
    friend bool writeReport(const std::string &, const char *, int,
                            const char *, const std::vector<ReportRow> &);

    ReportRow &
    addText(const char *key, std::string json)
    {
        members_.emplace_back(key, std::move(json));
        return *this;
    }

    std::vector<std::pair<std::string, std::string>> members_;
    const obs::ProfileReport *profile_;
    std::uint64_t fingerprint_;
    std::uint64_t threads_;
};

/**
 * Write a BENCH_*.json report: {"bench", "schema", "meta", @p rows_key:
 * [...]}. The meta stamps the run's identity (git SHA, build preset,
 * feature gates, wall timestamp, the most worker threads any row used)
 * so f4t_report can refuse apples-to-oranges comparisons. On success it
 * prints "wrote PATH"; when the file cannot be opened, written or
 * closed it says so on stderr and returns false, and the harness exits
 * non-zero.
 */
inline bool
writeReport(const std::string &path, const char *bench, int schema,
            const char *rows_key, const std::vector<ReportRow> &rows)
{
    auto fail = [&] {
        std::fprintf(stderr, "%s report: cannot write %s: %s\n", bench,
                     path.c_str(), std::strerror(errno));
        return false;
    };
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return fail();
    obs::RunMeta meta = obs::currentRunMeta();
    for (const ReportRow &row : rows)
        meta.threads = std::max(meta.threads, unsigned(row.threads_));
    std::fprintf(out, "{\n  \"bench\": \"%s\",\n  \"schema\": %d,\n",
                 bench, schema);
    obs::writeMetaJson(out, meta, 2);
    std::fprintf(out, ",\n  \"%s\": [\n", rows_key);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ReportRow &row = rows[i];
        std::fprintf(out, "    {\n");
        for (const auto &[key, json] : row.members_)
            std::fprintf(out, "      \"%s\": %s,\n", key.c_str(),
                         json.c_str());
        if (row.profile_) {
            obs::writeProfileJson(out, *row.profile_, 6);
            std::fprintf(out, ",\n");
        }
        std::fprintf(out,
                     "      \"fingerprint\": \"%s\"\n"
                     "    }%s\n",
                     hex(row.fingerprint_).c_str(),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    bool written = !std::ferror(out);
    if (std::fclose(out) != 0 || !written)
        return fail();
    std::printf("\nwrote %s\n", path.c_str());
    return true;
}

} // namespace f4t::bench

#endif // F4T_BENCH_BENCH_UTIL_HH
