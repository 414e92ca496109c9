/**
 * @file
 * Run metadata stamped into every BENCH_*.json: git revision, build
 * preset, the two compile-time feature gates, whether trace flags or
 * the profiler were live during the run, and a wall-clock timestamp.
 * f4t_report refuses to compare two files whose metadata says the runs
 * are not comparable (different preset, gate settings or live
 * instrumentation) — a traced run against an untraced baseline is an
 * apples-to-oranges perf comparison, not a regression.
 */

#ifndef F4T_OBS_RUN_META_HH
#define F4T_OBS_RUN_META_HH

#include <cstdio>
#include <string>

namespace f4t::obs
{

struct JsonValue;

struct RunMeta
{
    std::string gitSha = "unknown";
    std::string preset = "unknown";
    /** Some trace flag was selected (F4T_TRACE or --trace=), so probe
     *  text lines were live: the trace analogue of `profiled`. */
    bool traceEnabled = false;
    bool checksEnabled = false;
    /** F4T_ENABLE_PROFILE compiled in (the gate, not whether it ran). */
    bool profileEnabled = false;
    /** This run actually measured with --profile (scoped timers hot). */
    bool profiled = false;
    /** ISO-8601 UTC wall time of the run ("" when not recorded). */
    std::string timestamp;
    /**
     * Worker threads driving the simulation (1 = serial kernel).
     * Informational only: a run stays self-describing, but
     * comparableRuns() does not gate on it — thread count is part of
     * what a scaling comparison measures, and per-scenario results in
     * one file already mix thread counts.
     */
    unsigned threads = 1;

    bool known() const { return preset != "unknown"; }
};

/** Metadata of the currently running binary (gates are compile-time,
 *  the SHA and preset are baked in at configure time, and the trace
 *  and profile state is read at the call). */
RunMeta currentRunMeta();

/**
 * Emit the metadata as a `"meta": {...}` JSON object member (no
 * trailing comma) at indentation @p indent, for the hand-rolled
 * writers in bench/ and tools/.
 */
void writeMetaJson(std::FILE *out, const RunMeta &meta, int indent);

/** Parse a "meta" object; fields missing in old files stay defaulted. */
RunMeta parseRunMeta(const JsonValue &meta);

/**
 * Are two runs comparable for performance numbers? Presets and both
 * feature gates must match (the git SHA and timestamp may differ —
 * that is the comparison being made). @p why receives the first
 * mismatch when the answer is no.
 */
bool comparableRuns(const RunMeta &a, const RunMeta &b, std::string *why);

} // namespace f4t::obs

#endif // F4T_OBS_RUN_META_HH
