#include "obs/run_meta.hh"

#include "obs/json.hh"
#include "sim/check.hh"
#include "sim/profile_scope.hh"
#include "sim/trace.hh"

#include <ctime>

// F4T_GIT_SHA / F4T_PRESET_NAME are injected for this translation unit
// only (see src/obs/CMakeLists.txt) so a new commit rebuilds one file,
// not the whole library.
#ifndef F4T_GIT_SHA
#define F4T_GIT_SHA "unknown"
#endif
#ifndef F4T_PRESET_NAME
#define F4T_PRESET_NAME "unknown"
#endif

namespace f4t::obs
{

RunMeta
currentRunMeta()
{
    RunMeta meta;
    meta.gitSha = F4T_GIT_SHA;
    meta.preset = F4T_PRESET_NAME;
    for (unsigned i = 0; i < sim::trace::numFlags; ++i) {
        if (sim::trace::enabled(static_cast<sim::trace::Flag>(i)))
            meta.traceEnabled = true;
    }
    meta.checksEnabled = sim::checksEnabled;
    meta.profileEnabled = sim::prof::compiledIn;
    meta.profiled = sim::prof::enabled();

    std::time_t now = std::time(nullptr);
    std::tm utc{};
    if (gmtime_r(&now, &utc)) {
        char buf[32];
        if (std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &utc))
            meta.timestamp = buf;
    }
    return meta;
}

void
writeMetaJson(std::FILE *out, const RunMeta &meta, int indent)
{
    std::fprintf(out,
                 "%*s\"meta\": {\n"
                 "%*s  \"git_sha\": \"%s\",\n"
                 "%*s  \"preset\": \"%s\",\n"
                 "%*s  \"trace_enabled\": %s,\n"
                 "%*s  \"checks_enabled\": %s,\n"
                 "%*s  \"profile_enabled\": %s,\n"
                 "%*s  \"profiled\": %s,\n"
                 "%*s  \"timestamp\": \"%s\",\n"
                 "%*s  \"threads\": %u\n"
                 "%*s}",
                 indent, "", indent, "", meta.gitSha.c_str(), indent, "",
                 meta.preset.c_str(), indent, "",
                 meta.traceEnabled ? "true" : "false", indent, "",
                 meta.checksEnabled ? "true" : "false", indent, "",
                 meta.profileEnabled ? "true" : "false", indent, "",
                 meta.profiled ? "true" : "false", indent, "",
                 meta.timestamp.c_str(), indent, "", meta.threads, indent,
                 "");
}

RunMeta
parseRunMeta(const JsonValue &meta)
{
    RunMeta out;
    if (!meta.isObject())
        return out;
    if (const JsonValue *v = meta.find("git_sha"))
        out.gitSha = v->stringOr(out.gitSha);
    if (const JsonValue *v = meta.find("preset"))
        out.preset = v->stringOr(out.preset);
    if (const JsonValue *v = meta.find("trace_enabled"))
        out.traceEnabled = v->boolOr(out.traceEnabled);
    if (const JsonValue *v = meta.find("checks_enabled"))
        out.checksEnabled = v->boolOr(out.checksEnabled);
    if (const JsonValue *v = meta.find("profile_enabled"))
        out.profileEnabled = v->boolOr(out.profileEnabled);
    if (const JsonValue *v = meta.find("profiled"))
        out.profiled = v->boolOr(out.profiled);
    if (const JsonValue *v = meta.find("timestamp"))
        out.timestamp = v->stringOr(out.timestamp);
    if (const JsonValue *v = meta.find("threads"))
        out.threads = static_cast<unsigned>(v->numberOr(out.threads));
    return out;
}

bool
comparableRuns(const RunMeta &a, const RunMeta &b, std::string *why)
{
    if (a.preset != b.preset) {
        if (why)
            *why = "build preset differs ('" + a.preset + "' vs '" +
                   b.preset + "')";
        return false;
    }
    if (a.traceEnabled != b.traceEnabled) {
        if (why)
            *why = "trace flags differ (selected flags print a text line "
                   "per probe)";
        return false;
    }
    if (a.checksEnabled != b.checksEnabled) {
        if (why)
            *why = "F4T_ENABLE_CHECKS differs (invariant checks change "
                   "the hot path cost)";
        return false;
    }
    if (a.profileEnabled != b.profileEnabled) {
        if (why)
            *why = "F4T_ENABLE_PROFILE differs (the profiler's runtime "
                   "gate costs a branch per event when compiled in)";
        return false;
    }
    if (a.profiled != b.profiled) {
        if (why)
            *why = "--profile differs (scoped timers add per-event clock "
                   "reads while enabled)";
        return false;
    }
    return true;
}

} // namespace f4t::obs
