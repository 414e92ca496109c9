/**
 * f4t_report — compare benchmark result files and render a
 * perf-regression report.
 *
 *   f4t_report [options] BASELINE.json CANDIDATE.json [MORE.json ...]
 *
 * Every file after the first is compared against the baseline. Inputs
 * are BENCH_*.json files from the bench/ harnesses or per-stage
 * latency files from the tracing reporters; the two kinds cannot be
 * mixed in one invocation. Run metadata (preset, feature gates) must
 * match between the baseline and each candidate — measurements from
 * differently-configured builds are not comparable and the tool
 * refuses rather than report a bogus verdict (--allow-mismatch
 * downgrades the refusal to a warning).
 *
 * Exit status: 0 when no metric regressed beyond the noise band,
 * 1 when at least one did, 2 on usage / parse / metadata errors.
 */

#include "obs/regression.hh"
#include "obs/run_meta.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--noise PCT] [--allow-mismatch] BASELINE CANDIDATE...\n"
        "  --noise PCT        noise band in percent (default 10)\n"
        "  --allow-mismatch   compare even when run metadata differs\n",
        argv0);
    return 2;
}

/**
 * Strict --noise value: a finite, non-negative decimal percentage with
 * no trailing junk, stored as a fraction. On a bad value it says why
 * and returns false, so the caller exits 2 instead of silently
 * comparing with a wrong band.
 */
bool
parsePercent(const char *text, double &fraction)
{
    char *end = nullptr;
    errno = 0;
    double pct = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno != 0 || !std::isfinite(pct) ||
        pct < 0.0) {
        std::fprintf(stderr,
                     "f4t_report: invalid --noise value '%s' (want a "
                     "non-negative percentage)\n",
                     text);
        return false;
    }
    fraction = pct / 100.0;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    double noise_band = 0.10;
    bool allow_mismatch = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--noise") == 0 && i + 1 < argc) {
            if (!parsePercent(argv[++i], noise_band))
                return usage(argv[0]);
        } else if (std::strcmp(argv[i], "--allow-mismatch") == 0) {
            allow_mismatch = true;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            return usage(argv[0]);
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "f4t_report: unknown option '%s'\n",
                         argv[i]);
            return usage(argv[0]);
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (paths.size() < 2)
        return usage(argv[0]);

    std::vector<f4t::obs::ReportDoc> docs;
    for (const std::string &path : paths) {
        std::string error;
        auto doc = f4t::obs::loadReportDoc(path, &error);
        if (!doc) {
            std::fprintf(stderr, "f4t_report: %s\n", error.c_str());
            return 2;
        }
        docs.push_back(std::move(*doc));
    }

    const f4t::obs::ReportDoc &baseline = docs.front();
    bool any_regression = false;
    for (std::size_t i = 1; i < docs.size(); ++i) {
        const f4t::obs::ReportDoc &candidate = docs[i];
        if (candidate.kind != baseline.kind) {
            std::fprintf(stderr,
                         "f4t_report: cannot compare '%s' (%s) against "
                         "'%s' (%s): different result kinds\n",
                         candidate.path.c_str(), candidate.kind.c_str(),
                         baseline.path.c_str(), baseline.kind.c_str());
            return 2;
        }
        std::string why;
        if (!f4t::obs::comparableRuns(baseline.meta, candidate.meta,
                                      &why)) {
            if (!allow_mismatch) {
                std::fprintf(stderr,
                             "f4t_report: refusing to compare '%s' "
                             "against '%s': %s (use --allow-mismatch to "
                             "override)\n",
                             candidate.path.c_str(),
                             baseline.path.c_str(), why.c_str());
                return 2;
            }
            std::fprintf(stderr, "f4t_report: warning: %s\n",
                         why.c_str());
        }

        f4t::obs::RegressionReport report =
            f4t::obs::compareDocs(baseline, candidate, noise_band);
        f4t::obs::printReport(stdout, baseline, candidate, report,
                              noise_band);
        if (report.comparisons.empty()) {
            std::fprintf(stderr,
                         "f4t_report: no comparable metrics between "
                         "'%s' and '%s'\n",
                         baseline.path.c_str(), candidate.path.c_str());
            return 2;
        }
        any_regression = any_regression || report.anyRegression;
        if (i + 1 < docs.size())
            std::fprintf(stdout, "\n");
    }
    return any_regression ? 1 : 0;
}
