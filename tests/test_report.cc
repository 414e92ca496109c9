/**
 * @file
 * Tests for the observability tooling behind tools/f4t_report: the
 * minimal JSON reader, run-metadata stamping and comparability rules,
 * the metric-direction heuristic, and the noise-aware regression
 * comparison across BENCH-style and stage-latency documents.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.hh"
#include "obs/regression.hh"
#include "obs/run_meta.hh"
#include "sim/trace.hh"

namespace f4t::obs
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

void
writeFileOrDie(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << text;
}

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

TEST(Json, ParsesNestedDocument)
{
    auto doc = parseJson(R"({"a": [1, 2.5, -3e2], "b": {"c": true,
                             "d": null, "e": "x"}, "f": false})");
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());

    const JsonValue *a = doc->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->arr.size(), 3u);
    EXPECT_DOUBLE_EQ(a->arr[0].num, 1.0);
    EXPECT_DOUBLE_EQ(a->arr[1].num, 2.5);
    EXPECT_DOUBLE_EQ(a->arr[2].num, -300.0);

    const JsonValue *b = doc->find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(b->find("c")->boolOr(false));
    EXPECT_EQ(b->find("d")->kind, JsonValue::Kind::null);
    EXPECT_EQ(b->find("e")->stringOr(""), "x");
    EXPECT_EQ(doc->find("nope"), nullptr);
}

TEST(Json, ParsesStringEscapes)
{
    auto doc = parseJson(R"({"s": "a\"b\\c\n\tA"})");
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("s")->str, "a\"b\\c\n\tA");
}

TEST(Json, ReportsErrorsWithOffset)
{
    std::string error;
    EXPECT_FALSE(parseJson("{\"a\": }", &error).has_value());
    EXPECT_FALSE(error.empty());

    error.clear();
    EXPECT_FALSE(parseJson("{} trailing", &error).has_value());
    EXPECT_NE(error.find("trailing"), std::string::npos);

    error.clear();
    EXPECT_FALSE(parseJson("{\"a\": \"unterminated", &error).has_value());
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------
// metric direction heuristic
// ---------------------------------------------------------------------

TEST(MetricDirection, RatesHigherLatenciesLower)
{
    bool higher = false;
    ASSERT_TRUE(metricDirection("host_events_per_sec", &higher));
    EXPECT_TRUE(higher);
    ASSERT_TRUE(metricDirection("sim_packets_per_wall_sec", &higher));
    EXPECT_TRUE(higher);
    ASSERT_TRUE(metricDirection("goodput_gbps", &higher));
    EXPECT_TRUE(higher);

    ASSERT_TRUE(metricDirection("total.p50_us", &higher));
    EXPECT_FALSE(higher);
    ASSERT_TRUE(metricDirection("queue.p99_us", &higher));
    EXPECT_FALSE(higher);
    ASSERT_TRUE(metricDirection("latency_p99", &higher));
    EXPECT_FALSE(higher);
}

TEST(MetricDirection, WallClockThroughputMetricsGateHigher)
{
    // The schema-5 wall-clock metrics the CI perf-report gates: all
    // contain "per_wall", which the higher-better list matches before
    // the lower-better "wall" substring can claim them.
    bool higher = false;
    ASSERT_TRUE(metricDirection("sim_pkts_per_wall_sec_per_flow", &higher));
    EXPECT_TRUE(higher);
    ASSERT_TRUE(metricDirection("sim_ticks_per_wall_sec", &higher));
    EXPECT_TRUE(higher);
    ASSERT_TRUE(metricDirection("round_trips_per_wall_sec", &higher));
    EXPECT_TRUE(higher);
}

TEST(MetricDirection, ProfileCategoriesGateLowerSharesNotAtAll)
{
    // Per-category self time regresses upward (lower is better via
    // the "_us" suffix); shares and coverage are percentages of a
    // whole with no inherent direction, so they must stay ungated.
    bool higher = false;
    ASSERT_TRUE(metricDirection("profile.categories.fpc_exec.self_us",
                                &higher));
    EXPECT_FALSE(higher);
    EXPECT_FALSE(
        metricDirection("profile.categories.fpc_exec.share_pct", &higher));
    EXPECT_FALSE(metricDirection("profile.coverage_pct", &higher));
    EXPECT_FALSE(metricDirection("profile.occupancy_pct", &higher));
    // The profile's own wall reading stays excluded like wall_seconds.
    EXPECT_FALSE(metricDirection("profile.wall_seconds", &higher));
}

TEST(MetricDirection, BookkeepingValuesExcluded)
{
    bool higher = false;
    // Wall-clock duration and distribution maxima are too noisy to
    // gate on; raw counts carry no direction at all.
    EXPECT_FALSE(metricDirection("wall_seconds", &higher));
    EXPECT_FALSE(metricDirection("total.max_us", &higher));
    EXPECT_FALSE(metricDirection("events_processed", &higher));
    EXPECT_FALSE(metricDirection("sim_ticks", &higher));
}

// ---------------------------------------------------------------------
// run metadata
// ---------------------------------------------------------------------

TEST(RunMeta, WriteParseRoundTrip)
{
    RunMeta meta;
    meta.gitSha = "abc123def456";
    meta.preset = "release";
    meta.traceEnabled = true;
    meta.checksEnabled = false;
    meta.profileEnabled = true;
    meta.profiled = true;
    meta.timestamp = "2026-08-07T00:00:00Z";

    std::string path = tempPath("meta_roundtrip.json");
    std::FILE *out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    std::fprintf(out, "{\n");
    writeMetaJson(out, meta, 2);
    std::fprintf(out, "\n}\n");
    std::fclose(out);

    std::string error;
    auto text = readFile(path, &error);
    ASSERT_TRUE(text.has_value()) << error;
    auto doc = parseJson(*text, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const JsonValue *meta_obj = doc->find("meta");
    ASSERT_NE(meta_obj, nullptr);

    RunMeta parsed = parseRunMeta(*meta_obj);
    EXPECT_EQ(parsed.gitSha, meta.gitSha);
    EXPECT_EQ(parsed.preset, meta.preset);
    EXPECT_EQ(parsed.traceEnabled, meta.traceEnabled);
    EXPECT_EQ(parsed.checksEnabled, meta.checksEnabled);
    EXPECT_EQ(parsed.profileEnabled, meta.profileEnabled);
    EXPECT_EQ(parsed.profiled, meta.profiled);
    EXPECT_EQ(parsed.timestamp, meta.timestamp);
    EXPECT_TRUE(parsed.known());
}

TEST(RunMeta, TraceEnabledFollowsSelectedFlags)
{
    sim::trace::clearFlags();
    EXPECT_FALSE(currentRunMeta().traceEnabled);
    sim::trace::setFlags("link");
    EXPECT_TRUE(currentRunMeta().traceEnabled);
    sim::trace::clearFlags();
    EXPECT_FALSE(currentRunMeta().traceEnabled);
}

TEST(RunMeta, ComparableRunsRefusesMixedBuilds)
{
    RunMeta a;
    a.preset = "release";
    a.traceEnabled = false;
    a.checksEnabled = false;
    RunMeta b = a;
    std::string why;
    EXPECT_TRUE(comparableRuns(a, b, &why)) << why;

    // Different git SHAs ARE comparable — that is the comparison.
    b.gitSha = "something_else";
    b.timestamp = "2020-01-01T00:00:00Z";
    EXPECT_TRUE(comparableRuns(a, b, &why)) << why;

    b = a;
    b.preset = "default";
    EXPECT_FALSE(comparableRuns(a, b, &why));
    EXPECT_NE(why.find("preset"), std::string::npos);

    b = a;
    b.traceEnabled = true;
    EXPECT_FALSE(comparableRuns(a, b, &why));
    EXPECT_NE(why.find("trace flags"), std::string::npos);

    b = a;
    b.checksEnabled = true;
    EXPECT_FALSE(comparableRuns(a, b, &why));
    EXPECT_NE(why.find("check"), std::string::npos);

    // The profiler's compile gate and its runtime switch both change
    // what a wall-clock metric measures, so neither may be mixed.
    b = a;
    b.profileEnabled = true;
    EXPECT_FALSE(comparableRuns(a, b, &why));
    EXPECT_NE(why.find("F4T_ENABLE_PROFILE"), std::string::npos);

    b = a;
    b.profiled = true;
    EXPECT_FALSE(comparableRuns(a, b, &why));
    EXPECT_NE(why.find("profile"), std::string::npos);
}

// ---------------------------------------------------------------------
// regression comparison
// ---------------------------------------------------------------------

const char *const kBaselineBench = R"({
  "bench": "kernel",
  "schema": 2,
  "meta": {
    "git_sha": "aaaa",
    "preset": "release",
    "trace_enabled": false,
    "checks_enabled": false,
    "timestamp": "2026-01-01T00:00:00Z"
  },
  "scenarios": [
    {
      "name": "event_rate",
      "wall_seconds": 1.0,
      "host_events_per_sec": 1000000.0,
      "events_processed": 1000000,
      "fingerprint": "c728275c7a9b203e"
    },
    {
      "name": "bulk_transfer",
      "wall_seconds": 2.0,
      "sim_packets_per_wall_sec": 500000.0,
      "fingerprint": "79b615094008c707"
    }
  ]
})";

std::string
loadedPath(const std::string &name, const std::string &text)
{
    std::string path = tempPath(name);
    writeFileOrDie(path, text);
    return path;
}

ReportDoc
mustLoad(const std::string &path)
{
    std::string error;
    auto doc = loadReportDoc(path, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    return doc.value_or(ReportDoc{});
}

TEST(Regression, IdenticalInputsPass)
{
    std::string path = loadedPath("ident.json", kBaselineBench);
    ReportDoc doc = mustLoad(path);
    EXPECT_EQ(doc.kind, "kernel");
    EXPECT_EQ(doc.meta.preset, "release");
    ASSERT_EQ(doc.scenarios.size(), 2u);

    RegressionReport report = compareDocs(doc, doc, 0.10);
    EXPECT_FALSE(report.anyRegression);
    ASSERT_FALSE(report.comparisons.empty());
    for (const Comparison &c : report.comparisons) {
        EXPECT_EQ(c.verdict, Verdict::pass);
        EXPECT_DOUBLE_EQ(c.deltaPct, 0.0);
    }
}

TEST(Regression, ThroughputDropBeyondBandRegresses)
{
    ReportDoc base = mustLoad(loadedPath("rbase.json", kBaselineBench));

    std::string cand_text = kBaselineBench;
    // -20% host_events_per_sec, past a 10% band.
    auto pos = cand_text.find("1000000.0");
    ASSERT_NE(pos, std::string::npos);
    cand_text.replace(pos, 9, "800000.00");
    ReportDoc cand = mustLoad(loadedPath("rcand.json", cand_text));

    RegressionReport report = compareDocs(base, cand, 0.10);
    EXPECT_TRUE(report.anyRegression);
    bool found = false;
    for (const Comparison &c : report.comparisons) {
        if (c.metric != "host_events_per_sec")
            continue;
        found = true;
        EXPECT_EQ(c.verdict, Verdict::regressed);
        EXPECT_NEAR(c.deltaPct, -20.0, 0.01);
    }
    EXPECT_TRUE(found);

    // The same delta inside a generous band passes.
    EXPECT_FALSE(compareDocs(base, cand, 0.25).anyRegression);
}

TEST(Regression, LatencyRiseRegressesAndDropImproves)
{
    const char *const stage_doc = R"({
  "kind": "stage_latency",
  "schema": 1,
  "meta": {"preset": "default", "trace_enabled": true,
           "checks_enabled": true},
  "stages": [
    {
      "name": "wire",
      "total": {"count": 100, "mean_us": 2.0, "p50_us": %P50%,
                "p99_us": 4.0, "max_us": 9.0}
    }
  ],
  "e2e": {"total": {"count": 100, "mean_us": 50.0, "p50_us": 48.0,
                    "p99_us": 90.0, "max_us": 120.0}}
})";

    auto withP50 = [&](const char *value) {
        std::string text = stage_doc;
        text.replace(text.find("%P50%"), 5, value);
        return text;
    };
    ReportDoc base =
        mustLoad(loadedPath("sbase.json", withP50("2.0")));
    EXPECT_EQ(base.kind, "stage_latency");
    ASSERT_EQ(base.scenarios.size(), 2u); // stage:wire + e2e

    ReportDoc worse =
        mustLoad(loadedPath("sworse.json", withP50("3.0")));
    RegressionReport report = compareDocs(base, worse, 0.10);
    EXPECT_TRUE(report.anyRegression);

    // Lower latency is an improvement, never a regression.
    RegressionReport improved = compareDocs(worse, base, 0.10);
    EXPECT_FALSE(improved.anyRegression);
    bool saw_improved = false;
    for (const Comparison &c : improved.comparisons) {
        if (c.verdict == Verdict::improved)
            saw_improved = true;
    }
    EXPECT_TRUE(saw_improved);
}

TEST(Regression, FingerprintChangeIsNoteNotFailure)
{
    ReportDoc base = mustLoad(loadedPath("fbase.json", kBaselineBench));
    std::string cand_text = kBaselineBench;
    auto pos = cand_text.find("c728275c7a9b203e");
    ASSERT_NE(pos, std::string::npos);
    cand_text.replace(pos, 16, "deadbeefdeadbeef");
    ReportDoc cand = mustLoad(loadedPath("fcand.json", cand_text));

    RegressionReport report = compareDocs(base, cand, 0.10);
    EXPECT_FALSE(report.anyRegression);
    bool noted = false;
    for (const std::string &note : report.notes) {
        if (note.find("fingerprint") != std::string::npos)
            noted = true;
    }
    EXPECT_TRUE(noted);
}

TEST(Regression, MissingScenarioIsNoted)
{
    ReportDoc base = mustLoad(loadedPath("mbase.json", kBaselineBench));
    ReportDoc cand = base;
    cand.scenarios.pop_back();

    RegressionReport report = compareDocs(base, cand, 0.10);
    EXPECT_FALSE(report.anyRegression);
    bool noted = false;
    for (const std::string &note : report.notes) {
        if (note.find("bulk_transfer") != std::string::npos)
            noted = true;
    }
    EXPECT_TRUE(noted);
}

TEST(Regression, LoadRejectsGarbage)
{
    std::string error;
    EXPECT_FALSE(
        loadReportDoc(tempPath("does_not_exist.json"), &error).has_value());
    EXPECT_FALSE(error.empty());

    error.clear();
    std::string path = loadedPath("garbage.json", "not json at all");
    EXPECT_FALSE(loadReportDoc(path, &error).has_value());
    EXPECT_FALSE(error.empty());

    error.clear();
    path = loadedPath("noscenarios.json", R"({"bench": "kernel"})");
    EXPECT_FALSE(loadReportDoc(path, &error).has_value());
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace f4t::obs
