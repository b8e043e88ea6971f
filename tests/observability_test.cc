/**
 * @file
 * Tests for the observability layer: span trees under a ManualClock,
 * the zero-overhead disabled path, the metrics registry (exact totals
 * under thread-pool fan-out — run under CMINER_SANITIZE=thread;
 * duration-histogram buckets and percentiles; strict read-back),
 * reconciliation of exported counters against IngestReport and
 * SeriesCleanReport totals, and the CLI export surface
 * (--trace-out/--metrics-out plus the `stats` subcommand).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/cleaner.h"
#include "core/perf_text.h"
#include "support/test_support.h"
#include "ts/time_series.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace {

using namespace cminer;
using cminer::util::ManualClock;
using cminer::util::MetricsRegistry;
using cminer::util::Span;
using cminer::util::Tracer;
using cminer::test::MetricsGuard;
using cminer::test::ThreadCountGuard;

/** Installs a tracer for one test and always uninstalls it. */
struct TracerGuard
{
    explicit TracerGuard(Tracer *tracer)
    {
        util::setGlobalTracer(tracer);
    }
    ~TracerGuard() { util::setGlobalTracer(nullptr); }
};

// --- a minimal JSON syntax checker --------------------------------------
// The exports promise *valid* JSON, not just greppable text, so the
// tests walk the document with a tiny recursive-descent validator
// (values only; no semantics).

struct JsonChecker
{
    const std::string &text;
    std::size_t pos = 0;

    explicit JsonChecker(const std::string &t)
        : text(t)
    {
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' ||
                text[pos] == '\t' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    string()
    {
        skipSpace();
        if (pos >= text.size() || text[pos] != '"')
            return false;
        ++pos;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size())
                    return false;
            }
            ++pos;
        }
        return consume('"');
    }

    bool
    value()
    {
        skipSpace();
        if (pos >= text.size())
            return false;
        const char c = text[pos];
        if (c == '"')
            return string();
        if (c == '{') {
            ++pos;
            if (consume('}'))
                return true;
            do {
                if (!string() || !consume(':') || !value())
                    return false;
            } while (consume(','));
            return consume('}');
        }
        if (c == '[') {
            ++pos;
            if (consume(']'))
                return true;
            do {
                if (!value())
                    return false;
            } while (consume(','));
            return consume(']');
        }
        // Scalar: number / true / false / null.
        const std::size_t start = pos;
        while (pos < text.size() && text[pos] != ',' &&
               text[pos] != '}' && text[pos] != ']' &&
               text[pos] != ' ' && text[pos] != '\n')
            ++pos;
        return pos > start;
    }

    bool
    document()
    {
        if (!value())
            return false;
        skipSpace();
        return pos == text.size();
    }
};

bool
isValidJson(const std::string &text)
{
    JsonChecker checker(text);
    return checker.document();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

// --- span trees ---------------------------------------------------------

TEST(Trace, SpanTreeRecordsParentsDurationsAndAttrs)
{
    ManualClock clock;
    Tracer tracer(clock);
    TracerGuard guard(&tracer);

    {
        Span outer("profile");
        outer.label("benchmark", "sort");
        clock.advance(5.0);
        {
            Span inner("clean");
            inner.number("runs", 3.0);
            clock.advance(2.5);
        }
        clock.advance(1.0);
        outer.number("iterations", 7.0);
    }

    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 2u);

    EXPECT_EQ(spans[0].name, "profile");
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_TRUE(spans[0].closed);
    EXPECT_DOUBLE_EQ(spans[0].durationMs(), 8.5);
    ASSERT_EQ(spans[0].labels.size(), 1u);
    EXPECT_EQ(spans[0].labels[0].first, "benchmark");
    EXPECT_EQ(spans[0].labels[0].second, "sort");
    ASSERT_EQ(spans[0].numbers.size(), 1u);
    EXPECT_EQ(spans[0].numbers[0].first, "iterations");
    EXPECT_DOUBLE_EQ(spans[0].numbers[0].second, 7.0);

    EXPECT_EQ(spans[1].name, "clean");
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_DOUBLE_EQ(spans[1].startMs, 5.0);
    EXPECT_DOUBLE_EQ(spans[1].durationMs(), 2.5);
    ASSERT_EQ(spans[1].numbers.size(), 1u);
    EXPECT_DOUBLE_EQ(spans[1].numbers[0].second, 3.0);
}

TEST(Trace, ToJsonNestsChildrenAndIsValid)
{
    ManualClock clock;
    Tracer tracer(clock);
    TracerGuard guard(&tracer);

    {
        Span outer("profile");
        clock.advance(1.0);
        Span inner("collect");
        clock.advance(1.0);
    }
    {
        Span sibling("report");
        clock.advance(1.0);
    }

    const std::string json = tracer.toJson();
    EXPECT_TRUE(isValidJson(json)) << json;
    EXPECT_NE(json.find("\"spans\""), std::string::npos);
    EXPECT_NE(json.find("\"children\""), std::string::npos);
    // "collect" nests inside "profile"; "report" is a second root.
    const auto profile_at = json.find("\"profile\"");
    const auto collect_at = json.find("\"collect\"");
    ASSERT_NE(profile_at, std::string::npos);
    ASSERT_NE(collect_at, std::string::npos);
    EXPECT_LT(profile_at, collect_at);
}

TEST(Trace, SpansFromPoolWorkersRootTheirOwnSubtree)
{
    ManualClock clock;
    Tracer tracer(clock);
    TracerGuard guard(&tracer);
    ThreadCountGuard threads(4);

    {
        Span outer("pipeline");
        util::parallelFor(0, 4, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                Span task("task");
        });
    }

    std::size_t roots = 0;
    for (const auto &span : tracer.spans()) {
        EXPECT_TRUE(span.closed);
        if (span.parent == 0)
            ++roots;
    }
    // "pipeline" is a root; every "task" opened on a worker thread is a
    // root too, while tasks the caller ran inline nest under "pipeline".
    EXPECT_GE(roots, 1u);
    EXPECT_EQ(tracer.spans().size(), 5u);
}

TEST(Trace, DisabledSpansAreInert)
{
    ASSERT_EQ(util::globalTracer(), nullptr);
    Span span("anything");
    EXPECT_FALSE(span.active());
    span.number("events", 1.0); // must not crash or allocate a tracer
    span.label("benchmark", "sort");
    EXPECT_EQ(util::globalTracer(), nullptr);
}

// --- metrics registry ---------------------------------------------------

TEST(Metrics, CountersGaugesHistogramsRoundTripThroughJson)
{
    ManualClock clock;
    MetricsRegistry registry(&clock);
    registry.counter("ingest.lines_dropped").add(3);
    registry.counter("cleaner.outliers_replaced").add(14);
    registry.gauge("eir.best_error_percent").set(3.75);
    registry.histogram("threadpool.queue_wait_ms").record(2.0);
    registry.histogram("threadpool.queue_wait_ms").record(6.0);

    const std::string json = registry.toJson();
    EXPECT_TRUE(isValidJson(json)) << json;

    auto parsed = util::parseMetricsJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const auto snapshot = std::move(parsed).value();

    ASSERT_EQ(snapshot.counters.size(), 2u);
    // std::map ordering: exports are sorted by name.
    EXPECT_EQ(snapshot.counters[0].first, "cleaner.outliers_replaced");
    EXPECT_EQ(snapshot.counters[0].second, 14u);
    EXPECT_EQ(snapshot.counters[1].first, "ingest.lines_dropped");
    EXPECT_EQ(snapshot.counters[1].second, 3u);

    ASSERT_EQ(snapshot.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 3.75);

    ASSERT_EQ(snapshot.histograms.size(), 1u);
    const auto &histogram = snapshot.histograms[0].second;
    EXPECT_EQ(histogram.count, 2u);
    EXPECT_DOUBLE_EQ(histogram.totalMs, 8.0);
    EXPECT_DOUBLE_EQ(histogram.minMs, 2.0);
    EXPECT_DOUBLE_EQ(histogram.maxMs, 6.0);
    EXPECT_DOUBLE_EQ(histogram.meanMs(), 4.0);
    // Percentiles are bucket upper edges: 2 ms is an edge, 6 ms sits
    // in the bucket up to 8 ms.
    EXPECT_EQ(histogram.p50Ms, 2.0);
    EXPECT_EQ(histogram.p99Ms, 8.0);
}

TEST(Metrics, FilesWithoutPercentilesStillParse)
{
    // The layout metrics files had before histograms carried
    // percentiles: they read back as 0.
    auto parsed = util::parseMetricsJson(
        "{\"counters\":{\"serve.requests_ok\":7},\"gauges\":{},"
        "\"histograms\":{\"serve.latency_ms\":{\"count\":2,"
        "\"totalMs\":0.5,\"meanMs\":0.25,\"minMs\":0.125,"
        "\"maxMs\":0.375}}}");
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const auto snapshot = std::move(parsed).value();
    ASSERT_EQ(snapshot.histograms.size(), 1u);
    const auto &histogram = snapshot.histograms[0].second;
    EXPECT_EQ(histogram.count, 2u);
    EXPECT_EQ(histogram.maxMs, 0.375);
    EXPECT_EQ(histogram.p50Ms, 0.0);
    EXPECT_EQ(histogram.p99Ms, 0.0);
}

TEST(Metrics, ParseRejectsCountsThatAreNotWholeNumbers)
{
    // A count converts to uint64 only from a whole number in
    // [0, 2^64); -1 and 1e300 would be undefined casts, 2.5 a silent
    // truncation.
    for (const std::string bad : {"-1", "1e300", "2.5"}) {
        auto parsed = util::parseMetricsJson(
            "{\"counters\":{\"x\":" + bad +
            "},\"gauges\":{},\"histograms\":{}}");
        ASSERT_FALSE(parsed.ok()) << bad;
        EXPECT_EQ(parsed.status().code(), util::StatusCode::ParseError);
        EXPECT_NE(parsed.status().message().find("counter 'x'"),
                  std::string::npos)
            << parsed.status().message();
    }
    auto histogram = util::parseMetricsJson(
        "{\"counters\":{},\"gauges\":{},\"histograms\":{\"h_ms\":"
        "{\"count\":-3,\"totalMs\":0,\"minMs\":0,\"maxMs\":0}}}");
    ASSERT_FALSE(histogram.ok());
    EXPECT_EQ(histogram.status().code(), util::StatusCode::ParseError);
    EXPECT_NE(histogram.status().message().find("histogram 'h_ms' count"),
              std::string::npos)
        << histogram.status().message();

    auto largest = util::parseMetricsJson(
        "{\"counters\":{\"x\":9007199254740992},\"gauges\":{},"
        "\"histograms\":{}}");
    ASSERT_TRUE(largest.ok()) << largest.status().toString();
    EXPECT_EQ(largest.value().counters[0].second, 9007199254740992u);
}

// --- duration histogram buckets -----------------------------------------

TEST(ServeLatency, PercentilesAreMonotoneUpperBounds)
{
    util::DurationHistogram histogram;
    EXPECT_EQ(histogram.percentile(0.99), 0.0);
    for (int i = 0; i < 99; ++i)
        histogram.record(0.05);
    histogram.record(100.0);
    const auto snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.count, 100u);
    EXPECT_EQ(snapshot.maxMs, 100.0);
    const double p50 = snapshot.p50Ms;
    const double p99 = snapshot.p99Ms;
    EXPECT_GE(p50, 0.05);
    EXPECT_LE(p50, 0.0625);
    EXPECT_LE(p99, 128.0);
    EXPECT_GE(p99, p50);
    EXPECT_GE(histogram.percentile(1.0), 100.0 / 2.0);
}

TEST(Metrics, HistogramBucketsDoubleFromOneSixteenthMs)
{
    const auto only = [](double ms) {
        util::DurationHistogram histogram;
        histogram.record(ms);
        return histogram.percentile(1.0);
    };
    // A negative duration lands in bucket 0, as does its upper edge.
    EXPECT_EQ(only(-4.0), 0.0625);
    EXPECT_EQ(only(0.0), 0.0625);
    EXPECT_EQ(only(0.0625), 0.0625);
    EXPECT_EQ(only(0.07), 0.125);
    EXPECT_EQ(only(1.0), 1.0);
    EXPECT_EQ(only(1.5), 2.0);
    // 28 buckets: the last one, up to 2^23 ms, takes everything above.
    EXPECT_EQ(only(std::ldexp(1.0, 23)), std::ldexp(1.0, 23));
    EXPECT_EQ(only(1e12), std::ldexp(1.0, 23));

    util::DurationHistogram negative;
    negative.record(-4.0);
    EXPECT_EQ(negative.snapshot().minMs, -4.0);
}

TEST(Metrics, EmptyRegistryRoundTrips)
{
    MetricsRegistry registry;
    auto parsed = util::parseMetricsJson(registry.toJson());
    ASSERT_TRUE(parsed.ok());
    const auto snapshot = std::move(parsed).value();
    EXPECT_TRUE(snapshot.counters.empty());
    EXPECT_TRUE(snapshot.gauges.empty());
    EXPECT_TRUE(snapshot.histograms.empty());
}

TEST(Metrics, ParseRejectsDamagedDocuments)
{
    EXPECT_FALSE(util::parseMetricsJson("").ok());
    EXPECT_FALSE(util::parseMetricsJson("not json").ok());
    EXPECT_FALSE(util::parseMetricsJson("{\"counters\":{").ok());
    EXPECT_FALSE(
        util::parseMetricsJson("{\"surprise\":{}}").ok());
    EXPECT_FALSE(util::parseMetricsJson(
                     "{\"counters\":{},\"gauges\":{},"
                     "\"histograms\":{}} trailing")
                     .ok());
}

TEST(Metrics, InjectedClockDrivesDurations)
{
    ManualClock clock;
    MetricsGuard metrics(&clock);
    auto &registry = metrics.registry;
    clock.advance(100.0);
    EXPECT_DOUBLE_EQ(registry.nowMs(), 100.0);
    util::recordDuration("fit.tree_ms", 12.0);
    EXPECT_EQ(registry.histogram("fit.tree_ms").snapshot().count, 1u);
    EXPECT_DOUBLE_EQ(
        registry.histogram("fit.tree_ms").snapshot().totalMs, 12.0);
}

TEST(Metrics, HelpersAreInertWhenDisabled)
{
    ASSERT_EQ(util::globalMetrics(), nullptr);
    util::count("nope");
    util::gaugeSet("nope", 1.0);
    util::recordDuration("nope_ms", 1.0);
    EXPECT_EQ(util::globalMetrics(), nullptr);
}

// --- exact totals under thread-pool fan-out (TSan target) ---------------

TEST(Metrics, CounterTotalsAreExactAcrossPoolWorkers)
{
    MetricsGuard metrics;
    auto &registry = metrics.registry;
    ThreadCountGuard threads(4);

    constexpr std::size_t n = 1000;
    util::parallelFor(0, n, 1, [](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            util::count("test.increments");
    });

    EXPECT_EQ(registry.counter("test.increments").value(), n);
    // Helpers enqueued on the pool were themselves instrumented.
    const std::uint64_t tasks =
        registry.counter("threadpool.tasks").value();
    EXPECT_GE(tasks, 1u);
    EXPECT_EQ(registry.histogram("threadpool.run_ms").snapshot().count,
              tasks);
    EXPECT_EQ(
        registry.histogram("threadpool.queue_wait_ms").snapshot().count,
        tasks);
}

// --- reconciliation against pipeline reports ----------------------------

TEST(Metrics, IngestCountersReconcileWithIngestReport)
{
    MetricsGuard metrics;
    auto &registry = metrics.registry;

    const std::string damaged =
        "# time,counts,event\n"
        "0.100000,100,cycles\n"
        "0.100000,50,instructions\n"
        "this line is garbage\n"
        "0.200000,nan,cycles\n"
        "0.200000,60,instructions\n"
        "0.200000,70,instructions\n"
        "0.150000,80,cycles\n"
        "bad_ts,90,cycles\n"
        "0.300000,120,cycles\n"
        "0.300000,65,instructions\n"
        "0.400000,130,cycles\n"
        "0.500000,140,cycles\n"
        "0.600000,150,cyc"; // torn final line (no newline)

    core::PerfParseOptions options;
    options.lenient = true;
    core::IngestReport report;
    auto parsed = core::parsePerfIntervals(damaged, options, report);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    ASSERT_GT(report.damaged(), 0u);
    ASSERT_GT(report.paddedSamples, 0u);

    const auto counter = [&](const char *name) {
        return registry.counter(name).value();
    };
    EXPECT_EQ(counter("ingest.lines_total"), report.totalLines);
    EXPECT_EQ(counter("ingest.samples_parsed"), report.parsedSamples);
    EXPECT_EQ(counter("ingest.malformed_lines"), report.malformedLines);
    EXPECT_EQ(counter("ingest.bad_timestamps"), report.badTimestamps);
    EXPECT_EQ(counter("ingest.non_monotonic"), report.nonMonotonic);
    EXPECT_EQ(counter("ingest.duplicate_samples"),
              report.duplicateSamples);
    EXPECT_EQ(counter("ingest.non_finite_counts"),
              report.nonFiniteCounts);
    EXPECT_EQ(counter("ingest.truncated_lines"), report.truncatedLines);
    EXPECT_EQ(counter("ingest.samples_padded"), report.paddedSamples);
    EXPECT_EQ(counter("ingest.lines_dropped"), report.damaged());
    EXPECT_EQ(counter("ingest.files_parsed"), 1u);
}

TEST(Metrics, IngestCountersDiffAgainstAnAccumulatingReport)
{
    MetricsGuard metrics;
    auto &registry = metrics.registry;

    const std::string good = "0.100000,100,cycles\n"
                             "0.200000,110,cycles\n";
    core::PerfParseOptions options;
    options.lenient = true;
    core::IngestReport report;
    ASSERT_TRUE(core::parsePerfIntervals(good, options, report).ok());
    ASSERT_TRUE(core::parsePerfIntervals(good, options, report).ok());

    // The report accumulated across both files; the counters must have
    // wired per-parse deltas, not re-added the running totals.
    EXPECT_EQ(report.totalLines, 4u);
    EXPECT_EQ(registry.counter("ingest.lines_total").value(), 4u);
    EXPECT_EQ(registry.counter("ingest.files_parsed").value(), 2u);
}

TEST(Metrics, CleanerCountersReconcileWithSummedReports)
{
    MetricsGuard metrics;
    auto &registry = metrics.registry;
    ThreadCountGuard threads(4);

    // Gaussian base with moderate outliers: extreme spikes inflate the
    // Eq.-6 sigma until the threshold swallows them, so keep the
    // outliers within reach of mean + 3..8 sigma.
    std::vector<ts::TimeSeries> series;
    for (int s = 0; s < 6; ++s) {
        util::Rng rng(100 + static_cast<std::uint64_t>(s));
        std::vector<double> values(500);
        for (auto &v : values)
            v = std::max(0.1, rng.gaussian(1000.0, 50.0));
        values[100] = 5000.0; // outlier
        values[300] = 6000.0; // outlier
        values[7] = 0.0;      // missing (max >> 0.01)
        values[11] = std::nan("");
        values[13] = -5.0;
        series.emplace_back("event" + std::to_string(s),
                            std::move(values), 10.0);
    }

    const core::DataCleaner cleaner;
    const auto reports = cleaner.cleanAll(series);

    std::size_t outliers = 0;
    std::size_t missing = 0;
    std::size_t non_finite = 0;
    std::size_t true_zeros = 0;
    for (const auto &report : reports) {
        outliers += report.outliersReplaced;
        missing += report.missingFilled;
        non_finite += report.nonFiniteRepaired;
        true_zeros += report.trueZerosKept;
    }
    ASSERT_GT(outliers, 0u);
    ASSERT_GT(missing, 0u);

    EXPECT_EQ(registry.counter("cleaner.series_cleaned").value(),
              reports.size());
    EXPECT_EQ(registry.counter("cleaner.outliers_replaced").value(),
              outliers);
    EXPECT_EQ(registry.counter("cleaner.missing_filled").value(),
              missing);
    EXPECT_EQ(registry.counter("cleaner.non_finite_repaired").value(),
              non_finite);
    EXPECT_EQ(registry.counter("cleaner.true_zeros_kept").value(),
              true_zeros);
}

// --- CLI export surface -------------------------------------------------

TEST(CliObservability, ProfileExportsSpanTreeAndMetrics)
{
    const std::string trace_path = tempPath("cminer-obs-trace.json");
    const std::string metrics_path = tempPath("cminer-obs-metrics.json");
    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());

    std::string output;
    ASSERT_EQ(cli::run({"profile", "sort", "--min-events", "150",
                        "--seed", "5", "--trace-out", trace_path,
                        "--metrics-out", metrics_path},
                       output),
              0)
        << output;
    EXPECT_NE(output.find("wrote trace to"), std::string::npos);
    EXPECT_NE(output.find("wrote metrics to"), std::string::npos);

    const std::string trace = readFile(trace_path);
    EXPECT_TRUE(isValidJson(trace));
    std::size_t stages = 0;
    for (const char *stage :
         {"\"profile\"", "\"collect\"", "\"clean\"", "\"dataset\"",
          "\"eir\"", "\"mapm\"", "\"interaction\""}) {
        if (trace.find(stage) != std::string::npos)
            ++stages;
    }
    EXPECT_GE(stages, 5u) << trace;
    EXPECT_NE(trace.find("\"eir.iteration\""), std::string::npos);
    EXPECT_NE(trace.find("\"children\""), std::string::npos);

    const std::string metrics = readFile(metrics_path);
    EXPECT_TRUE(isValidJson(metrics));
    auto parsed = util::parseMetricsJson(metrics);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const auto snapshot = std::move(parsed).value();
    const auto counter =
        [&](const std::string &name) -> std::uint64_t {
        for (const auto &[n, v] : snapshot.counters) {
            if (n == name)
                return v;
        }
        return 0;
    };
    EXPECT_GE(counter("collector.runs_recorded"), 1u);
    EXPECT_GE(counter("gbrt.fits"), 1u);
    EXPECT_GE(counter("gbrt.trees_fit"), 1u);
    EXPECT_GE(counter("eir.iterations"), 1u);
    EXPECT_GE(counter("cleaner.series_cleaned"), 1u);

    // The run's cleaner counters reconcile with its stdout-free report:
    // re-derive by parsing the metrics only (counters are the truth).
    std::string stats_output;
    ASSERT_EQ(cli::run({"stats", metrics_path}, stats_output), 0)
        << stats_output;
    EXPECT_NE(stats_output.find("counter"), std::string::npos);
    EXPECT_NE(stats_output.find("eir.iterations"), std::string::npos);
    EXPECT_NE(stats_output.find("gauge"), std::string::npos);

    // Globals must be torn down once the command returns.
    EXPECT_EQ(util::globalTracer(), nullptr);
    EXPECT_EQ(util::globalMetrics(), nullptr);

    std::remove(trace_path.c_str());
    std::remove(metrics_path.c_str());
}

TEST(CliObservability, StatsRejectsMissingAndDamagedFiles)
{
    std::string output;
    EXPECT_EQ(cli::run({"stats", tempPath("cminer-no-such.json")},
                       output),
              1);

    const std::string bad_path = tempPath("cminer-bad-metrics.json");
    {
        std::ofstream out(bad_path);
        out << "{\"counters\": oops";
    }
    output.clear();
    EXPECT_EQ(cli::run({"stats", bad_path}, output), 1);
    std::remove(bad_path.c_str());
}

TEST(CliObservability, UsageMentionsObservabilityFlags)
{
    std::string output;
    EXPECT_EQ(cli::run({"help"}, output), 0);
    EXPECT_NE(output.find("--trace-out"), std::string::npos);
    EXPECT_NE(output.find("--metrics-out"), std::string::npos);
    EXPECT_NE(output.find("stats"), std::string::npos);
}

} // namespace
