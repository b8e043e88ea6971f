/**
 * @file
 * Robustness tests for the perf-text ingestion boundary: strict-mode
 * rejection with actionable line numbers, lenient-mode skip-and-count
 * recovery, and determinism of the fault-injected round trip.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/perf_text.h"
#include "ts/time_series.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace {

using namespace cminer;
using cminer::core::IngestReport;
using cminer::core::PerfParseOptions;
using cminer::ts::TimeSeries;
using cminer::util::FatalError;
using cminer::util::StatusCode;

PerfParseOptions
lenient()
{
    PerfParseOptions options;
    options.lenient = true;
    return options;
}

// --- strict mode ------------------------------------------------------------

TEST(PerfTextStrict, TruncatedFinalLineRejectedWithLineNumber)
{
    const std::string text = "0.1,10,a\n0.2,20,a\n0.3,3";
    IngestReport report;
    const auto result =
        core::parsePerfIntervals(text, PerfParseOptions{}, report);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::ParseError);
    EXPECT_NE(result.status().message().find("line 3"),
              std::string::npos);
    EXPECT_NE(result.status().message().find("truncated"),
              std::string::npos);

    // The legacy throwing wrapper rejects the same input.
    EXPECT_THROW(core::parsePerfIntervals(text), FatalError);
}

TEST(PerfTextStrict, TrailingNewlineStillAccepted)
{
    const auto series = core::parsePerfIntervals("0.1,10,a\n0.2,20,a\n");
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0].size(), 2u);
}

TEST(PerfTextStrict, NonMonotonicTimestampRejected)
{
    const std::string text = "0.1,10,a\n0.2,20,a\n0.15,15,a\n";
    IngestReport report;
    const auto result =
        core::parsePerfIntervals(text, PerfParseOptions{}, report);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("line 3"),
              std::string::npos);
    EXPECT_NE(result.status().message().find("non-monotonic"),
              std::string::npos);
}

TEST(PerfTextStrict, RevisitedIntervalRejected)
{
    // 0.1 reappears after 0.2 started: the log is out of order even
    // though the timestamp was seen before.
    const std::string text =
        "0.1,10,a\n0.2,20,a\n0.1,5,b\n";
    IngestReport report;
    const auto result =
        core::parsePerfIntervals(text, PerfParseOptions{}, report);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("revisits"),
              std::string::npos);
}

TEST(PerfTextStrict, DuplicateSampleRejected)
{
    const std::string text = "0.1,10,a\n0.1,11,a\n";
    IngestReport report;
    const auto result =
        core::parsePerfIntervals(text, PerfParseOptions{}, report);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("duplicate"),
              std::string::npos);
}

TEST(PerfTextStrict, NonFiniteCountRejected)
{
    const std::string text = "0.1,nan,a\n0.2,20,a\n";
    IngestReport report;
    const auto result =
        core::parsePerfIntervals(text, PerfParseOptions{}, report);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("non-finite"),
              std::string::npos);
}

TEST(PerfTextStrict, MalformedLineNamesTheLine)
{
    const std::string text = "0.1,10,a\ngarbage\n";
    IngestReport report;
    const auto result =
        core::parsePerfIntervals(text, PerfParseOptions{}, report);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("line 2"),
              std::string::npos);
}

// --- lenient mode -----------------------------------------------------------

TEST(PerfTextLenient, SkipsAndCountsEveryDamageClass)
{
    const std::string text =
        "# comment\n"
        "0.1,10,a\n"
        "0.1,5,b\n"
        "garbage\n"           // malformed
        "xx,12,a\n"           // bad timestamp
        "0.2,nan,a\n"         // non-finite count -> missing value
        "0.2,6,b\n"
        "0.15,99,a\n"         // non-monotonic (0.2 already started)
        "0.3,30,a\n"
        "0.3,30,a\n"          // duplicate sample
        "0.3,7,b\n";
    IngestReport report;
    const auto result =
        core::parsePerfIntervals(text, lenient(), report);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const auto &series = result.value();

    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].eventName(), "a");
    ASSERT_EQ(series[0].size(), 3u);
    EXPECT_DOUBLE_EQ(series[0].at(0), 10.0);
    EXPECT_DOUBLE_EQ(series[0].at(1), 0.0); // nan -> missing value
    EXPECT_DOUBLE_EQ(series[0].at(2), 30.0);
    EXPECT_DOUBLE_EQ(series[1].at(1), 6.0);

    EXPECT_EQ(report.malformedLines, 1u);
    EXPECT_EQ(report.badTimestamps, 1u);
    EXPECT_EQ(report.nonMonotonic, 1u);
    EXPECT_EQ(report.duplicateSamples, 1u);
    EXPECT_EQ(report.nonFiniteCounts, 1u);
    // Six cleanly parsed samples: the nan line lands as a missing
    // value, not a parsed sample.
    EXPECT_EQ(report.parsedSamples, 6u);
    EXPECT_EQ(report.damaged(), 5u);
}

TEST(PerfTextLenient, PadsDroppedSamplesByTimestamp)
{
    // b's 0.2 sample was lost: alignment must survive, with the hole
    // padded as a missing value.
    const std::string text =
        "0.1,10,a\n0.1,5,b\n"
        "0.2,20,a\n"
        "0.3,30,a\n0.3,15,b\n";
    IngestReport report;
    const auto result =
        core::parsePerfIntervals(text, lenient(), report);
    ASSERT_TRUE(result.ok());
    const auto &series = result.value();
    ASSERT_EQ(series.size(), 2u);
    ASSERT_EQ(series[1].size(), 3u);
    EXPECT_DOUBLE_EQ(series[1].at(0), 5.0);
    EXPECT_DOUBLE_EQ(series[1].at(1), 0.0); // padded
    EXPECT_DOUBLE_EQ(series[1].at(2), 15.0);
    EXPECT_EQ(report.paddedSamples, 1u);
    EXPECT_EQ(report.damaged(), 0u); // padding is repair, not damage
}

TEST(PerfTextLenient, TruncatedFinalLineSkipped)
{
    const std::string text = "0.1,10,a\n0.2,20,a\n0.3,3";
    IngestReport report;
    const auto result =
        core::parsePerfIntervals(text, lenient(), report);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value()[0].size(), 2u);
    EXPECT_EQ(report.truncatedLines, 1u);
}

TEST(PerfTextLenient, NothingParseableIsDataError)
{
    IngestReport report;
    const auto result =
        core::parsePerfIntervals("garbage\nmore garbage\n", lenient(),
                                 report);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::DataError);
    EXPECT_EQ(report.malformedLines, 2u);
}

TEST(PerfTextLenient, CleanInputMatchesStrictParse)
{
    std::vector<TimeSeries> series = {
        TimeSeries("ICACHE.MISSES", {100.5, 75.0, 250.25}, 10.0),
        TimeSeries("BR_MISP_RETIRED", {7.0, 8.0, 9.0}, 10.0)};
    const std::string text = core::renderPerfIntervals(series);

    IngestReport report;
    const auto result =
        core::parsePerfIntervals(text, lenient(), report);
    ASSERT_TRUE(result.ok());
    const auto strict = core::parsePerfIntervals(text);
    ASSERT_EQ(result.value().size(), strict.size());
    for (std::size_t s = 0; s < strict.size(); ++s) {
        EXPECT_EQ(result.value()[s].eventName(),
                  strict[s].eventName());
        EXPECT_EQ(result.value()[s].values(), strict[s].values());
    }
    EXPECT_EQ(report.damaged(), 0u);
}

// --- report bookkeeping ------------------------------------------------------

TEST(IngestReport, DamagedSumsOnlyDamageCounters)
{
    IngestReport report;
    report.totalLines = 15;
    report.parsedSamples = 8;
    report.malformedLines = 1;
    report.nonMonotonic = 3;
    report.truncatedLines = 1;
    report.paddedSamples = 2;
    EXPECT_EQ(report.damaged(), 5u);
    EXPECT_NE(report.toString().find("padded=2"), std::string::npos);
}

// --- fault-injected round trip ----------------------------------------------

TEST(PerfTextInjection, LenientParseSurvivesInjectedDamage)
{
    // A long two-event log, so every damage class gets a chance to
    // land at a few percent injection rate.
    std::vector<TimeSeries> series;
    std::vector<double> a_values, b_values;
    for (std::size_t i = 0; i < 400; ++i) {
        a_values.push_back(1000.0 + static_cast<double>(i % 17));
        b_values.push_back(500.0 + static_cast<double>(i % 5));
    }
    series.emplace_back("a", a_values, 10.0);
    series.emplace_back("b", b_values, 10.0);
    const std::string text = core::renderPerfIntervals(series);

    util::FaultSpec spec;
    spec.corruptRate = 0.02;
    spec.dropRate = 0.02;
    spec.duplicateRate = 0.01;
    spec.nanRate = 0.01;
    spec.seed = 11;
    util::FaultInjector injector(spec);
    const std::string damaged = injector.corruptPerfText(text);
    ASSERT_GT(injector.counts().total(), 0u);

    IngestReport report;
    const auto result =
        core::parsePerfIntervals(damaged, lenient(), report);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    ASSERT_EQ(result.value().size(), 2u);
    // Alignment survives: both events still span every interval.
    EXPECT_EQ(result.value()[0].size(), result.value()[1].size());

    // Every injected fault is visible in the ingest accounting:
    //  - corrupt tears a line inside its first two fields -> malformed;
    //  - nan lands in the count field -> non-finite missing value;
    //  - duplicate re-emits a line -> duplicate sample;
    //  - drop (and the hole behind a torn line) -> padded sample,
    //    except when an entire interval vanished with it.
    const auto &counts = injector.counts();
    EXPECT_EQ(report.malformedLines, counts.corrupted);
    EXPECT_EQ(report.nonFiniteCounts, counts.nans);
    EXPECT_EQ(report.duplicateSamples, counts.duplicated);
    EXPECT_LE(report.paddedSamples,
              counts.dropped + counts.corrupted);
    // Line conservation: drops remove a data line, duplicates add one.
    EXPECT_EQ(report.totalLines,
              800u - counts.dropped + counts.duplicated);
    // Cell conservation: every (event, surviving interval) cell was
    // either parsed or padded.
    EXPECT_EQ(report.parsedSamples + report.paddedSamples,
              2u * result.value()[0].size());
}

TEST(PerfTextInjection, SameSpecAndSeedIsBitwiseIdentical)
{
    std::vector<TimeSeries> series = {
        TimeSeries("x", std::vector<double>(200, 42.0), 10.0)};
    const std::string text = core::renderPerfIntervals(series);

    util::FaultSpec spec;
    spec.corruptRate = 0.05;
    spec.dropRate = 0.05;
    spec.nanRate = 0.05;
    spec.seed = 99;

    util::FaultInjector first(spec);
    util::FaultInjector second(spec);
    const std::string damaged_a = first.corruptPerfText(text);
    const std::string damaged_b = second.corruptPerfText(text);
    EXPECT_EQ(damaged_a, damaged_b);
    EXPECT_EQ(first.counts(), second.counts());

    IngestReport report_a, report_b;
    const auto parsed_a =
        core::parsePerfIntervals(damaged_a, lenient(), report_a);
    const auto parsed_b =
        core::parsePerfIntervals(damaged_b, lenient(), report_b);
    ASSERT_TRUE(parsed_a.ok());
    ASSERT_TRUE(parsed_b.ok());
    EXPECT_EQ(report_a.toString(), report_b.toString());
}

} // namespace
