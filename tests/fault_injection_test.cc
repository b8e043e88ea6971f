/**
 * @file
 * Fault-tolerance tests: the seeded fault injector, retry-with-backoff,
 * series corruption, and the end-to-end guarantee the PR exists for —
 * collect -> clean -> rank survives a few percent of injected damage
 * with its importance ranking intact and every fault accounted for.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/counterminer.h"
#include "pmu/event.h"
#include "store/database.h"
#include "ts/time_series.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "workload/suites.h"

namespace {

using namespace cminer;
using namespace cminer::util;
using cminer::core::CounterMiner;
using cminer::core::ProfileOptions;
using cminer::core::ProfileReport;
using cminer::ts::TimeSeries;

// --- spec parsing ------------------------------------------------------------

TEST(FaultSpec, ParsesFullSpec)
{
    const auto result = parseFaultSpec(
        "corrupt=0.02,drop=0.03,dup=0.01,nan=0.005,transient=0.1,"
        "seed=7");
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const FaultSpec spec = result.value();
    EXPECT_DOUBLE_EQ(spec.corruptRate, 0.02);
    EXPECT_DOUBLE_EQ(spec.dropRate, 0.03);
    EXPECT_DOUBLE_EQ(spec.duplicateRate, 0.01);
    EXPECT_DOUBLE_EQ(spec.nanRate, 0.005);
    EXPECT_DOUBLE_EQ(spec.transientRate, 0.1);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_TRUE(spec.any());

    // The canonical string parses back to an equal spec.
    const auto again = parseFaultSpec(spec.toString());
    ASSERT_TRUE(again.ok());
    EXPECT_DOUBLE_EQ(again.value().corruptRate, spec.corruptRate);
    EXPECT_EQ(again.value().seed, spec.seed);
}

TEST(FaultSpec, RejectsBadInput)
{
    EXPECT_FALSE(parseFaultSpec("bogus=1").ok());
    EXPECT_FALSE(parseFaultSpec("corrupt=1.5").ok());
    EXPECT_FALSE(parseFaultSpec("corrupt=-0.1").ok());
    EXPECT_FALSE(parseFaultSpec("corrupt").ok());
    EXPECT_FALSE(parseFaultSpec("corrupt=abc").ok());
    // Per-sample damage classes are mutually exclusive; their rates
    // cannot sum above 1.
    EXPECT_FALSE(
        parseFaultSpec("corrupt=0.5,drop=0.4,nan=0.2").ok());
    // Transient draws are a separate channel, not part of that sum.
    EXPECT_TRUE(
        parseFaultSpec("corrupt=0.9,transient=0.9").ok());
}

// --- status plumbing ---------------------------------------------------------

TEST(Status, CodesMessagesAndContext)
{
    EXPECT_TRUE(Status().ok());
    EXPECT_EQ(Status().toString(), "OK");

    const Status parse = Status::parseError("bad count");
    EXPECT_FALSE(parse.ok());
    EXPECT_EQ(parse.code(), StatusCode::ParseError);
    EXPECT_FALSE(parse.isTransient());
    EXPECT_EQ(parse.toString(), "ParseError: bad count");

    const Status wrapped =
        parse.withContext("line 17").withContext("ingest run 3");
    EXPECT_EQ(wrapped.code(), StatusCode::ParseError);
    EXPECT_EQ(wrapped.message(), "ingest run 3: line 17: bad count");

    EXPECT_TRUE(Status::transient("flaky").isTransient());
    EXPECT_THROW(Status::dataError("x").throwIfError(), FatalError);
    EXPECT_NO_THROW(Status().throwIfError());
}

TEST(Status, StatusOrCarriesValueOrStatus)
{
    const StatusOr<int> good = 42;
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(good.valueOr(-1), 42);

    const StatusOr<int> bad = Status::dataError("empty");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::DataError);
    EXPECT_EQ(bad.valueOr(-1), -1);
}

// --- retry with backoff ------------------------------------------------------

TEST(Retry, BacksOffExponentiallyAndRecovers)
{
    RetryOptions options;
    options.maxAttempts = 4;
    options.baseDelayMs = 10.0;
    options.multiplier = 2.0;
    RecordingClock clock;

    int calls = 0;
    const RetryResult result =
        retryWithBackoff(options, clock, [&]() -> Status {
            ++calls;
            return calls < 3 ? Status::transient("flaky dependency")
                             : Status::okStatus();
        });
    EXPECT_TRUE(result.status.ok());
    EXPECT_EQ(result.attempts, 3u);
    EXPECT_EQ(calls, 3);
    ASSERT_EQ(clock.delays().size(), 2u);
    EXPECT_DOUBLE_EQ(clock.delays()[0], 10.0);
    EXPECT_DOUBLE_EQ(clock.delays()[1], 20.0);
    EXPECT_DOUBLE_EQ(result.totalDelayMs, 30.0);
}

TEST(Retry, GivesUpAfterMaxAttempts)
{
    RetryOptions options;
    options.maxAttempts = 3;
    RecordingClock clock;

    int calls = 0;
    const RetryResult result =
        retryWithBackoff(options, clock, [&]() -> Status {
            ++calls;
            return Status::transient("still down");
        });
    EXPECT_FALSE(result.status.ok());
    EXPECT_TRUE(result.status.isTransient());
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(clock.delays().size(), 2u);
}

TEST(Retry, NonTransientErrorsAreNotRetried)
{
    RetryOptions options;
    options.maxAttempts = 5;
    RecordingClock clock;

    int calls = 0;
    const RetryResult result =
        retryWithBackoff(options, clock, [&]() -> Status {
            ++calls;
            return Status::parseError("garbage is garbage");
        });
    EXPECT_FALSE(result.status.ok());
    EXPECT_EQ(result.status.code(), StatusCode::ParseError);
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(clock.delays().empty());
}

TEST(Retry, DelayIsCapped)
{
    RetryOptions options;
    options.baseDelayMs = 100.0;
    options.multiplier = 10.0;
    options.maxDelayMs = 250.0;
    EXPECT_DOUBLE_EQ(backoffDelayMs(options, 0), 100.0);
    EXPECT_DOUBLE_EQ(backoffDelayMs(options, 1), 250.0); // capped
}

// --- series corruption -------------------------------------------------------

TEST(FaultInjector, SeriesDamageIsCountedAndDeterministic)
{
    FaultSpec spec;
    spec.corruptRate = 0.05;
    spec.dropRate = 0.05;
    spec.duplicateRate = 0.05;
    spec.nanRate = 0.05;
    spec.seed = 21;

    const std::vector<TimeSeries> original = {
        TimeSeries("a", std::vector<double>(300, 100.0), 10.0),
        TimeSeries("b", std::vector<double>(300, 50.0), 10.0)};

    auto damaged_a = original;
    auto damaged_b = original;
    FaultInjector first(spec);
    FaultInjector second(spec);
    first.corruptSeries(damaged_a);
    second.corruptSeries(damaged_b);

    EXPECT_EQ(first.counts(), second.counts());
    EXPECT_GT(first.counts().total(), 0u);

    std::size_t nans = 0, zeros = 0, outliers = 0;
    for (const auto &series : damaged_a) {
        for (double v : series.values()) {
            if (std::isnan(v))
                ++nans;
            else if (v == 0.0)
                ++zeros;
            else if (v > 1000.0)
                ++outliers;
        }
    }
    // A duplicate right after a damaged sample copies the damage, so
    // the observed tallies can exceed (never undershoot) the counts.
    EXPECT_GE(nans, first.counts().nans);
    EXPECT_GE(zeros, first.counts().dropped);
    EXPECT_GE(outliers, first.counts().corrupted);
    EXPECT_LE(nans + zeros + outliers,
              first.counts().total() + first.counts().duplicated);

    // Determinism extends to the damage itself, not just the counts.
    for (std::size_t s = 0; s < damaged_a.size(); ++s) {
        for (std::size_t i = 0; i < damaged_a[s].size(); ++i) {
            const double va = damaged_a[s].at(i);
            const double vb = damaged_b[s].at(i);
            EXPECT_TRUE(va == vb || (std::isnan(va) && std::isnan(vb)));
        }
    }
}

TEST(FaultInjector, TransientFaultRespectsRate)
{
    FaultSpec always;
    always.transientRate = 1.0;
    FaultInjector hot(always);
    const Status fault = hot.transientFault("store");
    ASSERT_FALSE(fault.ok());
    EXPECT_TRUE(fault.isTransient());
    EXPECT_NE(fault.message().find("store"), std::string::npos);
    EXPECT_EQ(hot.counts().transients, 1u);

    FaultSpec never; // all rates zero
    FaultInjector cold(never);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(cold.transientFault("sampler").ok());
    EXPECT_EQ(cold.counts().transients, 0u);
}

// --- end to end --------------------------------------------------------------

ProfileOptions
fastOptions()
{
    ProfileOptions options;
    options.mlpxRuns = 2;
    options.importance.minEvents = 196; // short EIR for test speed
    return options;
}

ProfileReport
profileWordcount(const ProfileOptions &options, std::uint64_t seed)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("wordcount");
    store::Database db;
    CounterMiner miner(db, catalog, options);
    Rng rng(seed);
    return miner.profile(bench, rng);
}

std::set<std::string>
topEventNames(const ProfileReport &report)
{
    std::set<std::string> names;
    for (const auto &fi : report.topEvents)
        names.insert(fi.feature);
    return names;
}

TEST(FaultInjectionEndToEnd, PipelineSurvivesFivePercentDamage)
{
    // Clean reference ranking. Fold-averaged importances, so the
    // top-10 tail is stable enough to compare against: a single fast
    // SGBRT fit reshuffles its ranking tail under *any* perturbation
    // of the training matrix, which would measure ranker variance
    // rather than damage tolerance.
    ProfileOptions clean_options = fastOptions();
    clean_options.importance.cvFolds = 5;
    const ProfileReport clean = profileWordcount(clean_options, 1);
    ASSERT_EQ(clean.topEvents.size(), 10u);
    EXPECT_EQ(clean.ingest.injected.total(), 0u);
    EXPECT_EQ(clean.ingest.goodRuns, 2u);
    EXPECT_TRUE(clean.ingest.quarantined.empty());

    // Same pipeline with ~5% of samples damaged and flaky dependencies.
    FaultSpec spec;
    spec.corruptRate = 0.02;
    spec.dropRate = 0.02;
    spec.nanRate = 0.01;
    spec.transientRate = 0.2;
    spec.seed = 7;
    FaultInjector injector(spec);
    ProfileOptions options = fastOptions();
    options.importance.cvFolds = 5;
    options.injector = &injector;
    const ProfileReport damaged = profileWordcount(options, 1);

    // No abort, and the run-level accounting is intact.
    EXPECT_EQ(damaged.ingest.attemptedRuns, 2u);
    EXPECT_EQ(damaged.ingest.goodRuns, 2u);
    EXPECT_EQ(damaged.ingest.injected, injector.counts());
    EXPECT_GT(damaged.ingest.injected.total(), 0u);
    // Transient faults were absorbed by retry, not surfaced as errors.
    EXPECT_EQ(damaged.ingest.transientRetries,
              injector.counts().transients);
    if (damaged.ingest.transientRetries > 0) {
        EXPECT_GT(damaged.ingest.retryDelayMs, 0.0);
    }

    // The mined ranking survives the damage: at least 7 of the clean
    // top-10 events are still in the damaged top-10.
    const auto clean_top = topEventNames(clean);
    const auto damaged_top = topEventNames(damaged);
    std::size_t overlap = 0;
    for (const auto &name : clean_top)
        overlap += damaged_top.count(name);
    EXPECT_GE(overlap, 7u)
        << "clean and damaged top-10 diverged too far";
}

TEST(FaultInjectionEndToEnd, IngestSummaryIsSeedDeterministic)
{
    FaultSpec spec;
    spec.corruptRate = 0.03;
    spec.dropRate = 0.02;
    spec.nanRate = 0.01;
    spec.transientRate = 0.3;
    spec.seed = 17;

    FaultInjector injector_a(spec);
    ProfileOptions options_a = fastOptions();
    options_a.injector = &injector_a;
    const ProfileReport a = profileWordcount(options_a, 4);

    FaultInjector injector_b(spec);
    ProfileOptions options_b = fastOptions();
    options_b.injector = &injector_b;
    const ProfileReport b = profileWordcount(options_b, 4);

    // Same spec + seed: bitwise-identical fault accounting and results.
    EXPECT_EQ(a.ingest.toString(), b.ingest.toString());
    EXPECT_EQ(injector_a.counts(), injector_b.counts());
    ASSERT_EQ(a.topEvents.size(), b.topEvents.size());
    for (std::size_t i = 0; i < a.topEvents.size(); ++i) {
        EXPECT_EQ(a.topEvents[i].feature, b.topEvents[i].feature);
        EXPECT_DOUBLE_EQ(a.topEvents[i].importance,
                         b.topEvents[i].importance);
    }
}

TEST(FaultInjectionEndToEnd, QuarantineBudgetZeroIsFatal)
{
    // Every transient draw fails and retries are exhausted, so the
    // first run is quarantined — past the default budget of 0.
    FaultSpec spec;
    spec.transientRate = 1.0;
    spec.seed = 2;
    FaultInjector injector(spec);
    ProfileOptions options = fastOptions();
    options.injector = &injector;
    options.retry.maxAttempts = 2;
    EXPECT_THROW(profileWordcount(options, 1), FatalError);
}

TEST(FaultInjectionEndToEnd, EveryRunFailingIsFatalEvenWithBudget)
{
    FaultSpec spec;
    spec.transientRate = 1.0;
    spec.seed = 2;
    FaultInjector injector(spec);
    ProfileOptions options = fastOptions();
    options.injector = &injector;
    options.retry.maxAttempts = 2;
    options.maxBadRuns = 100; // budget is not the binding constraint
    options.maxBadFraction = 1.0;
    EXPECT_THROW(profileWordcount(options, 1), FatalError);
}

TEST(FaultInjectionEndToEnd, QuarantineAndContinuePastBadRuns)
{
    // A high transient rate with short retries makes some runs fail
    // outright; with a budget the pipeline quarantines them and mines
    // what survived. Seeded, so the split is reproducible.
    FaultSpec spec;
    spec.transientRate = 0.5;
    spec.seed = 3;
    FaultInjector injector(spec);
    ProfileOptions options = fastOptions();
    options.mlpxRuns = 5;
    options.injector = &injector;
    options.retry.maxAttempts = 2;
    options.maxBadRuns = 5;
    options.maxBadFraction = 1.0;
    const ProfileReport report = profileWordcount(options, 6);

    EXPECT_EQ(report.ingest.attemptedRuns, 5u);
    EXPECT_EQ(report.ingest.goodRuns +
                  report.ingest.quarantined.size(),
              5u);
    EXPECT_GE(report.ingest.goodRuns, 1u);
    EXPECT_GE(report.ingest.quarantined.size(), 1u)
        << "expected at least one quarantined run at this seed";
    for (const auto &q : report.ingest.quarantined)
        EXPECT_NE(q.reason.find("Transient"), std::string::npos);
    EXPECT_EQ(report.topEvents.size(), 10u);
}

// --- transport faults (the serving layer's damage classes) ---------------

TEST(FaultSpec, ParsesTransportKeysAndRoundTrips)
{
    const auto result = parseFaultSpec(
        "torn=0.05,hangup=0.01,delay=0.1,delayms=3.5,seed=9");
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const FaultSpec spec = result.value();
    EXPECT_DOUBLE_EQ(spec.tornFrameRate, 0.05);
    EXPECT_DOUBLE_EQ(spec.hangupRate, 0.01);
    EXPECT_DOUBLE_EQ(spec.delayRate, 0.1);
    EXPECT_DOUBLE_EQ(spec.delayMs, 3.5);
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_TRUE(spec.any());

    const auto again = parseFaultSpec(spec.toString());
    ASSERT_TRUE(again.ok()) << again.status().toString();
    EXPECT_DOUBLE_EQ(again.value().tornFrameRate, spec.tornFrameRate);
    EXPECT_DOUBLE_EQ(again.value().hangupRate, spec.hangupRate);
    EXPECT_DOUBLE_EQ(again.value().delayRate, spec.delayRate);
    EXPECT_DOUBLE_EQ(again.value().delayMs, spec.delayMs);
    EXPECT_EQ(again.value().seed, spec.seed);
}

TEST(FaultInjector, TransportFaultsAreDeterministicPerSeed)
{
    FaultSpec spec;
    spec.tornFrameRate = 0.1;
    spec.hangupRate = 0.05;
    spec.delayRate = 0.2;
    spec.delayMs = 2.0;
    spec.seed = 21;

    FaultInjector first(spec);
    FaultInjector second(spec);
    for (int i = 0; i < 500; ++i) {
        const auto a = first.transportFault(128);
        const auto b = second.transportFault(128);
        EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
        EXPECT_EQ(a.tearAt, b.tearAt);
        EXPECT_EQ(a.delayMs, b.delayMs);
        if (a.kind == TransportFault::Kind::TornFrame) {
            EXPECT_LT(a.tearAt, 128u); // tears strictly inside
        }
        if (a.kind == TransportFault::Kind::Delay) {
            EXPECT_EQ(a.delayMs, 2.0);
        }
    }
    EXPECT_EQ(first.counts(), second.counts());
    EXPECT_GT(first.counts().tornFrames + first.counts().hangups +
                  first.counts().delays,
              0u);
}

TEST(FaultInjector, ZeroTransportRatesLeaveTheDamageStreamUntouched)
{
    // transportFault() must not consume randomness when every
    // transport rate is zero, so a spec that only damages samples
    // produces identical series damage whether or not the serving
    // transport polls the injector in between.
    FaultSpec spec;
    spec.corruptRate = 0.05;
    spec.nanRate = 0.05;
    spec.seed = 4;

    const std::vector<TimeSeries> original = {
        TimeSeries("a", std::vector<double>(300, 100.0), 10.0)};

    auto plain = original;
    auto interleaved = original;
    FaultInjector first(spec);
    FaultInjector second(spec);
    first.corruptSeries(plain);
    for (int i = 0; i < 100; ++i) {
        const auto fault = second.transportFault(64);
        EXPECT_EQ(static_cast<int>(fault.kind),
                  static_cast<int>(TransportFault::Kind::None));
    }
    second.corruptSeries(interleaved);

    EXPECT_EQ(first.counts(), second.counts());
    for (std::size_t i = 0; i < plain[0].size(); ++i) {
        const double va = plain[0].at(i);
        const double vb = interleaved[0].at(i);
        EXPECT_TRUE(va == vb || (std::isnan(va) && std::isnan(vb)))
            << "sample " << i;
    }
}

// --- retry deadline budget ----------------------------------------------

TEST(Retry, DeadlineBudgetStopsBeforeSleepingPastIt)
{
    RetryOptions options;
    options.maxAttempts = 10;
    options.baseDelayMs = 40.0;
    options.multiplier = 2.0;
    options.deadlineMs = 100.0;

    RecordingClock clock;
    std::size_t calls = 0;
    const auto result = retryWithBackoff(options, clock, [&] {
        ++calls;
        return Status::transient("flaky");
    });

    // Delays would be 40, 80, ...: sleeping 80 after 40 blows the
    // 100ms budget, so the loop stops *before* that sleep.
    EXPECT_FALSE(result.status.ok());
    EXPECT_EQ(result.status.code(), StatusCode::Transient);
    EXPECT_TRUE(result.deadlineExhausted);
    EXPECT_EQ(result.attempts, 2u);
    EXPECT_EQ(calls, 2u);
    ASSERT_EQ(clock.delays().size(), 1u);
    EXPECT_DOUBLE_EQ(clock.delays()[0], 40.0);
    EXPECT_LE(clock.totalMs(), options.deadlineMs);
    EXPECT_NE(result.status.message().find("deadline"),
              std::string::npos);
}

TEST(Retry, DeadlineZeroDisablesTheBudget)
{
    RetryOptions options;
    options.maxAttempts = 5;
    options.baseDelayMs = 1000.0;
    options.multiplier = 1.0;
    options.deadlineMs = 0.0;

    RecordingClock clock;
    const auto result = retryWithBackoff(options, clock, [&] {
        return Status::transient("flaky");
    });
    EXPECT_FALSE(result.deadlineExhausted);
    EXPECT_EQ(result.attempts, 5u);
    EXPECT_EQ(clock.delays().size(), 4u);
}

TEST(Retry, SuccessWithinTheBudgetIsNotExhausted)
{
    RetryOptions options;
    options.maxAttempts = 5;
    options.baseDelayMs = 10.0;
    options.deadlineMs = 100.0;

    RecordingClock clock;
    std::size_t calls = 0;
    const auto result = retryWithBackoff(options, clock, [&] {
        return ++calls < 3 ? Status::transient("flaky")
                           : Status::okStatus();
    });
    EXPECT_TRUE(result.status.ok());
    EXPECT_FALSE(result.deadlineExhausted);
    EXPECT_EQ(result.attempts, 3u);
}

} // namespace
