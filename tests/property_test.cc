/**
 * @file
 * Cross-module property tests: invariants that must hold over swept
 * parameters rather than single examples.
 *
 *  - cleaning moves a damaged series toward the truth across artifact
 *    rates and distribution families;
 *  - DTW is bounded above by the pointwise L1 distance and is
 *    non-negative/symmetric across random inputs;
 *  - OCOE sampling is unbiased for every event category;
 *  - the database round-trips arbitrary runs bit-exactly;
 *  - importance and interaction normalizations are invariant to input
 *    order.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/cleaner.h"
#include "core/interaction.h"
#include "ml/gbrt.h"
#include "pmu/event.h"
#include "pmu/sampler.h"
#include "stats/descriptive.h"
#include "store/database.h"
#include "ts/dtw.h"
#include "util/rng.h"

namespace {

using namespace cminer;
using cminer::ts::TimeSeries;
using cminer::util::Rng;

// --- cleaner moves damaged series toward the truth --------------------------

struct DamageCase
{
    double missingRate;
    double outlierRate;
    bool longTail;
};

// Printed by value: gtest would otherwise print the raw bytes, struct
// padding included, into each case's listed name, which then changes
// from one build to the next.
void
PrintTo(const DamageCase &c, std::ostream *os)
{
    *os << "missing " << c.missingRate << " outlier " << c.outlierRate
        << (c.longTail ? " long tail" : "");
}

class CleanerRepairProperty
    : public ::testing::TestWithParam<DamageCase>
{};

TEST_P(CleanerRepairProperty, L1DistanceToTruthShrinks)
{
    const auto [missing_rate, outlier_rate, long_tail] = GetParam();
    Rng rng(static_cast<std::uint64_t>(missing_rate * 1000 +
                                       outlier_rate * 100 + long_tail));
    // Truth: a wandering positive series, optionally heavy-tailed.
    std::vector<double> truth(600);
    double x = 0.0;
    for (auto &v : truth) {
        x = 0.8 * x + rng.gaussian(0.0, 0.2);
        v = 1000.0 * std::exp(x);
        if (long_tail && rng.bernoulli(0.05))
            v *= std::exp(std::abs(rng.gumbel(0.0, 0.4)));
    }
    // Damage.
    auto damaged = truth;
    for (std::size_t i = 0; i < damaged.size(); ++i) {
        if (rng.bernoulli(missing_rate))
            damaged[i] = 0.0;
        else if (rng.bernoulli(outlier_rate))
            damaged[i] *= 4.0;
    }

    auto l1 = [&](const std::vector<double> &values) {
        double total = 0.0;
        for (std::size_t i = 0; i < values.size(); ++i)
            total += std::abs(values[i] - truth[i]);
        return total;
    };

    const double damaged_l1 = l1(damaged);
    TimeSeries series("X", damaged);
    const core::DataCleaner cleaner;
    cleaner.clean(series);
    const double cleaned_l1 = l1(series.values());

    EXPECT_LT(cleaned_l1, damaged_l1)
        << "missing " << missing_rate << " outlier " << outlier_rate
        << " longtail " << long_tail;
    // With meaningful damage the improvement should be substantial.
    if (missing_rate >= 0.05) {
        EXPECT_LT(cleaned_l1, 0.75 * damaged_l1);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CleanerRepairProperty,
    ::testing::Values(DamageCase{0.02, 0.01, false},
                      DamageCase{0.05, 0.02, false},
                      DamageCase{0.10, 0.03, false},
                      DamageCase{0.05, 0.02, true},
                      DamageCase{0.10, 0.05, true}));

// --- DTW bounds ---------------------------------------------------------

class DtwBoundProperty : public ::testing::TestWithParam<int>
{};

TEST_P(DtwBoundProperty, BoundedByPointwiseL1)
{
    Rng rng(400 + GetParam());
    const std::size_t n = 50 + GetParam() * 13;
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.gaussian(0.0, 3.0);
        b[i] = rng.gaussian(0.5, 2.0);
    }
    double pointwise = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        pointwise += std::abs(a[i] - b[i]);
    const double dtw = ts::dtwDistance(a, b);
    EXPECT_LE(dtw, pointwise + 1e-9);
    EXPECT_GE(dtw, 0.0);
    EXPECT_DOUBLE_EQ(dtw, ts::dtwDistance(b, a));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DtwBoundProperty,
                         ::testing::Range(0, 8));

// --- OCOE unbiasedness across categories -------------------------------

class OcoeUnbiasedProperty
    : public ::testing::TestWithParam<pmu::EventCategory>
{};

TEST_P(OcoeUnbiasedProperty, MeanMatchesTruth)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto ids = catalog.byCategory(GetParam());
    ASSERT_FALSE(ids.empty());
    const pmu::EventId event = ids.front();

    pmu::TrueTrace trace(2000, catalog.size(), 10.0);
    const double level = catalog.info(event).baseRate;
    for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
        trace.setCount(event, t, level);
        trace.setIpc(t, 1.0);
    }
    pmu::Sampler sampler(catalog);
    Rng rng(17);
    const auto series = sampler.measureOcoe(trace, {event}, rng);
    const double measured = stats::mean(series[0].span());
    EXPECT_NEAR(measured, level, 0.01 * level)
        << catalog.info(event).name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OcoeUnbiasedProperty,
    ::testing::Values(pmu::EventCategory::Frontend,
                      pmu::EventCategory::Branch,
                      pmu::EventCategory::Cache,
                      pmu::EventCategory::Tlb,
                      pmu::EventCategory::Memory,
                      pmu::EventCategory::Remote,
                      pmu::EventCategory::Uops,
                      pmu::EventCategory::Stall,
                      pmu::EventCategory::Other));

// --- database round-trip with random contents --------------------------

class DbRoundTripProperty : public ::testing::TestWithParam<int>
{};

TEST_P(DbRoundTripProperty, BitExactThroughSaveLoad)
{
    Rng rng(700 + GetParam());
    const std::string path = "/tmp/cminer_prop_" +
                             std::to_string(GetParam()) + ".cmdb";
    store::Database db("arch-" + std::to_string(GetParam()));
    const int runs = 1 + GetParam() % 3;
    for (int r = 0; r < runs; ++r) {
        const std::size_t length =
            static_cast<std::size_t>(rng.uniformInt(1, 50));
        std::vector<TimeSeries> series;
        const int events = 1 + GetParam() % 4;
        // One sampling clock per run: the store rejects mixed
        // per-series intervals within a run as data damage.
        const double interval_ms = rng.uniform(1.0, 100.0);
        for (int e = 0; e < events; ++e) {
            std::vector<double> values(length);
            for (auto &v : values)
                v = rng.uniform(0.0, 1e9);
            series.emplace_back("EV" + std::to_string(e),
                                std::move(values), interval_ms);
        }
        db.addRun("prog" + std::to_string(r % 2), "suite", "mlpx",
                  rng.uniform(1.0, 1e6), series);
    }
    db.save(path);
    const store::Database loaded = store::Database::load(path);

    ASSERT_EQ(loaded.runCount(), db.runCount());
    EXPECT_EQ(loaded.microarch(), db.microarch());
    for (const auto &program : db.programs()) {
        const auto original_runs = db.findRuns(program);
        const auto loaded_runs = loaded.findRuns(program);
        ASSERT_EQ(original_runs.size(), loaded_runs.size());
        for (std::size_t i = 0; i < original_runs.size(); ++i) {
            const auto &meta_a = db.runInfo(original_runs[i]);
            const auto &meta_b = loaded.runInfo(loaded_runs[i]);
            EXPECT_DOUBLE_EQ(meta_a.execTimeMs, meta_b.execTimeMs);
            ASSERT_EQ(meta_a.events, meta_b.events);
            for (const auto &event : meta_a.events) {
                const auto sa = db.seriesValues(original_runs[i], event);
                const auto sb =
                    loaded.seriesValues(loaded_runs[i], event);
                ASSERT_EQ(sa.size(), sb.size());
                for (std::size_t t = 0; t < sa.size(); ++t)
                    EXPECT_DOUBLE_EQ(sa[t], sb[t]);
            }
        }
    }
    std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DbRoundTripProperty,
                         ::testing::Range(0, 6));

// --- normalization order-invariance ------------------------------------

TEST(OrderInvariance, InteractionRankingIgnoresPairOrder)
{
    ml::Dataset data({"a", "b", "c"});
    Rng gen(9);
    for (int i = 0; i < 900; ++i) {
        const double a = gen.gaussian();
        const double b = gen.gaussian();
        const double c = gen.gaussian();
        data.addRow({a, b, c}, a + 0.8 * b * c);
    }
    ml::GbrtParams params;
    params.tree.featureFraction = 1.0;
    ml::Gbrt model(params);
    Rng rng(10);
    model.fit(data, rng);

    const core::InteractionRanker ranker;
    const auto forward = ranker.rankPairs(
        model, data, {{"a", "b"}, {"b", "c"}, {"a", "c"}});
    const auto reversed = ranker.rankPairs(
        model, data, {{"a", "c"}, {"b", "c"}, {"a", "b"}});
    ASSERT_EQ(forward.pairs.size(), reversed.pairs.size());
    // Same winner regardless of the order pairs were submitted in.
    EXPECT_EQ(forward.pairs[0].first + forward.pairs[0].second,
              reversed.pairs[0].first + reversed.pairs[0].second);
    EXPECT_NEAR(forward.pairs[0].importancePercent,
                reversed.pairs[0].importancePercent, 1e-9);
}

} // namespace
