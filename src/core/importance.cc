#include "core/importance.h"

#include <algorithm>

#include "ml/cv.h"
#include "ml/metrics.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cminer::core {

using cminer::ml::Dataset;
using cminer::ml::DatasetView;
using cminer::ml::FeatureImportance;
using cminer::ml::Gbrt;
using cminer::util::Rng;

namespace {

/**
 * Train fraction of the single-split protocol: the paper evaluates on
 * m/4 unseen examples, a test fraction of 0.2.
 */
constexpr double kTrainFraction = 0.8;

} // namespace

ImportanceRanker::ImportanceRanker(ImportanceOptions options)
    : options_(std::move(options))
{
    CM_ASSERT(options_.dropPerIteration >= 1);
    CM_ASSERT(options_.cvFolds >= 1);
}

Dataset
ImportanceRanker::buildDataset(const std::vector<CollectedRun> &runs,
                               const cminer::pmu::EventCatalog &catalog)
{
    CM_ASSERT(!runs.empty());
    const auto &first = runs.front().series;
    CM_ASSERT(first.size() >= 2); // at least one event plus IPC

    // Feature names: paper abbreviations where known, else full names.
    std::vector<std::string> names;
    for (std::size_t s = 0; s + 1 < first.size(); ++s) {
        const auto id = catalog.findByName(first[s].eventName());
        names.push_back(id ? catalog.info(*id).abbrev
                           : first[s].eventName());
    }

    // Fill whole columns, run after run — same row order the old
    // row-major build produced, without materializing any row.
    std::size_t total_rows = 0;
    for (const auto &run : runs) {
        CM_ASSERT(run.series.size() == first.size());
        CM_ASSERT(run.ipc().eventName() == ipc_series_name);
        total_rows += run.ipc().size();
    }
    std::vector<std::vector<double>> columns(names.size());
    for (auto &col : columns)
        col.reserve(total_rows);
    std::vector<double> targets;
    targets.reserve(total_rows);
    for (const auto &run : runs) {
        const auto &ipc = run.ipc();
        for (std::size_t s = 0; s + 1 < run.series.size(); ++s) {
            CM_ASSERT(run.series[s].size() == ipc.size());
            const auto &values = run.series[s].values();
            columns[s].insert(columns[s].end(), values.begin(),
                              values.end());
        }
        const auto &ipc_values = ipc.values();
        targets.insert(targets.end(), ipc_values.begin(),
                       ipc_values.end());
    }
    return Dataset::fromColumns(std::move(names), std::move(columns),
                                std::move(targets));
}

Dataset
ImportanceRanker::buildDatasetFromStore(
    const cminer::store::Database &db,
    const std::vector<cminer::store::RunId> &ids,
    const cminer::pmu::EventCatalog &catalog)
{
    CM_ASSERT(!ids.empty());
    // Pin one consistent view for the whole build: the dataset must
    // come from a single store state even when ingest or segment
    // compaction runs concurrently, and the pinned snapshot keeps
    // every zero-copy span below valid while we read it.
    const cminer::store::StoreSnapshot snap = db.snapshot();
    const auto &events = snap.runInfo(ids.front()).events;
    CM_ASSERT(events.size() >= 2); // at least one event plus IPC
    CM_ASSERT(events.back() == ipc_series_name);

    // Feature names: paper abbreviations where known, else full names.
    std::vector<std::string> names;
    for (std::size_t s = 0; s + 1 < events.size(); ++s) {
        const auto id = catalog.findByName(events[s]);
        names.push_back(id ? catalog.info(*id).abbrev : events[s]);
    }

    std::size_t total_rows = 0;
    for (const auto run_id : ids) {
        CM_ASSERT(snap.runInfo(run_id).events == events);
        total_rows += snap.length(run_id);
    }
    std::vector<std::vector<double>> columns(names.size());
    for (auto &col : columns)
        col.reserve(total_rows);
    std::vector<double> targets;
    targets.reserve(total_rows);
    for (const auto run_id : ids) {
        for (std::size_t s = 0; s + 1 < events.size(); ++s) {
            const auto values = snap.values(run_id, s);
            columns[s].insert(columns[s].end(), values.begin(),
                              values.end());
        }
        const auto ipc_values = snap.values(run_id, events.size() - 1);
        targets.insert(targets.end(), ipc_values.begin(),
                       ipc_values.end());
    }
    return Dataset::fromColumns(std::move(names), std::move(columns),
                                std::move(targets));
}

std::pair<std::vector<FeatureImportance>, double>
ImportanceRanker::fitOnce(const DatasetView &data, Rng &rng) const
{
    if (options_.cvFolds <= 1) {
        auto split = ml::trainTestSplit(data, kTrainFraction, rng);
        Gbrt model(options_.gbrt);
        model.fit(split.train, rng);
        const auto predicted = model.predictAll(split.test);
        const double error =
            ml::mape(split.test.targets(), predicted);
        return {model.featureImportances(), error};
    }

    // k-fold protocol. All parent-rng draws happen serially up front
    // (the fold shuffle, then one child seed per fold); the folds then
    // train concurrently on independent Rng streams and their results
    // are reduced in fold order — bit-identical for any thread count.
    const std::size_t folds = options_.cvFolds;
    auto splits = ml::kFold(data, folds, rng);
    std::vector<std::uint64_t> seeds(folds);
    for (auto &seed : seeds)
        seed = rng.next();

    std::vector<double> errors(folds, 0.0);
    std::vector<std::vector<FeatureImportance>> rankings(folds);
    cminer::util::parallelFor(
        0, folds, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t f = lo; f < hi; ++f) {
                Rng fold_rng(seeds[f]);
                Gbrt model(options_.gbrt);
                model.fit(splits[f].train, fold_rng);
                const auto predicted = model.predictAll(splits[f].test);
                errors[f] =
                    ml::mape(splits[f].test.targets(), predicted);
                rankings[f] = model.featureImportances();
            }
        });

    // Average per-feature importance percents and errors in fold order.
    const std::vector<std::string> names = data.featureNames();
    std::vector<double> sums(names.size(), 0.0);
    for (std::size_t f = 0; f < folds; ++f) {
        CM_ASSERT(rankings[f].size() == names.size());
        for (const auto &entry : rankings[f])
            sums[data.featureIndex(entry.feature)] += entry.importance;
    }
    std::vector<FeatureImportance> averaged;
    averaged.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        averaged.push_back(
            {names[i], sums[i] / static_cast<double>(folds)});
    ml::sortByImportance(averaged);

    double error_sum = 0.0;
    for (double e : errors)
        error_sum += e;
    return {std::move(averaged), error_sum / static_cast<double>(folds)};
}

ImportanceResult
ImportanceRanker::run(const Dataset &data, Rng &rng) const
{
    cminer::util::Span span("eir");
    span.number("events", static_cast<double>(data.featureCount()));
    span.number("rows", static_cast<double>(data.rowCount()));

    ImportanceResult result;
    std::vector<std::string> features = data.featureNames();
    double best_error = -1.0;

    // The whole refinement loop runs over views of one base dataset:
    // dropping events shrinks a column mask, nothing is re-copied.
    const DatasetView base(data);
    while (true) {
        cminer::util::Span iteration("eir.iteration");
        iteration.number("events",
                         static_cast<double>(features.size()));
        const DatasetView current =
            features.size() == data.featureCount()
                ? base
                : base.withFeatures(features);
        auto [ranking, error] = fitOnce(current, rng);
        iteration.number("cv_error_percent", error);
        cminer::util::count("eir.iterations");

        result.curve.push_back({features.size(), error});
        if (best_error < 0.0 || error < best_error) {
            best_error = error;
            result.ranking = ranking;
            result.mapmErrorPercent = error;
            result.mapmEventCount = features.size();
            result.mapmFeatures = features;
        }

        if (features.size() <=
            options_.minEvents + options_.dropPerIteration)
            break;

        // Drop the `dropPerIteration` least important events. The
        // ranking is sorted descending, so the tail goes.
        CM_ASSERT(ranking.size() == features.size());
        std::vector<std::string> keep;
        keep.reserve(features.size() - options_.dropPerIteration);
        for (std::size_t i = 0;
             i + options_.dropPerIteration < ranking.size(); ++i)
            keep.push_back(ranking[i].feature);
        // Preserve the dataset's original column order for determinism.
        std::vector<std::string> next;
        for (const auto &name : features) {
            if (std::find(keep.begin(), keep.end(), name) != keep.end())
                next.push_back(name);
        }
        features = std::move(next);
    }
    cminer::util::gaugeSet("eir.best_error_percent",
                           result.mapmErrorPercent);
    cminer::util::gaugeSet("eir.mapm_events",
                           static_cast<double>(result.mapmEventCount));
    span.number("iterations", static_cast<double>(result.curve.size()));
    return result;
}

Gbrt
ImportanceRanker::trainMapm(const Dataset &data,
                            const ImportanceResult &result,
                            Rng &rng) const
{
    CM_ASSERT(!result.mapmFeatures.empty());
    const DatasetView mapm_view =
        DatasetView(data).withFeatures(result.mapmFeatures);
    Gbrt model(options_.gbrt);
    model.fit(mapm_view, rng);
    return model;
}

} // namespace cminer::core
