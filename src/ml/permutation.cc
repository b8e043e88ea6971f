#include "ml/permutation.h"

#include <algorithm>

#include "ml/metrics.h"
#include "util/error.h"

namespace cminer::ml {

std::vector<FeatureImportance>
permutationImportance(const Gbrt &model, const DatasetView &data,
                      cminer::util::Rng &rng, std::size_t repeats)
{
    CM_ASSERT(model.fitted());
    CM_ASSERT(data.rowCount() >= 2);
    CM_ASSERT(repeats >= 1);

    const std::vector<double> targets = data.targets();
    const double baseline = rmse(targets, model.predictAll(data));

    std::vector<double> deltas(data.featureCount(), 0.0);
    std::vector<double> shuffled;
    std::vector<double> predictions(data.rowCount());
    for (std::size_t f = 0; f < data.featureCount(); ++f) {
        double delta = 0.0;
        for (std::size_t rep = 0; rep < repeats; ++rep) {
            data.gatherColumn(f, shuffled);
            rng.shuffle(shuffled);
            model.predictRows(
                data.rowCount(), data.featureCount(),
                [&](std::size_t feature, std::size_t row) {
                    return feature == f ? shuffled[row]
                                        : data.value(row, feature);
                },
                predictions);
            delta += rmse(targets, predictions) - baseline;
        }
        deltas[f] =
            std::max(0.0, delta / static_cast<double>(repeats));
    }

    double total = 0.0;
    for (double d : deltas)
        total += d;

    const std::vector<std::string> names = data.featureNames();
    std::vector<FeatureImportance> out;
    out.reserve(deltas.size());
    for (std::size_t f = 0; f < deltas.size(); ++f) {
        out.push_back({names[f],
                       total > 0.0 ? 100.0 * deltas[f] / total : 0.0});
    }
    sortByImportance(out);
    return out;
}

} // namespace cminer::ml
