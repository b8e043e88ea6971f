#include "core/checkpoint.h"

#include <cmath>

#include "ml/model_io.h"
#include "util/binary_io.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace cminer::core {

using cminer::util::BinaryReader;
using cminer::util::BinaryWriter;
using cminer::util::Status;
using cminer::util::StatusOr;

Status
saveMapmArtifact(const MapmArtifact &artifact, const std::string &path)
{
    util::Span span("checkpoint.save");
    span.label("path", path);
    if (!artifact.model.fitted())
        return Status::dataError("refusing to checkpoint an artifact "
                                 "with an unfitted model")
            .withContext("save mapm " + path);
    if (artifact.events != artifact.model.featureNames())
        return Status::dataError("artifact event list does not match "
                                 "the model's feature columns")
            .withContext("save mapm " + path);

    BinaryWriter out(mapm_artifact_kind, mapm_artifact_version);

    out.beginSection("meta");
    out.str(artifact.benchmark);
    out.str(artifact.microarch);
    out.f64(artifact.cvErrorPercent);
    out.endSection();

    out.beginSection("events");
    out.u64(artifact.events.size());
    for (const auto &event : artifact.events)
        out.str(event);
    out.endSection();

    out.beginSection("ranking");
    out.u64(artifact.ranking.size());
    for (const auto &entry : artifact.ranking) {
        out.str(entry.feature);
        out.f64(entry.importance);
    }
    out.endSection();

    out.beginSection(cminer::ml::model_section_name);
    artifact.model.serialize(out);
    out.endSection();

    Status status = out.writeFile(path);
    if (!status.ok())
        return status.withContext("save mapm " + path);
    util::count("checkpoint.saves");
    return status;
}

StatusOr<MapmArtifact>
loadMapmArtifact(const std::string &path)
{
    util::Span span("checkpoint.load");
    span.label("path", path);
    auto opened = BinaryReader::open(path, mapm_artifact_kind);
    // Every open error already names the path.
    if (!opened.ok())
        return opened.status().withContext("load mapm");
    BinaryReader in = std::move(opened).value();
    if (in.artifactVersion() != mapm_artifact_version)
        return in
            .fail(util::format("unsupported mapm artifact version %u "
                               "(this build reads %u)",
                               in.artifactVersion(),
                               mapm_artifact_version))
            .withContext("load mapm " + path);

    MapmArtifact artifact;
    bool seen_meta = false;
    bool seen_events = false;
    bool seen_model = false;
    for (std::uint64_t s = 0; s < in.sectionCount() && in.ok(); ++s) {
        const std::string section = in.beginSection();
        if (!in.ok())
            break;
        if (section == "meta") {
            artifact.benchmark = in.str();
            artifact.microarch = in.str();
            artifact.cvErrorPercent = in.f64();
            seen_meta = in.ok();
        } else if (section == "events") {
            const std::uint64_t n = in.count(8);
            artifact.events.reserve(n);
            for (std::uint64_t i = 0; i < n && in.ok(); ++i)
                artifact.events.push_back(in.str());
            seen_events = in.ok();
        } else if (section == "ranking") {
            const std::uint64_t n = in.count(16);
            artifact.ranking.reserve(n);
            for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
                cminer::ml::FeatureImportance entry;
                entry.feature = in.str();
                entry.importance = in.f64();
                artifact.ranking.push_back(std::move(entry));
            }
        } else if (section == cminer::ml::model_section_name) {
            artifact.model = cminer::ml::Gbrt::deserialize(in);
            seen_model = in.ok();
        }
        // Unknown sections from newer writers are skipped by size.
        in.endSection();
    }
    if (!in.ok())
        return in.status().withContext("load mapm " + path);
    if (!seen_meta || !seen_events || !seen_model)
        return Status::dataError("missing required section "
                                 "(meta/events/model)")
            .withContext("load mapm " + path);
    if (artifact.events != artifact.model.featureNames())
        return Status::dataError("event list does not match the "
                                 "model's feature columns")
            .withContext("load mapm " + path);
    if (!artifact.model.fitted())
        return Status::dataError("artifact model is unfitted")
            .withContext("load mapm " + path);
    util::count("checkpoint.loads");
    return artifact;
}

} // namespace cminer::core
