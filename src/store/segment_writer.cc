#include "store/segment_writer.h"

#include <map>

#include "util/binary_io.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace cminer::store {

using cminer::util::Status;

SegmentWriter::SegmentWriter(std::string microarch)
    : microarch_(std::move(microarch))
{
}

void
SegmentWriter::addRun(const RunMetadata &meta, double interval_ms,
                      std::size_t length,
                      std::vector<std::span<const double>> columns)
{
    CM_ASSERT(!spent_);
    CM_ASSERT(!columns.empty());
    CM_ASSERT(columns.size() == meta.events.size());
    for (const auto &column : columns)
        CM_ASSERT(column.size() == length);
    payloadBytes_ += columns.size() * length * sizeof(double);
    runs_.push_back(
        {&meta, interval_ms, length, std::move(columns)});
}

void
SegmentWriter::addRun(const BufferedRun &run)
{
    std::vector<std::span<const double>> columns;
    columns.reserve(run.columns.size());
    for (const auto &column : run.columns)
        columns.emplace_back(column);
    addRun(run.meta, run.intervalMs, run.length, std::move(columns));
}

void
SegmentWriter::addSegment(const Segment &segment)
{
    for (std::size_t r = 0; r < segment.runCount(); ++r) {
        const RunMetadata &meta = segment.runMeta(r);
        std::vector<std::span<const double>> columns;
        columns.reserve(meta.events.size());
        for (std::size_t e = 0; e < meta.events.size(); ++e)
            columns.push_back(segment.column(r, e));
        addRun(meta, segment.intervalMs(r), segment.length(r),
               std::move(columns));
    }
}

Status
SegmentWriter::write(const std::string &path)
{
    CM_ASSERT(!spent_);
    spent_ = true;
    // An empty segment is a saved empty database; a store directory
    // never seals one.
    const RunId first_id = runs_.empty() ? 0 : runs_.front().meta->id;
    for (std::size_t r = 0; r < runs_.size(); ++r) {
        if (runs_[r].meta->id != first_id + static_cast<RunId>(r))
            return Status::dataError(util::format(
                "segment: run ids must be contiguous (run %zu has id "
                "%lld, expected %lld)",
                r, static_cast<long long>(runs_[r].meta->id),
                static_cast<long long>(first_id +
                                       static_cast<RunId>(r))));
    }

    util::BinaryWriter out(Segment::artifact_kind,
                           Segment::artifact_version);
    out.beginSection("meta");
    out.str(microarch_);
    out.u64(static_cast<std::uint64_t>(first_id));
    out.u64(runs_.size());
    out.endSection();

    // Column payloads first: their absolute offsets are recorded here
    // and written into the catalog below. Alignment padding keeps every
    // payload mappable as double[]. The payloads are borrowed, not
    // copied: writeFile() streams them from the pinned spans.
    std::vector<std::vector<std::uint64_t>> offsets(runs_.size());
    out.beginSection("columns");
    for (std::size_t r = 0; r < runs_.size(); ++r) {
        offsets[r].reserve(runs_[r].columns.size());
        for (const auto &column : runs_[r].columns) {
            out.align8();
            offsets[r].push_back(out.bytesWritten());
            out.f64SpanRef(column);
        }
    }
    out.endSection();

    out.beginSection("catalog");
    out.u64(runs_.size());
    for (std::size_t r = 0; r < runs_.size(); ++r) {
        const PendingRun &run = runs_[r];
        out.u64(static_cast<std::uint64_t>(run.meta->id));
        out.str(run.meta->program);
        out.str(run.meta->suite);
        out.str(run.meta->mode);
        out.f64(run.meta->execTimeMs);
        out.f64(run.intervalMs);
        out.u64(run.length);
        out.u64(run.meta->events.size());
        for (std::size_t e = 0; e < run.meta->events.size(); ++e) {
            out.str(run.meta->events[e]);
            out.u64(offsets[r][e]);
        }
    }
    out.endSection();

    // Per-program run ordinals (ascending by construction: runs were
    // added in id order).
    std::map<std::string, std::vector<std::uint64_t>> index;
    for (std::size_t r = 0; r < runs_.size(); ++r)
        index[runs_[r].meta->program].push_back(r);
    out.beginSection("index");
    out.u64(index.size());
    for (const auto &[program, ordinals] : index) {
        out.str(program);
        out.u64(ordinals.size());
        for (const std::uint64_t ordinal : ordinals)
            out.u64(ordinal);
    }
    out.endSection();

    Status status = out.writeFile(path);
    if (!status.ok())
        return status.withContext("segment: write " + path);
    util::count("store.segments_written");
    return status;
}

} // namespace cminer::store
