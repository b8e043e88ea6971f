/**
 * @file
 * Builds immutable segment files (store/segment.h) from runs held in
 * memory — the seal half of the segment store, the merge half of its
 * compactor, and Database::save().
 *
 * The writer accumulates non-owning references to run columns (spans
 * over write-buffer vectors when sealing, over mmap'd columns of the
 * source segments when compacting) and emits the whole container in
 * one write() pass: column payloads first, 8-byte aligned so readers
 * can map them as `span<const double>`, then the catalog that records
 * each column's absolute offset, then the per-program index. Only the
 * header, meta, catalog and index bytes are encoded in memory; each
 * column payload streams into the file straight from its pinned span,
 * so neither a seal nor a compaction stages the container in RAM. The
 * file lands via the atomic temp-and-rename discipline shared by every
 * checkpoint writer.
 */

#ifndef CMINER_STORE_SEGMENT_WRITER_H
#define CMINER_STORE_SEGMENT_WRITER_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "store/segment.h"
#include "util/status.h"

namespace cminer::store {

/**
 * One-shot builder of a segment file. Runs must be added in ascending,
 * contiguous id order (write() validates). The referenced metadata and
 * column storage must stay alive until write() returns.
 */
class SegmentWriter
{
  public:
    explicit SegmentWriter(std::string microarch);

    /**
     * Queue one run.
     *
     * @param meta catalog metadata (id, program, events, ...)
     * @param interval_ms sampling interval
     * @param length samples per series
     * @param columns one span per event, parallel to meta.events; each
     *        must hold exactly `length` values and outlive write()
     */
    void addRun(const RunMetadata &meta, double interval_ms,
                std::size_t length,
                std::vector<std::span<const double>> columns);

    /** Convenience: queue a buffered run (spans over its columns). */
    void addRun(const BufferedRun &run);

    /** Convenience: queue every run of an open segment (compaction). */
    void addSegment(const Segment &segment);

    /** Runs queued so far. */
    std::size_t runCount() const { return runs_.size(); }

    /** Raw series bytes queued so far (file will be slightly larger). */
    std::size_t payloadBytes() const { return payloadBytes_; }

    /**
     * Write the container atomically to `path`, streaming each column
     * from its span. The writer is spent afterwards.
     * @return Ok, or the validation/I/O failure
     */
    cminer::util::Status write(const std::string &path);

  private:
    struct PendingRun
    {
        const RunMetadata *meta;
        double intervalMs;
        std::size_t length;
        std::vector<std::span<const double>> columns;
    };

    std::string microarch_;
    std::vector<PendingRun> runs_;
    std::size_t payloadBytes_ = 0;
    bool spent_ = false;
};

} // namespace cminer::store

#endif // CMINER_STORE_SEGMENT_WRITER_H
