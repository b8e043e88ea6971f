/**
 * @file
 * Immutable, memory-mapped columnar segment files — the on-disk shards
 * of the segment store (DESIGN.md §15), and the one on-disk format of
 * a database: a file written by Database::save() is one segment.
 *
 * A segment holds a contiguous range of run ids in the checkpoint
 * container format (util/binary_io.h, artifact kind "cminer-segment"):
 *
 *   section "meta"     str microarch, u64 first_id, u64 run_count
 *   section "columns"  raw 8-byte-aligned f64 payloads, one per
 *                      (run, event) column; opaque to the section
 *                      machinery, addressed by catalog offsets
 *   section "catalog"  per run: id, program, suite, mode, exec time,
 *                      sampling interval, length, and per event the
 *                      name plus the absolute file offset of its column
 *   section "index"    per program: name + ordinals of its runs, so a
 *                      mining job finds a benchmark's runs without
 *                      scanning the catalog
 *
 * Segments are written once (SegmentWriter) and never modified; readers
 * mmap the file and serve `span<const double>` column views straight
 * over the mapping — zero copies, and only the pages a mining job
 * actually touches ever enter memory. Open() validates every count,
 * length, and offset against the bytes actually in the file before
 * anything is trusted, with the same truncation/corruption discipline
 * as every other container reader (checkpoint_test's sweep style).
 */

#ifndef CMINER_STORE_SEGMENT_H
#define CMINER_STORE_SEGMENT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cminer::store {

/** Identifier of one recorded program run. */
using RunId = std::int64_t;

/** Catalog entry describing one run. */
struct RunMetadata
{
    RunId id = -1;
    std::string program;       ///< benchmark name, e.g. "wordcount"
    std::string suite;         ///< "hibench" or "cloudsuite"
    std::string mode;          ///< "ocoe" or "mlpx"
    double execTimeMs = 0.0;   ///< run wall-clock time
    std::vector<std::string> events; ///< measured event names
    /** "run_<id>": the run's level-2 table, and exportCsv's file name. */
    std::string seriesTable;
};

/**
 * One run absorbed by the write buffer but not yet sealed into a
 * segment. Immutable once constructed and shared by pointer, so a
 * snapshot taken before a seal keeps the data alive (and its spans
 * valid) after the database has moved on.
 */
struct BufferedRun
{
    RunMetadata meta;
    double intervalMs = 0.0;
    std::size_t length = 0; ///< samples per series
    /** One column per event, parallel to meta.events. */
    std::vector<std::vector<double>> columns;

    /** Raw series payload size (the write buffer's budget currency). */
    std::size_t payloadBytes() const
    {
        return columns.size() * length * sizeof(double);
    }
};

/**
 * A read-only memory mapping of a whole regular file. Move-only; unmaps
 * on destruction. Zero-length files map to an empty view.
 */
class MappedFile
{
  public:
    /** Map `path`; every error names the path. */
    static cminer::util::StatusOr<MappedFile>
    open(const std::string &path);

    MappedFile() = default;
    ~MappedFile();
    MappedFile(MappedFile &&other) noexcept;
    MappedFile &operator=(MappedFile &&other) noexcept;
    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** The mapped bytes (empty for a zero-length file). */
    std::string_view bytes() const { return {data_, size_}; }

  private:
    const char *data_ = nullptr;
    std::size_t size_ = 0;
    /** Distinguishes an empty mapping from a moved-from object. */
    bool mapped_ = false;
};

/**
 * An open, validated segment file. Immutable and internally
 * synchronization-free: every accessor is safe from any number of
 * threads. Shared by `shared_ptr` so snapshots pin the mapping (and
 * on POSIX the data stays readable even after the file is unlinked by
 * compaction).
 */
class Segment
{
  public:
    /** Artifact kind of segment container files. */
    static constexpr const char *artifact_kind = "cminer-segment";
    /** Current segment schema version. */
    static constexpr std::uint32_t artifact_version = 1;

    /**
     * Map and validate a segment file. Every count/length/offset field
     * is checked against the actual file size before use; a truncated
     * or corrupt file yields a DataError naming the byte offset. Every
     * error names the path, once.
     */
    static cminer::util::StatusOr<std::shared_ptr<const Segment>>
    open(const std::string &path);

    /** Microarchitecture tag recorded at seal time. */
    const std::string &microarch() const { return microarch_; }

    /** First run id held by this segment. */
    RunId firstId() const { return firstId_; }

    /** Last run id (ids are contiguous within a segment). */
    RunId lastId() const
    {
        return firstId_ + static_cast<RunId>(runs_.size()) - 1;
    }

    /** Number of runs in the segment. */
    std::size_t runCount() const { return runs_.size(); }

    /** Whether `id` falls inside this segment's id range. */
    bool containsRun(RunId id) const
    {
        return id >= firstId_ && id <= lastId();
    }

    /** Catalog metadata of the run at `ordinal` (0-based). */
    const RunMetadata &runMeta(std::size_t ordinal) const;

    /** Sampling interval of the run at `ordinal`, in ms. */
    double intervalMs(std::size_t ordinal) const;

    /** Samples per series of the run at `ordinal`. */
    std::size_t length(std::size_t ordinal) const;

    /**
     * Zero-copy column view straight over the mapping: the values of
     * event `event_index` (position in runMeta().events) of the run at
     * `ordinal`. Valid for the lifetime of the Segment.
     */
    std::span<const double> column(std::size_t ordinal,
                                   std::size_t event_index) const;

    /**
     * Ordinals of this segment's runs for one program, ascending, from
     * the per-program index section — a mining job touches only the
     * catalog pages plus the columns it asks for.
     */
    std::vector<std::size_t>
    runsForProgram(const std::string &program) const;

    /** Programs with at least one run here, sorted. */
    std::vector<std::string> programs() const;

    /** Size of the backing file in bytes (compaction sizing). */
    std::uint64_t fileBytes() const { return map_.bytes().size(); }

    /** Path of the backing file. */
    const std::string &path() const { return path_; }

    /**
     * Mark the backing file for deletion: once the last shared_ptr
     * (database or pinned snapshot) drops, the destructor unlinks it.
     * Used by compaction to retire merged-away inputs.
     */
    void markObsolete() const { obsolete_.store(true); }

    ~Segment();

    Segment(const Segment &) = delete;
    Segment &operator=(const Segment &) = delete;

  private:
    Segment() = default;

    /** Per-run catalog entry decoded at open(). */
    struct RunEntry
    {
        RunMetadata meta;
        double intervalMs = 0.0;
        std::uint64_t length = 0;
        /** Absolute file offset of each event's column payload. */
        std::vector<std::uint64_t> columnOffsets;
    };

    std::string path_;
    MappedFile map_;
    std::string microarch_;
    RunId firstId_ = 0;
    std::vector<RunEntry> runs_;
    /** program -> ascending run ordinals (from the index section). */
    std::map<std::string, std::vector<std::size_t>> programIndex_;
    mutable std::atomic<bool> obsolete_{false};
};

} // namespace cminer::store

#endif // CMINER_STORE_SEGMENT_H
