/**
 * @file
 * The two-level performance database (Section III-A of the paper).
 *
 * Level 1 is a catalog holding, per run: the program name, suite,
 * sampling mode, execution time, the measured event names, and the name
 * of the level-2 table. Level 2 holds one table per run with the sampled
 * time series (one column per event, one value per interval).
 *
 * The paper uses SQLite for this; here one embedded engine, the segment
 * store (store/store_index.h, DESIGN.md §15), holds both levels. Runs
 * land in a write buffer; immutable segment files (store/segment.h)
 * hold sealed runs. Series reads are zero-copy spans over the buffer or
 * over a segment's memory mapping. A database describes one
 * microarchitecture: every segment records it, load() takes it from the
 * file, and openStore() refuses a directory recorded for another.
 *
 * Whether the store has a directory is the only difference between:
 *
 *  - the default constructor and load(): no directory. The buffer never
 *    seals on its own and flush() does nothing. save() writes every run
 *    into one segment file (a `.cmdb`), which load() maps back.
 *  - openStore(): a directory of segment files. The buffer seals into a
 *    new segment once it crosses a size threshold and small segments
 *    are compacted in the background, so resident memory tracks the
 *    configured budget, not the dataset.
 *
 * Readers that must stay consistent while ingest or maintenance runs
 * concurrently take a snapshot() and read through it; see
 * store/store_index.h for the pinning rules.
 */

#ifndef CMINER_STORE_DATABASE_H
#define CMINER_STORE_DATABASE_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "store/segment.h"
#include "store/store_index.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace cminer::store {

/**
 * The performance database: catalog plus per-run series tables.
 * Move-only: a copy would share one store behind two handles.
 */
class Database
{
  public:
    /**
     * An empty store with no directory.
     * @param microarch the microarchitecture this database describes
     */
    explicit Database(std::string microarch = "haswell-e");

    Database(Database &&) noexcept = default;
    Database &operator=(Database &&) noexcept = default;
    Database(const Database &) = delete;
    Database &operator=(const Database &) = delete;

    /**
     * Open (or create) a database over a directory of segment files.
     * Existing segments are validated (every count and offset
     * bounds-checked) and leftovers of an interrupted compaction are
     * resolved; a gap, partial overlap, corrupt segment, or
     * microarchitecture mismatch refuses to open.
     * @throws util::FatalError on failure
     */
    static Database openStore(const StoreOptions &options);

    /** Recoverable flavour of openStore(). */
    static cminer::util::StatusOr<Database>
    tryOpenStore(const StoreOptions &options);

    /** Microarchitecture tag. */
    const std::string &microarch() const { return store_->microarch(); }

    /**
     * Record one run: catalog entry plus its level-2 series.
     *
     * All series must have the same length (one value per interval)
     * and the same sampling interval (StoreIndex::addRun validates).
     *
     * @param program benchmark name
     * @param suite benchmark suite name
     * @param mode "ocoe" or "mlpx"
     * @param exec_time_ms run duration
     * @param series one TimeSeries per measured event
     * @return the new run's id
     */
    RunId addRun(const std::string &program, const std::string &suite,
                 const std::string &mode, double exec_time_ms,
                 const std::vector<cminer::ts::TimeSeries> &series);

    /**
     * Recoverable flavour of addRun for the fault-tolerant ingest path:
     * an empty series list, mismatched series lengths, mixed sampling
     * intervals, or a non-finite execution time come back as a
     * DataError Status instead of a thrown FatalError, so a damaged run
     * can be quarantined while the job continues. Nothing is recorded
     * on error.
     */
    cminer::util::StatusOr<RunId>
    tryAddRun(const std::string &program, const std::string &suite,
              const std::string &mode, double exec_time_ms,
              const std::vector<cminer::ts::TimeSeries> &series);

    /** Number of recorded runs. */
    std::size_t runCount() const;

    /** Metadata for a run; fatal for unknown ids. */
    const RunMetadata &runInfo(RunId id) const;

    /** Ids of runs matching program (and optionally mode). */
    std::vector<RunId> findRuns(const std::string &program,
                                const std::string &mode = "") const;

    /** All distinct program names in the catalog. */
    std::vector<std::string> programs() const;

    /**
     * Zero-copy view of one event's sampled values: a buffered column
     * or a column of a mapped segment. Fatal when the run or event is
     * absent. Valid until the next mutation of the database (which
     * includes a seal or compaction) — readers concurrent with ingest
     * must pin a snapshot() and read through it instead.
     */
    std::span<const double> seriesValues(RunId id,
                                         const std::string &event) const;

    /** Sampling interval of a run's series, in milliseconds. */
    double seriesIntervalMs(RunId id) const;

    /** Samples per series of a run (cheaper than a values view). */
    std::size_t seriesLength(RunId id) const;

    /**
     * Pin a consistent view of every run for reading. The snapshot is
     * self-contained and stays valid — including every span it hands
     * out — across concurrent addRun/flush and background compaction.
     */
    StoreSnapshot snapshot() const;

    /**
     * Write every run, sealed and buffered, into one segment file
     * (store/segment.h, artifact kind "cminer-segment"), streamed from
     * a pinned snapshot. The write is atomic: data lands in a temp file
     * renamed over the destination, so a mid-write failure never
     * destroys the previous good file.
     * @throws util::FatalError on I/O failure
     */
    void save(const std::string &path) const;

    /** Recoverable flavour of save(): a Status instead of a throw. */
    cminer::util::Status trySave(const std::string &path) const;

    /**
     * Durability barrier: seal the write buffer into a segment file. A
     * no-op without a directory and on an empty buffer.
     * @throws util::FatalError on I/O failure
     */
    void flush();

    /** Recoverable flavour of flush(). */
    cminer::util::Status tryFlush();

    /** Block until background store maintenance (compaction) is idle. */
    void waitForStoreMaintenance();

    /** Store engine counters. */
    StoreStats storeStats() const;

    /**
     * Open a file written by save(): a store with no directory holding
     * that one segment. Segment::open maps the file read-only and
     * validates every count, length and offset against the bytes in it
     * before use, so truncated or corrupt input is a clean error naming
     * the byte offset. The microarchitecture comes from the file; runs
     * added afterwards continue its ids and stay buffered.
     *
     * Columns are read from the mapping for the database's lifetime,
     * so the file must not be rewritten in place while it is loaded.
     * Replacing it by rename, as save() and every writer here do, is
     * safe: the mapping keeps the old file's pages.
     * @throws util::FatalError on I/O failure, corruption, or a file
     *         whose first run id is not 0
     */
    static Database load(const std::string &path);

    /** Recoverable flavour of load(): a Status instead of a throw. */
    static cminer::util::StatusOr<Database>
    tryLoad(const std::string &path);

    /**
     * Export the catalog and every run table as CSV files into a
     * directory (catalog.csv + run_<id>.csv). Each file is written
     * atomically (temp + rename), doubles at round-trip precision
     * (%.17g), and stale run_<id>.csv files from a previous, larger
     * export into the same directory are removed so the directory
     * always equals exactly this database.
     * @throws util::FatalError when the directory cannot be created or
     *         a file cannot be written
     */
    void exportCsv(const std::string &directory) const;

  private:
    explicit Database(std::shared_ptr<StoreIndex> store);

    /** Shared so a queued compaction task survives a move. */
    std::shared_ptr<StoreIndex> store_;
};

} // namespace cminer::store

#endif // CMINER_STORE_DATABASE_H
