#include "store/database.h"

#include <charconv>
#include <filesystem>
#include <system_error>

#include "store/segment_writer.h"
#include "util/binary_io.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/string_util.h"

namespace cminer::store {

using cminer::ts::TimeSeries;

namespace {

/** One CSV line with RFC-4180 quoting, newline included. */
std::string
csvLine(const std::vector<std::string> &fields)
{
    std::string line;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i != 0)
            line += ',';
        line += util::csvQuote(fields[i]);
    }
    line += '\n';
    return line;
}

} // namespace

Database::Database(std::string microarch)
    : store_(StoreIndex::detached(std::move(microarch)))
{
}

Database::Database(std::shared_ptr<StoreIndex> store)
    : store_(std::move(store))
{
}

Database
Database::openStore(const StoreOptions &options)
{
    auto db = tryOpenStore(options);
    db.status().throwIfError();
    return std::move(db).value();
}

util::StatusOr<Database>
Database::tryOpenStore(const StoreOptions &options)
{
    auto index = StoreIndex::open(options);
    if (!index.ok())
        return index.status();
    return Database(std::move(index).value());
}

RunId
Database::addRun(const std::string &program, const std::string &suite,
                 const std::string &mode, double exec_time_ms,
                 const std::vector<TimeSeries> &series)
{
    auto result = tryAddRun(program, suite, mode, exec_time_ms, series);
    result.status().throwIfError();
    return result.value();
}

util::StatusOr<RunId>
Database::tryAddRun(const std::string &program, const std::string &suite,
                    const std::string &mode, double exec_time_ms,
                    const std::vector<TimeSeries> &series)
{
    return store_->addRun(program, suite, mode, exec_time_ms, series);
}

std::size_t
Database::runCount() const
{
    return store_->runCount();
}

// The direct readers below return references and spans into
// store-owned memory (a buffered run or a segment mapping), which the
// store keeps alive until the next seal or compaction retires it.

const RunMetadata &
Database::runInfo(RunId id) const
{
    return store_->snapshot().runInfo(id);
}

std::vector<RunId>
Database::findRuns(const std::string &program, const std::string &mode) const
{
    return store_->findRuns(program, mode);
}

std::vector<std::string>
Database::programs() const
{
    return store_->programs();
}

std::span<const double>
Database::seriesValues(RunId id, const std::string &event) const
{
    return store_->snapshot().values(id, event);
}

double
Database::seriesIntervalMs(RunId id) const
{
    return store_->snapshot().intervalMs(id);
}

std::size_t
Database::seriesLength(RunId id) const
{
    return store_->snapshot().length(id);
}

StoreSnapshot
Database::snapshot() const
{
    return store_->snapshot();
}

void
Database::save(const std::string &path) const
{
    trySave(path).throwIfError();
}

util::Status
Database::trySave(const std::string &path) const
{
    // The snapshot pins every column the writer borrows, so a
    // directory-backed store may seal or compact while this streams.
    const StoreSnapshot snap = snapshot();
    SegmentWriter writer(microarch());
    for (RunId id = 0; id < static_cast<RunId>(snap.runCount()); ++id) {
        const RunMetadata &meta = snap.runInfo(id);
        std::vector<std::span<const double>> columns;
        columns.reserve(meta.events.size());
        for (std::size_t e = 0; e < meta.events.size(); ++e)
            columns.push_back(snap.values(id, e));
        writer.addRun(meta, snap.intervalMs(id), snap.length(id),
                      std::move(columns));
    }
    return writer.write(path).withContext("store: save " + path);
}

void
Database::flush()
{
    tryFlush().throwIfError();
}

util::Status
Database::tryFlush()
{
    return store_->flush();
}

void
Database::waitForStoreMaintenance()
{
    store_->waitForMaintenance();
}

StoreStats
Database::storeStats() const
{
    return store_->stats();
}

Database
Database::load(const std::string &path)
{
    auto loaded = tryLoad(path);
    loaded.status().throwIfError();
    return std::move(loaded).value();
}

util::StatusOr<Database>
Database::tryLoad(const std::string &path)
{
    // Every Segment::open error already names the path.
    auto segment = Segment::open(path);
    if (!segment.ok())
        return segment.status().withContext("store: load");
    // A saved database numbers its runs from 0; a segment cut from the
    // middle of a store directory does not stand alone.
    const RunId first = segment.value()->firstId();
    if (first != 0)
        return util::Status::dataError(util::format(
            "store: load %s: first run id is %lld, not 0", path.c_str(),
            static_cast<long long>(first)));
    std::string microarch = segment.value()->microarch();
    return Database(StoreIndex::detached(std::move(microarch),
                                         std::move(segment).value()));
}

void
Database::exportCsv(const std::string &directory) const
{
    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    if (!std::filesystem::is_directory(
            std::filesystem::status(directory, ec)))
        util::fatal("store: exportCsv: cannot create directory " +
                    directory);

    // One consistent view for the whole export.
    const StoreSnapshot snap = snapshot();
    const RunId run_count = static_cast<RunId>(snap.runCount());

    // Each file is assembled in memory and landed with the atomic
    // temp-and-rename discipline: a mid-export crash or full disk
    // leaves either the previous file or the new one, never a torn
    // half-written CSV.
    std::string catalog_text = csvLine({"run_id", "program", "suite",
                                        "mode", "exec_time_ms", "events",
                                        "series_table"});
    for (RunId id = 0; id < run_count; ++id) {
        const RunMetadata &meta = snap.runInfo(id);
        catalog_text += csvLine(
            {std::to_string(id), meta.program, meta.suite, meta.mode,
             util::format("%.17g", meta.execTimeMs),
             util::join(meta.events, ";"), meta.seriesTable});
    }
    util::writeFileAtomic(directory + "/catalog.csv", catalog_text)
        .withContext("store: exportCsv")
        .throwIfError();

    for (RunId id = 0; id < run_count; ++id) {
        const RunMetadata &meta = snap.runInfo(id);
        std::vector<std::string> header;
        header.reserve(meta.events.size() + 1);
        header.push_back("interval");
        for (const auto &event : meta.events)
            header.push_back(event);
        std::string text = csvLine(header);

        const std::size_t length = snap.length(id);
        std::vector<std::span<const double>> columns;
        columns.reserve(meta.events.size());
        for (std::size_t e = 0; e < meta.events.size(); ++e)
            columns.push_back(snap.values(id, e));
        std::vector<std::string> fields(meta.events.size() + 1);
        for (std::size_t i = 0; i < length; ++i) {
            fields[0] = std::to_string(i);
            // %.17g survives a text round trip bit-exactly for every
            // finite double; anything shorter can silently perturb the
            // last bits on re-import.
            for (std::size_t e = 0; e < columns.size(); ++e)
                fields[e + 1] = util::format("%.17g", columns[e][i]);
            text += csvLine(fields);
        }
        util::writeFileAtomic(
            directory + "/" + meta.seriesTable + ".csv", text)
            .withContext("store: exportCsv")
            .throwIfError();
    }

    // Remove run_<id>.csv leftovers from a previous export of a larger
    // database, so the directory always equals exactly this database.
    for (std::filesystem::directory_iterator it(directory, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        if (name.size() <= 8 || name.rfind("run_", 0) != 0 ||
            name.substr(name.size() - 4) != ".csv")
            continue;
        const std::string digits = name.substr(4, name.size() - 8);
        if (digits.find_first_not_of("0123456789") != std::string::npos)
            continue;
        // All digits, so the parse either succeeds or overflows; an id
        // too large for RunId is above run_count, so that file is
        // stale too.
        RunId id = 0;
        const auto parsed = std::from_chars(
            digits.data(), digits.data() + digits.size(), id);
        if (parsed.ec == std::errc::result_out_of_range ||
            id >= run_count) {
            std::error_code ignore;
            std::filesystem::remove(it->path(), ignore);
        }
    }
}

} // namespace cminer::store
