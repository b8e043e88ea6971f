#include "store/store_index.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "store/segment_writer.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace cminer::store {

using cminer::ts::TimeSeries;
using cminer::util::Status;
using cminer::util::StatusOr;

// --- StoreSnapshot ---------------------------------------------------------

StoreSnapshot::Location
StoreSnapshot::locate(RunId id) const
{
    // Segments hold contiguous, ascending id ranges: binary-search the
    // one whose range starts at or before `id`.
    auto it = std::upper_bound(
        segments_.begin(), segments_.end(), id,
        [](RunId want, const std::shared_ptr<const Segment> &seg) {
            return want < seg->firstId();
        });
    if (it != segments_.begin()) {
        const Segment &seg = **std::prev(it);
        if (seg.containsRun(id))
            return {&seg, static_cast<std::size_t>(id - seg.firstId()),
                    nullptr};
    }
    if (!buffer_.empty()) {
        const RunId first = buffer_.front()->meta.id;
        if (id >= first &&
            id < first + static_cast<RunId>(buffer_.size()))
            return {nullptr, 0,
                    buffer_[static_cast<std::size_t>(id - first)].get()};
    }
    return {};
}

std::size_t
StoreSnapshot::runCount() const
{
    std::size_t n = buffer_.size();
    for (const auto &seg : segments_)
        n += seg->runCount();
    return n;
}

const RunMetadata &
StoreSnapshot::runInfo(RunId id) const
{
    const Location loc = locate(id);
    if (loc.segment != nullptr)
        return loc.segment->runMeta(loc.ordinal);
    if (loc.buffered != nullptr)
        return loc.buffered->meta;
    util::fatal("store: unknown run id " + std::to_string(id));
}

double
StoreSnapshot::intervalMs(RunId id) const
{
    const Location loc = locate(id);
    if (loc.segment != nullptr)
        return loc.segment->intervalMs(loc.ordinal);
    if (loc.buffered != nullptr)
        return loc.buffered->intervalMs;
    util::fatal("store: unknown run id " + std::to_string(id));
}

std::size_t
StoreSnapshot::length(RunId id) const
{
    const Location loc = locate(id);
    if (loc.segment != nullptr)
        return loc.segment->length(loc.ordinal);
    if (loc.buffered != nullptr)
        return loc.buffered->length;
    util::fatal("store: unknown run id " + std::to_string(id));
}

std::span<const double>
StoreSnapshot::values(RunId id, std::size_t event_index) const
{
    const Location loc = locate(id);
    if (loc.segment != nullptr)
        return loc.segment->column(loc.ordinal, event_index);
    if (loc.buffered != nullptr) {
        CM_ASSERT(event_index < loc.buffered->columns.size());
        return loc.buffered->columns[event_index];
    }
    util::fatal("store: unknown run id " + std::to_string(id));
}

std::span<const double>
StoreSnapshot::values(RunId id, const std::string &event) const
{
    const RunMetadata &meta = runInfo(id);
    for (std::size_t e = 0; e < meta.events.size(); ++e) {
        if (meta.events[e] == event)
            return values(id, e);
    }
    util::fatal("store: run " + std::to_string(id) +
                " has no event " + event);
}

std::vector<RunId>
StoreSnapshot::findRuns(const std::string &program,
                        const std::string &mode) const
{
    std::vector<RunId> ids;
    for (const auto &seg : segments_) {
        for (const std::size_t ordinal : seg->runsForProgram(program)) {
            if (!mode.empty() && seg->runMeta(ordinal).mode != mode)
                continue;
            ids.push_back(seg->firstId() +
                          static_cast<RunId>(ordinal));
        }
    }
    for (const auto &run : buffer_) {
        if (run->meta.program != program)
            continue;
        if (!mode.empty() && run->meta.mode != mode)
            continue;
        ids.push_back(run->meta.id);
    }
    return ids;
}

// --- StoreIndex ------------------------------------------------------------

StoreIndex::StoreIndex(StoreOptions options)
    : options_(std::move(options))
{
}

StoreIndex::~StoreIndex()
{
    waitForMaintenance();
}

std::size_t
StoreIndex::sealThreshold() const
{
    if (options_.sealThresholdBytes != 0)
        return options_.sealThresholdBytes;
    return std::max<std::size_t>(4096, options_.memoryBudgetBytes / 8);
}

std::size_t
StoreIndex::compactTarget() const
{
    if (options_.compactTargetBytes != 0)
        return options_.compactTargetBytes;
    return 4 * sealThreshold();
}

std::shared_ptr<StoreIndex>
StoreIndex::detached(std::string microarch,
                     std::shared_ptr<const Segment> segment)
{
    StoreOptions options;
    options.microarch = std::move(microarch);
    std::shared_ptr<StoreIndex> index(new StoreIndex(std::move(options)));
    if (segment != nullptr && segment->runCount() > 0) {
        index->nextId_ = segment->lastId() + 1;
        index->sealedRuns_ = segment->runCount();
        index->segments_.push_back(std::move(segment));
    }
    return index;
}

StatusOr<std::shared_ptr<StoreIndex>>
StoreIndex::open(const StoreOptions &options)
{
    if (options.directory.empty())
        return Status::dataError("store: openStore requires a directory");
    std::error_code ec;
    std::filesystem::create_directories(options.directory, ec);
    if (ec)
        return Status::dataError("store: cannot create directory " +
                                 options.directory + ": " +
                                 ec.message());

    // Scan in sorted-name order so errors are reported deterministically.
    std::vector<std::string> paths;
    for (const auto &entry :
         std::filesystem::directory_iterator(options.directory, ec)) {
        if (entry.path().extension() == ".cmseg")
            paths.push_back(entry.path().string());
    }
    if (ec)
        return Status::dataError("store: cannot scan directory " +
                                 options.directory + ": " +
                                 ec.message());
    std::sort(paths.begin(), paths.end());

    std::vector<std::shared_ptr<const Segment>> found;
    found.reserve(paths.size());
    for (const auto &path : paths) {
        auto seg = Segment::open(path);
        if (!seg.ok())
            return seg.status().withContext("store: open " +
                                            options.directory);
        if (seg.value()->microarch() != options.microarch)
            return Status::dataError(util::format(
                "store: segment %s was recorded on '%s' but the store "
                "was opened for '%s'",
                path.c_str(), seg.value()->microarch().c_str(),
                options.microarch.c_str()));
        if (seg.value()->runCount() == 0)
            return Status::dataError("store: empty segment " + path);
        found.push_back(std::move(seg).value());
    }

    // Resolve leftovers of an interrupted compaction: the merged
    // segment landed (rename is atomic) but one or more inputs were
    // not yet unlinked. Prefer the segment covering the most runs from
    // each starting id; anything whose whole range is already covered
    // is a stale input and is deleted. A genuine gap or partial
    // overlap is corruption and refuses to open.
    std::sort(found.begin(), found.end(),
              [](const std::shared_ptr<const Segment> &a,
                 const std::shared_ptr<const Segment> &b) {
                  if (a->firstId() != b->firstId())
                      return a->firstId() < b->firstId();
                  return a->runCount() > b->runCount();
              });
    std::shared_ptr<StoreIndex> index(new StoreIndex(options));
    RunId covered = -1;
    for (auto &seg : found) {
        if (seg->firstId() == covered + 1) {
            covered = seg->lastId();
            index->segments_.push_back(std::move(seg));
        } else if (seg->lastId() <= covered) {
            util::warn("store: deleting stale segment " + seg->path() +
                       " left over from an interrupted compaction");
            seg->markObsolete();
            seg.reset(); // last reference: unlinks the file
        } else {
            return Status::dataError(util::format(
                "store: segment %s covers runs [%lld, %lld] but runs "
                "up to %lld are accounted for — gap or partial overlap",
                seg->path().c_str(),
                static_cast<long long>(seg->firstId()),
                static_cast<long long>(seg->lastId()),
                static_cast<long long>(covered)));
        }
    }
    index->nextId_ = covered + 1;
    for (const auto &seg : index->segments_)
        index->sealedRuns_ += seg->runCount();
    index->generation_.store(
        static_cast<std::uint64_t>(index->segments_.size()));
    return index;
}

StatusOr<RunId>
StoreIndex::addRun(const std::string &program, const std::string &suite,
                   const std::string &mode, double exec_time_ms,
                   const std::vector<TimeSeries> &series)
{
    if (series.empty())
        return Status::dataError(
            "store: addRun requires at least one series");
    const std::size_t length = series.front().size();
    const double interval_ms = series.front().intervalMs();
    for (const auto &s : series) {
        if (s.size() != length)
            return Status::dataError(util::format(
                "store: series length mismatch within a run ('%s' has "
                "%zu samples, expected %zu)",
                s.eventName().c_str(), s.size(), length));
        // One run samples every event on the same clock; a mixed
        // interval would silently stretch or squeeze every series
        // recorded after the first, so it is data damage, not a
        // preference.
        if (s.intervalMs() != interval_ms)
            return Status::dataError(util::format(
                "store: mixed sampling intervals within a run ('%s' "
                "sampled every %g ms, '%s' every %g ms)",
                series.front().eventName().c_str(), interval_ms,
                s.eventName().c_str(), s.intervalMs()));
    }
    if (!std::isfinite(exec_time_ms) || exec_time_ms < 0.0)
        return Status::dataError(
            "store: run execution time is not a finite non-negative "
            "duration");

    auto run = std::make_shared<BufferedRun>();
    run->intervalMs = interval_ms;
    run->length = length;
    run->columns.reserve(series.size());
    for (const auto &s : series) {
        run->meta.events.push_back(s.eventName());
        run->columns.push_back(s.values());
    }
    run->meta.program = program;
    run->meta.suite = suite;
    run->meta.mode = mode;
    run->meta.execTimeMs = exec_time_ms;

    RunId id = -1;
    bool should_seal = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = nextId_++;
        run->meta.id = id;
        run->meta.seriesTable = "run_" + std::to_string(id);
        bufferBytes_ += run->payloadBytes();
        buffer_.push_back(std::move(run));
        should_seal = !options_.directory.empty() &&
                      bufferBytes_ >= sealThreshold();
    }
    if (should_seal) {
        const Status sealed = seal();
        // A failed seal (disk full, ...) keeps the runs buffered and
        // readable; the next addRun retries. The run itself was
        // recorded, so this is a warning, not the caller's error.
        if (!sealed.ok())
            util::warn("store: seal failed, keeping runs buffered: " +
                       sealed.message());
        else
            maybeCompact();
    }
    return id;
}

Status
StoreIndex::seal()
{
    std::vector<std::shared_ptr<const BufferedRun>> runs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (buffer_.empty())
            return Status::okStatus();
        runs = buffer_;
    }

    // File I/O happens without the lock; only the writer thread calls
    // seal(), so the buffer cannot change underneath it.
    SegmentWriter writer(options_.microarch);
    for (const auto &run : runs)
        writer.addRun(*run);
    const std::string path = segmentPath(runs.front()->meta.id,
                                         runs.back()->meta.id);
    Status written = writer.write(path);
    StatusOr<std::shared_ptr<const Segment>> opened =
        written.ok() ? Segment::open(path)
                     : StatusOr<std::shared_ptr<const Segment>>(written);
    if (!opened.ok()) {
        if (written.ok())
            std::remove(path.c_str());
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.sealFailures;
        return opened.status().withContext("store: seal");
    }

    std::lock_guard<std::mutex> lock(mutex_);
    CM_ASSERT(buffer_.size() == runs.size());
    segments_.push_back(std::move(opened).value());
    sealedRuns_ += runs.size();
    buffer_.clear();
    bufferBytes_ = 0;
    ++stats_.seals;
    return Status::okStatus();
}

Status
StoreIndex::flush()
{
    if (options_.directory.empty())
        return Status::okStatus();
    const Status sealed = seal();
    if (sealed.ok())
        maybeCompact();
    return sealed;
}

void
StoreIndex::maybeCompact()
{
    std::vector<std::shared_ptr<const Segment>> inputs;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (compacting_)
            return;
        const std::uint64_t target = compactTarget();
        const std::uint64_t small = target / 2;
        // First maximal run of adjacent small segments whose merged
        // size stays under the target. The merge streams columns from
        // the mapped inputs, so the target caps file size, not RAM.
        for (std::size_t i = 0; i < segments_.size();) {
            if (segments_[i]->fileBytes() >= small) {
                ++i;
                continue;
            }
            std::size_t j = i;
            std::uint64_t bytes = 0;
            while (j < segments_.size() &&
                   segments_[j]->fileBytes() < small &&
                   bytes + segments_[j]->fileBytes() <= target) {
                bytes += segments_[j]->fileBytes();
                ++j;
            }
            if (j - i >= options_.compactFanIn) {
                inputs.assign(segments_.begin() +
                                  static_cast<std::ptrdiff_t>(i),
                              segments_.begin() +
                                  static_cast<std::ptrdiff_t>(j));
                break;
            }
            i = j;
        }
        if (inputs.empty())
            return;
        compacting_ = true;
    }
    if (options_.maintenancePool != nullptr) {
        std::future<void> done = options_.maintenancePool->submit(
            [this, inputs = std::move(inputs)]() mutable {
                runCompaction(std::move(inputs));
            });
        std::lock_guard<std::mutex> lock(mutex_);
        maintenance_ = std::move(done);
    } else {
        runCompaction(std::move(inputs));
    }
}

void
StoreIndex::runCompaction(
    std::vector<std::shared_ptr<const Segment>> inputs)
{
    SegmentWriter writer(options_.microarch);
    for (const auto &seg : inputs)
        writer.addSegment(*seg);
    const std::string path = segmentPath(inputs.front()->firstId(),
                                         inputs.back()->lastId());
    Status written = writer.write(path);
    StatusOr<std::shared_ptr<const Segment>> merged =
        written.ok() ? Segment::open(path)
                     : StatusOr<std::shared_ptr<const Segment>>(written);
    if (!merged.ok()) {
        if (written.ok())
            std::remove(path.c_str());
        util::warn("store: compaction failed, keeping inputs: " +
                   merged.status().message());
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.compactionFailures;
        compacting_ = false;
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Seals only append and at most one compaction is in flight,
        // so the input range is still present and contiguous.
        auto it =
            std::find(segments_.begin(), segments_.end(), inputs.front());
        CM_ASSERT(it != segments_.end());
        CM_ASSERT(static_cast<std::size_t>(segments_.end() - it) >=
                  inputs.size());
        it = segments_.erase(
            it, it + static_cast<std::ptrdiff_t>(inputs.size()));
        segments_.insert(it, std::move(merged).value());
        ++stats_.compactions;
        compacting_ = false;
    }
    // Retire the inputs: each file is unlinked when its last pin (this
    // vector, the database, or a reader's snapshot) drops. The mmap of
    // a pinned snapshot survives the unlink — POSIX keeps the pages.
    for (const auto &seg : inputs)
        seg->markObsolete();
}

std::string
StoreIndex::segmentPath(RunId first, RunId last)
{
    for (;;) {
        const std::uint64_t gen = generation_.fetch_add(1);
        std::string path = util::format(
            "%s/seg_%012lld_%012lld_g%06llu.cmseg",
            options_.directory.c_str(), static_cast<long long>(first),
            static_cast<long long>(last),
            static_cast<unsigned long long>(gen));
        if (!std::filesystem::exists(path))
            return path;
    }
}

void
StoreIndex::waitForMaintenance()
{
    std::future<void> pending;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending = std::move(maintenance_);
    }
    if (pending.valid())
        pending.wait();
}

StoreSnapshot
StoreIndex::snapshot() const
{
    StoreSnapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    snap.segments_ = segments_;
    snap.buffer_ = buffer_;
    return snap;
}

std::size_t
StoreIndex::runCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sealedRuns_ + buffer_.size();
}

std::vector<RunId>
StoreIndex::findRuns(const std::string &program,
                     const std::string &mode) const
{
    return snapshot().findRuns(program, mode);
}

std::vector<std::string>
StoreIndex::programs() const
{
    const StoreSnapshot snap = snapshot();
    std::set<std::string> names;
    for (const auto &seg : snap.segments_) {
        for (auto &program : seg->programs())
            names.insert(std::move(program));
    }
    for (const auto &run : snap.buffer_)
        names.insert(run->meta.program);
    return {names.begin(), names.end()};
}

StoreStats
StoreIndex::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StoreStats out = stats_;
    out.segmentCount = segments_.size();
    out.sealedRuns = sealedRuns_;
    out.bufferedRuns = buffer_.size();
    out.bufferedBytes = bufferBytes_;
    out.segmentFileBytes = 0;
    for (const auto &seg : segments_)
        out.segmentFileBytes += seg->fileBytes();
    return out;
}

} // namespace cminer::store
