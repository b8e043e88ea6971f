#include "store/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "util/binary_io.h"
#include "util/error.h"
#include "util/string_util.h"

namespace cminer::store {

using cminer::util::Status;
using cminer::util::StatusOr;

// --- MappedFile -----------------------------------------------------------

StatusOr<MappedFile>
MappedFile::open(const std::string &path)
{
    const Status regular = util::checkRegularFile(path);
    if (!regular.ok())
        return regular;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return Status::dataError("cannot open for mapping: " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return Status::dataError("cannot stat: " + path);
    }
    MappedFile file;
    file.size_ = static_cast<std::size_t>(st.st_size);
    file.mapped_ = true;
    if (file.size_ > 0) {
        void *base =
            ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
        if (base == MAP_FAILED) {
            ::close(fd);
            file.mapped_ = false;
            return Status::dataError("mmap failed: " + path);
        }
        file.data_ = static_cast<const char *>(base);
    }
    // The mapping survives the descriptor; keep nothing else open.
    ::close(fd);
    return file;
}

MappedFile::~MappedFile()
{
    if (mapped_ && data_ != nullptr)
        ::munmap(const_cast<char *>(data_), size_);
}

MappedFile::MappedFile(MappedFile &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false))
{
}

MappedFile &
MappedFile::operator=(MappedFile &&other) noexcept
{
    if (this != &other) {
        if (mapped_ && data_ != nullptr)
            ::munmap(const_cast<char *>(data_), size_);
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        mapped_ = std::exchange(other.mapped_, false);
    }
    return *this;
}

// --- Segment --------------------------------------------------------------

namespace {

/**
 * Smallest possible catalog record: id (8) + three string length
 * prefixes (24) + exec/interval (16) + length (8) + event count (8).
 */
constexpr std::size_t min_catalog_record_bytes = 64;

/** Smallest per-event catalog entry: name length prefix + offset. */
constexpr std::size_t min_event_record_bytes = 16;

} // namespace

StatusOr<std::shared_ptr<const Segment>>
Segment::open(const std::string &path)
{
    // MappedFile's errors already name the path; each one below adds it.
    auto mapped = MappedFile::open(path);
    if (!mapped.ok())
        return mapped.status().withContext("segment: open");

    // shared_ptr<Segment> built first so the mapping has its final
    // address before spans are derived from it (MappedFile moves keep
    // the mapping address, but being explicit costs nothing).
    std::shared_ptr<Segment> seg(new Segment());
    seg->path_ = path;
    seg->map_ = std::move(mapped).value();
    const std::string_view bytes = seg->map_.bytes();

    auto opened = util::BinaryReader::fromView(bytes, artifact_kind);
    if (!opened.ok())
        return opened.status().withContext("segment: open " + path);
    util::BinaryReader in = std::move(opened).value();
    if (in.artifactVersion() != artifact_version)
        return in
            .fail(util::format("unsupported segment version %u (this "
                               "build reads v%u)",
                               in.artifactVersion(), artifact_version))
            .withContext("segment: open " + path);

    // Sections are written in canonical order (meta, columns, catalog,
    // index); the catalog's column offsets are validated against the
    // columns payload range, so that section must already be known.
    std::uint64_t columns_begin = 0;
    std::uint64_t columns_end = 0;
    std::uint64_t declared_runs = 0;
    bool seen_meta = false;
    bool seen_columns = false;
    bool seen_catalog = false;

    for (std::uint64_t s = 0; s < in.sectionCount() && in.ok(); ++s) {
        const std::string section = in.beginSection();
        if (!in.ok())
            break;
        if (section == "meta") {
            seg->microarch_ = in.str();
            const std::uint64_t first = in.u64();
            declared_runs = in.u64();
            if (in.ok() &&
                first > static_cast<std::uint64_t>(
                            std::numeric_limits<RunId>::max()))
                return in.fail("first run id overflows RunId")
                    .withContext("segment: open " + path);
            seg->firstId_ = static_cast<RunId>(first);
            seen_meta = true;
        } else if (section == "columns") {
            // Opaque payload; record its range and skip it by size.
            columns_begin = in.offset();
            columns_end = columns_begin + in.remaining();
            seen_columns = true;
        } else if (section == "catalog") {
            if (!seen_meta || !seen_columns)
                return in
                    .fail("catalog section before meta/columns")
                    .withContext("segment: open " + path);
            const std::uint64_t run_count =
                in.count(min_catalog_record_bytes);
            if (in.ok() && run_count != declared_runs)
                return in
                    .fail(util::format(
                        "catalog holds %llu runs but meta declares "
                        "%llu",
                        static_cast<unsigned long long>(run_count),
                        static_cast<unsigned long long>(
                            declared_runs)))
                    .withContext("segment: open " + path);
            seg->runs_.reserve(run_count);
            for (std::uint64_t r = 0; r < run_count && in.ok(); ++r) {
                RunEntry entry;
                const std::uint64_t id = in.u64();
                entry.meta.id = static_cast<RunId>(id);
                entry.meta.program = in.str();
                entry.meta.suite = in.str();
                entry.meta.mode = in.str();
                entry.meta.execTimeMs = in.f64();
                entry.intervalMs = in.f64();
                entry.length = in.u64();
                const std::uint64_t event_count =
                    in.count(min_event_record_bytes);
                if (!in.ok())
                    break;
                if (entry.meta.id !=
                    seg->firstId_ + static_cast<RunId>(r))
                    return in
                        .fail(util::format(
                            "run %llu has id %lld, expected the "
                            "contiguous id %lld",
                            static_cast<unsigned long long>(r),
                            static_cast<long long>(entry.meta.id),
                            static_cast<long long>(
                                seg->firstId_ +
                                static_cast<RunId>(r))))
                        .withContext("segment: open " + path);
                if (event_count == 0)
                    return in.fail("run with zero events")
                        .withContext("segment: open " + path);
                entry.meta.seriesTable =
                    "run_" + std::to_string(entry.meta.id);
                entry.meta.events.reserve(event_count);
                entry.columnOffsets.reserve(event_count);
                for (std::uint64_t e = 0; e < event_count && in.ok();
                     ++e) {
                    entry.meta.events.push_back(in.str());
                    const std::uint64_t offset = in.u64();
                    if (!in.ok())
                        break;
                    // The whole point of the bounded-read discipline:
                    // the offset and length are attacker-controlled
                    // until proven inside the columns payload.
                    if (offset % alignof(double) != 0)
                        return in
                            .fail(util::format(
                                "column offset %llu is not 8-byte "
                                "aligned",
                                static_cast<unsigned long long>(
                                    offset)))
                            .withContext("segment: open " + path);
                    if (offset < columns_begin ||
                        offset > columns_end ||
                        entry.length >
                            (columns_end - offset) / sizeof(double))
                        return in
                            .fail(util::format(
                                "column at offset %llu with %llu "
                                "samples escapes the columns payload "
                                "[%llu, %llu)",
                                static_cast<unsigned long long>(
                                    offset),
                                static_cast<unsigned long long>(
                                    entry.length),
                                static_cast<unsigned long long>(
                                    columns_begin),
                                static_cast<unsigned long long>(
                                    columns_end)))
                            .withContext("segment: open " + path);
                    entry.columnOffsets.push_back(offset);
                }
                if (!in.ok())
                    break;
                seg->runs_.push_back(std::move(entry));
            }
            seen_catalog = in.ok();
        } else if (section == "index") {
            if (!seen_catalog)
                return in.fail("index section before catalog")
                    .withContext("segment: open " + path);
            const std::uint64_t indexed_programs = in.count(16);
            for (std::uint64_t p = 0; p < indexed_programs && in.ok();
                 ++p) {
                const std::string program = in.str();
                const std::uint64_t n = in.count(8);
                if (!in.ok())
                    break;
                std::vector<std::size_t> ordinals;
                ordinals.reserve(n);
                for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
                    const std::uint64_t ordinal = in.u64();
                    if (!in.ok())
                        break;
                    if (ordinal >= seg->runs_.size() ||
                        seg->runs_[ordinal].meta.program != program)
                        return in
                            .fail(util::format(
                                "index entry for '%s' names run "
                                "ordinal %llu, which is out of range "
                                "or belongs to another program",
                                program.c_str(),
                                static_cast<unsigned long long>(
                                    ordinal)))
                            .withContext("segment: open " + path);
                    ordinals.push_back(
                        static_cast<std::size_t>(ordinal));
                }
                if (!in.ok())
                    break;
                seg->programIndex_.emplace(program,
                                           std::move(ordinals));
            }
        }
        // Unknown sections from newer writers are skipped by size.
        in.endSection();
    }
    if (!in.ok())
        return in.status().withContext("segment: open " + path);
    if (!seen_catalog)
        return Status::dataError("no 'catalog' section")
            .withContext("segment: open " + path);
    return std::shared_ptr<const Segment>(std::move(seg));
}

const RunMetadata &
Segment::runMeta(std::size_t ordinal) const
{
    CM_ASSERT(ordinal < runs_.size());
    return runs_[ordinal].meta;
}

double
Segment::intervalMs(std::size_t ordinal) const
{
    CM_ASSERT(ordinal < runs_.size());
    return runs_[ordinal].intervalMs;
}

std::size_t
Segment::length(std::size_t ordinal) const
{
    CM_ASSERT(ordinal < runs_.size());
    return static_cast<std::size_t>(runs_[ordinal].length);
}

std::span<const double>
Segment::column(std::size_t ordinal, std::size_t event_index) const
{
    CM_ASSERT(ordinal < runs_.size());
    const RunEntry &entry = runs_[ordinal];
    CM_ASSERT(event_index < entry.columnOffsets.size());
    // Offsets were proven 8-aligned and in-bounds at open(); the mmap
    // base is page-aligned, so the sum is a valid double address.
    const char *base =
        map_.bytes().data() + entry.columnOffsets[event_index];
    return {reinterpret_cast<const double *>(base),
            static_cast<std::size_t>(entry.length)};
}

std::vector<std::size_t>
Segment::runsForProgram(const std::string &program) const
{
    auto it = programIndex_.find(program);
    if (it == programIndex_.end())
        return {};
    return it->second;
}

std::vector<std::string>
Segment::programs() const
{
    std::vector<std::string> names;
    names.reserve(programIndex_.size());
    for (const auto &[program, ordinals] : programIndex_)
        names.push_back(program);
    return names;
}

Segment::~Segment()
{
    if (obsolete_.load())
        std::remove(path_.c_str());
}

} // namespace cminer::store
