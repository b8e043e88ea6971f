#include "util/binary_io.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <climits>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include "util/error.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace cminer::util {

// Every on-disk and on-wire integer and double is little-endian, and
// the segment store serves `span<const double>` straight over mapped
// files, so a big-endian host could not read its own store. Requiring
// a little-endian host lets every encode and decode below be a plain
// bulk copy, with no byte-swapping branch that nothing could test.
static_assert(std::endian::native == std::endian::little,
              "the checkpoint container requires a little-endian host");

namespace {

/** Hard cap on a single length-prefixed string (names, not payloads). */
constexpr std::uint64_t max_string_bytes = 1ULL << 32;

template <typename T>
void
appendLe(std::string &out, T v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
T
decodeLe(const char *p)
{
    T v{};
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/**
 * Write every piece to `fd` in as few writev() calls as IOV_MAX
 * allows, with every source page mapped first.
 *
 * Both serve the segment store's mapped scans, which fault about once
 * per page-cache folio. The kernel sizes a file's folios by the write
 * that fills them, so one call per piece would leave many small
 * folios. It also copies with page faults disabled and halves its
 * write chunk, and with it the folio size, at each source page not yet
 * mapped: every page of a compaction input's fresh mapping. Measured
 * on a 12 MiB file, a scan then takes ~15x the faults. A failed
 * populate (a kernel without MADV_POPULATE_READ) costs only that speed.
 */
bool
writeAll(int fd, std::span<const std::string_view> pieces)
{
    const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
    std::vector<iovec> iov;
    iov.reserve(pieces.size());
    for (const std::string_view piece : pieces) {
        if (piece.empty())
            continue;
        const auto begin = reinterpret_cast<std::uintptr_t>(piece.data());
        const std::uintptr_t first = begin & ~(page - 1);
        ::madvise(reinterpret_cast<void *>(first),
                  begin + piece.size() - first, MADV_POPULATE_READ);
        iov.push_back({const_cast<char *>(piece.data()), piece.size()});
    }
    std::size_t next = 0;
    while (next < iov.size()) {
        const auto batch = static_cast<int>(
            std::min<std::size_t>(iov.size() - next, IOV_MAX));
        const ssize_t n = ::writev(fd, iov.data() + next, batch);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        // Drop the iovecs written in full; trim a partly written one.
        auto done = static_cast<std::size_t>(n);
        while (next < iov.size() && done >= iov[next].iov_len)
            done -= iov[next++].iov_len;
        if (done > 0) {
            iov[next].iov_base =
                static_cast<char *>(iov[next].iov_base) + done;
            iov[next].iov_len -= done;
        }
    }
    return true;
}

} // namespace

// --- file helpers ---------------------------------------------------------

Status
checkRegularFile(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return Status::dataError("cannot open for reading: " + path);
    if (!S_ISREG(st.st_mode))
        return Status::dataError("not a regular file: " + path);
    return Status::okStatus();
}

StatusOr<std::string>
readFileBytes(const std::string &path)
{
    const Status regular = checkRegularFile(path);
    if (!regular.ok())
        return regular;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Status::dataError("cannot open for reading: " + path);
    std::string bytes;
    in.seekg(0, std::ios::end);
    const auto size = in.tellg();
    if (size < 0)
        return Status::dataError("cannot determine size of: " + path);
    in.seekg(0, std::ios::beg);
    bytes.resize(static_cast<std::size_t>(size));
    in.read(bytes.data(), size);
    if (!in)
        return Status::dataError("read failed: " + path);
    return bytes;
}

Status
writeFileAtomic(const std::string &path,
                std::span<const std::string_view> pieces)
{
    // Same directory as the destination so the final rename cannot
    // cross a filesystem boundary (rename is only atomic within one).
    const std::string tmp = path + ".tmp";
    const int fd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0)
        return Status::transient("cannot open for writing: " + tmp);
    const bool written = writeAll(fd, pieces);
    if (::close(fd) != 0 || !written) {
        std::error_code ignore;
        std::filesystem::remove(tmp, ignore);
        return Status::transient("write failed: " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::error_code ignore;
        std::filesystem::remove(tmp, ignore);
        return Status::transient("cannot rename " + tmp + " to " + path +
                                 ": " + ec.message());
    }
    return Status::okStatus();
}

Status
writeFileAtomic(const std::string &path, std::string_view bytes)
{
    return writeFileAtomic(path,
                           std::span<const std::string_view>(&bytes, 1));
}

// --- BinaryWriter ---------------------------------------------------------

BinaryWriter::BinaryWriter(const std::string &artifact_kind,
                           std::uint32_t artifact_version)
{
    buffer_.append(checkpoint_magic, sizeof(checkpoint_magic));
    appendLe(buffer_, checkpoint_container_version);
    fileSizeOffset_ = buffer_.size();
    appendLe<std::uint64_t>(buffer_, 0); // patched by seal()
    str(artifact_kind);
    appendLe(buffer_, artifact_version);
    sectionCountOffset_ = buffer_.size();
    appendLe<std::uint64_t>(buffer_, 0); // patched by seal()
}

BinaryWriter
BinaryWriter::raw()
{
    BinaryWriter out;
    out.raw_ = true;
    return out;
}

void
BinaryWriter::beginSection(const std::string &name)
{
    CM_ASSERT(!raw_ && !inSection_ && !finished_);
    str(name);
    sectionSizeOffset_ = buffer_.size();
    appendLe<std::uint64_t>(buffer_, 0); // patched by endSection()
    sectionStart_ = bytesWritten();
    inSection_ = true;
    ++sectionCount_;
}

void
BinaryWriter::endSection()
{
    CM_ASSERT(inSection_);
    patchU64(sectionSizeOffset_, bytesWritten() - sectionStart_);
    inSection_ = false;
}

void
BinaryWriter::u8(std::uint8_t v)
{
    buffer_.push_back(static_cast<char>(v));
}

void
BinaryWriter::u32(std::uint32_t v)
{
    appendLe(buffer_, v);
}

void
BinaryWriter::u64(std::uint64_t v)
{
    appendLe(buffer_, v);
}

void
BinaryWriter::f64(double v)
{
    appendLe(buffer_, v);
}

void
BinaryWriter::str(std::string_view s)
{
    appendLe<std::uint64_t>(buffer_, s.size());
    buffer_.append(s.data(), s.size());
}

void
BinaryWriter::f64Span(std::span<const double> values)
{
    buffer_.append(reinterpret_cast<const char *>(values.data()),
                   values.size_bytes());
}

void
BinaryWriter::f64SpanRef(std::span<const double> values)
{
    if (values.empty())
        return;
    borrowed_.push_back(
        {buffer_.size(),
         std::string_view(reinterpret_cast<const char *>(values.data()),
                          values.size_bytes())});
    borrowedBytes_ += values.size_bytes();
}

void
BinaryWriter::align8()
{
    buffer_.append((8 - bytesWritten() % 8) % 8, '\0');
}

void
BinaryWriter::patchU64(std::size_t offset, std::uint64_t v)
{
    CM_ASSERT(offset + 8 <= buffer_.size());
    std::memcpy(buffer_.data() + offset, &v, sizeof(v));
}

void
BinaryWriter::seal()
{
    CM_ASSERT(!inSection_ && !finished_);
    finished_ = true;
    if (raw_)
        return;
    patchU64(fileSizeOffset_, bytesWritten());
    patchU64(sectionCountOffset_, sectionCount_);
}

std::string
BinaryWriter::finish()
{
    // Borrowed runs exist so that nothing copies them; only writeFile()
    // can emit them.
    CM_ASSERT(borrowed_.empty());
    seal();
    return std::move(buffer_);
}

Status
BinaryWriter::writeFile(const std::string &path)
{
    seal();
    // The file in order: buffer_ slices with the borrowed runs spliced
    // in where they were written.
    std::vector<std::string_view> pieces;
    pieces.reserve(2 * borrowed_.size() + 1);
    const std::string_view owned(buffer_);
    std::size_t from = 0;
    for (const Borrowed &run : borrowed_) {
        pieces.push_back(owned.substr(from, run.at - from));
        pieces.push_back(run.bytes);
        from = run.at;
    }
    pieces.push_back(owned.substr(from));
    Status status = writeFileAtomic(path, pieces);
    if (status.ok()) {
        count("checkpoint.files_written");
        count("checkpoint.bytes_written", bytesWritten());
    }
    return status;
}

// --- BinaryReader ---------------------------------------------------------

BinaryReader::BinaryReader(std::string bytes)
    : owned_(std::move(bytes)),
      bytes_(owned_),
      owns_(true),
      bound_(bytes_.size())
{
}

BinaryReader::BinaryReader(std::string_view bytes)
    : bytes_(bytes),
      owns_(false),
      bound_(bytes_.size())
{
}

// A defaulted move would leave bytes_ pointing into the source's
// owned_ string (fatal for short strings, which live in the SSO
// buffer); re-point it after the storage moves.
BinaryReader::BinaryReader(BinaryReader &&other) noexcept
{
    *this = std::move(other);
}

BinaryReader &
BinaryReader::operator=(BinaryReader &&other) noexcept
{
    owned_ = std::move(other.owned_);
    owns_ = other.owns_;
    bytes_ = owns_ ? std::string_view(owned_) : other.bytes_;
    pos_ = other.pos_;
    bound_ = other.bound_;
    inSection_ = other.inSection_;
    artifactVersion_ = other.artifactVersion_;
    sectionCount_ = other.sectionCount_;
    status_ = std::move(other.status_);
    return *this;
}

BinaryReader
BinaryReader::raw(std::string bytes)
{
    return BinaryReader(std::move(bytes));
}

BinaryReader
BinaryReader::rawView(std::string_view bytes)
{
    return BinaryReader(bytes);
}

Status
BinaryReader::parseHeader(const std::string &expected_kind)
{
    if (bytes_.size() < sizeof(checkpoint_magic) + 4 + 8)
        return fail("file too small to hold a checkpoint header");
    if (bytes_.compare(0, sizeof(checkpoint_magic),
                       std::string_view(checkpoint_magic,
                                        sizeof(checkpoint_magic))) != 0)
        return fail("bad magic (not a CounterMiner checkpoint)");
    pos_ = sizeof(checkpoint_magic);
    const std::uint32_t container = u32();
    if (ok() && container != checkpoint_container_version)
        return fail(format("unsupported container version %u "
                           "(this build reads %u)",
                           container, checkpoint_container_version));
    const std::uint64_t declared_size = u64();
    if (ok() && declared_size != bytes_.size())
        return fail(format("file size mismatch: header declares "
                           "%llu bytes, file has %zu (truncated or "
                           "over-appended)",
                           static_cast<unsigned long long>(
                               declared_size),
                           bytes_.size()));
    const std::string kind = str();
    if (ok() && kind != expected_kind)
        return fail("artifact kind mismatch: file holds '" + kind +
                    "', expected '" + expected_kind + "'");
    artifactVersion_ = u32();
    sectionCount_ = count(16); // a section is at least name + size
    return status_;
}

StatusOr<BinaryReader>
BinaryReader::fromBytes(std::string bytes,
                        const std::string &expected_kind)
{
    BinaryReader in(std::move(bytes));
    const Status status = in.parseHeader(expected_kind);
    if (!status.ok())
        return status;
    return in;
}

StatusOr<BinaryReader>
BinaryReader::fromView(std::string_view bytes,
                       const std::string &expected_kind)
{
    BinaryReader in(bytes);
    const Status status = in.parseHeader(expected_kind);
    if (!status.ok())
        return status;
    return in;
}

StatusOr<BinaryReader>
BinaryReader::open(const std::string &path,
                   const std::string &expected_kind)
{
    auto bytes = readFileBytes(path);
    if (!bytes.ok())
        return bytes.status();
    auto reader = fromBytes(std::move(bytes).value(), expected_kind);
    if (!reader.ok())
        return reader.status().withContext(path);
    return reader;
}

std::uint64_t
BinaryReader::remaining() const
{
    return pos_ <= bound_ ? bound_ - pos_ : 0;
}

bool
BinaryReader::need(std::uint64_t n, const char *what)
{
    if (!ok())
        return false;
    if (n > remaining()) {
        fail(format("truncated: need %llu bytes for %s, %llu remain",
                    static_cast<unsigned long long>(n), what,
                    static_cast<unsigned long long>(remaining())));
        return false;
    }
    return true;
}

std::uint8_t
BinaryReader::u8()
{
    if (!need(1, "u8"))
        return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t
BinaryReader::u32()
{
    if (!need(4, "u32"))
        return 0;
    const auto v = decodeLe<std::uint32_t>(bytes_.data() + pos_);
    pos_ += 4;
    return v;
}

std::uint64_t
BinaryReader::u64()
{
    if (!need(8, "u64"))
        return 0;
    const auto v = decodeLe<std::uint64_t>(bytes_.data() + pos_);
    pos_ += 8;
    return v;
}

double
BinaryReader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
BinaryReader::str()
{
    const std::uint64_t at = pos_;
    const std::uint64_t size = u64();
    if (!ok())
        return "";
    if (size > max_string_bytes || size > remaining()) {
        fail(format("string length %llu at offset %llu exceeds the "
                    "%llu bytes remaining",
                    static_cast<unsigned long long>(size),
                    static_cast<unsigned long long>(at),
                    static_cast<unsigned long long>(remaining())));
        return "";
    }
    std::string s(bytes_.data() + pos_, size);
    pos_ += size;
    return s;
}

std::uint64_t
BinaryReader::count(std::size_t element_size)
{
    CM_ASSERT(element_size >= 1);
    const std::uint64_t at = pos_;
    const std::uint64_t n = u64();
    if (!ok())
        return 0;
    if (n > remaining() / element_size) {
        fail(format("count field %llu at offset %llu exceeds the %llu "
                    "bytes remaining (>= %zu bytes per element)",
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(at),
                    static_cast<unsigned long long>(remaining()),
                    element_size));
        return 0;
    }
    return n;
}

std::vector<double>
BinaryReader::f64Vec(std::uint64_t n)
{
    if (!ok())
        return {};
    if (n > remaining() / 8) {
        fail(format("f64 array of %llu values exceeds the %llu bytes "
                    "remaining",
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(remaining())));
        return {};
    }
    std::vector<double> out(n);
    if (n != 0)
        std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return out;
}

std::string
BinaryReader::beginSection()
{
    CM_ASSERT(!inSection_);
    const std::string name = str();
    const std::uint64_t at = pos_;
    const std::uint64_t size = u64();
    if (!ok())
        return "";
    if (size > remaining()) {
        fail(format("section '%s' declares %llu payload bytes at "
                    "offset %llu but %llu remain",
                    name.c_str(),
                    static_cast<unsigned long long>(size),
                    static_cast<unsigned long long>(at),
                    static_cast<unsigned long long>(remaining())));
        return "";
    }
    bound_ = pos_ + size;
    inSection_ = true;
    return name;
}

void
BinaryReader::endSection()
{
    CM_ASSERT(inSection_);
    if (ok())
        pos_ = bound_;
    bound_ = bytes_.size();
    inSection_ = false;
}

Status
BinaryReader::fail(const std::string &message)
{
    if (status_.ok()) {
        status_ = Status::dataError(
            format("offset %llu: %s",
                   static_cast<unsigned long long>(pos_),
                   message.c_str()));
    }
    return status_;
}

} // namespace cminer::util
