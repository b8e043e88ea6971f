/**
 * @file
 * The checkpoint container format (DESIGN.md §12): a little-endian,
 * versioned binary layout shared by every artifact the system persists
 * (database segments, trained models, the MAPM artifact).
 *
 * Layout:
 *
 *   magic[8] "CMCHKPT1"
 *   u32      container format version (currently 1)
 *   u64      total file size in bytes (truncation tripwire)
 *   str      artifact kind ("cminer-segment", "gbrt-model", ...)
 *   u32      artifact version (per-kind schema number)
 *   u64      section count
 *   section* { str name, u64 payload_size, payload bytes }
 *
 * where `str` is a u64 byte length followed by raw UTF-8 bytes and all
 * integers and doubles are little-endian. The build requires a
 * little-endian host (a static_assert in binary_io.cc), the same
 * assumption the segment store's zero-copy `span<const double>` reads
 * make, so values are encoded and decoded with plain bulk copies.
 * Readers that do not recognize a section name skip it by its declared
 * size (forward compatibility); writers never reorder or remove
 * sections within an artifact version (backward compatibility).
 *
 * BinaryReader does only *bounded* reads: every count and length field
 * is validated against the bytes actually remaining (in the file and in
 * the current section) before any allocation or copy, so a truncated or
 * corrupt file produces a Status error naming the byte offset — never a
 * multi-GB allocation, a silent zero-fill, or undefined behavior. The
 * reader latches its first error: subsequent reads return zero values
 * and the caller checks status() at its convenience.
 *
 * BinaryWriter assembles the container in memory and writeFile() lands
 * it with the atomic temp-file-and-rename discipline (writeFileAtomic),
 * so a crash mid-write never destroys the previous good checkpoint.
 * Large f64 payloads can be borrowed instead of copied (f64SpanRef):
 * writeFile() then streams them from the caller's memory, so the
 * writer's buffer holds only the small structural bytes.
 */

#ifndef CMINER_UTIL_BINARY_IO_H
#define CMINER_UTIL_BINARY_IO_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace cminer::util {

/** First bytes of every checkpoint container. */
inline constexpr char checkpoint_magic[8] = {'C', 'M', 'C', 'H',
                                             'K', 'P', 'T', '1'};

/** Container layout version written by BinaryWriter. */
inline constexpr std::uint32_t checkpoint_container_version = 1;

/**
 * OK when `path` names a regular file, else a DataError naming the
 * path. Every file reader checks this before opening: a directory
 * opens as a stream whose size reads as huge, and opening a FIFO
 * blocks.
 */
Status checkRegularFile(const std::string &path);

/**
 * Read a whole regular file into memory.
 * @return the bytes, or a DataError naming the path
 */
StatusOr<std::string> readFileBytes(const std::string &path);

/**
 * Write the concatenation of `pieces` to `path` atomically: the data
 * lands in `path + ".tmp"` in the same directory and is renamed over
 * the destination only after every byte was written and the file
 * closed successfully. On any failure the previous file at `path` is
 * left untouched and the temp file is removed. Nothing is fsync'd: a
 * landed file survives a crash of the process, not a power loss.
 */
Status writeFileAtomic(const std::string &path,
                       std::span<const std::string_view> pieces);

/** writeFileAtomic of one contiguous buffer. */
Status writeFileAtomic(const std::string &path, std::string_view bytes);

/**
 * Serializes one artifact into the checkpoint container format.
 *
 * Usage: construct with the artifact kind/version, emit one or more
 * sections (beginSection / primitive writes / endSection), then either
 * writeFile() or finish(). Sections do not nest.
 */
class BinaryWriter
{
  public:
    /**
     * @param artifact_kind stable artifact identifier, e.g. "gbrt-model"
     * @param artifact_version schema version of this kind
     */
    BinaryWriter(const std::string &artifact_kind,
                 std::uint32_t artifact_version);

    /**
     * A writer with no container header, the encoding half of
     * BinaryReader::raw: primitive writes only (no sections), and
     * finish() returns exactly the bytes written. The serving wire
     * protocol encodes its messages this way.
     */
    static BinaryWriter raw();

    /** Open a named section; all writes until endSection() belong to it. */
    void beginSection(const std::string &name);

    /** Close the open section, patching its payload size. */
    void endSection();

    void u8(std::uint8_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /** IEEE-754 bits, little-endian. */
    void f64(double v);
    /** u64 byte length followed by the raw bytes. */
    void str(std::string_view s);
    /** A run of f64 values (no count field; callers write their own). */
    void f64Span(std::span<const double> values);

    /**
     * f64Span without the copy: the writer records where the values
     * live and writeFile() streams them straight from that memory into
     * the file. The values must stay alive and unchanged until
     * writeFile() returns; a writer holding borrowed runs cannot
     * finish().
     */
    void f64SpanRef(std::span<const double> values);

    /**
     * Pad with zero bytes until bytesWritten() is a multiple of 8.
     * Writers of memory-mappable payloads (the segment store) align
     * their f64 runs so a reader can hand out `span<const double>`
     * straight over the mapped file.
     */
    void align8();

    /** Bytes emitted so far (header + sections, borrowed runs too). */
    std::size_t bytesWritten() const
    {
        return buffer_.size() + borrowedBytes_;
    }

    /**
     * Finalize the container (patch file size and section count) and
     * return the bytes. The writer is spent afterwards. Not for
     * writers holding f64SpanRef runs.
     */
    std::string finish();

    /**
     * Finalize and land the container with writeFileAtomic(), borrowed
     * runs streamed from their own memory, counting
     * `checkpoint.bytes_written`. The writer is spent afterwards.
     */
    Status writeFile(const std::string &path);

  private:
    BinaryWriter() = default;

    /** A borrowed f64 run, spliced in at buffer_ offset `at`. */
    struct Borrowed
    {
        std::size_t at = 0;
        std::string_view bytes;
    };

    void patchU64(std::size_t offset, std::uint64_t v);

    /** Patch the header and mark the writer spent. */
    void seal();

    /** Owned bytes: everything except the borrowed runs. */
    std::string buffer_;
    std::vector<Borrowed> borrowed_;
    std::size_t borrowedBytes_ = 0;
    std::size_t fileSizeOffset_ = 0;
    std::size_t sectionCountOffset_ = 0;
    /** buffer_ offset of the open section's size field. */
    std::size_t sectionSizeOffset_ = 0;
    /** File offset where the open section's payload starts. */
    std::size_t sectionStart_ = 0;
    std::uint64_t sectionCount_ = 0;
    bool raw_ = false;
    bool inSection_ = false;
    bool finished_ = false;
};

/**
 * Bounded deserializer over a byte buffer.
 *
 * Container mode (fromBytes/open/fromView) parses and validates the
 * header and exposes sections; raw mode (raw/rawView) is a plain
 * bounded cursor for legacy formats that predate the container (the v1
 * database file). The *View variants do not own the bytes — the segment
 * store parses container headers straight over a memory-mapped file —
 * so the caller must keep the underlying storage alive for the
 * reader's lifetime.
 */
class BinaryReader
{
  public:
    /**
     * Parse a container header from bytes.
     *
     * @param bytes the whole file
     * @param expected_kind artifact kind the caller can handle; a
     *        mismatch is a DataError
     */
    static StatusOr<BinaryReader> fromBytes(std::string bytes,
                                            const std::string &expected_kind);

    /**
     * Parse a container header over bytes the caller keeps alive
     * (e.g. a memory-mapped segment file). Nothing is copied.
     */
    static StatusOr<BinaryReader> fromView(std::string_view bytes,
                                           const std::string &expected_kind);

    /** readFileBytes + fromBytes, with the path as error context. */
    static StatusOr<BinaryReader> open(const std::string &path,
                                       const std::string &expected_kind);

    /** Bounded cursor over bytes with no container header. */
    static BinaryReader raw(std::string bytes);

    /** Bounded cursor over caller-owned bytes (nothing is copied). */
    static BinaryReader rawView(std::string_view bytes);

    /** Artifact schema version from the header (container mode). */
    std::uint32_t artifactVersion() const { return artifactVersion_; }

    /** Declared number of sections (container mode). */
    std::uint64_t sectionCount() const { return sectionCount_; }

    /** True until the first failed or out-of-bounds read. */
    bool ok() const { return status_.ok(); }

    /** The latched error (Ok while ok()). */
    const Status &status() const { return status_; }

    /** Current byte offset from the start of the file. */
    std::uint64_t offset() const { return pos_; }

    /** Bytes left before the current bound (section end or file end). */
    std::uint64_t remaining() const;

    /** True when the cursor reached the current bound. */
    bool atEnd() const { return remaining() == 0; }

    std::uint8_t u8();
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();

    /**
     * A length-prefixed string; the length is validated against the
     * bytes remaining before any allocation.
     */
    std::string str();

    /**
     * A count field for elements of at least `element_size` bytes each:
     * reads a u64 and fails unless count * element_size fits in the
     * bytes remaining. The validated count is safe to allocate for.
     */
    std::uint64_t count(std::size_t element_size);

    /**
     * `n` f64 values in one bounded copy; `n` must come from
     * count(sizeof(double)).
     */
    std::vector<double> f64Vec(std::uint64_t n);

    /**
     * Open the next section: reads its name and payload size (validated
     * against the file) and bounds all reads to the payload until
     * endSection(). Returns the section name ("" once failed).
     */
    std::string beginSection();

    /**
     * Close the current section, skipping any unread payload — this is
     * how unknown sections from newer writers are ignored.
     */
    void endSection();

    /**
     * Latch an error at the current offset. Returns the latched status
     * so parse code can `return in.fail("...")`.
     */
    Status fail(const std::string &message);

    BinaryReader(BinaryReader &&other) noexcept;
    BinaryReader &operator=(BinaryReader &&other) noexcept;
    BinaryReader(const BinaryReader &) = delete;
    BinaryReader &operator=(const BinaryReader &) = delete;

  private:
    explicit BinaryReader(std::string bytes);
    explicit BinaryReader(std::string_view bytes);

    /** Shared container-header validation for fromBytes/fromView. */
    Status parseHeader(const std::string &expected_kind);

    /** True when `n` more bytes may be read within the current bound. */
    bool need(std::uint64_t n, const char *what);

    /** Backing storage when this reader owns its bytes (else empty). */
    std::string owned_;
    /** The bytes being read: `owned_`, or a caller-owned view. */
    std::string_view bytes_;
    /** True when bytes_ points into owned_ (move ops must re-point). */
    bool owns_ = false;
    std::uint64_t pos_ = 0;
    /** End of the current section payload, or bytes_.size(). */
    std::uint64_t bound_ = 0;
    bool inSection_ = false;
    std::uint32_t artifactVersion_ = 0;
    std::uint64_t sectionCount_ = 0;
    Status status_;
};

} // namespace cminer::util

#endif // CMINER_UTIL_BINARY_IO_H
