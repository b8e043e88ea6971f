/**
 * @file
 * The `cminer serve` wire protocol (DESIGN.md §14).
 *
 * Framing: every message travels as one length-prefixed frame —
 *
 *   u32 payload_length (little-endian)   payload bytes
 *
 * with payload_length bounded by max_frame_bytes; a declared length
 * above the bound is rejected *before any allocation*, mirroring the
 * checkpoint container's bounded-read discipline (DESIGN.md §12).
 * Framing errors (short header, torn payload) are connection-fatal by
 * design: a plain length-prefixed stream has no resync point, so the
 * serving loop treats a bad frame as a lost connection rather than
 * guessing where the next message starts.
 *
 * Payloads: a u8 message type, a u64 request id the response echoes
 * (clients pipeline many requests per connection and match responses
 * by id — responses may arrive out of request order), then typed
 * fields. All integers are little-endian; strings are u64-length-
 * prefixed UTF-8. Payloads are encoded by the headerless
 * util::BinaryWriter::raw() and decoded by util::BinaryReader bounded
 * reads, which validate every count against the bytes actually
 * remaining before allocation.
 *
 * The protocol is deliberately small: predict (score rows against a
 * loaded MAPM checkpoint), stats (the service dashboard), mine (run a
 * mining job and register the result as a servable model), shutdown
 * (begin a graceful drain), score (anomaly surveillance: judge one
 * run's rows against a MAPM + cluster-artifact scorer, DESIGN.md §17).
 */

#ifndef CMINER_SERVE_PROTOCOL_H
#define CMINER_SERVE_PROTOCOL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/status.h"

namespace cminer::serve {

/** Hard ceiling on one frame's payload, validated before allocation. */
inline constexpr std::size_t max_frame_bytes = 16u << 20;

/** Ceiling on events per predict request (the catalog has 229). */
inline constexpr std::size_t max_events_per_request = 4096;

/** Ceiling on rows per predict request. */
inline constexpr std::size_t max_rows_per_request = 1u << 20;

/** Wire message types; response frames echo the request's type. */
enum class MessageType : std::uint8_t
{
    /** Decode failure before the type was known (responses only). */
    Unknown = 0,
    Predict = 1,
    Stats = 2,
    Mine = 3,
    Shutdown = 4,
    Score = 5,
};

/** Score rows against a loaded model checkpoint. */
struct PredictRequest
{
    std::uint64_t id = 0;
    /** Time budget in ms from server receipt; 0 = server default. */
    double deadlineMs = 0.0;
    /** Name the model was registered under (its benchmark). */
    std::string model;
    /**
     * Feature columns of `values`, which must equal the model
     * artifact's kept-event list exactly (names and order) — the
     * contract that lets the server batch rows from many requests
     * into one columnar block with no per-row projection.
     */
    std::vector<std::string> events;
    /** Rows in `values`. */
    std::uint64_t rowCount = 0;
    /** Row-major rowCount x events.size() feature matrix. */
    std::vector<double> values;
};

/** Fetch the service's counters/latency dashboard as JSON. */
struct StatsRequest
{
    std::uint64_t id = 0;
};

/** Mine a benchmark's MAPM and register it as a servable model. */
struct MineRequest
{
    std::uint64_t id = 0;
    /** Time budget in ms from server receipt; 0 = server default. */
    double deadlineMs = 0.0;
    /** Benchmark to mine. */
    std::string benchmark;
    /** Register the result under this name; empty = the benchmark. */
    std::string modelName;
    std::uint64_t runs = 2;
    std::uint64_t minEvents = 96;
    std::uint64_t seed = 42;
};

/** Begin a graceful drain: finish admitted work, reject the rest. */
struct ShutdownRequest
{
    std::uint64_t id = 0;
};

/**
 * Score one run against a registered anomaly scorer (a MAPM plus a
 * calibrated cluster artifact). Unlike predict, a score judges a whole
 * run, so the request carries the measured IPC series alongside the
 * feature rows.
 */
struct ScoreRequest
{
    std::uint64_t id = 0;
    /** Time budget in ms from server receipt; 0 = server default. */
    double deadlineMs = 0.0;
    /** Name the scorer was registered under. */
    std::string scorer;
    /**
     * Feature columns of `values`; must equal the scorer's MAPM
     * kept-event list exactly (names and order).
     */
    std::vector<std::string> events;
    /** Rows (sampled intervals) in the run. */
    std::uint64_t rowCount = 0;
    /** Row-major rowCount x events.size() feature matrix. */
    std::vector<double> values;
    /** Measured IPC, one value per row (the signature source). */
    std::vector<double> measured;
};

/** Any request message. */
using Request =
    std::variant<PredictRequest, StatsRequest, MineRequest,
                 ShutdownRequest, ScoreRequest>;

/** The request's wire type. */
MessageType requestType(const Request &request);

/**
 * One response frame. `code` is Ok on success; on failure it carries
 * the same StatusCode taxonomy the pipeline uses (CapacityError =
 * shed, DeadlineExceeded = budget blown, ...) plus a message.
 */
struct Response
{
    MessageType type = MessageType::Unknown;
    std::uint64_t id = 0;
    cminer::util::StatusCode code = cminer::util::StatusCode::Ok;
    /** Error explanation; empty on success. */
    std::string message;
    /** Predict: one prediction per request row. */
    std::vector<double> predictions;
    /** Stats: the dashboard JSON. Mine/Score: a one-line summary. */
    std::string text;
    /** Score: the run tripped a calibrated threshold. */
    bool anomalous = false;
    /** Score: standardized prediction residual of the run. */
    double residualZ = 0.0;
    /** Score: DTW distance to the nearest workload-family medoid. */
    double signatureDistance = 0.0;
    /** Score: index of the nearest workload family. */
    std::uint64_t familyIndex = 0;

    /** Build an error response echoing a request's type and id. */
    static Response failure(MessageType type, std::uint64_t id,
                            const cminer::util::Status &status);

    /** The carried code+message as a Status. */
    cminer::util::Status status() const;
};

/** Encode a request payload (not yet framed). */
std::string encodeRequest(const Request &request);

/**
 * Decode a request payload. Every count/length is bounds-checked
 * before allocation; trailing bytes are rejected.
 */
cminer::util::StatusOr<Request> decodeRequest(std::string payload);

/** Encode a response payload (not yet framed). */
std::string encodeResponse(const Response &response);

/** Decode a response payload (bounded, like decodeRequest). */
cminer::util::StatusOr<Response> decodeResponse(std::string payload);

/**
 * The payload's message type without decoding the rest; Unknown for
 * an empty or unrecognized payload. Transports use this to spot a
 * Shutdown frame without a full decode.
 */
MessageType peekType(std::string_view payload);

/**
 * Append one frame (length prefix + payload) to `out`.
 * @return CapacityError when the payload exceeds max_frame_bytes
 */
cminer::util::Status appendFrame(std::string &out,
                                 std::string_view payload);

} // namespace cminer::serve

#endif // CMINER_SERVE_PROTOCOL_H
