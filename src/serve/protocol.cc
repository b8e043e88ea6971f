#include "serve/protocol.h"

#include "util/binary_io.h"
#include "util/error.h"
#include "util/string_util.h"

namespace cminer::serve {

namespace util = cminer::util;

namespace {

/** Wire value of a status code (stable; never reorder). */
std::uint8_t
wireCode(util::StatusCode code)
{
    return static_cast<std::uint8_t>(code);
}

/** Highest valid wire status code. */
constexpr std::uint8_t max_wire_code =
    static_cast<std::uint8_t>(util::StatusCode::DeadlineExceeded);

} // namespace

MessageType
requestType(const Request &request)
{
    struct Visitor
    {
        MessageType operator()(const PredictRequest &) const
        {
            return MessageType::Predict;
        }
        MessageType operator()(const StatsRequest &) const
        {
            return MessageType::Stats;
        }
        MessageType operator()(const MineRequest &) const
        {
            return MessageType::Mine;
        }
        MessageType operator()(const ShutdownRequest &) const
        {
            return MessageType::Shutdown;
        }
        MessageType operator()(const ScoreRequest &) const
        {
            return MessageType::Score;
        }
    };
    return std::visit(Visitor{}, request);
}

Response
Response::failure(MessageType type, std::uint64_t id,
                  const util::Status &status)
{
    CM_ASSERT(!status.ok());
    Response response;
    response.type = type;
    response.id = id;
    response.code = status.code();
    response.message = status.message();
    return response;
}

util::Status
Response::status() const
{
    switch (code) {
      case util::StatusCode::Ok:
        return util::Status::okStatus();
      case util::StatusCode::ParseError:
        return util::Status::parseError(message);
      case util::StatusCode::DataError:
        return util::Status::dataError(message);
      case util::StatusCode::CapacityError:
        return util::Status::capacityError(message);
      case util::StatusCode::Transient:
        return util::Status::transient(message);
      case util::StatusCode::DeadlineExceeded:
        return util::Status::deadlineExceeded(message);
    }
    return util::Status::dataError("unknown status code");
}

std::string
encodeRequest(const Request &request)
{
    util::BinaryWriter out = util::BinaryWriter::raw();
    out.u8(static_cast<std::uint8_t>(requestType(request)));
    struct Visitor
    {
        util::BinaryWriter &out;

        void operator()(const PredictRequest &r) const
        {
            out.u64(r.id);
            out.f64(r.deadlineMs);
            out.str(r.model);
            out.u64(r.events.size());
            for (const auto &event : r.events)
                out.str(event);
            out.u64(r.rowCount);
            out.u64(r.values.size());
            out.f64Span(r.values);
        }

        void operator()(const StatsRequest &r) const
        {
            out.u64(r.id);
        }

        void operator()(const MineRequest &r) const
        {
            out.u64(r.id);
            out.f64(r.deadlineMs);
            out.str(r.benchmark);
            out.str(r.modelName);
            out.u64(r.runs);
            out.u64(r.minEvents);
            out.u64(r.seed);
        }

        void operator()(const ShutdownRequest &r) const
        {
            out.u64(r.id);
        }

        void operator()(const ScoreRequest &r) const
        {
            out.u64(r.id);
            out.f64(r.deadlineMs);
            out.str(r.scorer);
            out.u64(r.events.size());
            for (const auto &event : r.events)
                out.str(event);
            out.u64(r.rowCount);
            out.u64(r.values.size());
            out.f64Span(r.values);
            out.u64(r.measured.size());
            out.f64Span(r.measured);
        }
    };
    std::visit(Visitor{out}, request);
    return out.finish();
}

util::StatusOr<Request>
decodeRequest(std::string payload)
{
    auto in = util::BinaryReader::raw(std::move(payload));
    const std::uint8_t type = in.u8();
    const std::uint64_t id = in.u64();
    if (!in.ok())
        return in.status().withContext("request header");

    switch (static_cast<MessageType>(type)) {
      case MessageType::Predict: {
        PredictRequest r;
        r.id = id;
        r.deadlineMs = in.f64();
        r.model = in.str();
        // Each event is at least a u64 length prefix, so the declared
        // event count is bounded by remaining/8 before any allocation.
        const std::uint64_t event_count = in.count(8);
        if (!in.ok())
            return in.status().withContext("predict request");
        if (event_count == 0)
            return in.fail("predict request carries no events");
        if (event_count > max_events_per_request)
            return in.fail(util::format(
                "predict request declares %llu events (max %zu)",
                static_cast<unsigned long long>(event_count),
                max_events_per_request));
        r.events.reserve(event_count);
        for (std::uint64_t e = 0; e < event_count; ++e)
            r.events.push_back(in.str());
        r.rowCount = in.u64();
        if (!in.ok())
            return in.status().withContext("predict request");
        if (r.rowCount == 0)
            return in.fail("predict request carries no rows");
        if (r.rowCount > max_rows_per_request)
            return in.fail(util::format(
                "predict request declares %llu rows (max %zu)",
                static_cast<unsigned long long>(r.rowCount),
                max_rows_per_request));
        const std::uint64_t value_count = in.count(sizeof(double));
        if (!in.ok())
            return in.status().withContext("predict request");
        // Both factors are bounded above, so the product cannot
        // overflow; equality pins the matrix shape to the header.
        if (value_count != r.rowCount * event_count)
            return in.fail(util::format(
                "predict request value count %llu != rows %llu x "
                "events %llu",
                static_cast<unsigned long long>(value_count),
                static_cast<unsigned long long>(r.rowCount),
                static_cast<unsigned long long>(event_count)));
        r.values = in.f64Vec(value_count);
        if (!in.ok())
            return in.status().withContext("predict request");
        if (!in.atEnd())
            return in.fail("trailing bytes after predict request");
        return Request(std::move(r));
      }
      case MessageType::Stats: {
        if (!in.atEnd())
            return in.fail("trailing bytes after stats request");
        return Request(StatsRequest{id});
      }
      case MessageType::Mine: {
        MineRequest r;
        r.id = id;
        r.deadlineMs = in.f64();
        r.benchmark = in.str();
        r.modelName = in.str();
        r.runs = in.u64();
        r.minEvents = in.u64();
        r.seed = in.u64();
        if (!in.ok())
            return in.status().withContext("mine request");
        if (!in.atEnd())
            return in.fail("trailing bytes after mine request");
        return Request(std::move(r));
      }
      case MessageType::Shutdown: {
        if (!in.atEnd())
            return in.fail("trailing bytes after shutdown request");
        return Request(ShutdownRequest{id});
      }
      case MessageType::Score: {
        ScoreRequest r;
        r.id = id;
        r.deadlineMs = in.f64();
        r.scorer = in.str();
        const std::uint64_t event_count = in.count(8);
        if (!in.ok())
            return in.status().withContext("score request");
        if (event_count == 0)
            return in.fail("score request carries no events");
        if (event_count > max_events_per_request)
            return in.fail(util::format(
                "score request declares %llu events (max %zu)",
                static_cast<unsigned long long>(event_count),
                max_events_per_request));
        r.events.reserve(event_count);
        for (std::uint64_t e = 0; e < event_count; ++e)
            r.events.push_back(in.str());
        r.rowCount = in.u64();
        if (!in.ok())
            return in.status().withContext("score request");
        if (r.rowCount == 0)
            return in.fail("score request carries no rows");
        if (r.rowCount > max_rows_per_request)
            return in.fail(util::format(
                "score request declares %llu rows (max %zu)",
                static_cast<unsigned long long>(r.rowCount),
                max_rows_per_request));
        const std::uint64_t value_count = in.count(sizeof(double));
        if (!in.ok())
            return in.status().withContext("score request");
        if (value_count != r.rowCount * event_count)
            return in.fail(util::format(
                "score request value count %llu != rows %llu x "
                "events %llu",
                static_cast<unsigned long long>(value_count),
                static_cast<unsigned long long>(r.rowCount),
                static_cast<unsigned long long>(event_count)));
        r.values = in.f64Vec(value_count);
        const std::uint64_t measured_count = in.count(sizeof(double));
        if (!in.ok())
            return in.status().withContext("score request");
        // The measured series must be exactly one IPC value per row —
        // anything else would desynchronize residuals from rows.
        if (measured_count != r.rowCount)
            return in.fail(util::format(
                "score request measured count %llu != rows %llu",
                static_cast<unsigned long long>(measured_count),
                static_cast<unsigned long long>(r.rowCount)));
        r.measured = in.f64Vec(measured_count);
        if (!in.ok())
            return in.status().withContext("score request");
        if (!in.atEnd())
            return in.fail("trailing bytes after score request");
        return Request(std::move(r));
      }
      case MessageType::Unknown:
        break;
    }
    return util::Status::parseError(util::format(
        "unknown request type %u", static_cast<unsigned>(type)));
}

std::string
encodeResponse(const Response &response)
{
    util::BinaryWriter out = util::BinaryWriter::raw();
    out.u8(static_cast<std::uint8_t>(response.type));
    out.u64(response.id);
    out.u8(wireCode(response.code));
    out.str(response.message);
    if (response.code != util::StatusCode::Ok)
        return out.finish();
    switch (response.type) {
      case MessageType::Predict:
        out.u64(response.predictions.size());
        out.f64Span(response.predictions);
        break;
      case MessageType::Stats:
      case MessageType::Mine:
        out.str(response.text);
        break;
      case MessageType::Score:
        out.u8(response.anomalous ? 1 : 0);
        out.f64(response.residualZ);
        out.f64(response.signatureDistance);
        out.u64(response.familyIndex);
        out.str(response.text);
        break;
      case MessageType::Shutdown:
      case MessageType::Unknown:
        break;
    }
    return out.finish();
}

util::StatusOr<Response>
decodeResponse(std::string payload)
{
    auto in = util::BinaryReader::raw(std::move(payload));
    Response r;
    const std::uint8_t type = in.u8();
    r.id = in.u64();
    const std::uint8_t code = in.u8();
    r.message = in.str();
    if (!in.ok())
        return in.status().withContext("response header");
    if (type > static_cast<std::uint8_t>(MessageType::Score))
        return in.fail(util::format("unknown response type %u",
                                    static_cast<unsigned>(type)));
    if (code > max_wire_code)
        return in.fail(util::format("unknown status code %u",
                                    static_cast<unsigned>(code)));
    r.type = static_cast<MessageType>(type);
    r.code = static_cast<util::StatusCode>(code);
    if (r.code == util::StatusCode::Ok) {
        switch (r.type) {
          case MessageType::Predict: {
            const std::uint64_t n = in.count(sizeof(double));
            if (!in.ok())
                return in.status().withContext("predict response");
            r.predictions = in.f64Vec(n);
            break;
          }
          case MessageType::Stats:
          case MessageType::Mine:
            r.text = in.str();
            break;
          case MessageType::Score:
            r.anomalous = in.u8() != 0;
            r.residualZ = in.f64();
            r.signatureDistance = in.f64();
            r.familyIndex = in.u64();
            r.text = in.str();
            break;
          case MessageType::Shutdown:
          case MessageType::Unknown:
            break;
        }
    }
    if (!in.ok())
        return in.status().withContext("response body");
    if (!in.atEnd())
        return in.fail("trailing bytes after response");
    return r;
}

MessageType
peekType(std::string_view payload)
{
    if (payload.empty())
        return MessageType::Unknown;
    const auto type = static_cast<std::uint8_t>(payload.front());
    if (type == 0 ||
        type > static_cast<std::uint8_t>(MessageType::Score))
        return MessageType::Unknown;
    return static_cast<MessageType>(type);
}

util::Status
appendFrame(std::string &out, std::string_view payload)
{
    if (payload.size() > max_frame_bytes)
        return util::Status::capacityError(util::format(
            "frame payload of %zu bytes exceeds the %zu-byte frame "
            "ceiling",
            payload.size(), max_frame_bytes));
    util::BinaryWriter length = util::BinaryWriter::raw();
    length.u32(static_cast<std::uint32_t>(payload.size()));
    out += length.finish();
    out.append(payload.data(), payload.size());
    return util::Status::okStatus();
}

} // namespace cminer::serve
