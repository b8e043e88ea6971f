#include "serve/transport.h"

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/server.h"
#include "util/binary_io.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace cminer::serve {

namespace util = cminer::util;

util::Status
StreamFrameSource::next(std::string &payload, bool &eof)
{
    payload.clear();
    eof = false;
    char header[4];
    in_.read(header, sizeof(header));
    const auto header_got = static_cast<std::size_t>(in_.gcount());
    if (header_got == 0) {
        eof = true;
        return util::Status::okStatus();
    }
    if (header_got < sizeof(header))
        return util::Status::dataError(util::format(
            "torn frame header: %zu of 4 length bytes", header_got));
    const std::uint32_t length =
        util::BinaryReader::rawView({header, sizeof(header)}).u32();
    if (length > max_frame_bytes)
        return util::Status::dataError(util::format(
            "frame declares %u bytes (max %zu)", length,
            max_frame_bytes));
    payload.resize(length);
    if (length > 0) {
        in_.read(payload.data(), static_cast<std::streamsize>(length));
        const auto got = static_cast<std::size_t>(in_.gcount());
        if (got < length) {
            payload.clear();
            return util::Status::dataError(util::format(
                "torn frame: %zu of %u payload bytes", got, length));
        }
    }
    return util::Status::okStatus();
}

util::Status
StreamFrameSink::write(std::string_view payload)
{
    std::string frame;
    frame.reserve(payload.size() + 4);
    auto framed = appendFrame(frame, payload);
    if (!framed.ok())
        return framed;
    out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    if (!out_)
        return util::Status::transient("response stream write failed");
    out_.flush();
    return util::Status::okStatus();
}

util::Status
FaultyFrameSource::next(std::string &payload, bool &eof)
{
    payload.clear();
    if (dead_) {
        // A cut connection yields nothing more; model it as EOF so the
        // serve loop drains and returns instead of spinning.
        eof = true;
        return util::Status::okStatus();
    }
    auto status = inner_.next(payload, eof);
    if (!status.ok() || eof)
        return status;
    const auto fault = injector_.transportFault(payload.size() + 4);
    switch (fault.kind) {
      case util::TransportFault::Kind::TornFrame:
        dead_ = true;
        payload.clear();
        return util::Status::dataError(util::format(
            "injected torn frame: %zu bytes arrived", fault.tearAt));
      case util::TransportFault::Kind::Hangup:
        dead_ = true;
        payload.clear();
        eof = true;
        return util::Status::okStatus();
      case util::TransportFault::Kind::Delay:
        if (clock_ != nullptr)
            clock_->sleepMs(fault.delayMs);
        return util::Status::okStatus();
      case util::TransportFault::Kind::None:
        return util::Status::okStatus();
    }
    return util::Status::okStatus();
}

util::Status
FaultyStreamFrameSink::write(std::string_view payload)
{
    if (dead_)
        return util::Status::transient("injected connection hangup");
    std::string frame;
    frame.reserve(payload.size() + 4);
    auto framed = appendFrame(frame, payload);
    if (!framed.ok())
        return framed;
    const auto fault = injector_.transportFault(frame.size());
    switch (fault.kind) {
      case util::TransportFault::Kind::TornFrame:
        // A half-flushed write: the prefix lands, the connection dies.
        out_.write(frame.data(),
                   static_cast<std::streamsize>(fault.tearAt));
        out_.flush();
        dead_ = true;
        return util::Status::transient(util::format(
            "injected torn frame: wrote %zu of %zu bytes",
            fault.tearAt, frame.size()));
      case util::TransportFault::Kind::Hangup:
        dead_ = true;
        return util::Status::transient("injected connection hangup");
      case util::TransportFault::Kind::Delay:
        if (clock_ != nullptr)
            clock_->sleepMs(fault.delayMs);
        break;
      case util::TransportFault::Kind::None:
        break;
    }
    out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    if (!out_)
        return util::Status::transient("response stream write failed");
    out_.flush();
    return util::Status::okStatus();
}

util::Status
FdFrameSource::next(std::string &payload, bool &eof)
{
    payload.clear();
    eof = false;
    char header[4];
    std::size_t got = 0;
    // Fill the header, tolerating partial reads and EINTR.
    while (got < sizeof(header)) {
        const ssize_t n =
            ::read(fd_, header + got, sizeof(header) - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return util::Status::transient(
                std::string("socket read failed: ") +
                std::strerror(errno));
        }
        if (n == 0) {
            if (got == 0) {
                eof = true;
                return util::Status::okStatus();
            }
            return util::Status::dataError(util::format(
                "torn frame header: %zu of 4 length bytes", got));
        }
        got += static_cast<std::size_t>(n);
    }
    const std::uint32_t length =
        util::BinaryReader::rawView({header, sizeof(header)}).u32();
    if (length > max_frame_bytes)
        return util::Status::dataError(util::format(
            "frame declares %u bytes (max %zu)", length,
            max_frame_bytes));
    payload.resize(length);
    std::size_t read_total = 0;
    while (read_total < length) {
        const ssize_t n = ::read(fd_, payload.data() + read_total,
                                 length - read_total);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            payload.clear();
            return util::Status::transient(
                std::string("socket read failed: ") +
                std::strerror(errno));
        }
        if (n == 0) {
            const std::size_t arrived = read_total;
            payload.clear();
            return util::Status::dataError(util::format(
                "torn frame: %zu of %u payload bytes", arrived,
                length));
        }
        read_total += static_cast<std::size_t>(n);
    }
    return util::Status::okStatus();
}

util::Status
FdFrameSink::write(std::string_view payload)
{
    std::string frame;
    frame.reserve(payload.size() + 4);
    auto framed = appendFrame(frame, payload);
    if (!framed.ok())
        return framed;
    std::size_t written = 0;
    while (written < frame.size()) {
        // MSG_NOSIGNAL: a client that hangs up before its response — an
        // ordinary event for a long-lived daemon — must surface as an
        // EPIPE status on this connection, never as a SIGPIPE that
        // takes down the whole server. Non-socket fds report ENOTSOCK
        // and fall back to plain write().
        ssize_t n = ::send(fd_, frame.data() + written,
                           frame.size() - written, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd_, frame.data() + written,
                        frame.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return util::Status::transient(
                std::string("socket write failed: ") +
                std::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
    }
    return util::Status::okStatus();
}

ServeLoopResult
serveConnection(Server &server, FrameSource &source, FrameSink &sink)
{
    // Shared with every response callback. The loop cannot return
    // until inFlight drains to zero, so the sink reference stays valid
    // for exactly as long as anything can write to it.
    struct ConnectionState
    {
        std::mutex mutex;
        std::condition_variable drained;
        FrameSink *sink = nullptr;
        std::size_t inFlight = 0;
        /** Set after a write failure; later responses are dropped. */
        bool sinkDead = false;
    };
    auto state = std::make_shared<ConnectionState>();
    state->sink = &sink;

    ServeLoopResult result;
    std::string payload;
    for (;;) {
        bool eof = false;
        auto status = source.next(payload, eof);
        if (!status.ok()) {
            // Framing lost: a length-prefixed stream has no resync
            // point, so the connection is over. Count it, stop
            // reading, drain in-flight work below. Never abort.
            util::count("serve.transport_errors");
            result.transportStatus =
                status.withContext("serve connection");
            break;
        }
        if (eof)
            break;
        ++result.framesRead;
        const bool is_shutdown =
            peekType(payload) == MessageType::Shutdown;
        {
            std::lock_guard<std::mutex> lock(state->mutex);
            ++state->inFlight;
        }
        server.submitFrame(
            std::move(payload), [state](std::string response) {
                std::lock_guard<std::mutex> lock(state->mutex);
                if (!state->sinkDead) {
                    const auto written =
                        state->sink->write(response);
                    if (!written.ok()) {
                        state->sinkDead = true;
                        util::count("serve.transport_errors");
                    }
                }
                --state->inFlight;
                state->drained.notify_all();
            });
        payload.clear();
        if (is_shutdown) {
            result.shutdownRequested = true;
            break;
        }
    }

    // True connection join: every admitted request from this
    // connection has responded (or been shed) before the sink goes out
    // of the callbacks' reach.
    std::unique_lock<std::mutex> lock(state->mutex);
    state->drained.wait(lock,
                        [&state] { return state->inFlight == 0; });
    return result;
}

} // namespace cminer::serve
