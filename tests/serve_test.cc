/**
 * @file
 * Tests for the `cminer serve` daemon (DESIGN.md §14): wire-protocol
 * round-trips and bounded decoding (truncation sweep at every byte,
 * oversized frames rejected before allocation, malformed-frame fuzz),
 * deadline handles under a ManualClock, exact overload-shedding
 * accounting, graceful drain and degradation ordering, the
 * fault-injected transport drive, a socket smoke test, and the
 * load-generator acceptance test: predictions served through the pipe
 * path are byte-identical to the `predict` CLI at 1, 2, and 8 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "cli/cli.h"
#include "core/checkpoint.h"
#include "core/importance.h"
#include "ml/dataset.h"
#include "ml/gbrt.h"
#include "pmu/event.h"
#include "serve/deadline.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "serve/transport.h"
#include "store/database.h"
#include "support/test_support.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace {

using namespace cminer;
namespace util = cminer::util;
using cminer::test::MetricsGuard;
using cminer::test::readBytes;
using cminer::test::tmpPath;

// --- in-memory transports ------------------------------------------------

/** Serves frames from a byte string (what a client would have sent). */
struct BytesFrameSource : serve::FrameSource
{
    explicit BytesFrameSource(std::string bytes)
        : in(std::move(bytes))
    {}

    util::Status
    next(std::string &payload, bool &eof) override
    {
        return frames.next(payload, eof);
    }

    std::istringstream in;
    serve::StreamFrameSource frames{in};
};

/** The first frame of `bytes` through pipe mode's decoder. */
util::Status
streamFrame(const std::string &bytes, std::string &payload, bool &eof)
{
    std::istringstream in(bytes);
    return serve::StreamFrameSource(in).next(payload, eof);
}

/**
 * The first frame of `bytes` through a socket connection's decoder,
 * reading the write-closed end of a pipe that holds them.
 */
util::Status
fdFrame(const std::string &bytes, std::string &payload, bool &eof)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return util::Status::transient("pipe failed");
    const bool written =
        ::write(fds[1], bytes.data(), bytes.size()) ==
        static_cast<ssize_t>(bytes.size());
    ::close(fds[1]);
    const auto status =
        written ? serve::FdFrameSource(fds[0]).next(payload, eof)
                : util::Status::transient("pipe write failed");
    ::close(fds[0]);
    return status;
}

/** Collects response payloads (already encoded, not framed). */
struct CollectFrameSink : serve::FrameSink
{
    util::Status
    write(std::string_view payload) override
    {
        std::lock_guard<std::mutex> lock(mutex);
        payloads.emplace_back(payload);
        return util::Status::okStatus();
    }

    std::mutex mutex;
    std::vector<std::string> payloads;
};

/** Decode every collected response, keyed by id. */
std::map<std::uint64_t, serve::Response>
decodeAll(const CollectFrameSink &sink)
{
    std::map<std::uint64_t, serve::Response> byId;
    for (const auto &payload : sink.payloads) {
        auto decoded = serve::decodeResponse(payload);
        EXPECT_TRUE(decoded.ok()) << decoded.status().toString();
        if (decoded.ok()) {
            auto response = std::move(decoded).value();
            byId[response.id] = std::move(response);
        }
    }
    return byId;
}

// --- toy model -----------------------------------------------------------

/** A small fitted MAPM artifact: 3 events, 64 rows, deterministic. */
core::MapmArtifact
toyArtifact()
{
    const std::vector<std::string> events = {"CYC", "INS", "LLC"};
    const std::size_t rows = 64;
    std::vector<std::vector<double>> columns(
        events.size(), std::vector<double>(rows));
    std::vector<double> targets(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        const double x = static_cast<double>(r);
        columns[0][r] = 100.0 + 3.0 * x;
        columns[1][r] = 50.0 + x * x * 0.25;
        columns[2][r] = 10.0 + (r % 7);
        targets[r] = 1.5 + 0.01 * x + 0.002 * columns[2][r];
    }
    ml::Dataset data =
        ml::Dataset::fromColumns(events, std::move(columns),
                                 std::move(targets));
    ml::GbrtParams params;
    params.treeCount = 12;
    ml::Gbrt model(params);
    util::Rng rng(7);
    model.fit(data, rng);

    core::MapmArtifact artifact;
    artifact.benchmark = "toy";
    artifact.microarch = "haswell-e";
    artifact.events = events;
    artifact.cvErrorPercent = 1.0;
    artifact.model = std::move(model);
    return artifact;
}

/**
 * A second deterministic artifact with a different event count, for
 * tests that swap the artifact under a model name mid-flight.
 */
core::MapmArtifact
twoEventArtifact()
{
    const std::vector<std::string> events = {"CYC", "INS"};
    const std::size_t rows = 48;
    std::vector<std::vector<double>> columns(
        events.size(), std::vector<double>(rows));
    std::vector<double> targets(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        const double x = static_cast<double>(r);
        columns[0][r] = 200.0 + 2.0 * x;
        columns[1][r] = 30.0 + 0.5 * x;
        targets[r] = 2.0 + 0.03 * x;
    }
    ml::Dataset data =
        ml::Dataset::fromColumns(events, std::move(columns),
                                 std::move(targets));
    ml::GbrtParams params;
    params.treeCount = 8;
    ml::Gbrt model(params);
    util::Rng rng(11);
    model.fit(data, rng);

    core::MapmArtifact artifact;
    artifact.benchmark = "toy2";
    artifact.microarch = "haswell-e";
    artifact.events = events;
    artifact.cvErrorPercent = 1.0;
    artifact.model = std::move(model);
    return artifact;
}

/** One single-row predict request against the toy model. */
serve::PredictRequest
toyPredict(std::uint64_t id, double seed_value,
           const core::MapmArtifact &artifact, double deadline_ms = 0.0)
{
    serve::PredictRequest request;
    request.id = id;
    request.deadlineMs = deadline_ms;
    request.model = "toy";
    request.events = artifact.events;
    request.rowCount = 1;
    request.values = {100.0 + seed_value, 50.0 + seed_value,
                      10.0 + seed_value};
    return request;
}

// --- protocol round-trips ------------------------------------------------

TEST(ServeProtocol, PredictRequestRoundTrips)
{
    serve::PredictRequest request;
    request.id = 42;
    request.deadlineMs = 12.5;
    request.model = "sort";
    request.events = {"CYC", "INS"};
    request.rowCount = 2;
    request.values = {1.0, 2.0, 3.5, -4.25};

    auto decoded =
        serve::decodeRequest(serve::encodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const auto &round =
        std::get<serve::PredictRequest>(decoded.value());
    EXPECT_EQ(round.id, 42u);
    EXPECT_EQ(round.deadlineMs, 12.5);
    EXPECT_EQ(round.model, "sort");
    EXPECT_EQ(round.events, request.events);
    EXPECT_EQ(round.rowCount, 2u);
    EXPECT_EQ(round.values, request.values);
}

TEST(ServeProtocol, ControlRequestsRoundTrip)
{
    {
        auto decoded = serve::decodeRequest(
            serve::encodeRequest(serve::StatsRequest{9}));
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(std::get<serve::StatsRequest>(decoded.value()).id, 9u);
    }
    {
        serve::MineRequest mine;
        mine.id = 11;
        mine.deadlineMs = 500.0;
        mine.benchmark = "sort";
        mine.modelName = "fresh";
        mine.runs = 3;
        mine.minEvents = 120;
        mine.seed = 99;
        auto decoded =
            serve::decodeRequest(serve::encodeRequest(mine));
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
        const auto &round = std::get<serve::MineRequest>(decoded.value());
        EXPECT_EQ(round.benchmark, "sort");
        EXPECT_EQ(round.modelName, "fresh");
        EXPECT_EQ(round.runs, 3u);
        EXPECT_EQ(round.minEvents, 120u);
        EXPECT_EQ(round.seed, 99u);
    }
    {
        auto decoded = serve::decodeRequest(
            serve::encodeRequest(serve::ShutdownRequest{13}));
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(std::get<serve::ShutdownRequest>(decoded.value()).id,
                  13u);
    }
}

TEST(ServeProtocol, ResponsesRoundTripEveryCode)
{
    {
        serve::Response ok;
        ok.type = serve::MessageType::Predict;
        ok.id = 7;
        ok.predictions = {1.5, -2.25, 1e-300};
        auto decoded =
            serve::decodeResponse(serve::encodeResponse(ok));
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
        EXPECT_EQ(decoded.value().predictions, ok.predictions);
    }
    {
        serve::Response stats;
        stats.type = serve::MessageType::Stats;
        stats.id = 8;
        stats.text = "{\"serve\":{}}";
        auto decoded =
            serve::decodeResponse(serve::encodeResponse(stats));
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(decoded.value().text, stats.text);
    }
    const util::Status errors[] = {
        util::Status::parseError("p"),
        util::Status::dataError("d"),
        util::Status::capacityError("shed"),
        util::Status::transient("t"),
        util::Status::deadlineExceeded("late"),
    };
    for (const auto &status : errors) {
        const auto failure = serve::Response::failure(
            serve::MessageType::Predict, 21, status);
        auto decoded =
            serve::decodeResponse(serve::encodeResponse(failure));
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
        EXPECT_EQ(decoded.value().code, status.code());
        EXPECT_EQ(decoded.value().message, status.message());
        EXPECT_EQ(decoded.value().status().code(), status.code());
    }
}

TEST(ServeProtocol, WireBytesMatchReferenceEncoding)
{
    // Value-by-value little-endian reference of the wire layout.
    std::string expected;
    auto u8 = [&](std::uint8_t v) {
        expected.push_back(static_cast<char>(v));
    };
    auto u64 = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            expected.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    auto f64 = [&](double v) { u64(std::bit_cast<std::uint64_t>(v)); };
    auto str = [&](std::string_view s) {
        u64(s.size());
        expected.append(s);
    };

    serve::ScoreRequest score;
    score.id = 5;
    score.deadlineMs = 2.5;
    score.scorer = "fam";
    score.events = {"CYC", "INS"};
    score.rowCount = 2;
    score.values = {1.0, -0.0, 3.5, 4.0};
    score.measured = {0.5, 0.75};
    u8(static_cast<std::uint8_t>(serve::MessageType::Score));
    u64(5);
    f64(2.5);
    str("fam");
    u64(2);
    str("CYC");
    str("INS");
    u64(2);
    u64(4);
    for (const double v : score.values)
        f64(v);
    u64(2);
    for (const double v : score.measured)
        f64(v);
    EXPECT_EQ(serve::encodeRequest(score), expected);

    serve::Response predicted;
    predicted.type = serve::MessageType::Predict;
    predicted.id = 7;
    predicted.predictions = {0.125, -8.0};
    expected.clear();
    u8(static_cast<std::uint8_t>(serve::MessageType::Predict));
    u64(7);
    u8(0); // StatusCode::Ok
    str("");
    u64(2);
    f64(0.125);
    f64(-8.0);
    EXPECT_EQ(serve::encodeResponse(predicted), expected);

    std::string frame;
    ASSERT_TRUE(serve::appendFrame(frame, "xyz").ok());
    EXPECT_EQ(frame, std::string("\x03\x00\x00\x00xyz", 7));
    BytesFrameSource source(frame);
    std::string payload;
    bool eof = false;
    ASSERT_TRUE(source.next(payload, eof).ok());
    EXPECT_EQ(payload, "xyz");
    ASSERT_TRUE(source.next(payload, eof).ok());
    EXPECT_TRUE(eof);
}

TEST(ServeProtocol, RejectsTrailingBytesAndUnknownType)
{
    auto payload =
        serve::encodeRequest(serve::Request(serve::StatsRequest{1}));
    payload.push_back('x');
    EXPECT_FALSE(serve::decodeRequest(payload).ok());

    std::string unknown(9, '\0');
    unknown[0] = '\x7f';
    EXPECT_FALSE(serve::decodeRequest(unknown).ok());
    EXPECT_EQ(serve::peekType(unknown), serve::MessageType::Unknown);
    EXPECT_EQ(serve::peekType(""), serve::MessageType::Unknown);
}

TEST(ServeProtocol, RejectsOversizedDeclaredCountsBeforeAllocation)
{
    // A predict request declaring an absurd event count must be
    // rejected by the bounded reader (remaining/8) without allocating.
    serve::PredictRequest request;
    request.id = 1;
    request.model = "m";
    request.events = {"A"};
    request.rowCount = 1;
    request.values = {1.0};
    auto payload = serve::encodeRequest(serve::Request(request));
    // The event-count u64 sits after: type(1) id(8) deadline(8)
    // model-len(8) model(1). Overwrite it with 2^60.
    const std::size_t count_at = 1 + 8 + 8 + 8 + 1;
    for (int b = 0; b < 8; ++b)
        payload[count_at + b] = 0;
    payload[count_at + 7] = 0x10;
    auto decoded = serve::decodeRequest(payload);
    EXPECT_FALSE(decoded.ok());
}

TEST(ServeProtocol, TruncationSweepEveryByteNeverCrashes)
{
    serve::PredictRequest request;
    request.id = 3;
    request.deadlineMs = 4.0;
    request.model = "toy";
    request.events = {"CYC", "INS", "LLC"};
    request.rowCount = 2;
    request.values = {1, 2, 3, 4, 5, 6};
    const auto payload =
        serve::encodeRequest(serve::Request(request));

    // Every strict prefix of the payload must decode to an error.
    for (std::size_t len = 0; len < payload.size(); ++len) {
        auto decoded =
            serve::decodeRequest(payload.substr(0, len));
        EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes";
    }
    ASSERT_TRUE(serve::decodeRequest(payload).ok());

    // Through both decoders the daemon runs, every strict prefix of
    // the framed bytes is a clean EOF (empty) or a torn-frame DataError
    // with no payload, never a crash or a bogus frame, and the whole
    // frame is the payload.
    std::string framed;
    ASSERT_TRUE(serve::appendFrame(framed, payload).ok());
    for (const auto decode : {streamFrame, fdFrame}) {
        for (std::size_t len = 0; len <= framed.size(); ++len) {
            std::string out = "stale";
            bool eof = false;
            const auto status = decode(framed.substr(0, len), out, eof);
            if (len == 0) {
                EXPECT_TRUE(status.ok()) << status.toString();
                EXPECT_TRUE(eof);
                EXPECT_TRUE(out.empty());
            } else if (len < framed.size()) {
                EXPECT_EQ(status.code(), util::StatusCode::DataError)
                    << "prefix of " << len << ": " << status.toString();
                EXPECT_FALSE(eof);
                EXPECT_TRUE(out.empty()) << "prefix of " << len;
            } else {
                ASSERT_TRUE(status.ok()) << status.toString();
                EXPECT_FALSE(eof);
                EXPECT_EQ(out, payload);
            }
        }
    }
}

TEST(ServeProtocol, OversizedFrameLengthRejectedBeforeAllocation)
{
    // Header declares 0xffffffff bytes; both decoders must reject from
    // the 4 header bytes alone instead of trying to read 4 GiB.
    const std::string header("\xff\xff\xff\xff", 4);
    for (const auto decode : {streamFrame, fdFrame}) {
        std::string payload;
        bool eof = false;
        const auto status = decode(header, payload, eof);
        EXPECT_EQ(status.code(), util::StatusCode::DataError);
        EXPECT_NE(status.message().find("max"), std::string::npos);
    }

    // And the sink refuses to build such a frame in the first place.
    std::string big(serve::max_frame_bytes + 1, 'x');
    std::string framed;
    EXPECT_EQ(serve::appendFrame(framed, big).code(),
              util::StatusCode::CapacityError);
}

TEST(ServeProtocol, MalformedFrameFuzzNeverCrashes)
{
    util::Rng rng(1234);
    // Random garbage payloads of every small size.
    for (int iter = 0; iter < 300; ++iter) {
        const std::size_t len =
            static_cast<std::size_t>(rng.uniformInt(0, 63));
        std::string garbage(len, '\0');
        for (auto &c : garbage)
            c = static_cast<char>(rng.uniformInt(0, 255));
        (void)serve::decodeRequest(garbage);
        (void)serve::decodeResponse(garbage);
        (void)serve::peekType(garbage);
    }
    // Single-byte mutations of a valid request payload: decode must
    // either succeed or fail cleanly, never read out of bounds.
    serve::PredictRequest request;
    request.id = 5;
    request.model = "toy";
    request.events = {"CYC", "INS"};
    request.rowCount = 2;
    request.values = {1, 2, 3, 4};
    const auto payload =
        serve::encodeRequest(serve::Request(request));
    for (int iter = 0; iter < 300; ++iter) {
        std::string mutated = payload;
        const std::size_t at = static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(mutated.size()) - 1));
        mutated[at] = static_cast<char>(rng.uniformInt(0, 255));
        (void)serve::decodeRequest(std::move(mutated));
    }
}

// --- deadlines -----------------------------------------------------------

TEST(ServeDeadline, UnlimitedNeverExpires)
{
    const serve::Deadline unlimited;
    EXPECT_TRUE(unlimited.isUnlimited());
    EXPECT_FALSE(unlimited.expired());
    EXPECT_TRUE(unlimited.check("any").ok());
    EXPECT_GT(unlimited.remainingMs(), 1e300);
}

TEST(ServeDeadline, ExpiresExactlyOnTheManualClock)
{
    util::ManualClock clock;
    const auto deadline = serve::Deadline::after(clock, 10.0);
    EXPECT_FALSE(deadline.expired());
    EXPECT_EQ(deadline.remainingMs(), 10.0);

    clock.advance(9.0);
    EXPECT_TRUE(deadline.check("stage").ok());
    clock.advance(1.0);
    EXPECT_TRUE(deadline.expired());
    const auto status = deadline.check("dequeue");
    EXPECT_EQ(status.code(), util::StatusCode::DeadlineExceeded);
    EXPECT_NE(status.message().find("dequeue"), std::string::npos);

    clock.advance(2.5);
    EXPECT_NE(deadline.check("late").message().find("2.5"),
              std::string::npos);
}

// --- server: predict pipeline -------------------------------------------

TEST(ServeServer, PredictRoundTripMatchesDirectModelCall)
{
    auto artifact = toyArtifact();
    const auto expected =
        artifact.model.predict({105.0, 55.0, 15.0});

    MetricsGuard metrics;
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);
    server.registerModel("toy", std::move(artifact));
    EXPECT_EQ(server.modelNames(),
              std::vector<std::string>{"toy"});

    CollectFrameSink sink;
    auto reloaded = toyArtifact();
    server.submitFrame(
        serve::encodeRequest(
            serve::Request(toyPredict(1, 5.0, reloaded))),
        [&sink](std::string payload) {
            (void)sink.write(payload);
        });
    EXPECT_EQ(server.queueDepth(), 1u);
    EXPECT_EQ(server.runBatchOnce(), 1u);
    EXPECT_EQ(server.queueDepth(), 0u);

    const auto responses = decodeAll(sink);
    ASSERT_EQ(responses.size(), 1u);
    const auto &response = responses.at(1);
    ASSERT_EQ(response.code, util::StatusCode::Ok);
    ASSERT_EQ(response.predictions.size(), 1u);
    EXPECT_EQ(response.predictions[0], expected);

    auto &registry = metrics.registry;
    EXPECT_EQ(registry.counter("serve.requests_admitted").value(), 1u);
    EXPECT_EQ(registry.counter("serve.requests_ok").value(), 1u);
    EXPECT_EQ(registry.counter("serve.batches").value(), 1u);
    EXPECT_EQ(registry.counter("serve.rows_scored").value(), 1u);
}

TEST(ServeServer, RejectsUnknownModelAndEventMismatch)
{
    MetricsGuard metrics;
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);
    auto artifact = toyArtifact();
    server.registerModel("toy", toyArtifact());

    CollectFrameSink sink;
    auto collect = [&sink](std::string payload) {
        (void)sink.write(payload);
    };

    auto wrong_model = toyPredict(1, 1.0, artifact);
    wrong_model.model = "nope";
    server.submitFrame(
        serve::encodeRequest(serve::Request(wrong_model)), collect);

    auto wrong_events = toyPredict(2, 1.0, artifact);
    wrong_events.events = {"CYC", "LLC", "INS"}; // wrong order
    server.submitFrame(
        serve::encodeRequest(serve::Request(wrong_events)), collect);

    const auto responses = decodeAll(sink);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses.at(1).code, util::StatusCode::DataError);
    EXPECT_EQ(responses.at(2).code, util::StatusCode::DataError);
    EXPECT_NE(responses.at(2).message.find("event list mismatch"),
              std::string::npos);
    EXPECT_EQ(server.queueDepth(), 0u);
    EXPECT_EQ(metrics.registry.counter("serve.requests_failed").value(),
              2u);
}

TEST(ServeServer, LoadErrorsNameTheArtifactPathOnce)
{
    // A directory is not a regular file. Each layer of a load names the
    // path only if no layer below it has, so every message names it
    // once.
    const std::string dir = tmpPath("cminer_serve_load_dir");
    const std::string model_path = tmpPath("cminer_serve_load_model.ckpt");
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(core::saveMapmArtifact(toyArtifact(), model_path).ok());

    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);
    const util::Status model = server.loadModel("toy", dir);
    EXPECT_EQ(model.code(), util::StatusCode::DataError);
    EXPECT_EQ(model.message(),
              "serve: load model: load mapm: not a regular file: " + dir);

    const util::Status scorer_model = server.loadScorer("toy", dir, dir);
    EXPECT_EQ(scorer_model.message(),
              "serve: load scorer: load mapm: not a regular file: " + dir);

    const util::Status scorer_clusters =
        server.loadScorer("toy", model_path, dir);
    EXPECT_EQ(scorer_clusters.message(),
              "serve: load scorer: load cluster: not a regular file: " +
                  dir);
    EXPECT_TRUE(server.modelNames().empty());
    std::filesystem::remove_all(dir);
    std::filesystem::remove(model_path);
}

TEST(ServeServer, UndecodableFrameStillGetsExactlyOneResponse)
{
    MetricsGuard metrics;
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);

    CollectFrameSink sink;
    server.submitFrame("\x01garbage",
                       [&sink](std::string payload) {
                           (void)sink.write(payload);
                       });
    ASSERT_EQ(sink.payloads.size(), 1u);
    auto decoded = serve::decodeResponse(sink.payloads.front());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().type, serve::MessageType::Unknown);
    EXPECT_NE(decoded.value().code, util::StatusCode::Ok);
    EXPECT_EQ(metrics.registry.counter("serve.decode_errors").value(), 1u);
}

TEST(ServeServer, OverloadShedsExactlyAndGaugeReconciles)
{
    MetricsGuard metrics;
    constexpr std::size_t cap = 8;
    constexpr std::size_t burst = 4 * cap;

    serve::ServerOptions options;
    options.startBatcher = false;
    options.queueCap = cap;
    options.maxBatchRows = 4; // several batches to drain the backlog
    serve::Server server(options);
    const auto artifact = toyArtifact();
    server.registerModel("toy", toyArtifact());

    CollectFrameSink sink;
    for (std::size_t i = 0; i < burst; ++i) {
        server.submitFrame(
            serve::encodeRequest(serve::Request(
                toyPredict(i + 1, static_cast<double>(i), artifact))),
            [&sink](std::string payload) {
                (void)sink.write(payload);
            });
    }

    // Exactly the first `cap` requests were admitted; the remaining
    // 3*cap were shed immediately with CapacityError.
    auto &registry = metrics.registry;
    EXPECT_EQ(server.queueDepth(), cap);
    EXPECT_EQ(registry.gauge("serve.queue_depth").value(),
              static_cast<double>(cap));
    EXPECT_EQ(registry.counter("serve.requests_shed").value(),
              burst - cap);
    EXPECT_EQ(registry.counter("serve.requests_admitted").value(), cap);

    // Drain the admitted backlog; every admitted request succeeds.
    std::size_t drained = 0;
    while (std::size_t n = server.runBatchOnce())
        drained += n;
    EXPECT_EQ(drained, cap);
    EXPECT_EQ(registry.gauge("serve.queue_depth").value(), 0.0);

    const auto responses = decodeAll(sink);
    ASSERT_EQ(responses.size(), burst);
    std::size_t ok = 0;
    std::size_t shed = 0;
    for (const auto &[id, response] : responses) {
        if (response.code == util::StatusCode::Ok) {
            ++ok;
            EXPECT_LE(id, cap); // FIFO admission: the first `cap` ids
        } else {
            EXPECT_EQ(response.code, util::StatusCode::CapacityError);
            ++shed;
        }
    }
    EXPECT_EQ(ok, cap);
    EXPECT_EQ(shed, burst - cap);

    EXPECT_EQ(registry.counter("serve.requests_ok").value(), cap);
    EXPECT_EQ(registry.counter("serve.requests_admitted").value() +
                  registry.counter("serve.requests_shed").value(),
              burst);
}

TEST(ServeServer, RegistryTotalsEqualTheResponses)
{
    // One mixed stream through one server, then every serve.* count
    // against a tally of the responses it sent.
    MetricsGuard metrics;
    util::ManualClock clock;
    constexpr std::size_t cap = 8;
    serve::ServerOptions options;
    options.startBatcher = false;
    options.clock = &clock;
    options.queueCap = cap;
    serve::Server server(options);
    const auto artifact = toyArtifact();
    server.registerModel("toy", toyArtifact());

    CollectFrameSink sink;
    std::size_t frames = 0;
    const auto submit = [&](std::string payload) {
        ++frames;
        server.submitFrame(std::move(payload), [&sink](std::string r) {
            (void)sink.write(r);
        });
    };
    const auto predict = [&](serve::PredictRequest request) {
        submit(serve::encodeRequest(serve::Request(std::move(request))));
    };
    std::uint64_t id = 0;

    // Ok predicts of 1 to 16 rows.
    for (const std::size_t rows : {1u, 5u, 11u, 16u}) {
        auto request = toyPredict(++id, 0.0, artifact);
        request.rowCount = rows;
        request.values.clear();
        for (std::size_t r = 0; r < rows; ++r)
            for (const double base : {100.0, 50.0, 10.0})
                request.values.push_back(base + static_cast<double>(r));
        predict(std::move(request));
    }
    while (server.runBatchOnce() > 0) {
    }

    // A burst past the queue cap, and a mine refused under its
    // pressure.
    for (std::size_t i = 0; i < cap + 3; ++i)
        predict(toyPredict(++id, static_cast<double>(i), artifact));
    serve::MineRequest mine;
    mine.id = ++id;
    mine.benchmark = "sort";
    submit(serve::encodeRequest(serve::Request(mine)));
    while (server.runBatchOnce() > 0) {
    }

    // An undecodable frame, an unknown model, an event-list mismatch.
    submit("\x01garbage");
    auto unknown = toyPredict(++id, 1.0, artifact);
    unknown.model = "nope";
    predict(unknown);
    auto mismatch = toyPredict(++id, 1.0, artifact);
    mismatch.events = {"CYC", "LLC", "INS"};
    predict(mismatch);

    // A predict whose deadline expires while it is queued.
    predict(toyPredict(++id, 2.0, artifact, 10.0));
    clock.advance(20.0);
    while (server.runBatchOnce() > 0) {
    }

    submit(serve::encodeRequest(
        serve::Request(serve::StatsRequest{++id})));

    std::map<std::string, std::uint64_t> tally;
    std::uint64_t rows_ok = 0;
    ASSERT_EQ(sink.payloads.size(), frames);
    for (const auto &payload : sink.payloads) {
        auto decoded = serve::decodeResponse(payload);
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
        const serve::Response &response = decoded.value();
        const bool is_predict =
            response.type == serve::MessageType::Predict;
        switch (response.code) {
          case util::StatusCode::Ok:
            if (is_predict) {
                ++tally["serve.requests_ok"];
                rows_ok += response.predictions.size();
            }
            break;
          case util::StatusCode::DeadlineExceeded:
            ++tally["serve.deadline_missed"];
            break;
          case util::StatusCode::CapacityError:
            ++tally[response.type == serve::MessageType::Mine
                        ? "serve.mines_refused"
                        : "serve.requests_shed"];
            break;
          default:
            ++tally["serve.requests_failed"];
            break;
        }
        if (response.type == serve::MessageType::Unknown)
            ++tally["serve.decode_errors"];
    }
    // Every predict that reached the queue was answered Ok or, in it,
    // DeadlineExceeded.
    tally["serve.requests_admitted"] =
        tally["serve.requests_ok"] + tally["serve.deadline_missed"];

    // The stream reached every outcome it was built to reach.
    EXPECT_EQ(tally["serve.requests_ok"], 4u + cap);
    EXPECT_EQ(tally["serve.requests_shed"], 3u);
    EXPECT_EQ(tally["serve.mines_refused"], 1u);
    EXPECT_EQ(tally["serve.deadline_missed"], 1u);
    EXPECT_EQ(tally["serve.requests_failed"], 3u);
    EXPECT_EQ(tally["serve.decode_errors"], 1u);

    auto &registry = metrics.registry;
    for (const auto &[name, expected] : tally)
        EXPECT_EQ(registry.counter(name).value(), expected) << name;
    EXPECT_EQ(registry.counter("serve.frames_decoded").value() +
                  registry.counter("serve.decode_errors").value(),
              frames);
    EXPECT_EQ(registry.counter("serve.rows_scored").value(), rows_ok);
    EXPECT_EQ(rows_ok, 1u + 5u + 11u + 16u + cap);
    // Two rounds scored rows; the third held only the expired request.
    EXPECT_EQ(registry.counter("serve.batches").value(), 2u);
    EXPECT_EQ(registry.histogram("serve.latency_ms").snapshot().count,
              tally["serve.requests_ok"]);
    EXPECT_EQ(registry.gauge("serve.queue_depth").value(), 0.0);
}

TEST(ServeServer, BatchesGroupByArtifactSnapshotNotModelName)
{
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);

    const auto first = toyArtifact();
    const auto second = twoEventArtifact();
    const double expected_first =
        first.model.predict({101.0, 51.0, 11.0});
    const double expected_second = second.model.predict({210.0, 35.0});

    server.registerModel("toy", toyArtifact());
    CollectFrameSink sink;
    auto collect = [&sink](std::string payload) {
        (void)sink.write(payload);
    };
    server.submitFrame(
        serve::encodeRequest(serve::Request(toyPredict(1, 1.0, first))),
        collect);

    // A mine job swaps the artifact under the same name while request
    // 1 sits queued; request 2 is validated against the new snapshot,
    // which has a different event count.
    server.registerModel("toy", twoEventArtifact());
    serve::PredictRequest request2;
    request2.id = 2;
    request2.model = "toy";
    request2.events = second.events;
    request2.rowCount = 1;
    request2.values = {210.0, 35.0};
    server.submitFrame(serve::encodeRequest(serve::Request(request2)),
                       collect);

    ASSERT_EQ(server.queueDepth(), 2u);
    // Each artifact snapshot must score in its own batch: mixing them
    // would index request 2's two values with request 1's three-column
    // layout (out-of-bounds reads or silently wrong predictions).
    EXPECT_EQ(server.runBatchOnce(), 1u);
    EXPECT_EQ(server.runBatchOnce(), 1u);
    EXPECT_EQ(server.runBatchOnce(), 0u);

    const auto responses = decodeAll(sink);
    ASSERT_EQ(responses.size(), 2u);
    ASSERT_EQ(responses.at(1).code, util::StatusCode::Ok);
    ASSERT_EQ(responses.at(1).predictions.size(), 1u);
    EXPECT_EQ(responses.at(1).predictions[0], expected_first);
    ASSERT_EQ(responses.at(2).code, util::StatusCode::Ok);
    ASSERT_EQ(responses.at(2).predictions.size(), 1u);
    EXPECT_EQ(responses.at(2).predictions[0], expected_second);
}

TEST(ServeServer, ThrowingDeliveryDoesNotReRespondAnsweredRequests)
{
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);
    const auto artifact = toyArtifact();
    server.registerModel("toy", toyArtifact());

    CollectFrameSink sink;
    server.submitFrame(
        serve::encodeRequest(
            serve::Request(toyPredict(1, 1.0, artifact))),
        [&sink](std::string payload) { (void)sink.write(payload); });
    // Request 2's delivery throws once (modeling an allocation failure
    // mid-respond-loop), then delivers normally.
    int failures_left = 1;
    server.submitFrame(
        serve::encodeRequest(
            serve::Request(toyPredict(2, 2.0, artifact))),
        [&sink, &failures_left](std::string payload) {
            if (failures_left > 0) {
                --failures_left;
                throw std::runtime_error("injected delivery failure");
            }
            (void)sink.write(payload);
        });

    EXPECT_EQ(server.runBatchOnce(), 2u);

    // Request 1 was answered before the exception; the recovery path
    // must not answer it a second time (a duplicate done() would
    // double-decrement the connection's in-flight count).
    std::size_t responses_for_1 = 0;
    for (const auto &payload : sink.payloads) {
        auto decoded = serve::decodeResponse(payload);
        ASSERT_TRUE(decoded.ok());
        if (decoded.value().id == 1) {
            ++responses_for_1;
            EXPECT_EQ(decoded.value().code, util::StatusCode::Ok);
        }
    }
    EXPECT_EQ(responses_for_1, 1u);
    // Request 2 still gets exactly one (failure) response.
    const auto responses = decodeAll(sink);
    ASSERT_EQ(responses.count(2), 1u);
    EXPECT_EQ(responses.at(2).code, util::StatusCode::DataError);
}

TEST(ServeServer, QueuedRequestPastDeadlineReportsDeadlineExceeded)
{
    MetricsGuard metrics;
    util::ManualClock clock;
    serve::ServerOptions options;
    options.startBatcher = false;
    options.clock = &clock;
    serve::Server server(options);
    const auto artifact = toyArtifact();
    server.registerModel("toy", toyArtifact());

    CollectFrameSink sink;
    auto collect = [&sink](std::string payload) {
        (void)sink.write(payload);
    };
    // Request 1 has 10ms of budget, request 2 has 1000ms.
    server.submitFrame(
        serve::encodeRequest(
            serve::Request(toyPredict(1, 1.0, artifact, 10.0))),
        collect);
    server.submitFrame(
        serve::encodeRequest(
            serve::Request(toyPredict(2, 2.0, artifact, 1000.0))),
        collect);
    EXPECT_EQ(server.queueDepth(), 2u);

    // 20ms pass while the requests sit in the queue.
    clock.advance(20.0);
    EXPECT_EQ(server.runBatchOnce(), 2u);

    const auto responses = decodeAll(sink);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses.at(1).code,
              util::StatusCode::DeadlineExceeded);
    EXPECT_NE(responses.at(1).message.find("dequeue"),
              std::string::npos);
    EXPECT_EQ(responses.at(2).code, util::StatusCode::Ok);

    EXPECT_EQ(metrics.registry.counter("serve.deadline_missed").value(),
              1u);
    EXPECT_EQ(metrics.registry.counter("serve.requests_ok").value(), 1u);
}

TEST(ServeServer, DefaultDeadlineAppliesToBudgetlessRequests)
{
    util::ManualClock clock;
    serve::ServerOptions options;
    options.startBatcher = false;
    options.clock = &clock;
    options.defaultDeadlineMs = 5.0;
    serve::Server server(options);
    const auto artifact = toyArtifact();
    server.registerModel("toy", toyArtifact());

    CollectFrameSink sink;
    server.submitFrame(
        serve::encodeRequest(
            serve::Request(toyPredict(1, 1.0, artifact))),
        [&sink](std::string payload) {
            (void)sink.write(payload);
        });
    clock.advance(6.0);
    EXPECT_EQ(server.runBatchOnce(), 1u);
    const auto responses = decodeAll(sink);
    EXPECT_EQ(responses.at(1).code,
              util::StatusCode::DeadlineExceeded);
}

TEST(ServeServer, DrainFinishesAdmittedWorkAndRefusesNewWork)
{
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);
    const auto artifact = toyArtifact();
    server.registerModel("toy", toyArtifact());

    CollectFrameSink sink;
    auto collect = [&sink](std::string payload) {
        (void)sink.write(payload);
    };
    server.submitFrame(serve::encodeRequest(serve::Request(
                           toyPredict(1, 1.0, artifact))),
                       collect);
    server.submitFrame(serve::encodeRequest(serve::Request(
                           toyPredict(2, 2.0, artifact))),
                       collect);

    // A shutdown frame begins the drain and is acknowledged.
    server.submitFrame(serve::encodeRequest(
                           serve::Request(serve::ShutdownRequest{3})),
                       collect);
    EXPECT_TRUE(server.draining());

    // New work after the drain began is refused, not queued.
    server.submitFrame(serve::encodeRequest(serve::Request(
                           toyPredict(4, 4.0, artifact))),
                       collect);

    server.drain();
    EXPECT_EQ(server.queueDepth(), 0u);

    const auto responses = decodeAll(sink);
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(responses.at(1).code, util::StatusCode::Ok);
    EXPECT_EQ(responses.at(2).code, util::StatusCode::Ok);
    EXPECT_EQ(responses.at(3).code, util::StatusCode::Ok);
    EXPECT_EQ(responses.at(3).type, serve::MessageType::Shutdown);
    EXPECT_EQ(responses.at(4).code, util::StatusCode::Transient);
    EXPECT_NE(responses.at(4).message.find("draining"),
              std::string::npos);
}

TEST(ServeServer, MiningRefusedUnderPressureWhilePredictsStillAdmitted)
{
    MetricsGuard metrics;
    serve::ServerOptions options;
    options.startBatcher = false;
    options.queueCap = 8;
    serve::Server server(options);
    const auto artifact = toyArtifact();
    server.registerModel("toy", toyArtifact());

    CollectFrameSink sink;
    auto collect = [&sink](std::string payload) {
        (void)sink.write(payload);
    };
    // Half-fill the queue: pressure threshold reached.
    for (std::size_t i = 0; i < 4; ++i)
        server.submitFrame(
            serve::encodeRequest(serve::Request(toyPredict(
                i + 1, static_cast<double>(i), artifact))),
            collect);

    serve::MineRequest mine;
    mine.id = 100;
    mine.benchmark = "sort";
    server.submitFrame(
        serve::encodeRequest(serve::Request(mine)), collect);

    // Degradation ordering: the mine was refused, but a further
    // predict still fits in the remaining queue capacity.
    server.submitFrame(serve::encodeRequest(serve::Request(
                           toyPredict(5, 5.0, artifact))),
                       collect);
    EXPECT_EQ(server.queueDepth(), 5u);
    auto &registry = metrics.registry;
    EXPECT_EQ(registry.counter("serve.mines_refused").value(), 1u);
    EXPECT_EQ(registry.counter("serve.requests_shed").value(), 0u);
    EXPECT_EQ(registry.counter("serve.requests_admitted").value(), 5u);

    while (server.runBatchOnce() > 0) {
    }
    const auto responses = decodeAll(sink);
    ASSERT_EQ(responses.size(), 6u);
    EXPECT_EQ(responses.at(100).code,
              util::StatusCode::CapacityError);
    EXPECT_NE(responses.at(100).message.find("mining refused"),
              std::string::npos);
}

TEST(ServeServer, MineOfUnknownBenchmarkFailsCleanly)
{
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);

    CollectFrameSink sink;
    serve::MineRequest mine;
    mine.id = 1;
    mine.benchmark = "no-such-benchmark";
    server.submitFrame(serve::encodeRequest(serve::Request(mine)),
                       [&sink](std::string payload) {
                           (void)sink.write(payload);
                       });
    server.drain();
    const auto responses = decodeAll(sink);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses.at(1).code, util::StatusCode::DataError);
    EXPECT_NE(responses.at(1).message.find("unknown benchmark"),
              std::string::npos);
}

TEST(ServeServer, StatsResponseCarriesTheDashboard)
{
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);
    server.registerModel("toy", toyArtifact());

    CollectFrameSink sink;
    server.submitFrame(serve::encodeRequest(
                           serve::Request(serve::StatsRequest{1})),
                       [&sink](std::string payload) {
                           (void)sink.write(payload);
                       });
    const auto responses = decodeAll(sink);
    ASSERT_EQ(responses.size(), 1u);
    // With no registry installed the metrics part is the registry's
    // document with every section empty.
    EXPECT_EQ(responses.at(1).text,
              "{\"serve\":{\"draining\":false,\"models\":[\"toy\"],"
              "\"scorers\":[]},\"metrics\":{\"counters\":{},"
              "\"gauges\":{},\"histograms\":{}}}");
}

// --- fault-injected transport -------------------------------------------

/** One deterministic fault-drive pass; returns what happened. */
struct FaultDriveResult
{
    std::size_t framesRead = 0;
    std::size_t responses = 0;
    util::FaultCounts injected;
    std::vector<std::string> sortedPayloads;
    std::vector<double> delays;
};

FaultDriveResult
runFaultDrive(std::uint64_t seed)
{
    const auto artifact = toyArtifact();
    std::string bytes;
    for (std::uint64_t i = 0; i < 200; ++i) {
        serve::Request request(
            toyPredict(i + 1, static_cast<double>(i % 17), artifact));
        std::string payload = serve::encodeRequest(request);
        EXPECT_TRUE(serve::appendFrame(bytes, payload).ok());
    }

    util::FaultSpec spec;
    spec.tornFrameRate = 0.01;
    spec.hangupRate = 0.005;
    spec.delayRate = 0.05;
    spec.delayMs = 3.0;
    spec.seed = seed;
    util::FaultInjector injector(spec);
    util::RecordingClock recorder;

    serve::Server server;
    server.registerModel("toy", toyArtifact());

    BytesFrameSource inner(std::move(bytes));
    serve::FaultyFrameSource source(inner, injector, &recorder);
    CollectFrameSink sink;
    const auto result = serveConnection(server, source, sink);
    server.drain();

    FaultDriveResult out;
    out.framesRead = result.framesRead;
    out.injected = injector.counts();
    out.delays = recorder.delays();
    {
        std::lock_guard<std::mutex> lock(sink.mutex);
        out.responses = sink.payloads.size();
        out.sortedPayloads = sink.payloads;
    }
    std::sort(out.sortedPayloads.begin(), out.sortedPayloads.end());
    return out;
}

TEST(ServeFaults, TransportFaultDriveNeverAbortsAndAnswersEveryFrame)
{
    const auto run = runFaultDrive(11);
    // Every frame that made it through the faulty transport got
    // exactly one response; a torn frame or hangup ends the
    // connection but corrupts nothing.
    EXPECT_EQ(run.responses, run.framesRead);
    EXPECT_LE(run.framesRead, 200u);
    EXPECT_EQ(run.delays.size(), run.injected.delays);
    for (const double d : run.delays)
        EXPECT_EQ(d, 3.0);
    // At most one connection-fatal fault can fire.
    EXPECT_LE(run.injected.tornFrames + run.injected.hangups, 1u);
}

TEST(ServeFaults, FaultDriveIsDeterministicPerSeed)
{
    const auto first = runFaultDrive(11);
    const auto second = runFaultDrive(11);
    EXPECT_EQ(first.framesRead, second.framesRead);
    EXPECT_TRUE(first.injected == second.injected);
    EXPECT_EQ(first.delays, second.delays);
    EXPECT_EQ(first.sortedPayloads, second.sortedPayloads);

    const auto other = runFaultDrive(12);
    // A different seed is allowed to produce the same fault pattern,
    // but the drive must still answer everything it read.
    EXPECT_EQ(other.responses, other.framesRead);
}

TEST(ServeFaults, FaultySinkTearsFramesDeterministically)
{
    util::FaultSpec spec;
    spec.tornFrameRate = 1.0; // first write always tears
    spec.seed = 3;
    util::FaultInjector injector(spec);
    std::ostringstream out;
    serve::FaultyStreamFrameSink sink(out, injector);

    auto first = sink.write("hello-world-payload");
    EXPECT_FALSE(first.ok());
    EXPECT_EQ(injector.counts().tornFrames, 1u);
    // The torn prefix landed, and nothing more ever will.
    const std::size_t torn_size = out.str().size();
    EXPECT_LT(torn_size, 4 + std::string("hello-world-payload")
                                 .size());
    auto second = sink.write("more");
    EXPECT_FALSE(second.ok());
    EXPECT_EQ(out.str().size(), torn_size);
}

// --- the mined-model acceptance fixtures --------------------------------

/** Paths produced by one shared `mapm sort` run (mined once). */
struct MinedSort
{
    std::string model;
    std::string db;
    std::string csv;
    /** Predicted IPC per database row, parsed from the predict CSV. */
    std::vector<double> predictions;
};

const MinedSort &
minedSort()
{
    static const MinedSort fixture = [] {
        MinedSort m;
        m.model = tmpPath("serve_test_model.ckpt");
        m.db = tmpPath("serve_test_runs.cmdb");
        m.csv = tmpPath("serve_test_pred.csv");
        std::string out;
        if (cli::run({"mapm", "sort", "--min-events", "150", "--seed",
                      "5", "--model-out", m.model, "--db", m.db,
                      "--threads", "1"},
                     out) != 0)
            throw std::runtime_error("mapm failed: " + out);
        std::string pout;
        if (cli::run({"predict", m.db, "--model", m.model, "--out",
                      m.csv, "--threads", "1"},
                     pout) != 0)
            throw std::runtime_error("predict failed: " + pout);
        // CSV rows: row,predicted_ipc,measured_ipc with %.17g values
        // (shortest-round-trip: strtod returns the identical bits).
        std::ifstream in(m.csv);
        std::string line;
        std::getline(in, line); // header
        while (std::getline(in, line)) {
            const auto first = line.find(',');
            const auto second = line.find(',', first + 1);
            if (first == std::string::npos ||
                second == std::string::npos)
                continue;
            m.predictions.push_back(std::strtod(
                line.substr(first + 1, second - first - 1).c_str(),
                nullptr));
        }
        if (m.predictions.empty())
            throw std::runtime_error("no predictions parsed");
        return m;
    }();
    return fixture;
}

/** The database rows projected onto the artifact's kept events. */
std::vector<std::vector<double>>
scorableRows(const core::MapmArtifact &artifact)
{
    const auto db = store::Database::load(minedSort().db);
    std::vector<store::RunId> ids;
    for (const auto &program : db.programs())
        for (const auto id : db.findRuns(program, "mlpx"))
            ids.push_back(id);
    const auto data = core::ImportanceRanker::buildDatasetFromStore(
        db, ids, pmu::EventCatalog::instance());
    const auto view =
        ml::DatasetView(data).withFeatures(artifact.events);
    std::vector<std::vector<double>> rows;
    rows.reserve(view.rowCount());
    for (std::size_t r = 0; r < view.rowCount(); ++r)
        rows.push_back(view.row(r));
    return rows;
}

// --- the load-generator acceptance test ---------------------------------

TEST(ServeLoadGen, PipelinedPredictsAreByteIdenticalToPredictCli)
{
    const auto &mined = minedSort();
    auto loaded = core::loadMapmArtifact(mined.model);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    const core::MapmArtifact artifact = std::move(loaded).value();
    const auto rows = scorableRows(artifact);
    ASSERT_EQ(rows.size(), mined.predictions.size());

    // >= 1000 single-row predict requests cycling over the database
    // rows, all pipelined on one connection, closed by a shutdown.
    constexpr std::size_t request_count = 1000;
    std::string bytes;
    for (std::size_t i = 0; i < request_count; ++i) {
        serve::PredictRequest request;
        request.id = i + 1;
        request.model = "sort";
        request.events = artifact.events;
        request.rowCount = 1;
        request.values = rows[i % rows.size()];
        ASSERT_TRUE(serve::appendFrame(
                        bytes,
                        serve::encodeRequest(serve::Request(
                            std::move(request))))
                        .ok());
    }
    ASSERT_TRUE(serve::appendFrame(
                    bytes, serve::encodeRequest(serve::Request(
                               serve::ShutdownRequest{9999})))
                    .ok());

    for (const std::size_t threads : {1u, 2u, 8u}) {
        util::Parallelism::setThreadCount(threads);
        MetricsGuard metrics;
        serve::ServerOptions options;
        options.queueCap = 2048; // admit the whole burst
        options.maxBatchRows = 64;
        serve::Server server(options);
        ASSERT_TRUE(server.loadModel("sort", mined.model).ok());

        BytesFrameSource source(bytes);
        CollectFrameSink sink;
        const auto result = serveConnection(server, source, sink);
        EXPECT_TRUE(result.shutdownRequested);
        EXPECT_EQ(result.framesRead, request_count + 1);
        server.drain();

        const auto responses = decodeAll(sink);
        ASSERT_EQ(responses.size(), request_count + 1)
            << "threads=" << threads;
        std::size_t verified = 0;
        for (std::size_t i = 0; i < request_count; ++i) {
            const auto &response = responses.at(i + 1);
            ASSERT_EQ(response.code, util::StatusCode::Ok)
                << "id " << i + 1 << ": " << response.message;
            ASSERT_EQ(response.predictions.size(), 1u);
            // Byte-identity with the predict CLI's CSV: the served
            // prediction must be the same double, bit for bit.
            EXPECT_EQ(response.predictions[0],
                      mined.predictions[i % rows.size()])
                << "id " << i + 1 << " threads " << threads;
            ++verified;
        }
        EXPECT_EQ(verified, request_count);

        auto &registry = metrics.registry;
        EXPECT_EQ(registry.counter("serve.requests_admitted").value(),
                  request_count);
        EXPECT_EQ(registry.counter("serve.requests_ok").value(),
                  request_count);
        EXPECT_EQ(registry.counter("serve.requests_shed").value(), 0u);
        EXPECT_GE(registry.counter("serve.batches").value(), 1u);
        EXPECT_EQ(registry.counter("serve.rows_scored").value(),
                  request_count);
    }
    util::Parallelism::setThreadCount(1);
}

// --- cminer serve CLI (file mode) ---------------------------------------

TEST(ServeCli, FileModeServesFramesByteIdenticalToPredict)
{
    const auto &mined = minedSort();
    auto loaded = core::loadMapmArtifact(mined.model);
    ASSERT_TRUE(loaded.ok());
    const core::MapmArtifact artifact = std::move(loaded).value();
    const auto rows = scorableRows(artifact);

    // One multi-row predict covering every database row + stats +
    // shutdown, written as a request file.
    serve::PredictRequest request;
    request.id = 1;
    request.model = "sort";
    request.events = artifact.events;
    request.rowCount = rows.size();
    for (const auto &row : rows)
        request.values.insert(request.values.end(), row.begin(),
                              row.end());
    std::string bytes;
    ASSERT_TRUE(serve::appendFrame(bytes,
                                   serve::encodeRequest(serve::Request(
                                       std::move(request))))
                    .ok());
    ASSERT_TRUE(
        serve::appendFrame(bytes, serve::encodeRequest(serve::Request(
                                      serve::StatsRequest{2})))
            .ok());
    ASSERT_TRUE(serve::appendFrame(
                    bytes, serve::encodeRequest(serve::Request(
                               serve::ShutdownRequest{3})))
                    .ok());

    const std::string in_path = tmpPath("serve_cli_in.bin");
    const std::string out_path = tmpPath("serve_cli_out.bin");
    const std::string metrics_path = tmpPath("serve_cli_metrics.json");
    {
        std::ofstream out(in_path, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    std::string output;
    ASSERT_EQ(cli::run({"serve", "--model",
                        "sort=" + mined.model, "--in", in_path,
                        "--out", out_path, "--threads", "1",
                        "--metrics-out", metrics_path},
                       output),
              0)
        << output;
    EXPECT_NE(output.find("served 3 frames: 1 ok, 0 shed"),
              std::string::npos)
        << output;
    EXPECT_EQ(util::globalMetrics(), nullptr);

    // Decode the response file: three frames, matched by id.
    BytesFrameSource response_frames(readBytes(out_path));
    std::map<std::uint64_t, serve::Response> responses;
    for (;;) {
        std::string payload;
        bool eof = false;
        ASSERT_TRUE(response_frames.next(payload, eof).ok());
        if (eof)
            break;
        auto decoded = serve::decodeResponse(std::move(payload));
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
        responses[decoded.value().id] = std::move(decoded).value();
    }
    ASSERT_EQ(responses.size(), 3u);

    const auto &predict = responses.at(1);
    ASSERT_EQ(predict.code, util::StatusCode::Ok);
    ASSERT_EQ(predict.predictions.size(), mined.predictions.size());
    for (std::size_t r = 0; r < predict.predictions.size(); ++r)
        EXPECT_EQ(predict.predictions[r], mined.predictions[r])
            << "row " << r;

    // The stats frame carries the daemon's registry. Admission is
    // counted before the next frame is read; the predict's Ok may not
    // be counted yet when the stats frame is answered.
    EXPECT_EQ(responses.at(2).code, util::StatusCode::Ok);
    EXPECT_NE(responses.at(2).text.find("\"serve.requests_admitted\":1"),
              std::string::npos)
        << responses.at(2).text;
    EXPECT_EQ(responses.at(3).type, serve::MessageType::Shutdown);

    // `stats` on the daemon's --metrics-out file shows the latency
    // percentiles.
    std::string stats;
    ASSERT_EQ(cli::run({"stats", metrics_path}, stats), 0) << stats;
    EXPECT_NE(stats.find("p50 ms"), std::string::npos) << stats;
    EXPECT_NE(stats.find("p99 ms"), std::string::npos) << stats;
    EXPECT_NE(stats.find("serve.latency_ms"), std::string::npos) << stats;

    std::filesystem::remove(in_path);
    std::filesystem::remove(out_path);
    std::filesystem::remove(metrics_path);
}

TEST(ServeCli, RequiresAModelAndATransport)
{
    std::string output;
    EXPECT_EQ(cli::run({"serve", "--pipe"}, output), 1);
    EXPECT_NE(output.find("error:"), std::string::npos);

    std::string output2;
    EXPECT_EQ(cli::run({"serve", "--model", "/nonexistent.ckpt",
                        "--pipe"},
                       output2),
              1);

    std::string help;
    EXPECT_EQ(cli::run({"help"}, help), 0);
    EXPECT_NE(help.find("serve"), std::string::npos);
}

// --- socket smoke --------------------------------------------------------

TEST(ServeSocket, ServesPredictStatsAndShutdownOverAfUnix)
{
    const std::string path = tmpPath("cminer_serve_test.sock");
    const auto artifact = toyArtifact();
    const auto expected =
        artifact.model.predict({103.0, 53.0, 13.0});

    MetricsGuard metrics;
    serve::Server server;
    server.registerModel("toy", toyArtifact());

    serve::SocketServer listener(server, path);
    ASSERT_TRUE(listener.listen().ok());
    std::thread accept_thread([&listener] {
        EXPECT_TRUE(listener.serveForever().ok());
    });

    auto connected = serve::connectUnixSocket(path);
    ASSERT_TRUE(connected.ok()) << connected.status().toString();
    const int fd = connected.value();

    {
        serve::FdFrameSink client_out(fd);
        ASSERT_TRUE(client_out
                        .write(serve::encodeRequest(serve::Request(
                            toyPredict(1, 3.0, artifact))))
                        .ok());
        ASSERT_TRUE(client_out
                        .write(serve::encodeRequest(serve::Request(
                            serve::StatsRequest{2})))
                        .ok());
        ASSERT_TRUE(client_out
                        .write(serve::encodeRequest(serve::Request(
                            serve::ShutdownRequest{3})))
                        .ok());

        serve::FdFrameSource client_in(fd);
        std::map<std::uint64_t, serve::Response> responses;
        for (int i = 0; i < 3; ++i) {
            std::string payload;
            bool eof = false;
            ASSERT_TRUE(client_in.next(payload, eof).ok());
            ASSERT_FALSE(eof);
            auto decoded = serve::decodeResponse(std::move(payload));
            ASSERT_TRUE(decoded.ok());
            responses[decoded.value().id] =
                std::move(decoded).value();
        }
        ASSERT_EQ(responses.size(), 3u);
        ASSERT_EQ(responses.at(1).code, util::StatusCode::Ok);
        ASSERT_EQ(responses.at(1).predictions.size(), 1u);
        EXPECT_EQ(responses.at(1).predictions[0], expected);
        EXPECT_NE(responses.at(2).text.find("\"serve\":{"),
                  std::string::npos);
        EXPECT_NE(responses.at(2).text.find(
                      "\"serve.requests_admitted\":1"),
                  std::string::npos)
            << responses.at(2).text;
        EXPECT_EQ(responses.at(3).type, serve::MessageType::Shutdown);
    }
    ::close(fd);
    accept_thread.join();
    EXPECT_EQ(listener.connectionCount(), 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeSocket, HungUpPeerYieldsEpipeStatusNotSigpipe)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::close(fds[1]), 0);

    // A client hanging up before its response is an ordinary event for
    // a long-lived daemon. Without MSG_NOSIGNAL this write raises
    // SIGPIPE and the default action kills the whole process; it must
    // instead come back as a transient transport error (EPIPE).
    serve::FdFrameSink sink(fds[0]);
    auto status = sink.write(std::string(4096, 'x'));
    if (status.ok()) // a first frame may land in the socket buffer
        status = sink.write(std::string(4096, 'x'));
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), util::StatusCode::Transient);
    ::close(fds[0]);
}

TEST(ServeSocket, FinishedConnectionWorkersAreReaped)
{
    const std::string path = tmpPath("cminer_serve_reap_test.sock");
    serve::ServerOptions options;
    options.startBatcher = false;
    serve::Server server(options);

    serve::SocketServer listener(server, path);
    ASSERT_TRUE(listener.listen().ok());
    std::thread accept_thread([&listener] {
        EXPECT_TRUE(listener.serveForever().ok());
    });

    auto roundTrip = [&path](std::uint64_t id) {
        auto connected = serve::connectUnixSocket(path);
        ASSERT_TRUE(connected.ok()) << connected.status().toString();
        const int fd = connected.value();
        serve::FdFrameSink out(fd);
        ASSERT_TRUE(out.write(serve::encodeRequest(serve::Request(
                                  serve::StatsRequest{id})))
                        .ok());
        serve::FdFrameSource in(fd);
        std::string payload;
        bool eof = false;
        ASSERT_TRUE(in.next(payload, eof).ok());
        EXPECT_FALSE(eof);
        ::close(fd);
    };

    // Sequential connections: each worker exits shortly after its
    // client closes, and every accept reaps the finished ones, so the
    // tracked count must settle near the open-connection count (~1)
    // instead of growing with every connection ever served.
    constexpr std::size_t connections = 16;
    std::size_t lowest = connections;
    for (std::size_t i = 0; i < connections; ++i) {
        roundTrip(i + 1);
        lowest = std::min(lowest, listener.trackedWorkerCount());
    }
    // Workers may still be unwinding when their reap runs; give the
    // listener extra accept cycles to observe a settled count.
    for (int spare = 0; spare < 50 && lowest > 2; ++spare) {
        roundTrip(100 + static_cast<std::uint64_t>(spare));
        lowest = std::min(lowest, listener.trackedWorkerCount());
    }
    EXPECT_LE(lowest, 2u);

    listener.stop();
    accept_thread.join();
    EXPECT_FALSE(std::filesystem::exists(path));
}

} // namespace
