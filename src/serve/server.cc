#include "serve/server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/counterminer.h"
#include "pmu/event.h"
#include "store/database.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/suites.h"

namespace cminer::serve {

namespace util = cminer::util;

// ---- Server ---------------------------------------------------------

Server::Server(ServerOptions options)
    : options_(options), minePool_(1)
{
    if (!options_.storeDir.empty()) {
        store::StoreOptions store_options;
        store_options.directory = options_.storeDir;
        store_options.memoryBudgetBytes =
            options_.storeMemoryBudgetBytes;
        // A store that fails validation (corrupt segment, wrong
        // microarchitecture) refuses to open, and so does the daemon:
        // serving against half a store would be quiet data loss.
        store_ = std::make_unique<store::Database>(
            store::Database::openStore(store_options));
    }
    if (options_.startBatcher)
        batcher_.emplace([this] { batcherLoop(); });
}

Server::~Server()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    batchWake_.notify_all();
    if (batcher_ && batcher_->joinable())
        batcher_->join();
}

util::TraceClock &
Server::clock()
{
    return options_.clock != nullptr ? *options_.clock : steadyClock_;
}

Deadline
Server::makeDeadline(double request_deadline_ms)
{
    const double budget = request_deadline_ms > 0.0
                              ? request_deadline_ms
                              : options_.defaultDeadlineMs;
    if (budget <= 0.0)
        return Deadline::unlimited();
    return Deadline::after(clock(), budget);
}

util::Status
Server::loadModel(const std::string &name, const std::string &path)
{
    auto loaded = core::loadMapmArtifact(path);
    // The artifact loaders name the path in every error.
    if (!loaded.ok())
        return loaded.status().withContext("serve: load model");
    auto artifact = std::move(loaded).value();
    registerModel(name.empty() ? artifact.benchmark : name,
                  std::move(artifact));
    return util::Status::okStatus();
}

void
Server::registerModel(const std::string &name, core::MapmArtifact artifact)
{
    auto shared = std::make_shared<const core::MapmArtifact>(
        std::move(artifact));
    std::lock_guard<std::mutex> lock(modelsMutex_);
    models_[name] = std::move(shared);
}

std::vector<std::string>
Server::modelNames() const
{
    std::vector<std::string> names;
    {
        std::lock_guard<std::mutex> lock(modelsMutex_);
        names.reserve(models_.size());
        for (const auto &[name, artifact] : models_)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

util::Status
Server::loadScorer(const std::string &name,
                   const std::string &model_path,
                   const std::string &cluster_path)
{
    auto loaded_model = core::loadMapmArtifact(model_path);
    // The artifact loaders name the path in every error.
    if (!loaded_model.ok())
        return loaded_model.status().withContext("serve: load scorer");
    auto loaded_clusters = mining::loadClusterArtifact(cluster_path);
    if (!loaded_clusters.ok())
        return loaded_clusters.status().withContext("serve: load scorer");
    auto clusters = std::move(loaded_clusters).value();
    if (clusters.residualZThreshold <= 0.0)
        return util::Status::dataError(
                   "cluster artifact is uncalibrated (run cminer "
                   "cluster with --model to learn thresholds)")
            .withContext("serve: load scorer " + cluster_path);
    const std::string key =
        name.empty() ? clusters.benchmark : name;
    if (key.empty())
        return util::Status::dataError(
            "scorer has no name: the cluster artifact is store-wide "
            "and no explicit name was given");
    auto model = std::make_shared<const core::MapmArtifact>(
        std::move(loaded_model).value());
    registerScorer(key,
                   std::make_shared<const mining::AnomalyScorer>(
                       std::move(model), std::move(clusters)));
    return util::Status::okStatus();
}

void
Server::registerScorer(
    const std::string &name,
    std::shared_ptr<const mining::AnomalyScorer> scorer)
{
    std::lock_guard<std::mutex> lock(modelsMutex_);
    scorers_[name] = std::move(scorer);
}

std::vector<std::string>
Server::scorerNames() const
{
    std::vector<std::string> names;
    {
        std::lock_guard<std::mutex> lock(modelsMutex_);
        names.reserve(scorers_.size());
        for (const auto &[name, scorer] : scorers_)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    return names;
}

void
Server::respond(const std::function<void(std::string)> &done,
                const Response &response)
{
    switch (response.code) {
      case util::StatusCode::Ok:
        if (response.type == MessageType::Predict)
            util::count("serve.requests_ok");
        break;
      case util::StatusCode::DeadlineExceeded:
        util::count("serve.deadline_missed");
        break;
      case util::StatusCode::CapacityError:
        util::count(response.type == MessageType::Mine
                        ? "serve.mines_refused"
                        : "serve.requests_shed");
        break;
      default:
        util::count("serve.requests_failed");
        break;
    }
    done(encodeResponse(response));
}

void
Server::respondFailure(const std::function<void(std::string)> &done,
                       MessageType type, std::uint64_t id,
                       const util::Status &status)
{
    respond(done, Response::failure(type, id, status));
}

void
Server::submitFrame(std::string payload,
                    std::function<void(std::string)> done)
{
    auto decoded = decodeRequest(std::move(payload));
    if (!decoded.ok()) {
        util::count("serve.decode_errors");
        // The id is unrecoverable from a frame that failed to decode;
        // the client matches this response by its Unknown type.
        respondFailure(done, MessageType::Unknown, 0, decoded.status());
        return;
    }
    util::count("serve.frames_decoded");

    auto request = std::move(decoded).value();
    if (auto *predict = std::get_if<PredictRequest>(&request)) {
        handlePredict(std::move(*predict), std::move(done));
    } else if (auto *mine = std::get_if<MineRequest>(&request)) {
        handleMine(std::move(*mine), std::move(done));
    } else if (auto *stats = std::get_if<StatsRequest>(&request)) {
        handleStats(*stats, done);
    } else if (auto *score = std::get_if<ScoreRequest>(&request)) {
        handleScore(*score, done);
    } else {
        const auto &shutdown = std::get<ShutdownRequest>(request);
        beginDrain();
        Response ok;
        ok.type = MessageType::Shutdown;
        ok.id = shutdown.id;
        respond(done, ok);
    }
}

void
Server::handlePredict(PredictRequest request,
                      std::function<void(std::string)> done)
{
    util::Span span("serve.admit");
    span.number("rows", static_cast<double>(request.rowCount));

    const Deadline deadline = makeDeadline(request.deadlineMs);
    if (auto gate = deadline.check("admit"); !gate.ok()) {
        respondFailure(done, MessageType::Predict, request.id, gate);
        return;
    }

    std::shared_ptr<const core::MapmArtifact> artifact;
    {
        std::lock_guard<std::mutex> lock(modelsMutex_);
        auto it = models_.find(request.model);
        if (it != models_.end())
            artifact = it->second;
    }
    if (artifact == nullptr) {
        respondFailure(done, MessageType::Predict, request.id,
                       util::Status::dataError(
                           "unknown model '" + request.model + "'"));
        return;
    }
    // The batcher coalesces rows from many requests into one columnar
    // block, which is only sound when every request's columns are the
    // model's kept-event list exactly — names and order.
    if (request.events != artifact->events) {
        respondFailure(
            done, MessageType::Predict, request.id,
            util::Status::dataError(util::format(
                "event list mismatch for model '%s': expected the "
                "artifact's %zu kept events in model order, got %zu "
                "columns",
                request.model.c_str(), artifact->events.size(),
                request.events.size())));
        return;
    }

    const std::uint64_t id = request.id;
    bool admitted = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!draining_ && queue_.size() < options_.queueCap) {
            PendingPredict pending;
            pending.request = std::move(request);
            pending.artifact = std::move(artifact);
            pending.deadline = deadline;
            pending.done = std::move(done);
            pending.admittedMs = clock().nowMs();
            queue_.push_back(std::move(pending));
            ++outstanding_;
            admitted = true;
            util::gaugeSet("serve.queue_depth",
                           static_cast<double>(queue_.size()));
        }
    }
    if (admitted) {
        util::count("serve.requests_admitted");
        batchWake_.notify_all();
        return;
    }
    if (draining()) {
        // Shutdown semantics: admitted work finishes, new work is
        // turned away with a retriable error, not silently dropped.
        respondFailure(done, MessageType::Predict, id,
                       util::Status::transient(
                           "server is draining; predict refused"));
        return;
    }
    // Shed, never block: the admission queue is full and the accept
    // loop must stay responsive, so the request is rejected now.
    respondFailure(done, MessageType::Predict, id,
                   util::Status::capacityError(util::format(
                       "admission queue full (cap %zu); request shed",
                       options_.queueCap)));
}

void
Server::handleMine(MineRequest request,
                   std::function<void(std::string)> done)
{
    if (draining()) {
        respondFailure(done, MessageType::Mine, request.id,
                       util::Status::capacityError(
                           "server is draining; mining refused"));
        return;
    }
    {
        // Degradation ordering: mining is the expensive, deferrable
        // workload, so it is refused while predict capacity remains.
        std::lock_guard<std::mutex> lock(mutex_);
        if (underPressureLocked()) {
            respondFailure(
                done, MessageType::Mine, request.id,
                util::Status::capacityError(util::format(
                    "predict backlog at %zu of %zu; mining refused "
                    "under load",
                    queue_.size(), options_.queueCap)));
            return;
        }
        ++outstanding_;
    }

    const Deadline deadline = makeDeadline(request.deadlineMs);
    const std::uint64_t id = request.id;
    // Shared so the refusal path below can still respond after the
    // task lambda (and its captured copy) died inside a shed
    // trySubmit.
    auto done_shared =
        std::make_shared<std::function<void(std::string)>>(
            std::move(done));
    auto task = [this, request = std::move(request), deadline,
                 done_shared] {
        runMine(request, deadline, *done_shared);
        std::lock_guard<std::mutex> lock(mutex_);
        --outstanding_;
        drained_.notify_all();
    };
    auto submitted =
        minePool_.trySubmit(std::move(task), options_.mineQueueCap);
    if (!submitted.has_value()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --outstanding_;
        }
        drained_.notify_all();
        respondFailure(*done_shared, MessageType::Mine, id,
                       util::Status::capacityError(util::format(
                           "mining queue full (cap %zu); job refused",
                           options_.mineQueueCap)));
    }
}

void
Server::runMine(const MineRequest &request, const Deadline &deadline,
                const std::function<void(std::string)> &done)
{
    util::Span span("serve.mine");
    span.label("benchmark", request.benchmark);

    if (auto gate = deadline.check("mine start"); !gate.ok()) {
        respondFailure(done, MessageType::Mine, request.id, gate);
        return;
    }
    const auto &suite = workload::BenchmarkSuite::instance();
    if (!suite.has(request.benchmark)) {
        respondFailure(done, MessageType::Mine, request.id,
                       util::Status::dataError("unknown benchmark '" +
                                               request.benchmark + "'"));
        return;
    }

    try {
        core::ProfileOptions options;
        options.backend = options_.backend;
        options.mlpxRuns = std::max<std::uint64_t>(1, request.runs);
        options.importance.minEvents = request.minEvents;
        // Tie the request deadline into the collection layer: retries
        // stop once the remaining budget is spent instead of backing
        // off past the point anyone cares about the answer.
        if (!deadline.isUnlimited())
            options.retry.deadlineMs =
                std::max(0.0, deadline.remainingMs());

        // With --store-dir the daemon mines into its persistent
        // segment-backed store: runs accumulate durably across
        // requests while this job's dataset reads pin the snapshot
        // they were built against. Without it, a per-request database
        // with no directory.
        store::Database local("haswell-e");
        store::Database &db = store_ != nullptr ? *store_ : local;
        core::CounterMiner miner(db, pmu::EventCatalog::instance(),
                                 options);
        util::Rng rng(request.seed);
        auto report = miner.profile(suite.byName(request.benchmark), rng);

        if (auto gate = deadline.check("mine finish"); !gate.ok()) {
            respondFailure(done, MessageType::Mine, request.id, gate);
            return;
        }

        core::MapmArtifact artifact;
        artifact.benchmark = report.benchmark;
        artifact.microarch = db.microarch();
        artifact.events = report.importance.mapmFeatures;
        artifact.ranking = report.importance.ranking;
        artifact.cvErrorPercent = report.importance.mapmErrorPercent;
        artifact.model = std::move(report.mapmModel);
        const std::string name = request.modelName.empty()
                                     ? report.benchmark
                                     : request.modelName;
        const std::size_t kept = artifact.events.size();
        const double error = artifact.cvErrorPercent;
        registerModel(name, std::move(artifact));

        if (store_ != nullptr) {
            // Durability barrier: this job's runs are sealed into a
            // segment before the success response goes out. A failed
            // seal keeps them buffered and readable; it warns rather
            // than failing a mine that already produced its model.
            const util::Status flushed = store_->tryFlush();
            if (!flushed.ok())
                util::warn("serve: store flush failed: " +
                           flushed.message());
        }

        util::count("serve.mines_completed");
        Response ok;
        ok.type = MessageType::Mine;
        ok.id = request.id;
        ok.text = util::format(
            "mined %s: MAPM with %zu events, cv error %.2f%%; serving "
            "as '%s'",
            request.benchmark.c_str(), kept, error, name.c_str());
        respond(done, ok);
    } catch (const std::exception &e) {
        // Mining failures (bad options, degradation bounds) must come
        // back as a response, never escape onto the worker thread.
        respondFailure(done, MessageType::Mine, request.id,
                       util::Status::dataError(
                           std::string("mining failed: ") + e.what()));
    }
}

void
Server::handleStats(const StatsRequest &request,
                    const std::function<void(std::string)> &done)
{
    Response ok;
    ok.type = MessageType::Stats;
    ok.id = request.id;
    ok.text = statsJson();
    respond(done, ok);
}

void
Server::handleScore(const ScoreRequest &request,
                    const std::function<void(std::string)> &done)
{
    util::Span span("serve.score");
    span.label("scorer", request.scorer);
    span.number("rows", static_cast<double>(request.rowCount));

    const Deadline deadline = makeDeadline(request.deadlineMs);
    if (auto gate = deadline.check("score admit"); !gate.ok()) {
        respondFailure(done, MessageType::Score, request.id, gate);
        return;
    }
    if (draining()) {
        respondFailure(done, MessageType::Score, request.id,
                       util::Status::transient(
                           "server is draining; score refused"));
        return;
    }

    std::shared_ptr<const mining::AnomalyScorer> scorer;
    {
        std::lock_guard<std::mutex> lock(modelsMutex_);
        auto it = scorers_.find(request.scorer);
        if (it != scorers_.end())
            scorer = it->second;
    }
    if (scorer == nullptr) {
        respondFailure(done, MessageType::Score, request.id,
                       util::Status::dataError("unknown scorer '" +
                                               request.scorer + "'"));
        return;
    }
    if (request.events != scorer->model().events) {
        respondFailure(
            done, MessageType::Score, request.id,
            util::Status::dataError(util::format(
                "event list mismatch for scorer '%s': expected the "
                "MAPM's %zu kept events in model order, got %zu "
                "columns",
                request.scorer.c_str(), scorer->model().events.size(),
                request.events.size())));
        return;
    }

    auto scored = scorer->score(request.values, request.rowCount,
                                request.measured);
    if (!scored.ok()) {
        respondFailure(done, MessageType::Score, request.id,
                       scored.status());
        return;
    }
    const mining::ScoreResult &verdict = scored.value();
    if (auto gate = deadline.check("score respond"); !gate.ok()) {
        respondFailure(done, MessageType::Score, request.id, gate);
        return;
    }

    util::count("serve.scores");
    if (verdict.anomalous)
        util::count("serve.anomalies_flagged");

    Response ok;
    ok.type = MessageType::Score;
    ok.id = request.id;
    ok.anomalous = verdict.anomalous;
    ok.residualZ = verdict.residualZ;
    ok.signatureDistance = verdict.signatureDistance;
    ok.familyIndex = verdict.familyIndex;
    ok.text = util::format(
        "%s: residual z %.3f%s, signature distance %.4f%s (family "
        "%zu)",
        verdict.anomalous ? "ANOMALOUS" : "ok", verdict.residualZ,
        verdict.residualFlag ? " [flagged]" : "",
        verdict.signatureDistance,
        verdict.signatureFlag ? " [flagged]" : "",
        verdict.familyIndex);
    respond(done, ok);
}

bool
Server::underPressureLocked() const
{
    return queue_.size() * 2 >= options_.queueCap;
}

std::size_t
Server::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

bool
Server::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

void
Server::beginDrain()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        draining_ = true;
    }
    batchWake_.notify_all();
}

void
Server::drain()
{
    beginDrain();
    if (!batcher_.has_value()) {
        // Manual mode: nothing else will pump the queue.
        while (runBatchOnce() > 0) {
        }
    }
    std::unique_lock<std::mutex> lock(mutex_);
    drained_.wait(lock, [this] {
        return queue_.empty() && outstanding_ == 0;
    });
}

std::string
Server::statsJson() const
{
    // The server's own state first, then the registry's document: the
    // two locks are never held together here, while the queue gauge
    // takes them nested (server, then registry).
    util::JsonWriter json;
    json.beginObject();
    json.key("serve");
    json.beginObject();
    json.key("draining");
    json.value(draining());
    json.key("models");
    json.beginArray();
    for (const auto &name : modelNames())
        json.value(name);
    json.endArray();
    json.key("scorers");
    json.beginArray();
    for (const auto &name : scorerNames())
        json.value(name);
    json.endArray();
    if (store_ != nullptr) {
        const store::StoreStats s = store_->storeStats();
        json.key("store");
        json.beginObject();
        json.key("runs");
        json.value(store_->runCount());
        json.key("segments");
        json.value(s.segmentCount);
        json.key("bufferedRuns");
        json.value(s.bufferedRuns);
        json.key("bufferedBytes");
        json.value(s.bufferedBytes);
        json.key("segmentFileBytes");
        json.value(static_cast<std::size_t>(s.segmentFileBytes));
        json.key("seals");
        json.value(static_cast<std::size_t>(s.seals));
        json.key("compactions");
        json.value(static_cast<std::size_t>(s.compactions));
        json.endObject();
    }
    json.endObject();
    json.key("metrics");
    const util::MetricsAccess metrics;
    if (metrics)
        metrics.get()->writeJson(json);
    else
        util::MetricsRegistry().writeJson(json);
    json.endObject();
    return json.str();
}

std::vector<Server::PendingPredict>
Server::takeBatchLocked()
{
    std::vector<PendingPredict> batch;
    std::deque<PendingPredict> rest;
    // Group by artifact identity, not model name: each request was
    // validated (event list, value layout) against the artifact
    // snapshot taken at its own admission, and a mine job can swap the
    // artifact under the same name while requests sit queued. Batching
    // across snapshots would index rows with the wrong column count.
    const std::shared_ptr<const core::MapmArtifact> artifact =
        queue_.front().artifact;
    std::size_t rows = 0;
    for (auto &pending : queue_) {
        if (pending.artifact == artifact &&
            (batch.empty() || rows < options_.maxBatchRows)) {
            rows += pending.request.rowCount;
            batch.push_back(std::move(pending));
        } else {
            rest.push_back(std::move(pending));
        }
    }
    queue_ = std::move(rest);
    util::gaugeSet("serve.queue_depth",
                   static_cast<double>(queue_.size()));
    return batch;
}

std::size_t
Server::runBatchOnce()
{
    std::vector<PendingPredict> batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (queue_.empty())
            return 0;
        batch = takeBatchLocked();
    }
    return processBatch(std::move(batch));
}

std::size_t
Server::processBatch(std::vector<PendingPredict> batch)
{
    util::Span span("serve.batch");
    span.number("requests", static_cast<double>(batch.size()));

    // Stage gate: a request whose budget expired while queued is
    // answered DeadlineExceeded here, before it costs batch capacity.
    std::vector<PendingPredict> live;
    live.reserve(batch.size());
    for (auto &pending : batch) {
        auto gate = pending.deadline.check("dequeue");
        if (!gate.ok())
            respondFailure(pending.done, MessageType::Predict,
                           pending.request.id, gate);
        else
            live.push_back(std::move(pending));
    }

    if (!live.empty()) {
        const auto &artifact = *live.front().artifact;
        const std::size_t event_count = artifact.events.size();
        std::size_t total_rows = 0;
        for (const auto &pending : live)
            total_rows += pending.request.rowCount;
        span.number("rows", static_cast<double>(total_rows));

        try {
            // One walk for the whole group, fed in place: batch row i
            // is a row of some request's row-major matrix, and the walk
            // reads it there. predictAll is per-row independent and
            // deterministic for any thread count, so slicing the block
            // back per request returns bitwise the same values a lone
            // request, or the predict CLI's columnar path, would get.
            std::vector<const double *> rows;
            rows.reserve(total_rows);
            for (const auto &pending : live)
                for (std::size_t row = 0; row < pending.request.rowCount;
                     ++row)
                    rows.push_back(pending.request.values.data() +
                                   row * event_count);
            std::vector<double> predictions(total_rows);
            artifact.model.predictAll(
                total_rows, event_count,
                [&](std::size_t feature, std::size_t row) {
                    return rows[row][feature];
                },
                predictions);

            std::size_t offset = 0;
            for (auto &pending : live) {
                const auto &r = pending.request;
                // Last gate: the work is done, but a blown budget
                // still reports DeadlineExceeded — a late success is
                // indistinguishable from a stale one to the caller.
                auto gate = pending.deadline.check("respond");
                if (!gate.ok()) {
                    respondFailure(pending.done, MessageType::Predict,
                                   r.id, gate);
                    pending.done = nullptr;
                } else {
                    Response ok;
                    ok.type = MessageType::Predict;
                    ok.id = r.id;
                    ok.predictions.assign(
                        predictions.begin() +
                            static_cast<std::ptrdiff_t>(offset),
                        predictions.begin() +
                            static_cast<std::ptrdiff_t>(offset +
                                                        r.rowCount));
                    util::recordDuration(
                        "serve.latency_ms",
                        clock().nowMs() - pending.admittedMs);
                    respond(pending.done, ok);
                    pending.done = nullptr;
                }
                offset += r.rowCount;
            }

            util::count("serve.batches");
            util::count("serve.rows_scored", total_rows);
        } catch (const std::exception &e) {
            // Scoring must never take the daemon down; every request
            // in the doomed batch still gets its response — but only
            // one. Requests already answered above cleared their done
            // callback, so an exception escaping mid-loop cannot
            // re-respond to them (a second done() would double-count
            // the connection's in-flight drain).
            for (auto &pending : live)
                if (pending.done)
                    respondFailure(
                        pending.done, MessageType::Predict,
                        pending.request.id,
                        util::Status::dataError(
                            std::string("batch scoring failed: ") +
                            e.what()));
        }
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        outstanding_ -= batch.size();
    }
    drained_.notify_all();
    return batch.size();
}

void
Server::batcherLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            batchWake_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping, and nothing left to answer
        }
        runBatchOnce();
    }
}

} // namespace cminer::serve
