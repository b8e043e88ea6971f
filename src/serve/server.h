/**
 * @file
 * The `cminer serve` core: a long-lived, deadline-aware,
 * overload-shedding mining/serving daemon (DESIGN.md §14).
 *
 * Transport-agnostic by construction: the server consumes decoded
 * request frames through submitFrame() and delivers encoded response
 * frames through a completion callback, so the same core sits behind
 * pipe mode (deterministic tests drive it with in-memory frames) and
 * the AF_UNIX listener.
 *
 * Robustness posture, in priority order:
 *  1. **Never block admission.** Predict requests land in a bounded
 *     queue; when it is full they are shed *immediately* with a
 *     CapacityError response — the accept loop never waits on the
 *     pipeline. Mining jobs go through ThreadPool::trySubmit with
 *     their own small bound.
 *  2. **Deadlines are enforced at every stage.** Each request carries
 *     a Deadline handle (client budget, else the server default)
 *     checked at admission, at dequeue, and before the response is
 *     written; a blown budget yields DeadlineExceeded, never a stale
 *     success.
 *  3. **Degrade before failing.** Under queue pressure mining
 *     requests are refused while predict capacity remains; predicts
 *     are shed only once the admission queue is full.
 *  4. **Drain cleanly.** A shutdown request (or drain()) stops
 *     admissions, finishes every admitted request, and waits for the
 *     mining worker to go idle; nothing admitted is dropped.
 *
 * Batching is greedy: the batcher never waits for a batch to fill.
 * Whenever it is free and predicts are queued, it takes the queued
 * rows for one artifact snapshot (up to maxBatchRows) and scores them
 * in one Gbrt::predictAll walk on the shared thread pool, which reads
 * each row where it sits, in its request's row-major matrix.
 * Requests that arrive while a batch runs form the next one, so
 * batches grow with load while an idle daemon answers at once.
 * Gbrt::predictAll is per-row independent and deterministic for any
 * thread count, so batch composition can never change a prediction —
 * the property the byte-identity acceptance test pins down.
 */

#ifndef CMINER_SERVE_SERVER_H
#define CMINER_SERVE_SERVER_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/checkpoint.h"
#include "mining/anomaly.h"
#include "pmu/backend.h"
#include "serve/deadline.h"
#include "store/database.h"
#include "serve/protocol.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cminer::serve {

/** Serving configuration. */
struct ServerOptions
{
    /**
     * Admission queue bound: predict requests waiting to be batched.
     * Requests arriving when the queue is full are shed with a
     * CapacityError — the robustness contract of the daemon.
     */
    std::size_t queueCap = 64;
    /** Row budget per columnar scoring batch. */
    std::size_t maxBatchRows = 256;
    /**
     * Deadline applied to requests that carry none, in ms. 0 = no
     * default (such requests never expire).
     */
    double defaultDeadlineMs = 0.0;
    /** Bound on mining jobs waiting behind the in-flight one. */
    std::size_t mineQueueCap = 1;
    /**
     * Spawn the background batcher thread. Tests set this false and
     * pump the pipeline by hand with runBatchOnce(), which together
     * with an injected ManualClock makes every schedule and deadline
     * decision deterministic.
     */
    bool startBatcher = true;
    /**
     * Time source for deadlines and latency accounting; null uses an
     * internal steady clock. Injected by tests (ManualClock).
     */
    cminer::util::TraceClock *clock = nullptr;
    /**
     * Directory of the persistent run store (--store-dir). When set,
     * the daemon mines into one directory-backed database: collected
     * runs survive across mine requests and restarts, and resident
     * memory follows storeMemoryBudgetBytes rather than the
     * accumulated data. Empty mines each request into its own
     * database with no directory.
     */
    std::string storeDir;
    /** Memory budget handed to the segment store (--memory-budget-mb). */
    std::size_t storeMemoryBudgetBytes = 64ull << 20;
    /**
     * Collection backend for mine requests (--backend). Perf is probed
     * per mining job and falls back to sim with a logged reason, so a
     * daemon started with --backend=perf keeps serving on hosts where
     * counter access later disappears.
     */
    cminer::pmu::BackendKind backend = cminer::pmu::BackendKind::Sim;
};

/**
 * The serving daemon core. Thread-safe: submitFrame may be called from
 * any number of connection threads; responses are delivered through
 * the per-request callback from whichever thread finished the work
 * (the caller for shed/stats/errors, the batcher for predicts, the
 * mining worker for mines). Every submitted frame gets exactly one
 * response.
 *
 * Every serve event is counted once, in the installed metrics
 * registry (`serve.*`, util/metrics.h); the server keeps no counts of
 * its own. With no registry installed each count is one pointer load.
 */
class Server
{
  public:
    explicit Server(ServerOptions options = {});

    /** Drains admitted work, then joins the batcher and mine worker. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Options in effect. */
    const ServerOptions &options() const { return options_; }

    /**
     * Load a MAPM checkpoint and register it under `name` (empty =
     * the artifact's benchmark). Models load once, up front — the
     * request path never touches disk.
     */
    cminer::util::Status loadModel(const std::string &name,
                                   const std::string &path);

    /** Register an in-memory artifact under `name`. */
    void registerModel(const std::string &name,
                       core::MapmArtifact artifact);

    /** Registered model names, sorted. */
    std::vector<std::string> modelNames() const;

    /**
     * Load a MAPM checkpoint plus a calibrated cluster artifact and
     * register the pair as an anomaly scorer under `name` (empty =
     * the cluster artifact's benchmark). An uncalibrated cluster
     * artifact is refused — scoring against unlearned thresholds
     * would flag everything or nothing.
     */
    cminer::util::Status loadScorer(const std::string &name,
                                    const std::string &model_path,
                                    const std::string &cluster_path);

    /** Register an in-memory scorer under `name`. */
    void
    registerScorer(const std::string &name,
                   std::shared_ptr<const mining::AnomalyScorer> scorer);

    /** Registered scorer names, sorted. */
    std::vector<std::string> scorerNames() const;

    /**
     * Submit one raw request payload. `done` is invoked exactly once
     * with the encoded response payload — possibly before submitFrame
     * returns (decode errors, shed requests, stats) or later from a
     * worker thread. Never blocks on the pipeline.
     */
    void submitFrame(std::string payload,
                     std::function<void(std::string)> done);

    /**
     * Run one batching round over the current queue. The batcher
     * thread runs exactly this on each wakeup; with
     * startBatcher=false it is the manual pump.
     * @return requests responded to in this round
     */
    std::size_t runBatchOnce();

    /** Predict requests currently queued. */
    std::size_t queueDepth() const;

    /** True once a drain began (shutdown frame or beginDrain). */
    bool draining() const;

    /** Stop admitting; already-admitted work still completes. */
    void beginDrain();

    /**
     * beginDrain, then block until every admitted request has been
     * responded to and the mining worker is idle. With no batcher
     * thread the caller's thread pumps the remaining queue itself.
     */
    void drain();

    /**
     * The stats dashboard as one JSON object: {"serve": {"draining",
     * "models", "scorers", "store"}, "metrics": the installed
     * registry's document (MetricsRegistry::toJson; empty sections
     * when none is installed)}.
     */
    std::string statsJson() const;

  private:
    /** One admitted predict request waiting to be batched. */
    struct PendingPredict
    {
        PredictRequest request;
        std::shared_ptr<const core::MapmArtifact> artifact;
        Deadline deadline;
        std::function<void(std::string)> done;
        /** Clock time at admission, for latency accounting. */
        double admittedMs = 0.0;
    };

    cminer::util::TraceClock &clock();

    /** Build the Deadline for a request-supplied budget. */
    Deadline makeDeadline(double request_deadline_ms);

    void handlePredict(PredictRequest request,
                       std::function<void(std::string)> done);
    void handleMine(MineRequest request,
                    std::function<void(std::string)> done);
    void handleStats(const StatsRequest &request,
                     const std::function<void(std::string)> &done);
    /**
     * Score one run synchronously on the submitting thread: a score
     * is a single-run, sub-millisecond judgment (one predictAll pass
     * plus one pruned medoid search), so it bypasses the batcher the
     * way stats does rather than competing for predict capacity.
     */
    void handleScore(const ScoreRequest &request,
                     const std::function<void(std::string)> &done);

    /** Encode, count, and deliver one response. */
    void respond(const std::function<void(std::string)> &done,
                 const Response &response);

    /** Shorthand for respond(failure(...)). */
    void respondFailure(const std::function<void(std::string)> &done,
                        MessageType type, std::uint64_t id,
                        const cminer::util::Status &status);

    /** The mining job body; runs on the mine worker. */
    void runMine(const MineRequest &request, const Deadline &deadline,
                 const std::function<void(std::string)> &done);

    void batcherLoop();

    /**
     * Pop one same-model group (up to maxBatchRows rows) off the
     * queue. Called with mutex_ held; returns the group.
     */
    std::vector<PendingPredict> takeBatchLocked();

    /** Score and respond to one group (no locks held). */
    std::size_t processBatch(std::vector<PendingPredict> batch);

    /**
     * True at half queue occupancy or more: the mining lane refuses
     * new jobs (handleMine) so predicts keep their capacity.
     */
    bool underPressureLocked() const;

    ServerOptions options_;
    cminer::util::SteadyClock steadyClock_;

    mutable std::mutex modelsMutex_;
    std::unordered_map<std::string,
                       std::shared_ptr<const core::MapmArtifact>>
        models_;
    /** Anomaly scorers, guarded by modelsMutex_ like models_. */
    std::unordered_map<std::string,
                       std::shared_ptr<const mining::AnomalyScorer>>
        scorers_;

    /**
     * Guards the queue and drain state. The queue gauge is set while
     * it is held, so the lock order is mutex_, then the registry's.
     */
    mutable std::mutex mutex_;
    std::deque<PendingPredict> queue_;
    std::condition_variable batchWake_;
    std::condition_variable drained_;
    /** Admitted-but-unanswered requests + in-flight mines. */
    std::size_t outstanding_ = 0;
    bool draining_ = false;
    /** Set by the destructor: batcher exits once the queue is empty. */
    bool stopping_ = false;

    /** One worker: mining is serialized, bounded by mineQueueCap. */
    cminer::util::ThreadPool minePool_;
    std::optional<std::thread> batcher_;

    /**
     * Persistent directory-backed run store (storeDir). Only the mine
     * worker mutates it (single-writer); any reads concurrent with
     * mining go through pinned snapshots, mirroring the batcher's
     * artifact-snapshot rule.
     */
    std::unique_ptr<cminer::store::Database> store_;
};

} // namespace cminer::serve

#endif // CMINER_SERVE_SERVER_H
