#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include "util/error.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace cminer::util {

namespace {

/**
 * Wrap a task with per-task metrics (queue wait + run time + count)
 * when a metrics registry is installed at enqueue time. Returns the
 * task untouched when metrics are off, so the disabled path adds one
 * atomic load per enqueue and nothing per element.
 *
 * At execution time the registry is re-resolved through MetricsAccess:
 * parallelFor returns once every *chunk* is done, not every helper
 * task, so a drained helper (or the helper that ran the final chunk
 * and woke the caller) can still be in this wrapper after the owner
 * uninstalls and destroys the registry. The access pin makes that
 * safe — setGlobalMetrics waits for it — and a task that drains after
 * uninstall simply runs unrecorded. The pin is never held across
 * task() itself, so uninstalling never blocks on a long task.
 */
std::function<void()>
instrumentTask(std::function<void()> task)
{
    MetricsRegistry *metrics = globalMetrics();
    if (metrics == nullptr)
        return task;
    const double enqueued_ms = metrics->nowMs();
    return [task = std::move(task), enqueued_ms] {
        double start_ms = 0.0;
        bool recorded = false;
        {
            MetricsAccess access;
            if (MetricsRegistry *m = access.get()) {
                start_ms = m->nowMs();
                m->counter("threadpool.tasks").add(1);
                m->histogram("threadpool.queue_wait_ms")
                    .record(start_ms - enqueued_ms);
                recorded = true;
            }
        }
        task();
        if (recorded) {
            MetricsAccess access;
            if (MetricsRegistry *m = access.get())
                m->histogram("threadpool.run_ms")
                    .record(m->nowMs() - start_ms);
        }
    };
}

/** Set while the current thread is executing inside a pool worker. */
thread_local bool inside_worker = false;

/** Explicit override from Parallelism::setThreadCount; 0 = automatic. */
std::atomic<std::size_t> thread_override{0};

/**
 * CMINER_THREADS as a thread count; 0 when unset or rejected. Only an
 * integer in [1, max_threads] is accepted, the rule `--threads`
 * enforces. A rejected value is warned about once (until the variable
 * changes) and falls through to the hardware count.
 */
std::size_t
envThreadCount()
{
    const char *env = std::getenv("CMINER_THREADS");
    if (env == nullptr || *env == '\0')
        return 0;
    const std::string_view text(env);
    std::size_t parsed = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), parsed);
    if (ec == std::errc() && end == text.data() + text.size() &&
        parsed >= 1 && parsed <= Parallelism::max_threads)
        return parsed;

    static std::mutex warned_mutex;
    static std::string warned;
    std::lock_guard<std::mutex> lock(warned_mutex);
    if (text != warned) {
        warned = text;
        warn("CMINER_THREADS='" + warned + "' is not a count in [1, " +
             std::to_string(Parallelism::max_threads) +
             "]; using the hardware thread count");
    }
    return 0;
}

} // namespace

std::size_t
Parallelism::threadCount()
{
    const std::size_t override = thread_override.load();
    if (override > 0)
        return override;
    const std::size_t env = envThreadCount();
    if (env > 0)
        return env;
    const std::size_t hardware = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hardware, 1, max_threads);
}

void
Parallelism::setThreadCount(std::size_t count)
{
    CM_ASSERT(count <= max_threads);
    thread_override.store(count);
}

ThreadPool::ThreadPool(std::size_t workers)
{
    workers_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    inside_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) // stopping_ and drained
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    CM_ASSERT(task != nullptr);
    auto packaged = std::make_shared<std::packaged_task<void()>>(
        std::move(task));
    std::future<void> future = packaged->get_future();
    if (workers_.empty()) {
        (*packaged)();
        return future;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CM_ASSERT(!stopping_);
        queue_.emplace_back(
            instrumentTask([packaged] { (*packaged)(); }));
    }
    wake_.notify_one();
    return future;
}

std::optional<std::future<void>>
ThreadPool::trySubmit(std::function<void()> task, std::size_t max_queued)
{
    CM_ASSERT(task != nullptr);
    auto packaged = std::make_shared<std::packaged_task<void()>>(
        std::move(task));
    std::future<void> future = packaged->get_future();
    if (workers_.empty()) {
        // No workers: the caller is the pool's only execution resource,
        // exactly like submit(). There is no queue to overflow.
        (*packaged)();
        return future;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CM_ASSERT(!stopping_);
        if (queue_.size() >= max_queued)
            return std::nullopt; // shed: never block the caller
        queue_.emplace_back(
            instrumentTask([packaged] { (*packaged)(); }));
    }
    wake_.notify_one();
    return future;
}

std::size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

void
ThreadPool::parallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)> &fn)
{
    CM_ASSERT(grain >= 1);
    if (begin >= end)
        return;
    const std::size_t count = end - begin;
    const std::size_t chunks = (count + grain - 1) / grain;

    // Serial path: identical chunk boundaries, plain loop, no pool.
    // Also taken for nested calls (a worker running fn calls
    // parallelFor again): serializing is always safe and deadlock-free.
    if (chunks == 1 || workers_.empty() || insideWorker()) {
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t lo = begin + c * grain;
            fn(lo, std::min(lo + grain, end));
        }
        return;
    }

    // Shared loop state. Chunk boundaries depend only on (begin, end,
    // grain); the cursor only decides which thread runs which chunk.
    struct Loop
    {
        std::atomic<std::size_t> cursor{0};
        std::atomic<std::size_t> finished{0};
        /** Queued helper tasks that have fully completed. */
        std::atomic<std::size_t> helpersDone{0};
        /** Lowest chunk index that threw; SIZE_MAX while none has. */
        std::atomic<std::size_t> errorChunk{SIZE_MAX};
        std::exception_ptr error;
        std::mutex mutex;
        std::condition_variable done;
    };
    auto loop = std::make_shared<Loop>();

    // Exception propagation is deterministic: the rethrown exception is
    // always the one from the *lowest-index* throwing chunk, for any
    // thread count or claim order. A chunk is skipped only when a
    // lower-index chunk has already failed — so every chunk below the
    // final errorChunk provably ran clean, and a chunk above it can
    // never replace the recorded exception.
    auto runner = [loop, begin, end, grain, chunks, &fn] {
        std::size_t c;
        while ((c = loop->cursor.fetch_add(1)) < chunks) {
            if (c < loop->errorChunk.load()) {
                try {
                    const std::size_t lo = begin + c * grain;
                    fn(lo, std::min(lo + grain, end));
                } catch (...) {
                    std::lock_guard<std::mutex> lock(loop->mutex);
                    if (c < loop->errorChunk.load()) {
                        loop->error = std::current_exception();
                        loop->errorChunk.store(c);
                    }
                }
            }
            if (loop->finished.fetch_add(1) + 1 == chunks) {
                std::lock_guard<std::mutex> lock(loop->mutex);
                loop->done.notify_all();
            }
        }
    };

    // Helpers claim chunks from the shared cursor; the caller is one of
    // them, so the pool never waits on an idle caller. Each queued
    // helper signals completion of its whole task — including any
    // metrics instrumentation around the runner — so the join below is
    // a true fork-join: nothing enqueued here outlives this call. That
    // keeps the by-reference fn capture sound and makes per-task
    // counters reconcile exactly the moment parallelFor returns.
    const std::size_t helpers = std::min(workerCount(), chunks - 1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CM_ASSERT(!stopping_);
        for (std::size_t h = 0; h < helpers; ++h) {
            queue_.emplace_back(
                [loop, helper = instrumentTask(runner)] {
                    helper();
                    // Notify while holding the mutex: the caller can
                    // only leave its wait through this mutex, so the
                    // Loop (condvar included) cannot be destroyed
                    // while the notify is still in flight.
                    std::lock_guard<std::mutex> done_lock(loop->mutex);
                    loop->helpersDone.fetch_add(1);
                    loop->done.notify_all();
                });
        }
    }
    if (helpers == 1)
        wake_.notify_one();
    else
        wake_.notify_all();

    // The caller's own share is a task too: zero queue wait, same
    // counting, so `threadpool.tasks` covers every pool execution.
    instrumentTask(runner)();

    // Take the exception out under the lock: the last Loop reference
    // may be dropped by a worker, and the exception object must be
    // destroyed on this thread — the caller may still be inspecting
    // the rethrown exception when the worker-side release runs.
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(loop->mutex);
        loop->done.wait(lock, [&loop, chunks, helpers] {
            return loop->finished.load() == chunks &&
                   loop->helpersDone.load() == helpers;
        });
        error = std::move(loop->error);
    }
    loop.reset();
    if (error)
        std::rethrow_exception(error);
}

bool
ThreadPool::insideWorker()
{
    return inside_worker;
}

namespace {

std::mutex global_pool_mutex;
std::unique_ptr<ThreadPool> global_pool;
std::size_t global_pool_workers = 0;

} // namespace

ThreadPool &
globalPool()
{
    const std::size_t wanted = Parallelism::threadCount() - 1;
    std::lock_guard<std::mutex> lock(global_pool_mutex);
    if (!global_pool || global_pool_workers != wanted) {
        global_pool.reset(); // join the old workers before respawning
        global_pool = std::make_unique<ThreadPool>(wanted);
        global_pool_workers = wanted;
    }
    return *global_pool;
}

void
parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
            const std::function<void(std::size_t, std::size_t)> &fn)
{
    // Nested or single-threaded: skip the pool lookup entirely so the
    // serial path stays allocation- and lock-free.
    if (ThreadPool::insideWorker() || Parallelism::threadCount() <= 1) {
        CM_ASSERT(grain >= 1);
        for (std::size_t lo = begin; lo < end; lo += grain)
            fn(lo, std::min(lo + grain, end));
        return;
    }
    globalPool().parallelFor(begin, end, grain, fn);
}

} // namespace cminer::util
