/**
 * @file
 * Deterministic fixed-size thread pool for the mining pipeline.
 *
 * Design goals, in order:
 *  1. **Bit-identical results for any thread count.** parallelFor cuts a
 *     range into chunks whose boundaries depend only on (begin, end,
 *     grain) — never on the thread count or claim order. Callers write
 *     per-element or per-chunk slots and reduce serially in chunk order,
 *     so the floating-point evaluation order is fixed.
 *  2. **An exact serial path.** With an effective thread count of 1 (or
 *     when called from inside a worker — nested parallelism) parallelFor
 *     degenerates to a plain loop in the calling thread: no pool, no
 *     queue, no synchronization.
 *  3. **No work stealing.** Chunks are claimed from a single atomic
 *     cursor; claim order affects scheduling only, never results.
 *
 * The global pool is sized by Parallelism: an explicit setThreadCount
 * override (the CLI's --threads) wins, else the CMINER_THREADS
 * environment variable, else std::thread::hardware_concurrency().
 */

#ifndef CMINER_UTIL_THREAD_POOL_H
#define CMINER_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace cminer::util {

/**
 * Process-wide parallelism configuration.
 *
 * Thread-count resolution order: explicit override > CMINER_THREADS
 * environment variable > hardware_concurrency. CMINER_THREADS must be
 * an integer >= 1, like `--threads`; any other value is warned about
 * and ignored. A count of 1 selects the exact serial path everywhere.
 */
class Parallelism
{
  public:
    /** Effective thread count (>= 1). */
    static std::size_t threadCount();

    /**
     * Override the thread count (0 restores automatic resolution).
     * The global pool is resized lazily on its next use.
     */
    static void setThreadCount(std::size_t count);
};

/**
 * Fixed-size thread pool with a FIFO task queue and a deterministic
 * parallelFor helper.
 */
class ThreadPool
{
  public:
    /**
     * @param workers number of worker threads to spawn (0 allowed: every
     *        task then runs inline in submit/parallelFor callers)
     */
    explicit ThreadPool(std::size_t workers);

    /** Drains the queue and joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t workerCount() const { return workers_.size(); }

    /**
     * Enqueue one task. The returned future carries any exception the
     * task throws.
     *
     * Waiting on the future from inside a worker thread can deadlock
     * (all workers may be blocked on queued work); prefer parallelFor,
     * which runs inline when nested.
     */
    std::future<void> submit(std::function<void()> task);

    /**
     * Bounded, non-blocking submit: enqueue the task only when fewer
     * than `max_queued` tasks are already waiting, else return nullopt
     * *immediately* — the overload-shedding primitive for servers that
     * must never block their accept loop behind a saturated pool
     * (DESIGN.md §14). Never waits on the queue or on workers.
     *
     * With no workers there is no queue to bound; the task runs inline
     * (matching submit) and the returned future is already ready. A
     * `max_queued` of 0 on a worker-backed pool sheds every task.
     */
    std::optional<std::future<void>> trySubmit(std::function<void()> task,
                                               std::size_t max_queued);

    /**
     * Tasks currently waiting in the queue (not yet claimed by a
     * worker). A snapshot: stale the moment it returns; meant for
     * pressure gauges, not synchronization.
     */
    std::size_t queueDepth() const;

    /**
     * Run fn over [begin, end) in chunks of `grain` elements.
     *
     * Chunk k covers [begin + k*grain, min(begin + (k+1)*grain, end));
     * the decomposition depends only on the arguments, never on the
     * thread count. fn(chunk_begin, chunk_end) may run on any thread,
     * concurrently with other chunks; the calling thread participates.
     * Blocks until every chunk has finished. When fn throws, the
     * exception of the *lowest-index* throwing chunk is rethrown in the
     * caller — deterministically, for any thread count or scheduling —
     * and chunks above the failing index are cancelled (claimed but
     * skipped). Chunks below it always run.
     *
     * Runs serially inline when the range fits one chunk, the pool has
     * no workers, or the caller is itself a pool worker (nested
     * parallelism never deadlocks, it just serializes).
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     std::size_t grain,
                     const std::function<void(std::size_t, std::size_t)>
                         &fn);

    /** True when the calling thread is a worker of any ThreadPool. */
    static bool insideWorker();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
};

/**
 * The process-wide pool, sized to Parallelism::threadCount() - 1 workers
 * (the caller of parallelFor is the remaining thread). Rebuilt lazily
 * when the configured thread count changes.
 */
ThreadPool &globalPool();

/**
 * Deterministic parallel loop over [begin, end) on the global pool.
 * See ThreadPool::parallelFor for the contract.
 */
void parallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)> &fn);

} // namespace cminer::util

#endif // CMINER_UTIL_THREAD_POOL_H
