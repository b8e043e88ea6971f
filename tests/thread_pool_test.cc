/**
 * @file
 * Property-style tests for the deterministic thread pool: parallelFor
 * chunk decomposition (empty range, range smaller than grain, grain 1),
 * nested submission, exception propagation from worker tasks, the
 * Parallelism resolution knobs (including CMINER_THREADS validation),
 * and a stress test hammering the queue with 10k tasks from 8 submitter
 * threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace {

using cminer::util::Parallelism;
using cminer::util::ThreadPool;

/** Restores automatic thread-count resolution when a test ends. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(std::size_t count)
    {
        Parallelism::setThreadCount(count);
    }
    ~ThreadCountGuard() { Parallelism::setThreadCount(0); }
};

// --- parallelFor decomposition -------------------------------------------

TEST(ParallelFor, EmptyRangeNeverInvokesBody)
{
    ThreadPool pool(3);
    std::atomic<int> calls{0};
    pool.parallelFor(5, 5, 4, [&](std::size_t, std::size_t) { ++calls; });
    pool.parallelFor(7, 3, 4, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, RangeSmallerThanGrainIsOneChunk)
{
    ThreadPool pool(3);
    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallelFor(2, 6, 100, [&](std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(mutex);
        chunks.emplace_back(lo, hi);
    });
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].first, 2u);
    EXPECT_EQ(chunks[0].second, 6u);
}

TEST(ParallelFor, GrainOneCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<int> hits(257, 0); // one writer per slot: no races
    pool.parallelFor(0, hits.size(), 1,
                     [&](std::size_t lo, std::size_t hi) {
                         EXPECT_EQ(hi, lo + 1);
                         ++hits[lo];
                     });
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }));
}

TEST(ParallelFor, ChunkBoundariesDependOnlyOnArguments)
{
    // Same (begin, end, grain) must produce the same chunk set whatever
    // the worker count — the determinism contract's foundation.
    const std::size_t begin = 3, end = 103, grain = 7;
    auto collect = [&](ThreadPool &pool) {
        std::mutex mutex;
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        pool.parallelFor(begin, end, grain,
                         [&](std::size_t lo, std::size_t hi) {
                             std::lock_guard<std::mutex> lock(mutex);
                             chunks.emplace_back(lo, hi);
                         });
        std::sort(chunks.begin(), chunks.end());
        return chunks;
    };
    ThreadPool serial(0);
    ThreadPool two(2);
    ThreadPool eight(8);
    const auto expected = collect(serial);
    ASSERT_EQ(expected.size(), 15u); // ceil(100 / 7)
    EXPECT_EQ(expected.front().first, begin);
    EXPECT_EQ(expected.back().second, end);
    EXPECT_EQ(collect(two), expected);
    EXPECT_EQ(collect(eight), expected);
}

TEST(ParallelFor, PerChunkReductionMatchesSerialSum)
{
    std::vector<double> values(1000);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = 0.1 * static_cast<double>(i) + 1.0 / (1.0 + i);
    double serial_sum = 0.0;
    for (double v : values)
        serial_sum += v;

    ThreadPool pool(5);
    const std::size_t grain = 64;
    const std::size_t chunks = (values.size() + grain - 1) / grain;
    std::vector<double> partial(chunks, 0.0);
    pool.parallelFor(0, values.size(), grain,
                     [&](std::size_t lo, std::size_t hi) {
                         double s = 0.0;
                         for (std::size_t i = lo; i < hi; ++i)
                             s += values[i];
                         partial[lo / grain] = s;
                     });
    double chunked_sum = 0.0;
    for (double s : partial)
        chunked_sum += s;
    // Not bitwise (the serial loop has one long accumulation chain) but
    // the chunked reduction itself must be reproducible and close.
    EXPECT_NEAR(chunked_sum, serial_sum, 1e-9 * serial_sum);
}

// --- nesting --------------------------------------------------------------

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock)
{
    ThreadPool pool(2);
    std::vector<int> matrix(32 * 32, 0);
    pool.parallelFor(0, 32, 1, [&](std::size_t row, std::size_t) {
        // Worker threads re-entering parallelFor must serialize inline.
        pool.parallelFor(0, 32, 4, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t col = lo; col < hi; ++col)
                matrix[row * 32 + col] = static_cast<int>(row + col);
        });
    });
    for (std::size_t row = 0; row < 32; ++row) {
        for (std::size_t col = 0; col < 32; ++col)
            ASSERT_EQ(matrix[row * 32 + col],
                      static_cast<int>(row + col));
    }
}

TEST(ParallelFor, GlobalHelperNestedInsideWorkerRunsInline)
{
    ThreadCountGuard guard(4);
    std::atomic<int> inner_calls{0};
    cminer::util::parallelFor(0, 8, 1, [&](std::size_t, std::size_t) {
        cminer::util::parallelFor(
            0, 8, 1, [&](std::size_t, std::size_t) { ++inner_calls; });
    });
    EXPECT_EQ(inner_calls.load(), 64);
}

// --- exceptions -----------------------------------------------------------

TEST(ParallelFor, WorkerExceptionPropagatesToCaller)
{
    ThreadPool pool(3);
    std::atomic<int> executed{0};
    EXPECT_THROW(
        pool.parallelFor(0, 100, 1,
                         [&](std::size_t lo, std::size_t) {
                             ++executed;
                             if (lo == 17)
                                 throw std::runtime_error("chunk 17");
                         }),
        std::runtime_error);
    EXPECT_GE(executed.load(), 1);

    // The pool survives and keeps working after a failed loop.
    std::atomic<int> after{0};
    pool.parallelFor(0, 10, 1,
                     [&](std::size_t, std::size_t) { ++after; });
    EXPECT_EQ(after.load(), 10);
}

TEST(ParallelFor, LowestIndexExceptionWinsDeterministically)
{
    // Several chunks throw; the caller must always see the exception
    // from the lowest-index one, whatever the thread count or
    // scheduling order.
    for (std::size_t workers : {0, 1, 3, 7}) {
        ThreadPool pool(workers);
        for (int rep = 0; rep < 20; ++rep) {
            try {
                pool.parallelFor(
                    0, 64, 1, [](std::size_t lo, std::size_t) {
                        if (lo == 9 || lo == 23 || lo == 41)
                            throw std::runtime_error(
                                "chunk " + std::to_string(lo));
                    });
                FAIL() << "expected an exception";
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "chunk 9");
            }
        }
    }
}

TEST(ParallelFor, ChunksBelowTheFailingIndexAlwaysRun)
{
    ThreadPool pool(4);
    for (int rep = 0; rep < 10; ++rep) {
        std::vector<char> ran(64, 0); // one writer per slot
        try {
            pool.parallelFor(0, 64, 1,
                             [&](std::size_t lo, std::size_t) {
                                 ran[lo] = 1;
                                 if (lo == 40)
                                     throw std::invalid_argument(
                                         "chunk 40");
                             });
            FAIL() << "expected an exception";
        } catch (const std::invalid_argument &) {
        }
        // Cancellation only skips chunks *above* the failing index.
        for (std::size_t i = 0; i < 40; ++i)
            EXPECT_TRUE(ran[i]) << "chunk " << i << " was skipped";
    }
}

TEST(ParallelFor, SerialPathPropagatesExceptionsToo)
{
    ThreadPool pool(0);
    EXPECT_THROW(pool.parallelFor(0, 4, 1,
                                  [](std::size_t, std::size_t) {
                                      throw std::logic_error("serial");
                                  }),
                 std::logic_error);
}

TEST(Submit, ExceptionArrivesThroughTheFuture)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        [] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(Submit, TasksRunAndComplete)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    std::vector<std::future<void>> futures;
    for (int t = 0; t < 64; ++t)
        futures.push_back(pool.submit([&done] { ++done; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(done.load(), 64);
}

// --- stress ---------------------------------------------------------------

TEST(ThreadPoolStress, TenThousandTasksFromEightThreads)
{
    ThreadPool pool(4);
    constexpr int submitters = 8;
    constexpr int per_submitter = 1250; // 10k total
    std::atomic<long> total{0};
    std::vector<std::thread> threads;
    threads.reserve(submitters);
    for (int s = 0; s < submitters; ++s) {
        threads.emplace_back([&pool, &total] {
            std::vector<std::future<void>> futures;
            futures.reserve(per_submitter);
            for (int t = 0; t < per_submitter; ++t)
                futures.push_back(
                    pool.submit([&total] { total.fetch_add(1); }));
            for (auto &f : futures)
                f.get();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(total.load(), submitters * per_submitter);
}

// --- Parallelism knobs ----------------------------------------------------

TEST(Parallelism, OverrideWinsAndRestores)
{
    {
        ThreadCountGuard guard(7);
        EXPECT_EQ(Parallelism::threadCount(), 7u);
    }
    EXPECT_GE(Parallelism::threadCount(), 1u);
}

TEST(Parallelism, SerialOverrideSkipsThePool)
{
    ThreadCountGuard guard(1);
    // With one thread the global helper must run entirely inline.
    std::vector<std::thread::id> ids;
    cminer::util::parallelFor(0, 16, 1,
                              [&](std::size_t, std::size_t) {
                                  ids.push_back(
                                      std::this_thread::get_id());
                              });
    ASSERT_EQ(ids.size(), 16u);
    for (const auto &id : ids)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(Parallelism, GlobalPoolResizesWithTheOverride)
{
    ThreadCountGuard guard(3);
    EXPECT_EQ(cminer::util::globalPool().workerCount(), 2u);
    Parallelism::setThreadCount(5);
    EXPECT_EQ(cminer::util::globalPool().workerCount(), 4u);
}

/** threadCount() under CMINER_THREADS=value, and what it warned. */
std::pair<std::size_t, std::string>
threadCountUnderEnv(const char *value)
{
    ::setenv("CMINER_THREADS", value, 1);
    testing::internal::CaptureStderr();
    const std::size_t count = Parallelism::threadCount();
    std::string warned = testing::internal::GetCapturedStderr();
    ::unsetenv("CMINER_THREADS");
    return {count, warned};
}

TEST(Parallelism, EnvAcceptsAnIntegerCount)
{
    const auto [count, warned] = threadCountUnderEnv("4");
    EXPECT_EQ(count, 4u);
    EXPECT_EQ(warned, "");
}

TEST(Parallelism, EnvRejectsAnythingButAnIntegerAtLeastOne)
{
    ::unsetenv("CMINER_THREADS");
    const std::size_t fallback = Parallelism::threadCount();
    // nan, inf and 1e30 used to reach an undefined float-to-integer
    // cast; 1.5 was truncated; the rest fell back without a word.
    for (const char *value :
         {"nan", "inf", "1e30", "1.5", "bogus", "0", "-3"}) {
        const auto [count, warned] = threadCountUnderEnv(value);
        EXPECT_EQ(count, fallback) << value;
        EXPECT_NE(warned.find("CMINER_THREADS='" + std::string(value) +
                              "'"),
                  std::string::npos)
            << value << " warned: " << warned;
    }
}

// --- trySubmit: bounded, non-blocking admission --------------------------

TEST(TrySubmit, ShedsImmediatelyWhenTheQueueIsFull)
{
    ThreadPool pool(1);

    // Park the only worker so every further task stays queued.
    std::promise<void> release;
    auto release_future = release.get_future().share();
    std::promise<void> started;
    auto blocker = pool.submit([&] {
        started.set_value();
        release_future.wait();
    });
    started.get_future().wait();

    std::atomic<int> ran{0};
    std::vector<std::future<void>> accepted;
    for (int i = 0; i < 4; ++i) {
        auto handle = pool.trySubmit([&ran] { ++ran; }, 4);
        ASSERT_TRUE(handle.has_value()) << "task " << i;
        accepted.push_back(std::move(*handle));
    }
    EXPECT_EQ(pool.queueDepth(), 4u);

    // The bound is reached: the next submit is shed, and the caller
    // learns it without ever blocking on the full queue.
    const auto t0 = std::chrono::steady_clock::now();
    auto shed = pool.trySubmit([&ran] { ++ran; }, 4);
    const auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_FALSE(shed.has_value());
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  waited)
                  .count(),
              1000);

    release.set_value();
    blocker.wait();
    for (auto &handle : accepted)
        handle.wait();
    // Every accepted task ran; the shed one never did.
    EXPECT_EQ(ran.load(), 4);
    EXPECT_EQ(pool.queueDepth(), 0u);
}

TEST(TrySubmit, BoundZeroShedsWhileTheWorkerIsBusy)
{
    ThreadPool pool(1);
    std::promise<void> release;
    auto release_future = release.get_future().share();
    std::promise<void> started;
    auto blocker = pool.submit([&] {
        started.set_value();
        release_future.wait();
    });
    started.get_future().wait();

    EXPECT_FALSE(pool.trySubmit([] {}, 0).has_value());

    release.set_value();
    blocker.wait();
}

TEST(TrySubmit, ZeroWorkersRunInlineWithAReadyFuture)
{
    ThreadPool pool(0);
    bool ran = false;
    auto handle = pool.trySubmit([&ran] { ran = true; }, 0);
    ASSERT_TRUE(handle.has_value());
    EXPECT_TRUE(ran);
    EXPECT_EQ(handle->wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(pool.queueDepth(), 0u);
}

TEST(TrySubmit, AcceptedTasksPropagateExceptionsThroughTheFuture)
{
    ThreadPool pool(2);
    auto handle = pool.trySubmit(
        [] { throw std::runtime_error("boom"); }, 8);
    ASSERT_TRUE(handle.has_value());
    EXPECT_THROW(handle->get(), std::runtime_error);
}

} // namespace
