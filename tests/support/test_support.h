/**
 * @file
 * Helpers shared by the test suites: scope guards for the global
 * thread count and metrics registry, and whole-file byte I/O on
 * per-suite scratch paths.
 */

#ifndef CMINER_TESTS_SUPPORT_TEST_SUPPORT_H
#define CMINER_TESTS_SUPPORT_TEST_SUPPORT_H

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>

#include "util/binary_io.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

// tests/CMakeLists.txt names each suite binary here, so suites that
// ctest runs in parallel never share a scratch path.
#ifndef CMINER_TEST_SUITE
#error "CMINER_TEST_SUITE must name the test binary"
#endif

namespace cminer::test {

/** Pins the global thread count; restores automatic resolution on exit. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(std::size_t count)
    {
        util::Parallelism::setThreadCount(count);
    }
    ~ThreadCountGuard() { util::Parallelism::setThreadCount(0); }
};

/**
 * Installs a metrics registry for one test scope. Declare it before a
 * Server, so that the registry outlives the server's counts.
 */
struct MetricsGuard
{
    /** @param clock the registry's clock; nullptr for a steady clock */
    explicit MetricsGuard(util::TraceClock *clock = nullptr)
        : registry(clock)
    {
        util::setGlobalMetrics(&registry);
    }
    ~MetricsGuard() { util::setGlobalMetrics(nullptr); }
    util::MetricsRegistry registry;
};

/** A scratch path under /tmp, prefixed by the suite's binary name. */
inline std::string
tmpPath(const std::string &name)
{
    return "/tmp/cminer_" CMINER_TEST_SUITE "_" + name;
}

/** Replace a file's contents with `bytes`. */
inline void
writeBytes(const std::string &path, std::string_view bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A file's whole contents; a read failure fails the calling test. */
inline std::string
readBytes(const std::string &path)
{
    auto bytes = util::readFileBytes(path);
    EXPECT_TRUE(bytes.ok()) << bytes.status().toString();
    return bytes.ok() ? std::move(bytes).value() : "";
}

} // namespace cminer::test

#endif // CMINER_TESTS_SUPPORT_TEST_SUPPORT_H
