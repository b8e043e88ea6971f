#include "util/retry.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/error.h"
#include "util/string_util.h"

namespace cminer::util {

void
SleepingClock::sleepMs(double ms)
{
    if (ms <= 0.0)
        return;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(ms));
}

double
backoffDelayMs(const RetryOptions &options, std::size_t retry)
{
    double delay = options.baseDelayMs;
    for (std::size_t r = 0; r < retry; ++r)
        delay *= options.multiplier;
    return std::min(delay, options.maxDelayMs);
}

RetryResult
retryWithBackoff(const RetryOptions &options, RetryClock &clock,
                 const std::function<Status()> &attempt)
{
    CM_ASSERT(options.maxAttempts >= 1);
    CM_ASSERT(attempt != nullptr);
    RetryResult result;
    for (std::size_t a = 0; a < options.maxAttempts; ++a) {
        ++result.attempts;
        result.status = attempt();
        if (!result.status.isTransient())
            return result;
        if (a + 1 == options.maxAttempts)
            break; // out of attempts: report the transient failure
        const double delay = backoffDelayMs(options, a);
        // Deadline budget: sleeping past it would hold a deadlined
        // caller hostage to a dependency that may never recover, so the
        // loop stops *before* the offending sleep and reports the last
        // transient error with the budget spelled out.
        if (options.deadlineMs > 0.0 &&
            result.totalDelayMs + delay > options.deadlineMs) {
            result.deadlineExhausted = true;
            result.status = result.status.withContext(format(
                "retry deadline %gms exhausted after %zu attempts",
                options.deadlineMs, result.attempts));
            return result;
        }
        clock.sleepMs(delay);
        result.totalDelayMs += delay;
    }
    return result;
}

} // namespace cminer::util
