/**
 * @file
 * Retry-with-exponential-backoff for transient failures.
 *
 * Only Status codes of Transient are retried — a ParseError will not get
 * better by trying again. The clock is injectable so tests (and the
 * simulator, which has no real wall-clock dependencies) run instantly.
 */

#ifndef CMINER_UTIL_RETRY_H
#define CMINER_UTIL_RETRY_H

#include <cstddef>
#include <functional>
#include <vector>

#include "util/status.h"

namespace cminer::util {

/** Backoff policy knobs. */
struct RetryOptions
{
    /** Total attempts including the first (>= 1). */
    std::size_t maxAttempts = 3;
    /** Delay before the first retry. */
    double baseDelayMs = 10.0;
    /** Delay growth factor per retry. */
    double multiplier = 2.0;
    /** Delay ceiling. */
    double maxDelayMs = 1000.0;
    /**
     * Total backoff budget in milliseconds; 0 disables the budget.
     * When the next backoff sleep would push the cumulative delay past
     * this deadline, retrying stops *before* the sleep and the last
     * transient error is returned wrapped with the budget context —
     * a caller under deadline pressure (the serving layer's per-request
     * Deadline) never blocks past its budget inside a retry loop.
     */
    double deadlineMs = 0.0;
};

/**
 * The clock backoff sleeps on. Injectable so retries are testable and,
 * in the simulator, free.
 */
class RetryClock
{
  public:
    virtual ~RetryClock() = default;
    /** Sleep (or pretend to) for the given milliseconds. */
    virtual void sleepMs(double ms) = 0;
};

/**
 * A clock that records requested delays without sleeping — the default
 * for the simulated pipeline, and what tests inspect.
 */
class RecordingClock : public RetryClock
{
  public:
    void
    sleepMs(double ms) override
    {
        delays_.push_back(ms);
        totalMs_ += ms;
    }

    /** Every delay requested, in order. */
    const std::vector<double> &delays() const { return delays_; }
    /** Sum of all requested delays. */
    double totalMs() const { return totalMs_; }
    /** Forget recorded delays. */
    void
    reset()
    {
        delays_.clear();
        totalMs_ = 0.0;
    }

  private:
    std::vector<double> delays_;
    double totalMs_ = 0.0;
};

/** A clock that actually blocks the calling thread. */
class SleepingClock : public RetryClock
{
  public:
    void sleepMs(double ms) override;
};

/** What a retried operation ended with. */
struct RetryResult
{
    /** Final status: Ok, the first non-transient error, or the last
     * transient error when attempts or the deadline budget ran out
     * (budget exhaustion is recorded as message context; the code
     * stays Transient so quarantine policies treat it uniformly). */
    Status status;
    /** True when the deadline budget stopped the retry loop. */
    bool deadlineExhausted = false;
    /** Attempts actually made (>= 1). */
    std::size_t attempts = 0;
    /** Total backoff delay requested from the clock. */
    double totalDelayMs = 0.0;
};

/**
 * The backoff delay before retry number `retry` (0-based). Exposed for
 * tests.
 */
double backoffDelayMs(const RetryOptions &options, std::size_t retry);

/**
 * Run `attempt` until it returns a non-transient status or attempts run
 * out, sleeping on `clock` with exponential backoff between attempts.
 *
 * @param options backoff policy
 * @param clock sleep implementation
 * @param attempt the operation; returns Ok, Transient, or a hard error
 */
RetryResult retryWithBackoff(const RetryOptions &options, RetryClock &clock,
                             const std::function<Status()> &attempt);

} // namespace cminer::util

#endif // CMINER_UTIL_RETRY_H
