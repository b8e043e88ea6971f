/**
 * @file
 * Text interop with Linux-perf-style interval output.
 *
 * The paper's data collector "can be any available counter profiling
 * tool such as Perf" — this module makes the boundary concrete: measured
 * series render to `perf stat -I <ms>`-style interval text (with
 * `<not counted>` for the samples MLPX missed), and such text parses
 * back into TimeSeries ready for the cleaner. A real deployment can thus
 * feed actual `perf stat -I -x,` logs into the same pipeline the
 * simulator exercises.
 *
 * Parsing has two modes. Strict (the default) rejects any damage with an
 * actionable FatalError carrying the line number. Lenient mode — the
 * production-ingest posture — skips damaged lines, repairs alignment by
 * timestamp, counts every repair in an IngestReport, and only fails when
 * nothing parseable remains.
 */

#ifndef CMINER_CORE_PERF_TEXT_H
#define CMINER_CORE_PERF_TEXT_H

#include <string>
#include <vector>

#include "ts/time_series.h"
#include "util/status.h"

namespace cminer::core {

/** Parse-mode knobs. */
struct PerfParseOptions
{
    /**
     * Skip-and-count instead of reject: malformed lines, bad or
     * out-of-order timestamps, duplicate samples, and non-finite counts
     * are dropped (non-finite counts become missing values) and tallied
     * in the IngestReport; samples lost to dropped lines are padded
     * back in as missing values so event alignment survives.
     */
    bool lenient = false;
};

/**
 * Per-file accounting of what ingestion saw and repaired. In strict mode
 * the first non-zero damage counter is fatal instead.
 */
struct IngestReport
{
    /** Data lines seen (comments and blanks excluded). */
    std::size_t totalLines = 0;
    /** Samples accepted into series. */
    std::size_t parsedSamples = 0;
    /** Lines that did not decode as `time,count,event`. */
    std::size_t malformedLines = 0;
    /** Lines whose timestamp field failed to parse. */
    std::size_t badTimestamps = 0;
    /** Lines whose timestamp ran backwards from the interval order. */
    std::size_t nonMonotonic = 0;
    /** Repeated (event, timestamp) samples beyond the first. */
    std::size_t duplicateSamples = 0;
    /** NaN/Inf count fields, recorded as missing values. */
    std::size_t nonFiniteCounts = 0;
    /** Final lines cut off without a newline. */
    std::size_t truncatedLines = 0;
    /** Absent (event, interval) cells padded with missing values. */
    std::size_t paddedSamples = 0;

    /** Damage counters summed (everything except total/parsed/padded). */
    std::size_t damaged() const;
    /** One-line summary, stable across runs for determinism checks. */
    std::string toString() const;
};

/**
 * Render series as perf-stat interval text.
 *
 * One line per (interval, event): `time,count,event` in CSV mode, with
 * `<not counted>` in place of the count for zero samples (the MLPX
 * missing-value marker).
 *
 * All series must have the same length and interval.
 */
std::string
renderPerfIntervals(const std::vector<cminer::ts::TimeSeries> &series);

/**
 * Parse perf-stat interval text (the renderPerfIntervals format, which
 * is `perf stat -I -x,` compatible) back into per-event TimeSeries.
 *
 * `<not counted>` and `<not supported>` become 0.0 — the missing-value
 * encoding the cleaner expects.
 *
 * Strict mode additionally rejects truncated final lines (no trailing
 * newline), non-monotonic or duplicate timestamps, and non-finite
 * counts, naming the offending line. Lenient mode recovers per the
 * PerfParseOptions contract and reports through `report`.
 *
 * @param text the interval log
 * @param options parse mode
 * @param report receives the per-file accounting
 * @return the parsed series, or a ParseError/DataError Status
 */
cminer::util::StatusOr<std::vector<cminer::ts::TimeSeries>>
parsePerfIntervals(const std::string &text,
                   const PerfParseOptions &options, IngestReport &report);

/**
 * Strict-mode convenience wrapper.
 *
 * @throws util::FatalError on malformed input
 */
std::vector<cminer::ts::TimeSeries>
parsePerfIntervals(const std::string &text);

} // namespace cminer::core

#endif // CMINER_CORE_PERF_TEXT_H
