#include "core/perf_text.h"

#include <cmath>
#include <map>

#include "util/error.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace cminer::core {

using cminer::ts::TimeSeries;
using cminer::util::Status;
using cminer::util::StatusOr;

std::size_t
IngestReport::damaged() const
{
    return malformedLines + badTimestamps + nonMonotonic +
           duplicateSamples + nonFiniteCounts + truncatedLines;
}

std::string
IngestReport::toString() const
{
    return util::format(
        "lines=%zu parsed=%zu malformed=%zu bad_ts=%zu non_monotonic=%zu "
        "duplicates=%zu non_finite=%zu truncated=%zu padded=%zu",
        totalLines, parsedSamples, malformedLines, badTimestamps,
        nonMonotonic, duplicateSamples, nonFiniteCounts, truncatedLines,
        paddedSamples);
}

std::string
renderPerfIntervals(const std::vector<TimeSeries> &series)
{
    CM_ASSERT(!series.empty());
    const std::size_t length = series.front().size();
    const double interval_ms = series.front().intervalMs();
    for (const auto &s : series) {
        if (s.size() != length)
            util::fatal("perf_text: series length mismatch");
    }

    std::string out = "# time,counts,event\n";
    for (std::size_t t = 0; t < length; ++t) {
        const double time_s =
            static_cast<double>(t + 1) * interval_ms / 1000.0;
        for (const auto &s : series) {
            out += util::format("%.6f,", time_s);
            const double value = s.at(t);
            if (value == 0.0)
                out += "<not counted>";
            else
                out += util::format("%.2f", value);
            out += ",";
            out += s.eventName();
            out += "\n";
        }
    }
    return out;
}

namespace {

/** One event's cells, grown lazily as new intervals appear. */
struct EventCells
{
    std::vector<double> values;
    std::vector<char> seen;

    void
    growTo(std::size_t intervals)
    {
        if (values.size() < intervals) {
            values.resize(intervals, 0.0);
            seen.resize(intervals, 0);
        }
    }
};

Status
lineError(std::size_t line_no, const std::string &what)
{
    return Status::parseError(
        util::format("perf_text: line %zu: ", line_no) + what);
}

/**
 * Mirror one parse's IngestReport deltas into the metrics registry.
 * Callers may pass an accumulating report, so the wired values are the
 * difference against the entry snapshot — the counters then reconcile
 * exactly with the per-file report totals.
 */
void
addIngestMetrics(const IngestReport &before, const IngestReport &after)
{
    using cminer::util::count;
    count("ingest.lines_total", after.totalLines - before.totalLines);
    count("ingest.samples_parsed",
          after.parsedSamples - before.parsedSamples);
    count("ingest.malformed_lines",
          after.malformedLines - before.malformedLines);
    count("ingest.bad_timestamps",
          after.badTimestamps - before.badTimestamps);
    count("ingest.non_monotonic",
          after.nonMonotonic - before.nonMonotonic);
    count("ingest.duplicate_samples",
          after.duplicateSamples - before.duplicateSamples);
    count("ingest.non_finite_counts",
          after.nonFiniteCounts - before.nonFiniteCounts);
    count("ingest.truncated_lines",
          after.truncatedLines - before.truncatedLines);
    count("ingest.samples_padded",
          after.paddedSamples - before.paddedSamples);
    count("ingest.lines_dropped", after.damaged() - before.damaged());
    count("ingest.files_parsed");
}

} // namespace

StatusOr<std::vector<TimeSeries>>
parsePerfIntervals(const std::string &text,
                   const PerfParseOptions &options, IngestReport &report)
{
    const IngestReport entry_snapshot = report;
    std::vector<std::string> order;
    std::map<std::string, std::size_t> event_index;
    std::vector<EventCells> cells;
    std::vector<double> timestamps; // distinct, in interval order
    std::map<double, std::size_t> timestamp_index;

    std::size_t start = 0;
    std::size_t line_no = 0;
    while (start < text.size()) {
        std::size_t end = text.find('\n', start);
        const bool had_newline = end != std::string::npos;
        if (!had_newline)
            end = text.size();
        const std::string line =
            util::trim(text.substr(start, end - start));
        start = end + 1;
        ++line_no;
        if (line.empty() || line[0] == '#')
            continue;

        // A final line without its newline is a torn write: the count
        // may be cut mid-digit and still parse, so the whole line is
        // untrustworthy whether or not it decodes.
        if (!had_newline) {
            if (!options.lenient)
                return lineError(line_no,
                                 "final line is truncated (missing "
                                 "newline); re-export the log or drop "
                                 "the partial line");
            ++report.truncatedLines;
            continue;
        }

        ++report.totalLines;
        const auto fields = util::split(line, ',');
        if (fields.size() < 3) {
            if (!options.lenient)
                return lineError(line_no, "malformed line: " + line);
            ++report.malformedLines;
            continue;
        }

        double time_s = 0.0;
        if (!util::parseDouble(fields[0], time_s) ||
            !std::isfinite(time_s)) {
            if (!options.lenient)
                return lineError(line_no,
                                 "bad timestamp: " + fields[0]);
            ++report.badTimestamps;
            continue;
        }

        const std::string &count_field = fields[1];
        double count = 0.0;
        bool count_is_finite = true;
        if (!util::startsWith(util::trim(count_field), "<")) {
            if (!util::parseDouble(count_field, count)) {
                if (!options.lenient)
                    return lineError(line_no,
                                     "bad count: " + count_field);
                ++report.malformedLines;
                continue;
            }
            if (!std::isfinite(count)) {
                if (!options.lenient)
                    return lineError(
                        line_no,
                        "non-finite count '" + count_field +
                            "' (tool noise?); clean the log or parse "
                            "leniently");
                count_is_finite = false;
                count = 0.0; // recorded as a missing value
            }
        }

        const std::string event = util::trim(fields[2]);
        if (event.empty()) {
            if (!options.lenient)
                return lineError(line_no, "empty event name");
            ++report.malformedLines;
            continue;
        }

        // Resolve the interval this sample belongs to by timestamp, so
        // lenient alignment survives dropped or duplicated lines.
        std::size_t ts_idx;
        const auto ts_it = timestamp_index.find(time_s);
        if (ts_it != timestamp_index.end()) {
            ts_idx = ts_it->second;
            if (!options.lenient && ts_idx + 1 != timestamps.size())
                return lineError(
                    line_no,
                    util::format("timestamp %.6f revisits an earlier "
                                 "interval (non-monotonic log)",
                                 time_s));
        } else {
            if (!timestamps.empty() && time_s < timestamps.back()) {
                if (!options.lenient)
                    return lineError(
                        line_no,
                        util::format("non-monotonic timestamp %.6f "
                                     "after %.6f",
                                     time_s, timestamps.back()));
                ++report.nonMonotonic;
                continue;
            }
            ts_idx = timestamps.size();
            timestamps.push_back(time_s);
            timestamp_index.emplace(time_s, ts_idx);
        }

        std::size_t ev_idx;
        const auto ev_it = event_index.find(event);
        if (ev_it != event_index.end()) {
            ev_idx = ev_it->second;
        } else {
            ev_idx = order.size();
            order.push_back(event);
            event_index.emplace(event, ev_idx);
            cells.emplace_back();
        }

        auto &event_cells = cells[ev_idx];
        event_cells.growTo(ts_idx + 1);
        if (event_cells.seen[ts_idx]) {
            if (!options.lenient)
                return lineError(
                    line_no,
                    "duplicate sample for event '" + event + "' at " +
                        util::format("%.6f", time_s));
            ++report.duplicateSamples; // keep the first sample
            continue;
        }
        event_cells.values[ts_idx] = count;
        event_cells.seen[ts_idx] = 1;
        ++report.parsedSamples;
        if (!count_is_finite)
            ++report.nonFiniteCounts;
    }

    if (order.empty())
        return Status::dataError("perf_text: no samples found");

    const double first_time = timestamps.front();
    const double second_time =
        timestamps.size() > 1 ? timestamps[1] : -1.0;
    const double interval_ms = second_time > first_time
        ? (second_time - first_time) * 1000.0
        : first_time * 1000.0;

    std::vector<TimeSeries> series;
    series.reserve(order.size());
    for (std::size_t e = 0; e < order.size(); ++e) {
        auto &event_cells = cells[e];
        event_cells.growTo(timestamps.size());
        for (std::size_t t = 0; t < timestamps.size(); ++t) {
            if (event_cells.seen[t])
                continue;
            if (!options.lenient)
                return Status::parseError(
                    "perf_text: ragged sample counts for " + order[e]);
            // Pad the hole with the missing-value encoding the cleaner
            // repairs downstream.
            event_cells.values[t] = 0.0;
            ++report.paddedSamples;
        }
        series.emplace_back(order[e], std::move(event_cells.values),
                            interval_ms > 0.0 ? interval_ms : 10.0);
    }
    addIngestMetrics(entry_snapshot, report);
    return series;
}

std::vector<TimeSeries>
parsePerfIntervals(const std::string &text)
{
    IngestReport report;
    auto result = parsePerfIntervals(text, PerfParseOptions{}, report);
    if (!result.ok())
        util::fatal(result.status().message());
    return std::move(result).value();
}

} // namespace cminer::core
