#include "util/metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <thread>

#include "util/error.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace cminer::util {

void
DurationHistogram::record(double ms)
{
    // Bucket 0 tops out at 1/16 ms; each bucket doubles.
    std::size_t bucket = 0;
    for (double edge = 1.0 / 16.0;
         bucket + 1 < bucket_count && ms > edge; edge *= 2.0)
        ++bucket;
    std::lock_guard<std::mutex> lock(mutex_);
    if (data_.count == 0) {
        data_.minMs = ms;
        data_.maxMs = ms;
    } else {
        data_.minMs = std::min(data_.minMs, ms);
        data_.maxMs = std::max(data_.maxMs, ms);
    }
    ++data_.count;
    data_.totalMs += ms;
    ++buckets_[bucket];
}

DurationHistogram::Snapshot
DurationHistogram::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot out = data_;
    out.p50Ms = percentileLocked(0.50);
    out.p99Ms = percentileLocked(0.99);
    return out;
}

double
DurationHistogram::percentile(double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return percentileLocked(q);
}

double
DurationHistogram::percentileLocked(double q) const
{
    if (data_.count == 0)
        return 0.0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(data_.count)));
    std::uint64_t seen = 0;
    std::size_t bucket = 0;
    while (bucket + 1 < bucket_count) {
        seen += buckets_[bucket];
        if (seen >= target)
            break;
        ++bucket;
    }
    return std::ldexp(1.0, static_cast<int>(bucket) - 4);
}

MetricsRegistry::MetricsRegistry(TraceClock *clock)
    : clock_(clock)
{
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

DurationHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<DurationHistogram>();
    return *slot;
}

double
MetricsRegistry::nowMs()
{
    return clock_ != nullptr ? clock_->nowMs() : steadyClock_.nowMs();
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto &[name, counter] : counters_)
        out.emplace_back(name, counter->value());
    return out;
}

std::vector<std::pair<std::string, double>>
MetricsRegistry::gauges() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(gauges_.size());
    for (const auto &[name, gauge] : gauges_)
        out.emplace_back(name, gauge->value());
    return out;
}

std::vector<std::pair<std::string, DurationHistogram::Snapshot>>
MetricsRegistry::histograms() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, DurationHistogram::Snapshot>> out;
    out.reserve(histograms_.size());
    for (const auto &[name, histogram] : histograms_)
        out.emplace_back(name, histogram->snapshot());
    return out;
}

std::string
MetricsRegistry::toJson() const
{
    JsonWriter json;
    writeJson(json);
    return json.str();
}

void
MetricsRegistry::writeJson(JsonWriter &json) const
{
    json.beginObject();

    json.key("counters");
    json.beginObject();
    for (const auto &[name, value] : counters()) {
        json.key(name);
        json.value(static_cast<std::size_t>(value));
    }
    json.endObject();

    json.key("gauges");
    json.beginObject();
    for (const auto &[name, value] : gauges()) {
        json.key(name);
        json.value(value);
    }
    json.endObject();

    json.key("histograms");
    json.beginObject();
    for (const auto &[name, data] : histograms()) {
        json.key(name);
        json.beginObject();
        json.key("count");
        json.value(static_cast<std::size_t>(data.count));
        json.key("totalMs");
        json.value(data.totalMs);
        json.key("meanMs");
        json.value(data.meanMs());
        json.key("minMs");
        json.value(data.minMs);
        json.key("maxMs");
        json.value(data.maxMs);
        json.key("p50Ms");
        json.value(data.p50Ms);
        json.key("p99Ms");
        json.value(data.p99Ms);
        json.endObject();
    }
    json.endObject();

    json.endObject();
}

namespace {

std::atomic<MetricsRegistry *> global_metrics{nullptr};

/**
 * Rundown protection for the global registry. MetricsAccess raises the
 * pin count *before* loading the pointer; setGlobalMetrics publishes
 * the new pointer *before* waiting for the count to drain. Both sides
 * are seq_cst, so either the pinning thread observes the replacement
 * (and never touches the old registry) or the uninstalling thread
 * observes the pin (and waits for its release) — a late pool task can
 * therefore never dereference a destroyed registry.
 */
std::atomic<std::uint32_t> global_metrics_pins{0};

} // namespace

MetricsRegistry *
globalMetrics()
{
    return global_metrics.load(std::memory_order_relaxed);
}

void
setGlobalMetrics(MetricsRegistry *registry)
{
    global_metrics.store(registry, std::memory_order_seq_cst);
    while (global_metrics_pins.load(std::memory_order_seq_cst) != 0)
        std::this_thread::yield();
}

MetricsAccess::MetricsAccess()
{
    global_metrics_pins.fetch_add(1, std::memory_order_seq_cst);
    registry_ = global_metrics.load(std::memory_order_seq_cst);
}

MetricsAccess::~MetricsAccess()
{
    global_metrics_pins.fetch_sub(1, std::memory_order_seq_cst);
}

void
count(const char *name, std::uint64_t n)
{
    if (globalMetrics() == nullptr) // fast path: one relaxed load
        return;
    MetricsAccess access;
    if (access)
        access.get()->counter(name).add(n);
}

void
gaugeSet(const char *name, double value)
{
    if (globalMetrics() == nullptr) // fast path: one relaxed load
        return;
    MetricsAccess access;
    if (access)
        access.get()->gauge(name).set(value);
}

void
recordDuration(const char *name, double ms)
{
    if (globalMetrics() == nullptr) // fast path: one relaxed load
        return;
    MetricsAccess access;
    if (access)
        access.get()->histogram(name).record(ms);
}

// --- metrics JSON read-back (cminer stats) ------------------------------
//
// A deliberately small recursive parser for the document toJson emits:
// three fixed top-level sections whose members are either scalars
// (counters, gauges) or flat summary objects (histograms). Anything
// outside that shape is a ParseError — this is a read-back of our own
// format, not a general JSON library.

namespace {

/** Cursor over the JSON text with Status-returning primitives. */
struct MetricsParser
{
    const std::string &text;
    std::size_t pos = 0;

    void
    skipSpace()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    Status
    expect(char c)
    {
        skipSpace();
        if (pos >= text.size() || text[pos] != c) {
            return Status::parseError(format(
                "metrics json: expected '%c' at offset %zu", c, pos));
        }
        ++pos;
        return Status::okStatus();
    }

    bool
    tryConsume(char c)
    {
        skipSpace();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    StatusOr<std::string>
    parseString()
    {
        Status open = expect('"');
        if (!open.ok())
            return open;
        std::string out;
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos++];
            if (c == '\\') {
                if (pos >= text.size())
                    break;
                const char esc = text[pos++];
                switch (esc) {
                  case 'n': c = '\n'; break;
                  case 'r': c = '\r'; break;
                  case 't': c = '\t'; break;
                  case 'u': {
                      // Metric names never need \u escapes; reject
                      // rather than mis-decode.
                      return Status::parseError(
                          "metrics json: \\u escape in metric name");
                  }
                  default: c = esc; break;
                }
            }
            out += c;
        }
        if (pos >= text.size())
            return Status::parseError(
                "metrics json: unterminated string");
        ++pos; // closing quote
        return out;
    }

    StatusOr<double>
    parseNumber()
    {
        skipSpace();
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E'))
            ++pos;
        double value = 0.0;
        if (pos == start ||
            !parseDouble(text.substr(start, pos - start), value)) {
            return Status::parseError(format(
                "metrics json: bad number at offset %zu", start));
        }
        return value;
    }
};

/**
 * A count read back from its JSON number. Only a whole number in
 * [0, 2^64) converts to uint64 with defined behaviour; anything else
 * is a ParseError naming `what`.
 */
StatusOr<std::uint64_t>
countFrom(double value, const std::string &what)
{
    if (!(value >= 0.0 && value < 0x1p64 && value == std::floor(value)))
        return Status::parseError(format(
            "metrics json: %s is not a whole number in [0, 2^64): %g",
            what.c_str(), value));
    return static_cast<std::uint64_t>(value);
}

} // namespace

StatusOr<MetricsSnapshot>
parseMetricsJson(const std::string &text)
{
    MetricsParser parser{text};
    MetricsSnapshot snapshot;

    Status status = parser.expect('{');
    if (!status.ok())
        return status;

    bool first_section = true;
    while (!parser.tryConsume('}')) {
        if (!first_section) {
            status = parser.expect(',');
            if (!status.ok())
                return status;
        }
        first_section = false;

        auto section = parser.parseString();
        if (!section.ok())
            return section.status();
        // Validate the section name up front, so an unknown-but-empty
        // section ({"surprise":{}}) is rejected too.
        if (section.value() != "counters" &&
            section.value() != "gauges" &&
            section.value() != "histograms") {
            return Status::parseError(
                "metrics json: unknown section '" + section.value() +
                "'");
        }
        status = parser.expect(':');
        if (!status.ok())
            return status;
        status = parser.expect('{');
        if (!status.ok())
            return status;

        bool first_member = true;
        while (!parser.tryConsume('}')) {
            if (!first_member) {
                status = parser.expect(',');
                if (!status.ok())
                    return status;
            }
            first_member = false;

            auto name = parser.parseString();
            if (!name.ok())
                return name.status();
            status = parser.expect(':');
            if (!status.ok())
                return status;

            if (section.value() == "counters") {
                auto value = parser.parseNumber();
                if (!value.ok())
                    return value.status();
                auto count = countFrom(value.value(),
                                       "counter '" + name.value() + "'");
                if (!count.ok())
                    return count.status();
                snapshot.counters.emplace_back(name.value(),
                                               count.value());
            } else if (section.value() == "gauges") {
                auto value = parser.parseNumber();
                if (!value.ok())
                    return value.status();
                snapshot.gauges.emplace_back(name.value(),
                                             value.value());
            } else if (section.value() == "histograms") {
                status = parser.expect('{');
                if (!status.ok())
                    return status;
                DurationHistogram::Snapshot data;
                double count = 0.0;
                bool first_field = true;
                while (!parser.tryConsume('}')) {
                    if (!first_field) {
                        status = parser.expect(',');
                        if (!status.ok())
                            return status;
                    }
                    first_field = false;
                    auto field = parser.parseString();
                    if (!field.ok())
                        return field.status();
                    status = parser.expect(':');
                    if (!status.ok())
                        return status;
                    auto value = parser.parseNumber();
                    if (!value.ok())
                        return value.status();
                    if (field.value() == "count")
                        count = value.value();
                    else if (field.value() == "totalMs")
                        data.totalMs = value.value();
                    else if (field.value() == "minMs")
                        data.minMs = value.value();
                    else if (field.value() == "maxMs")
                        data.maxMs = value.value();
                    else if (field.value() == "p50Ms")
                        data.p50Ms = value.value();
                    else if (field.value() == "p99Ms")
                        data.p99Ms = value.value();
                    else if (field.value() != "meanMs")
                        return Status::parseError(
                            "metrics json: unknown histogram field '" +
                            field.value() + "'");
                }
                auto checked = countFrom(
                    count, "histogram '" + name.value() + "' count");
                if (!checked.ok())
                    return checked.status();
                data.count = checked.value();
                snapshot.histograms.emplace_back(name.value(), data);
            } else {
                return Status::parseError(
                    "metrics json: unknown section '" +
                    section.value() + "'");
            }
        }
    }
    parser.skipSpace();
    if (parser.pos != text.size()) {
        return Status::parseError(
            "metrics json: trailing content after document");
    }
    return snapshot;
}

} // namespace cminer::util
