#include "cli/cli.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/advisor.h"
#include "core/checkpoint.h"
#include "core/cleaner.h"
#include "core/counterminer.h"
#include "core/error_metrics.h"
#include "core/perf_text.h"
#include "core/report_export.h"
#include "mining/anomaly.h"
#include "mining/distance.h"
#include "mining/kmedoids.h"
#include "ml/metrics.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "serve/transport.h"
#include "pmu/backend.h"
#include "pmu/event.h"
#include "store/database.h"
#include "store/query.h"
#include "util/binary_io.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "workload/suites.h"

namespace cminer::cli {

namespace {

/** Flags every command takes: run() reads them before dispatching. */
const std::vector<std::string> global_flags = {"threads", "trace-out",
                                               "metrics-out"};

/**
 * Upper bounds of the counts that size an allocation before any work
 * (profile and mapm reserve one slot per run; cluster resamples every
 * run to the signature length): a huge but well-formed count is a
 * parse error instead of a std::bad_alloc.
 */
constexpr std::size_t max_runs = 10000;
constexpr std::size_t max_signature_length = 1u << 16;

/**
 * Parsed flags of one command: --name value and boolean --name. The
 * parser admits only the flags the command reads (its list plus
 * global_flags), so a mistyped or retired flag is an error instead of
 * being ignored; a getter asked for a name outside that list is a bug
 * in the command, not in its input.
 */
struct Flags
{
    /** The flags the command reads, global_flags included. */
    std::vector<std::string> accepted;
    std::vector<std::string> positional;
    std::map<std::string, std::string> named;

    bool accepts(const std::string &name) const
    {
        return std::find(accepted.begin(), accepted.end(), name) !=
               accepted.end();
    }

    bool has(const std::string &name) const
    {
        return find(name) != nullptr;
    }

    std::string
    get(const std::string &name, const std::string &fallback) const
    {
        const std::string *value = find(name);
        return value != nullptr ? *value : fallback;
    }

    /**
     * An integer flag in [min, max]: the whole value must be a base-10
     * integer (std::from_chars, the rule CMINER_THREADS follows), so
     * fractions, hex, exponents, nan and negative counts are errors
     * rather than casts.
     */
    std::size_t
    getInt(const std::string &name, std::size_t fallback, std::size_t min,
           std::size_t max = std::numeric_limits<std::size_t>::max()) const
    {
        const std::string *text = find(name);
        if (text == nullptr)
            return fallback;
        std::size_t value = 0;
        const char *end = text->data() + text->size();
        const auto [stop, ec] = std::from_chars(text->data(), end, value);
        if (ec == std::errc() && stop == end && value >= min &&
            value <= max)
            return value;
        if (max == std::numeric_limits<std::size_t>::max())
            util::fatal(util::format("--%s expects an integer >= %zu, "
                                     "got '%s'",
                                     name.c_str(), min, text->c_str()));
        util::fatal(util::format("--%s expects an integer in [%zu, %zu], "
                                 "got '%s'",
                                 name.c_str(), min, max, text->c_str()));
    }

    /** A finite floating-point flag. */
    double
    getDouble(const std::string &name, double fallback) const
    {
        const std::string *text = find(name);
        if (text == nullptr)
            return fallback;
        double value = 0.0;
        if (!util::parseDouble(*text, value) || !std::isfinite(value))
            util::fatal("--" + name + " expects a finite number, got '" +
                        *text + "'");
        return value;
    }

  private:
    const std::string *
    find(const std::string &name) const
    {
        CM_ASSERT(accepts(name));
        auto it = named.find(name);
        return it != named.end() ? &it->second : nullptr;
    }
};

/** Flags that take no value. */
bool
isBooleanFlag(const std::string &name)
{
    return name == "skip-cleaning" || name == "lenient" ||
           name == "pipe" || name == "mine" || name == "allow-empty";
}

/**
 * Parse args[first..] for `command`, which reads the flags in
 * `accepted` (global_flags aside). Any other flag is an error before
 * the command does any work.
 */
Flags
parseFlags(const std::vector<std::string> &args, std::size_t first,
           const std::string &command,
           const std::vector<std::string> &accepted)
{
    Flags flags;
    flags.accepted = accepted;
    flags.accepted.insert(flags.accepted.end(), global_flags.begin(),
                          global_flags.end());
    for (std::size_t i = first; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (util::startsWith(arg, "--")) {
            const std::string name = arg.substr(2);
            // --name=value binds tighter than the separate-token form
            // and works for any flag, boolean or not.
            const auto eq = name.find('=');
            const std::string key = name.substr(0, eq);
            if (!flags.accepts(key))
                util::fatal(command + " does not take --" + key);
            if (eq != std::string::npos) {
                flags.named[key] = name.substr(eq + 1);
            } else if (isBooleanFlag(name)) {
                flags.named[name] = "true";
            } else {
                if (i + 1 >= args.size())
                    util::fatal("flag --" + name + " expects a value");
                flags.named[name] = args[++i];
            }
        } else {
            flags.positional.push_back(arg);
        }
    }
    return flags;
}

/**
 * A flag restricted to an enumerated value set: unknown values fail
 * with an error listing the valid choices instead of being passed
 * through (or silently matching nothing downstream).
 */
std::string
getChoice(const Flags &flags, const std::string &name,
          const std::string &fallback,
          const std::vector<std::string> &choices)
{
    const std::string value = flags.get(name, fallback);
    for (const auto &choice : choices) {
        if (value == choice)
            return value;
    }
    util::fatal("--" + name + " got unknown value '" + value +
                "' (valid choices: " + util::join(choices, ", ") + ")");
}

/** The --backend flag, parsed and validated (default sim). */
pmu::BackendKind
getBackendFlag(const Flags &flags)
{
    auto parsed = pmu::parseBackendKind(flags.get("backend", "sim"));
    if (!parsed.ok())
        util::fatal("--backend: " + parsed.status().message());
    return parsed.value();
}

/** Where profile runs drop metrics when no explicit path is given to
 * `--metrics-out`, and where `cminer stats` looks by default. */
constexpr const char *default_metrics_file = "cminer-metrics.json";

mining::AnomalyScorer loadScorerPair(const std::string &spec);

/**
 * Installs the tracer/metrics registry for the duration of one CLI
 * command when `--trace-out` / `--metrics-out` ask for them, and writes
 * the JSON exports when the command succeeds. With both flags absent
 * nothing is installed and every span/counter in the pipeline stays a
 * null-pointer check (the zero-overhead contract), except that
 * `always_count` installs a registry regardless: `serve` counts what
 * it answers there, so the daemon always runs with one.
 */
class ObservabilityScope
{
  public:
    ObservabilityScope(const Flags &flags, bool always_count)
        : tracePath_(flags.get("trace-out", "")),
          metricsPath_(flags.get("metrics-out", ""))
    {
        if (!tracePath_.empty()) {
            tracer_.emplace(clock_);
            util::setGlobalTracer(&*tracer_);
        }
        if (always_count || !metricsPath_.empty()) {
            metrics_.emplace();
            util::setGlobalMetrics(&*metrics_);
        }
    }

    ~ObservabilityScope()
    {
        util::setGlobalTracer(nullptr);
        util::setGlobalMetrics(nullptr);
    }

    ObservabilityScope(const ObservabilityScope &) = delete;
    ObservabilityScope &operator=(const ObservabilityScope &) = delete;

    /** Export the collected spans/metrics (call on command success). */
    void
    writeReports(std::string &output)
    {
        if (tracer_) {
            writeFile(tracePath_, tracer_->toJson());
            output += "wrote trace to " + tracePath_ + "\n";
        }
        if (!metricsPath_.empty()) {
            writeFile(metricsPath_, metrics_->toJson());
            output += "wrote metrics to " + metricsPath_ + "\n";
        }
    }

  private:
    static void
    writeFile(const std::string &path, const std::string &text)
    {
        // Atomic like every other exporter: a failed write never
        // clobbers the previous report at this path.
        util::writeFileAtomic(path, text + "\n")
            .withContext("write " + path)
            .throwIfError();
    }

    util::SteadyClock clock_;
    std::optional<util::Tracer> tracer_;
    std::optional<util::MetricsRegistry> metrics_;
    std::string tracePath_;
    std::string metricsPath_;
};

const workload::SyntheticBenchmark &
resolveBenchmark(const std::string &name)
{
    const auto &suite = workload::BenchmarkSuite::instance();
    if (!suite.has(name)) {
        std::string known;
        for (const auto *bench : suite.all())
            known += "\n  " + bench->name();
        util::fatal("unknown benchmark '" + name + "'; known:" + known);
    }
    return suite.byName(name);
}

int
cmdListBenchmarks(const Flags &, std::string &output)
{
    const auto &suite = workload::BenchmarkSuite::instance();
    util::TablePrinter table({"benchmark", "suite", "top planted events"});
    for (const auto *bench : suite.all()) {
        const auto top = bench->plantedRanking(3);
        table.addRow({bench->name(), bench->suite(),
                      util::join({top.begin(), top.end()}, " ")});
    }
    output += table.render();
    return 0;
}

int
cmdListEvents(const Flags &flags, std::string &output)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const std::string category = flags.get("category", "");
    util::TablePrinter table({"abbrev", "event", "category", "family"});
    std::size_t shown = 0;
    for (pmu::EventId id = 0; id < catalog.size(); ++id) {
        const auto &info = catalog.info(id);
        if (!category.empty() &&
            pmu::categoryName(info.category) != category)
            continue;
        table.addRow({info.abbrev, info.name,
                      pmu::categoryName(info.category),
                      info.family == pmu::DistFamily::Gaussian
                          ? "gaussian" : "long-tail"});
        ++shown;
    }
    if (shown == 0)
        util::fatal("no events in category '" + category +
                    "' (try: frontend branch cache tlb memory remote "
                    "uops stall other fixed)");
    output += table.render();
    output += util::format("%zu events\n", shown);
    return 0;
}

int
cmdProfile(const Flags &flags, std::string &output)
{
    const auto &benchmark = resolveBenchmark(flags.positional.front());

    core::ProfileOptions options;
    options.backend = getBackendFlag(flags);
    options.mlpxRuns = flags.getInt("runs", 2, 1, max_runs);
    options.importance.minEvents = flags.getInt("min-events", 96, 0);
    options.skipCleaning = flags.has("skip-cleaning");
    options.maxBadRuns = flags.getInt("max-bad-runs", 0, 0);
    options.maxBadFraction = flags.getDouble("max-bad-fraction", 0.5);
    if (options.maxBadFraction < 0.0 || options.maxBadFraction > 1.0)
        util::fatal("--max-bad-fraction expects a value in [0, 1]");

    // The injector outlives the miner; ProfileOptions holds a raw
    // pointer into this scope.
    std::optional<util::FaultInjector> injector;
    if (flags.has("inject-faults")) {
        auto spec = util::parseFaultSpec(flags.get("inject-faults", ""));
        spec.status().throwIfError();
        injector.emplace(spec.value());
        options.injector = &*injector;
    }

    store::Database db("haswell-e");
    core::CounterMiner miner(db, pmu::EventCatalog::instance(), options);
    util::Rng rng(flags.getInt("seed", 42, 0));
    const auto report = miner.profile(benchmark, rng);

    output += util::format(
        "profiled %s: MAPM with %zu events, error %.2f%%\n",
        report.benchmark.c_str(), report.importance.mapmEventCount,
        report.importance.mapmErrorPercent);

    const auto &ingest = report.ingest;
    if (!ingest.quarantined.empty() || ingest.transientRetries > 0 ||
        ingest.injected.total() > 0)
        output += ingest.toString() + "\n";

    util::TablePrinter events({"rank", "event", "importance %"});
    for (std::size_t i = 0; i < report.topEvents.size(); ++i) {
        events.addRow({std::to_string(i + 1),
                       report.topEvents[i].feature,
                       util::formatDouble(
                           report.topEvents[i].importance, 1)});
    }
    output += events.render();

    util::TablePrinter pairs({"rank", "pair", "intensity %"});
    const auto top_pairs = report.interactions.top(5);
    for (std::size_t i = 0; i < top_pairs.size(); ++i) {
        pairs.addRow({std::to_string(i + 1),
                      top_pairs[i].first + "-" + top_pairs[i].second,
                      util::formatDouble(
                          top_pairs[i].importancePercent, 1)});
    }
    output += pairs.render();

    const auto recommendations = core::advise(
        report.topEvents, pmu::EventCatalog::instance());
    for (const auto &rec : recommendations) {
        output += util::format("[%s] %s: %s\n", rec.layer.c_str(),
                               rec.event.c_str(), rec.advice.c_str());
    }

    if (flags.has("json")) {
        const std::string path = flags.get("json", "");
        std::ofstream out(path);
        if (!out)
            util::fatal("cannot write JSON report to " + path);
        out << core::reportToJson(report);
        output += "wrote JSON report to " + path + "\n";
    }
    if (flags.has("db")) {
        const std::string path = flags.get("db", "");
        db.save(path);
        output += "saved " + std::to_string(db.runCount()) +
                  " runs to " + path + "\n";
    }
    return 0;
}

int
cmdCollect(const Flags &flags, std::string &output)
{
    const auto &benchmark = resolveBenchmark(flags.positional.front());
    const auto &catalog = pmu::EventCatalog::instance();

    pmu::PmuConfig config;
    config.intervalMs =
        flags.getDouble("interval-ms", config.intervalMs);
    const pmu::BackendKind kind = getBackendFlag(flags);
    const std::string mode =
        getChoice(flags, "mode", "mlpx", {"mlpx", "ocoe"});

    store::Database db("haswell-e");
    core::DataCollector collector(
        db, catalog, core::makeSamplerBackend(kind, catalog, config));
    // The factory may have fallen back (perf probe failed); report the
    // backend that will actually measure, not the one requested.
    output += std::string("collection backend: ") +
              collector.backend().name() + "\n";

    auto events = catalog.programmableEvents();
    const std::size_t event_count = flags.getInt("events", 16, 1);
    if (events.size() > event_count)
        events.resize(event_count);

    const std::size_t runs = flags.getInt("runs", 1, 1);
    util::Rng rng(flags.getInt("seed", 42, 0));
    std::size_t recorded = 0;
    double ipc_total = 0.0;
    double interval_total = 0.0;
    const auto tally = [&](const core::CollectedRun &run) {
        ++recorded;
        for (const double v : run.ipc().values())
            ipc_total += v;
        interval_total += static_cast<double>(run.ipc().size());
    };
    for (std::size_t r = 0; r < runs; ++r) {
        if (mode == "ocoe") {
            for (const auto &run :
                 collector.collectOcoePlan(benchmark, events, rng))
                tally(run);
        } else {
            tally(collector.collectMlpx(benchmark, events, rng));
        }
    }

    output += util::format(
        "collected %zu %s run%s of %s (%zu events, %.0f intervals of "
        "%.1f ms); mean IPC %.3f\n",
        recorded, mode.c_str(), recorded == 1 ? "" : "s",
        benchmark.name().c_str(), events.size(), interval_total,
        config.intervalMs,
        interval_total > 0.0 ? ipc_total / interval_total : 0.0);

    // Watch mode: judge every collected run against a calibrated
    // anomaly scorer and report verdicts inline — the surveillance
    // loop of DESIGN.md §17 without a serve daemon.
    if (flags.has("watch")) {
        const mining::AnomalyScorer scorer =
            loadScorerPair(flags.get("watch", ""));
        const auto snap = db.snapshot();
        std::size_t watched = 0;
        std::size_t flagged = 0;
        std::size_t unscorable = 0;
        for (const auto &program : db.programs()) {
            for (const auto id : snap.findRuns(program, mode)) {
                auto scored =
                    scorer.scoreRun(snap, id, catalog);
                if (!scored.ok()) {
                    ++unscorable;
                    continue;
                }
                const mining::ScoreResult &verdict = scored.value();
                ++watched;
                if (verdict.anomalous)
                    ++flagged;
                output += util::format(
                    "run %llu %s: %s (residual z %.2f%s, signature "
                    "distance %.4f%s)\n",
                    static_cast<unsigned long long>(id),
                    program.c_str(),
                    verdict.anomalous ? "ANOMALOUS" : "ok",
                    verdict.residualZ,
                    verdict.residualFlag ? " *" : "",
                    verdict.signatureDistance,
                    verdict.signatureFlag ? " *" : "");
            }
        }
        output += util::format(
            "watch: flagged %zu of %zu runs against scorer '%s'\n",
            flagged, watched, scorer.clusters().benchmark.c_str());
        if (unscorable > 0)
            output += util::format(
                "watch: %zu runs were not scorable (event list does "
                "not cover the model, or a non-finite IPC sample)\n",
                unscorable);
    }

    if (flags.has("db")) {
        const std::string path = flags.get("db", "");
        db.save(path);
        output += "saved " + std::to_string(db.runCount()) +
                  " runs to " + path + "\n";
    }
    return 0;
}

int
cmdMapm(const Flags &flags, std::string &output)
{
    const auto &benchmark = resolveBenchmark(flags.positional.front());

    core::ProfileOptions options;
    options.backend = getBackendFlag(flags);
    options.mlpxRuns = flags.getInt("runs", 2, 1, max_runs);
    options.importance.minEvents = flags.getInt("min-events", 96, 0);

    store::Database db("haswell-e");
    core::CounterMiner miner(db, pmu::EventCatalog::instance(), options);
    util::Rng rng(flags.getInt("seed", 42, 0));
    auto report = miner.profile(benchmark, rng);

    output += util::format(
        "mined %s: MAPM with %zu events, cv error %.2f%%\n",
        report.benchmark.c_str(), report.importance.mapmEventCount,
        report.importance.mapmErrorPercent);
    util::TablePrinter events({"rank", "event", "importance %"});
    for (std::size_t i = 0; i < report.topEvents.size(); ++i) {
        events.addRow({std::to_string(i + 1),
                       report.topEvents[i].feature,
                       util::formatDouble(
                           report.topEvents[i].importance, 1)});
    }
    output += events.render();

    if (flags.has("model-out")) {
        const std::string path = flags.get("model-out", "");
        core::MapmArtifact artifact;
        artifact.benchmark = report.benchmark;
        artifact.microarch = db.microarch();
        artifact.events = report.importance.mapmFeatures;
        artifact.ranking = report.importance.ranking;
        artifact.cvErrorPercent = report.importance.mapmErrorPercent;
        artifact.model = std::move(report.mapmModel);
        core::saveMapmArtifact(artifact, path).throwIfError();
        output += "wrote model checkpoint to " + path + "\n";
    }
    if (flags.has("db")) {
        const std::string path = flags.get("db", "");
        db.save(path);
        output += "saved " + std::to_string(db.runCount()) +
                  " runs to " + path + "\n";
    }
    return 0;
}

int
cmdPredict(const Flags &flags, std::string &output)
{
    const std::string model_path = flags.get("model", "");
    if (model_path.empty())
        util::fatal("predict requires --model FILE (a checkpoint "
                    "written by 'mapm --model-out')");
    const std::string db_path = flags.positional.front();

    auto loaded = core::loadMapmArtifact(model_path);
    loaded.status().throwIfError();
    const core::MapmArtifact artifact = std::move(loaded).value();
    const auto db = store::Database::load(db_path);

    util::Span span("predict");
    span.label("model", model_path);

    // Scoring needs one homogeneous event list ending in the IPC
    // target, the shape 'mapm --db' / 'profile --db' records for mlpx
    // runs. The first eligible run fixes the list; runs that measured
    // something else are skipped and reported.
    const std::string mode =
        getChoice(flags, "mode", "mlpx", {"mlpx", "ocoe"});
    std::vector<store::RunId> ids;
    std::size_t skipped = 0;
    const std::vector<std::string> *events = nullptr;
    for (const auto &program : db.programs()) {
        for (const auto id : db.findRuns(program, mode)) {
            const auto &run_events = db.runInfo(id).events;
            if (run_events.size() < 2 ||
                run_events.back() != core::ipc_series_name) {
                ++skipped;
                continue;
            }
            if (events == nullptr)
                events = &db.runInfo(id).events;
            if (run_events != *events) {
                ++skipped;
                continue;
            }
            ids.push_back(id);
        }
    }
    if (ids.empty())
        util::fatal("predict: no scorable '" + mode + "' runs in " +
                    db_path);

    const auto data = core::ImportanceRanker::buildDatasetFromStore(
        db, ids, pmu::EventCatalog::instance());
    for (const auto &event : artifact.events) {
        if (!data.hasFeature(event))
            util::fatal("predict: the database runs did not measure "
                        "model event '" + event + "'");
    }

    // Project onto the model's kept-event columns, in artifact order —
    // the exact view the MAPM trained on.
    const ml::DatasetView view =
        ml::DatasetView(data).withFeatures(artifact.events);
    const std::vector<double> predictions =
        artifact.model.predictAll(view);
    util::count("predict.rows_scored", predictions.size());
    util::count("predict.requests");
    span.number("rows", static_cast<double>(predictions.size()));

    const double error = ml::mape(data.targets(), predictions);
    output += util::format(
        "scored %zu rows from %zu runs with MAPM '%s' (%zu events, "
        "cv error %.2f%%)\n",
        predictions.size(), ids.size(), artifact.benchmark.c_str(),
        artifact.events.size(), artifact.cvErrorPercent);
    if (skipped > 0)
        output += util::format(
            "skipped %zu runs with a different event list\n", skipped);
    output += util::format("MAPE vs measured IPC: %.2f%%\n", error);

    if (flags.has("out")) {
        const std::string path = flags.get("out", "");
        // Full shortest-round-trip precision so the file is a bitwise
        // witness of the predictions (the determinism tests diff it).
        std::string csv = "row,predicted_ipc,measured_ipc\n";
        const auto &targets = data.targets();
        for (std::size_t r = 0; r < predictions.size(); ++r) {
            csv += util::format("%zu,%.17g,%.17g\n", r, predictions[r],
                                targets[r]);
        }
        util::writeFileAtomic(path, csv)
            .withContext("write " + path)
            .throwIfError();
        output += "wrote predictions to " + path + "\n";
    }
    return 0;
}

int
cmdClean(const Flags &flags, std::string &output)
{
    const std::string path = flags.positional.front();
    std::ifstream in(path);
    if (!in)
        util::fatal("cannot read " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();

    core::PerfParseOptions parse_options;
    parse_options.lenient = flags.has("lenient");
    core::IngestReport ingest;
    auto parsed =
        core::parsePerfIntervals(buffer.str(), parse_options, ingest);
    if (!parsed.ok())
        parsed.status().withContext("clean " + path).throwIfError();
    auto series = std::move(parsed).value();
    if (ingest.damaged() > 0 || ingest.paddedSamples > 0)
        output += ingest.toString() + "\n";

    const core::DataCleaner cleaner;
    std::size_t outliers = 0;
    std::size_t missing = 0;
    for (auto &s : series) {
        const auto report = cleaner.clean(s);
        outliers += report.outliersReplaced;
        missing += report.missingFilled;
    }
    output += util::format(
        "cleaned %zu series: replaced %zu outliers, filled %zu "
        "missing values\n",
        series.size(), outliers, missing);

    const std::string out_path = flags.get("out", path + ".cleaned");
    std::ofstream out(out_path);
    if (!out)
        util::fatal("cannot write " + out_path);
    out << core::renderPerfIntervals(series);
    output += "wrote " + out_path + "\n";
    return 0;
}

int
cmdExplore(const Flags &flags, std::string &output)
{
    const auto db = store::Database::load(flags.positional.front());
    output += util::format("database: %zu runs, microarch %s\n",
                           db.runCount(), db.microarch().c_str());
    util::TablePrinter table({"program", "suite", "runs", "mlpx",
                              "ocoe", "mean exec (s)"});
    for (const auto &summary : store::summarizeByProgram(db)) {
        table.addRow(
            {summary.program, summary.suite,
             std::to_string(summary.runCount),
             std::to_string(summary.mlpxRuns),
             std::to_string(summary.ocoeRuns),
             util::formatDouble(summary.meanExecTimeMs / 1000.0, 2)});
    }
    output += table.render();
    return 0;
}

int
cmdError(const Flags &flags, std::string &output)
{
    const auto &benchmark = resolveBenchmark(flags.positional.front());
    const auto &catalog = pmu::EventCatalog::instance();

    store::Database db;
    core::DataCollector collector(db, catalog);
    const core::DataCleaner cleaner;
    util::Rng rng(flags.getInt("seed", 7, 0));

    const auto imc = catalog.idOf("ICACHE.MISSES");
    std::vector<pmu::EventId> events = {imc};
    for (const char *abbrev :
         {"IDU", "ISF", "BRE", "BRB", "BMP", "MSL", "LMH", "ITM", "ORA"})
        events.push_back(catalog.idOfAbbrev(abbrev));

    double raw_total = 0.0;
    double clean_total = 0.0;
    const int reps = 4;
    for (int rep = 0; rep < reps; ++rep) {
        auto o1 = collector.collectOcoe(benchmark, {imc}, rng);
        auto o2 = collector.collectOcoe(benchmark, {imc}, rng);
        auto m = collector.collectMlpx(benchmark, events, rng);
        raw_total += core::mlpxError(o1.series[0], o2.series[0],
                                     m.series[0])
                         .errorPercent;
        ts::TimeSeries cleaned = m.series[0];
        cleaner.clean(cleaned);
        clean_total +=
            core::mlpxError(o1.series[0], o2.series[0], cleaned)
                .errorPercent;
    }
    output += util::format(
        "%s: MLPX error %.1f%% raw -> %.1f%% cleaned "
        "(ICACHE.MISSES, 10 events on 4 counters, %d reps)\n",
        benchmark.name().c_str(), raw_total / reps, clean_total / reps,
        reps);
    return 0;
}

int
cmdStats(const Flags &flags, std::string &output)
{
    const std::string path = flags.positional.empty()
        ? default_metrics_file
        : flags.positional.front();
    std::ifstream in(path);
    if (!in) {
        util::fatal("cannot read " + path +
                    "; run a command with --metrics-out first "
                    "(e.g. profile sort --metrics-out " + path + ")");
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto parsed = util::parseMetricsJson(buffer.str());
    if (!parsed.ok())
        parsed.status().withContext("stats " + path).throwIfError();
    const util::MetricsSnapshot snapshot = std::move(parsed).value();

    output += "metrics from " + path + "\n";
    if (snapshot.counters.empty() && snapshot.gauges.empty() &&
        snapshot.histograms.empty()) {
        output += "no metrics recorded\n";
        return 0;
    }
    if (!snapshot.counters.empty()) {
        util::TablePrinter table({"counter", "value"});
        for (const auto &[name, value] : snapshot.counters)
            table.addRow({name, std::to_string(value)});
        output += table.render();
    }
    if (!snapshot.gauges.empty()) {
        util::TablePrinter table({"gauge", "value"});
        for (const auto &[name, value] : snapshot.gauges)
            table.addRow({name, util::formatDouble(value, 3)});
        output += table.render();
    }
    if (!snapshot.histograms.empty()) {
        util::TablePrinter table({"histogram", "count", "total ms",
                                  "mean ms", "min ms", "p50 ms",
                                  "p99 ms", "max ms"});
        for (const auto &[name, h] : snapshot.histograms) {
            table.addRow({name, std::to_string(h.count),
                          util::formatDouble(h.totalMs, 3),
                          util::formatDouble(h.meanMs(), 3),
                          util::formatDouble(h.minMs, 3),
                          util::formatDouble(h.p50Ms, 3),
                          util::formatDouble(h.p99Ms, 3),
                          util::formatDouble(h.maxMs, 3)});
        }
        output += table.render();
    }
    return 0;
}

/**
 * Load a `MODEL.ckpt:CLUSTERS.ckpt` pair into a ready anomaly scorer.
 * Fatal on a malformed spec or an uncalibrated cluster artifact.
 */
mining::AnomalyScorer
loadScorerPair(const std::string &spec)
{
    const auto colon = spec.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= spec.size())
        util::fatal("scorer spec '" + spec +
                    "' should be MODEL.ckpt:CLUSTERS.ckpt");
    auto model = core::loadMapmArtifact(spec.substr(0, colon));
    model.status().throwIfError();
    auto clusters = mining::loadClusterArtifact(spec.substr(colon + 1));
    clusters.status().throwIfError();
    if (clusters.value().residualZThreshold <= 0.0)
        util::fatal("cluster artifact " + spec.substr(colon + 1) +
                    " is uncalibrated; rebuild it with "
                    "'cluster --model MODEL.ckpt --artifact-out ...'");
    return mining::AnomalyScorer(
        std::make_shared<const core::MapmArtifact>(
            std::move(model).value()),
        std::move(clusters).value());
}

int
cmdCluster(const Flags &flags, std::string &output)
{
    const bool from_store = flags.has("store-dir");
    if (flags.positional.empty() && !from_store)
        util::fatal("cluster expects a database file (written by "
                    "'mapm --db' or 'collect --db') or --store-dir DIR");
    if (!flags.positional.empty() && from_store)
        util::fatal("cluster takes a database file or --store-dir, not "
                    "both");

    // Signature flags first: a bad one fails before a store directory
    // is opened (and created).
    mining::SignatureOptions signature;
    signature.event = flags.get("event", signature.event);
    signature.length =
        flags.getInt("signature-length", signature.length, 2,
                     max_signature_length);
    signature.bandFraction =
        flags.getDouble("band", signature.bandFraction);
    if (signature.bandFraction < 0.0 || signature.bandFraction > 1.0)
        util::fatal("--band expects a fraction in [0, 1]");

    std::optional<store::Database> db;
    if (from_store) {
        store::StoreOptions store_options;
        store_options.directory = flags.get("store-dir", "");
        db.emplace(store::Database::openStore(store_options));
    } else {
        db.emplace(store::Database::load(flags.positional.front()));
    }

    // The snapshot pins every span the signatures and the calibration
    // read; the medoid indexing below is relative to `ids`, which is
    // sorted so family numbering never depends on catalog iteration
    // order.
    const std::string mode =
        getChoice(flags, "mode", "mlpx", {"mlpx", "ocoe"});
    const auto snap = db->snapshot();
    std::vector<store::RunId> ids;
    std::size_t skipped = 0;
    std::size_t non_finite = 0; // DTW needs every sample finite
    for (const auto &program : db->programs()) {
        for (const auto id : snap.findRuns(program, mode)) {
            const auto &events = snap.runInfo(id).events;
            if (std::find(events.begin(), events.end(),
                          signature.event) == events.end() ||
                snap.length(id) == 0) {
                ++skipped;
                continue;
            }
            const auto values = snap.values(id, signature.event);
            if (!std::all_of(values.begin(), values.end(),
                             [](double v) { return std::isfinite(v); })) {
                ++non_finite;
                continue;
            }
            ids.push_back(id);
        }
    }
    std::sort(ids.begin(), ids.end());
    std::vector<std::string> skips;
    if (skipped > 0)
        skips.push_back(util::format(
            "skipped %zu runs without a '%s' series", skipped,
            signature.event.c_str()));
    if (non_finite > 0)
        skips.push_back(util::format(
            "skipped %zu runs whose '%s' series has a non-finite sample",
            non_finite, signature.event.c_str()));
    if (ids.size() < 2) {
        std::string message = util::format(
            "cluster: %zu eligible '%s' runs with a '%s' series "
            "(need at least 2)",
            ids.size(), mode.c_str(), signature.event.c_str());
        for (const auto &skip : skips)
            message += "; " + skip;
        util::fatal(message);
    }

    util::Span span("cluster");
    span.number("runs", static_cast<double>(ids.size()));
    std::vector<std::vector<double>> signatures;
    signatures.reserve(ids.size());
    for (const auto id : ids)
        signatures.push_back(mining::runSignature(snap, id, signature));
    const std::vector<double> matrix =
        mining::dtwDistanceMatrix(signatures, signature);

    mining::KMedoidsOptions cluster_options;
    cluster_options.k = flags.getInt("k", 2, 1);
    const std::uint64_t seed = flags.getInt("seed", 42, 0);
    util::Rng rng(seed);
    const mining::KMedoidsResult clusters =
        mining::kMedoids(matrix, ids.size(), cluster_options, rng);

    const std::size_t n = ids.size();
    output += util::format(
        "clustered %zu runs into %zu families (total cost %.4f, "
        "%zu swap iterations)\n",
        n, clusters.medoids.size(), clusters.totalCost,
        clusters.iterations);
    for (const auto &skip : skips)
        output += skip + "\n";

    // Per-family membership, in slot order (slots follow ascending
    // medoid index, so the table is stable across reruns).
    std::vector<std::vector<std::size_t>> members(
        clusters.medoids.size());
    for (std::size_t i = 0; i < n; ++i)
        members[clusters.assignment[i]].push_back(i);

    util::TablePrinter table({"family", "medoid run", "program",
                              "members", "mean dtw", "programs"});
    for (std::size_t f = 0; f < clusters.medoids.size(); ++f) {
        const std::size_t medoid = clusters.medoids[f];
        double total = 0.0;
        std::map<std::string, std::size_t> programs;
        for (const std::size_t member : members[f]) {
            total += matrix[member * n + medoid];
            ++programs[snap.runInfo(ids[member]).program];
        }
        std::vector<std::string> parts;
        for (const auto &[program, count] : programs)
            parts.push_back(program + " x" + std::to_string(count));
        table.addRow(
            {std::to_string(f),
             std::to_string(static_cast<unsigned long long>(
                 ids[medoid])),
             snap.runInfo(ids[medoid]).program,
             std::to_string(members[f].size()),
             util::formatDouble(
                 members[f].empty()
                     ? 0.0
                     : total / static_cast<double>(members[f].size()),
                 4),
             util::join(parts, " ")});
    }
    output += table.render();

    // --mine: rank events within each family. Runs that measured a
    // different event list than the family medoid are skipped (the
    // dataset build needs one homogeneous list with IPC last).
    if (flags.has("mine")) {
        core::ImportanceOptions mine_options;
        mine_options.minEvents = flags.getInt("min-events", 96, 0);
        const core::ImportanceRanker ranker(mine_options);
        for (std::size_t f = 0; f < clusters.medoids.size(); ++f) {
            const auto &medoid_events =
                snap.runInfo(ids[clusters.medoids[f]]).events;
            std::vector<store::RunId> family_ids;
            for (const std::size_t member : members[f]) {
                const auto &events =
                    snap.runInfo(ids[member]).events;
                if (events == medoid_events && events.size() >= 2 &&
                    events.back() == core::ipc_series_name)
                    family_ids.push_back(ids[member]);
            }
            if (family_ids.empty()) {
                output += util::format(
                    "family %zu: no minable runs (event lists do not "
                    "end in %s)\n",
                    f, core::ipc_series_name);
                continue;
            }
            const auto data =
                core::ImportanceRanker::buildDatasetFromStore(
                    *db, family_ids, pmu::EventCatalog::instance());
            // A per-family stream derived from (seed, family) keeps
            // each family's mining reproducible regardless of how many
            // families precede it.
            util::Rng family_rng(seed * 0x100000001b3ULL +
                                 static_cast<std::uint64_t>(f) + 1);
            const auto mined = ranker.run(data, family_rng);
            output += util::format(
                "family %zu MAPM: %zu events, cv error %.2f%%\n", f,
                mined.mapmEventCount, mined.mapmErrorPercent);
            util::TablePrinter ranks({"rank", "event", "importance %"});
            const std::size_t top =
                std::min<std::size_t>(5, mined.ranking.size());
            for (std::size_t i = 0; i < top; ++i) {
                ranks.addRow({std::to_string(i + 1),
                              mined.ranking[i].feature,
                              util::formatDouble(
                                  mined.ranking[i].importance, 1)});
            }
            output += ranks.render();
        }
    }

    if (!flags.has("artifact-out") && !flags.has("model"))
        return 0;

    mining::ClusterArtifact artifact;
    artifact.microarch = db->microarch();
    artifact.signature = signature;
    // Scope the artifact to the one profiled program when the store
    // holds exactly one; a mixed store gets an unscoped artifact.
    const auto programs = db->programs();
    if (programs.size() == 1)
        artifact.benchmark = programs.front();
    for (std::size_t f = 0; f < clusters.medoids.size(); ++f) {
        mining::ClusterFamily family;
        family.medoidRun =
            static_cast<std::uint64_t>(ids[clusters.medoids[f]]);
        family.program = snap.runInfo(ids[clusters.medoids[f]]).program;
        family.memberCount = members[f].size();
        family.signature = signatures[clusters.medoids[f]];
        artifact.families.push_back(std::move(family));
    }

    if (flags.has("model")) {
        auto loaded = core::loadMapmArtifact(flags.get("model", ""));
        loaded.status().throwIfError();
        auto model = std::make_shared<const core::MapmArtifact>(
            std::move(loaded).value());
        auto calibrated = mining::AnomalyScorer::calibrate(
            model, std::move(artifact), snap, ids,
            pmu::EventCatalog::instance());
        calibrated.status().throwIfError();
        artifact = calibrated.value().clusters();
        output += util::format(
            "calibrated thresholds from %zu runs: residual z > %.2f "
            "(mean %.4g, stddev %.4g), signature distance > %.4f\n",
            ids.size(), artifact.residualZThreshold,
            artifact.residualMean, artifact.residualStddev,
            artifact.signatureThreshold);
    }

    if (flags.has("artifact-out")) {
        const std::string path = flags.get("artifact-out", "");
        mining::saveClusterArtifact(artifact, path).throwIfError();
        output += "wrote cluster artifact to " + path + "\n";
        if (artifact.residualZThreshold <= 0.0)
            output += "note: artifact is uncalibrated (no --model); "
                      "scoring will refuse it\n";
    }
    return 0;
}

int
cmdServe(const Flags &flags, std::string &output)
{
    serve::ServerOptions options;
    options.queueCap = flags.getInt("queue-cap", 64, 1);
    options.maxBatchRows = flags.getInt("batch-rows", 256, 1);
    options.defaultDeadlineMs = flags.getDouble("deadline-ms", 0.0);
    if (options.defaultDeadlineMs < 0.0)
        util::fatal("--deadline-ms expects a value >= 0");
    options.mineQueueCap = flags.getInt("mine-queue-cap", 1, 0);
    options.storeDir = flags.get("store-dir", "");
    const std::size_t budget_mb = flags.getInt("memory-budget-mb", 64, 0);
    if (budget_mb > (SIZE_MAX >> 20))
        util::fatal("--memory-budget-mb " + std::to_string(budget_mb) +
                    " overflows a byte count");
    options.storeMemoryBudgetBytes = budget_mb << 20;
    options.backend = getBackendFlag(flags);

    // The registry ObservabilityScope installed for this command, which
    // outlives the server: the server's counts are the daemon's only
    // record of what it answered.
    util::MetricsRegistry &metrics = *util::globalMetrics();
    const auto count = [&metrics](const char *name) {
        return static_cast<unsigned long long>(
            metrics.counter(name).value());
    };
    serve::Server server(options);

    // Checkpoints load once, up front; the request path never touches
    // disk. --model takes a comma-separated list of `path` or
    // `name=path` entries.
    for (const auto &entry :
         util::split(flags.get("model", ""), ',')) {
        if (entry.empty())
            continue;
        std::string name;
        std::string path = entry;
        const auto eq = entry.find('=');
        if (eq != std::string::npos) {
            name = entry.substr(0, eq);
            path = entry.substr(eq + 1);
        }
        server.loadModel(name, path).throwIfError();
    }
    // Anomaly scorers load the same way: --scorer takes a comma-
    // separated list of `MODEL:CLUSTERS` or `NAME=MODEL:CLUSTERS`
    // entries (checkpoints from 'mapm --model-out' and
    // 'cluster --model --artifact-out').
    for (const auto &entry :
         util::split(flags.get("scorer", ""), ',')) {
        if (entry.empty())
            continue;
        std::string name;
        std::string paths = entry;
        const auto eq = entry.find('=');
        if (eq != std::string::npos && eq < entry.find(':')) {
            name = entry.substr(0, eq);
            paths = entry.substr(eq + 1);
        }
        const auto colon = paths.find(':');
        if (colon == std::string::npos)
            util::fatal("--scorer entries look like "
                        "[NAME=]MODEL.ckpt:CLUSTERS.ckpt, got '" +
                        entry + "'");
        server
            .loadScorer(name, paths.substr(0, colon),
                        paths.substr(colon + 1))
            .throwIfError();
    }

    if (server.modelNames().empty() && server.scorerNames().empty() &&
        !flags.has("allow-empty"))
        util::fatal("serve requires --model FILE[,NAME=FILE...] (a "
                    "checkpoint written by 'mapm --model-out') or "
                    "--scorer; pass --allow-empty to start with "
                    "mining only");

    if (flags.has("socket")) {
        serve::SocketServer listener(server,
                                     flags.get("socket", ""));
        listener.listen().throwIfError();
        listener.serveForever().throwIfError();
        output += util::format(
            "served %zu connections: %llu ok, %llu shed, %llu "
            "deadline-missed\n",
            listener.connectionCount(), count("serve.requests_ok"),
            count("serve.requests_shed"), count("serve.deadline_missed"));
        return 0;
    }

    // Pipe mode: frames in on stdin (or --in FILE), frames out on
    // stdout (or --out FILE). One connection, then exit — the
    // deterministic transport the tests and load generator drive.
    if (!flags.has("pipe") && !flags.has("in"))
        util::fatal("serve expects --socket PATH, --pipe, or "
                    "--in FILE --out FILE");
    std::ifstream file_in;
    std::ofstream file_out;
    if (flags.has("in")) {
        file_in.open(flags.get("in", ""), std::ios::binary);
        if (!file_in)
            util::fatal("cannot read " + flags.get("in", ""));
    }
    if (flags.has("out")) {
        file_out.open(flags.get("out", ""), std::ios::binary);
        if (!file_out)
            util::fatal("cannot write " + flags.get("out", ""));
    }
    std::istream &in = flags.has("in") ? file_in : std::cin;
    std::ostream &out = flags.has("out")
                            ? static_cast<std::ostream &>(file_out)
                            : std::cout;

    serve::StreamFrameSource plain_source(in);
    serve::StreamFrameSink plain_sink(out);
    serve::FrameSource *source = &plain_source;
    serve::FrameSink *sink = &plain_sink;

    // Deterministic transport damage for hardening runs: the same
    // seeded injector that corrupts perf text deals torn frames,
    // hangups, and latency here.
    std::optional<util::FaultInjector> injector;
    std::optional<serve::FaultyFrameSource> faulty_source;
    std::optional<serve::FaultyStreamFrameSink> faulty_sink;
    util::SleepingClock sleeper;
    if (flags.has("inject-faults")) {
        auto spec = util::parseFaultSpec(flags.get("inject-faults", ""));
        spec.status().throwIfError();
        injector.emplace(spec.value());
        faulty_source.emplace(plain_source, *injector, &sleeper);
        faulty_sink.emplace(out, *injector, &sleeper);
        source = &*faulty_source;
        sink = &*faulty_sink;
    }

    const auto result = serveConnection(server, *source, *sink);
    server.drain();

    output += util::format(
        "served %zu frames: %llu ok, %llu shed, %llu deadline-missed, "
        "%llu failed\n",
        result.framesRead, count("serve.requests_ok"),
        count("serve.requests_shed"), count("serve.deadline_missed"),
        count("serve.requests_failed"));
    if (!result.transportStatus.ok())
        output += "transport: " + result.transportStatus.toString() +
                  "\n";
    return 0;
}

/**
 * One command: its entry point, the flags it reads, and how many
 * positional words it takes (at least minWords, at most maxWords, each
 * a `word`).
 */
struct Command
{
    const char *name;
    int (*run)(const Flags &, std::string &);
    std::vector<std::string> flags;
    std::size_t minWords = 0;
    std::size_t maxWords = 0;
    const char *word = "";
};

/** Fail, before any work, unless the command got a word count it takes. */
void
checkPositional(const Command &command, const Flags &flags)
{
    const auto &words = flags.positional;
    const std::string name = command.name;
    if (words.size() < command.minWords)
        util::fatal(name + " expects a " + command.word);
    if (words.size() <= command.maxWords)
        return;
    const std::string extra = words[command.maxWords];
    if (command.maxWords == 0)
        util::fatal(name + " takes no positional argument, got '" + extra +
                    "'");
    util::fatal(name + " takes " +
                (command.minWords == 0 ? "at most one " : "one ") +
                command.word + ", got an extra '" + extra + "'");
}

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"list-benchmarks", cmdListBenchmarks, {}},
        {"list-events", cmdListEvents, {"category"}},
        {"profile", cmdProfile,
         {"backend", "runs", "min-events", "skip-cleaning",
          "max-bad-runs", "max-bad-fraction", "inject-faults", "seed",
          "json", "db"},
         1, 1, "benchmark name"},
        {"collect", cmdCollect,
         {"interval-ms", "backend", "mode", "events", "runs", "seed",
          "watch", "db"},
         1, 1, "benchmark name"},
        {"mapm", cmdMapm,
         {"backend", "runs", "min-events", "seed", "model-out", "db"},
         1, 1, "benchmark name"},
        {"predict", cmdPredict, {"model", "mode", "out"}, 1, 1,
         "database file (written by 'mapm --db' or 'profile --db')"},
        {"clean", cmdClean, {"lenient", "out"}, 1, 1,
         "perf interval file"},
        {"explore", cmdExplore, {}, 1, 1, "database file"},
        {"error", cmdError, {"seed"}, 1, 1, "benchmark name"},
        {"stats", cmdStats, {}, 0, 1, "metrics file"},
        {"cluster", cmdCluster,
         {"store-dir", "event", "signature-length", "band", "mode", "k",
          "seed", "mine", "min-events", "artifact-out", "model"},
         0, 1, "database file"},
        {"serve", cmdServe,
         {"queue-cap", "batch-rows", "deadline-ms", "mine-queue-cap",
          "store-dir", "memory-budget-mb", "backend", "model", "scorer",
          "allow-empty", "socket", "pipe", "in", "out",
          "inject-faults"}},
    };
    return table;
}

} // namespace

std::string
usage()
{
    return "usage: counterminer <command> [options]\n"
           "\n"
           "commands:\n"
           "  list-benchmarks                 the 16 simulated programs\n"
           "  list-events [--category C]      the 229-event catalog\n"
           "  profile <benchmark> [--runs N] [--seed S] [--min-events N]\n"
           "          [--skip-cleaning] [--json FILE] [--db FILE]\n"
           "          [--inject-faults SPEC] [--max-bad-runs N]\n"
           "          [--max-bad-fraction F] [--backend B]\n"
           "  collect <benchmark> [--backend B] [--mode mlpx|ocoe]\n"
           "          [--runs N] [--events N] [--interval-ms D]\n"
           "          [--seed S] [--db FILE]\n"
           "          [--watch MODEL.ckpt:CLUSTERS.ckpt]\n"
           "                                  record counter runs only\n"
           "                (no mining); with --backend=perf the runs\n"
           "                are real perf_event_open measurements of a\n"
           "                built-in synthetic load; --watch scores\n"
           "                each collected run against a calibrated\n"
           "                anomaly scorer and reports verdicts\n"
           "  mapm <benchmark> [--model-out FILE] [--db FILE]\n"
           "       [--runs N] [--seed S] [--min-events N] [--backend B]\n"
           "                                  mine the MAPM and write a\n"
           "                model checkpoint for later serving\n"
           "  predict <db.cmdb> --model FILE [--out FILE] [--mode M]\n"
           "                                  score a database with a\n"
           "                checkpointed MAPM, without retraining\n"
           "  clean <perf.csv> [--out FILE] [--lenient]\n"
           "                                  clean a perf interval log\n"
           "  explore <db.cmdb>               summarize a database\n"
           "  error <benchmark> [--seed S]    quick MLPX-error check\n"
           "  stats [metrics.json]            pretty-print an exported\n"
           "                metrics file (default: cminer-metrics.json)\n"
           "  cluster (<db.cmdb> | --store-dir DIR) [--k N] [--seed S]\n"
           "          [--mode mlpx|ocoe] [--event E]\n"
           "          [--signature-length N] [--band F] [--mine]\n"
           "          [--min-events N] [--artifact-out FILE]\n"
           "          [--model MAPM.ckpt]\n"
           "                                  group a store's runs into\n"
           "                workload families by DTW distance between\n"
           "                counter signatures (k-medoids/PAM,\n"
           "                bit-identical for any --threads); --mine\n"
           "                ranks events per family, --model also\n"
           "                calibrates anomaly thresholds, and\n"
           "                --artifact-out writes the cluster-artifact\n"
           "                checkpoint that 'serve --scorer' and\n"
           "                'collect --watch' load\n"
           "  serve --model FILE[,NAME=FILE...]\n"
           "        [--scorer [NAME=]MODEL.ckpt:CLUSTERS.ckpt[,...]]\n"
           "        (--socket PATH | --pipe | --in FILE --out FILE)\n"
           "        [--queue-cap N] [--batch-rows N] [--deadline-ms D]\n"
           "        [--mine-queue-cap N] [--store-dir DIR]\n"
           "        [--memory-budget-mb N] [--inject-faults SPEC]\n"
           "        [--backend B] [--allow-empty]\n"
           "                                  deadline-aware serving\n"
           "                daemon: scores each predict as soon as the\n"
           "                batcher is free (predicts that queue up\n"
           "                meanwhile share the next batch), sheds\n"
           "                with CapacityError when the admission queue\n"
           "                is full, drains cleanly on a shutdown frame.\n"
           "                --store-dir mines into a persistent\n"
           "                directory of segment files whose resident\n"
           "                memory follows --memory-budget-mb (default\n"
           "                64) instead of the accumulated runs\n"
           "\n"
           "A flag the command does not take is an error, and so is a\n"
           "malformed or out-of-range number (counts are integers;\n"
           "--runs of profile and mapm is at most 10000,\n"
           "--signature-length at most 65536, --threads at most 1024).\n"
           "Each command takes exactly the positional words its line\n"
           "shows (<word> one, [word] at most one, none when absent):\n"
           "a missing or extra word is an error.\n"
           "\n"
           "shared options:\n"
           "  --backend B   (profile, collect, mapm, serve) how\n"
           "                counters are measured: 'sim' (default,\n"
           "                the paper's simulated PMU, deterministic\n"
           "                per seed) or 'perf' (real perf_event_open\n"
           "                on Linux; probed at startup and falling\n"
           "                back to sim with a logged reason when\n"
           "                hardware counters are unavailable)\n"
           "  --threads N   (every command) worker threads for the\n"
           "                mining pipeline\n"
           "                (default: CMINER_THREADS env var, else all\n"
           "                hardware threads; 1 = fully serial; results\n"
           "                are bit-identical for any value)\n"
           "\n"
           "observability (every command):\n"
           "  --trace-out FILE    write a JSON tree of timed pipeline\n"
           "                phase spans (collect/clean/dataset/eir/...)\n"
           "  --metrics-out FILE  write pipeline counters, gauges and\n"
           "                duration histograms as JSON; inspect with\n"
           "                'counterminer stats FILE'\n"
           "                Both are off by default and cost nothing\n"
           "                when absent.\n"
           "\n"
           "fault tolerance:\n"
           "  --inject-faults SPEC  deterministic damage for hardening\n"
           "                runs, e.g. corrupt=0.02,drop=0.02,nan=0.01,\n"
           "                transient=0.05,seed=7 (rates in [0,1];\n"
           "                keys: corrupt drop dup nan transient seed)\n"
           "  --max-bad-runs N      quarantine up to N failed runs\n"
           "                before aborting (default 0: first failure\n"
           "                is fatal)\n"
           "  --max-bad-fraction F  abort when more than this fraction\n"
           "                of runs was quarantined (default 0.5)\n"
           "  --lenient     (clean) skip-and-count damaged lines\n"
           "                instead of rejecting the file\n";
}

int
run(const std::vector<std::string> &args, std::string &output)
{
    if (args.empty() || args.front() == "help" ||
        args.front() == "--help") {
        output += usage();
        return args.empty() ? 1 : 0;
    }
    const auto &table = commands();
    const auto command =
        std::find_if(table.begin(), table.end(), [&](const Command &c) {
            return args.front() == c.name;
        });
    if (command == table.end()) {
        output += "unknown command '" + args.front() + "'\n" + usage();
        return 1;
    }
    try {
        const Flags flags =
            parseFlags(args, 1, command->name, command->flags);
        checkPositional(*command, flags);
        if (flags.has("threads"))
            util::Parallelism::setThreadCount(flags.getInt(
                "threads", 0, 1, util::Parallelism::max_threads));
        ObservabilityScope observability(flags,
                                         command->run == cmdServe);
        const int code = command->run(flags, output);
        if (code == 0)
            observability.writeReports(output);
        return code;
    } catch (const util::FatalError &e) {
        output += std::string("error: ") + e.what() + "\n";
        return 1;
    } catch (const std::bad_alloc &e) {
        // The flag bounds keep a well-formed count from asking for more
        // than the host has (bad_alloc) or than a container can hold
        // (length_error); anything that still does is bad input.
        output += std::string("error: allocation too large (") + e.what() +
                  ")\n";
        return 1;
    } catch (const std::length_error &e) {
        output += std::string("error: allocation too large (") + e.what() +
                  ")\n";
        return 1;
    }
}

} // namespace cminer::cli
