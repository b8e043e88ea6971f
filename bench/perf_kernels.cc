/**
 * @file
 * google-benchmark microbenchmarks for the library's hot kernels: DTW
 * (full and banded), SGBRT training, the cleaner, the Anderson-Darling
 * triage, and trace generation.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <new>
#include <optional>

#include "common.h"
#include "ml/dataset_view.h"
#include "ml/decision_tree.h"
#include "core/checkpoint.h"
#include "mining/anomaly.h"
#include "mining/distance.h"
#include "core/cleaner.h"
#include "ml/gbrt.h"
#include "ml/model_io.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats/anderson_darling.h"
#include "store/database.h"
#include "ts/dtw.h"
#include "ts/lb_keogh.h"
#include "ts/time_series.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "workload/suites.h"

using namespace cminer;

// --- allocation accounting -----------------------------------------------
// Global new/delete replacements tallying every heap allocation in the
// process. The columnar data plane's contract is that deriving a view
// performs no matrix copy; the *Copy/*View benchmark twins below report
// allocs/iter and alloc_kb/iter so the difference shows up in the bench
// output, not just in wall clock.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void *p = std::malloc(size > 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

// The deletes stay out of line: inlined into an allocator, GCC 12 sees
// free() meet the pointer operator new returned and warns
// (-Wmismatched-new-delete), not knowing new is replaced by malloc.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

/** Snapshot of the global allocation tallies. */
struct AllocCounters
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;

    static AllocCounters
    now()
    {
        return {g_alloc_count.load(std::memory_order_relaxed),
                g_alloc_bytes.load(std::memory_order_relaxed)};
    }
};

/** Report per-iteration allocation deltas as benchmark counters. */
void
reportAllocsPerIter(benchmark::State &state, const AllocCounters &before)
{
    const auto after = AllocCounters::now();
    const auto iters =
        static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
    state.counters["allocs_per_iter"] =
        static_cast<double>(after.count - before.count) / iters;
    state.counters["alloc_kb_per_iter"] =
        static_cast<double>(after.bytes - before.bytes) / 1024.0 / iters;
}

} // namespace

namespace {

/** Training set for the GBRT-fit benchmarks. */
ml::Dataset
gbrtBenchData(std::size_t features, int rows)
{
    std::vector<std::string> names;
    for (std::size_t f = 0; f < features; ++f)
        names.push_back("f" + std::to_string(f));
    ml::Dataset data(names);
    util::Rng gen(5);
    for (int r = 0; r < rows; ++r) {
        std::vector<double> row(features);
        for (auto &v : row)
            v = gen.gaussian();
        data.addRow(row, row[0] * 2.0 + row[1 % features]);
    }
    return data;
}

/**
 * A private mkdtemp directory under the system temp dir, removed with
 * its contents when the benchmark ends. Each benchmark run gets its
 * own, so two concurrent runs never share or delete each other's files.
 */
class BenchTempDir
{
  public:
    BenchTempDir()
    {
        std::string pattern = (std::filesystem::temp_directory_path() /
                               "cminer_bench_XXXXXX")
                                  .string();
        if (::mkdtemp(pattern.data()) == nullptr)
            util::fatal("perf_kernels: mkdtemp failed for " + pattern);
        dir_ = pattern;
    }
    ~BenchTempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    BenchTempDir(const BenchTempDir &) = delete;
    BenchTempDir &operator=(const BenchTempDir &) = delete;

    /** Path of an entry inside the directory. */
    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

  private:
    std::filesystem::path dir_;
};

std::vector<double>
randomSeries(std::size_t n, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<double> values(n);
    double x = 0.0;
    for (auto &v : values) {
        x = 0.8 * x + rng.gaussian();
        v = 100.0 + 10.0 * x;
    }
    return values;
}

void
BM_DtwFull(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = randomSeries(n, 1);
    const auto b = randomSeries(n + n / 10, 2);
    for (auto _ : state)
        benchmark::DoNotOptimize(ts::dtwDistance(a, b));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DtwFull)->Range(64, 2048)->Complexity();

void
BM_DtwBanded(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = randomSeries(n, 3);
    const auto b = randomSeries(n + n / 10, 4);
    ts::DtwOptions options;
    options.bandFraction = 0.1;
    for (auto _ : state)
        benchmark::DoNotOptimize(ts::dtwDistance(a, b, options));
}
BENCHMARK(BM_DtwBanded)->Range(64, 2048);

void
BM_LbKeoghBound(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto a = randomSeries(n, 21);
    const auto b = randomSeries(n, 22);
    const auto envelope = ts::computeEnvelope(a, n / 10 + 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(ts::lbKeogh(envelope, b));
}
BENCHMARK(BM_LbKeoghBound)->Range(64, 2048);

void
BM_GbrtFit(benchmark::State &state)
{
    const auto features = static_cast<std::size_t>(state.range(0));
    const auto data = gbrtBenchData(features, 800);
    for (auto _ : state) {
        util::Rng rng(7);
        ml::GbrtParams params;
        params.treeCount = 50;
        ml::Gbrt model(params);
        model.fit(data, rng);
        benchmark::DoNotOptimize(model.treeCount());
    }
    state.counters["threads"] =
        static_cast<double>(bench::activeThreads());
}
BENCHMARK(BM_GbrtFit)->Arg(16)->Arg(64)->Arg(226);

/**
 * GBRT fit at an explicit thread count (the determinism contract makes
 * the outputs identical; only wall clock changes). Compare e.g.
 * `BM_GbrtFitThreads/1` vs `/4` for the parallel-speedup check.
 */
void
BM_GbrtFitThreads(benchmark::State &state)
{
    const auto data = gbrtBenchData(226, 1600);
    util::Parallelism::setThreadCount(
        static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        util::Rng rng(7);
        ml::GbrtParams params;
        params.treeCount = 50;
        ml::Gbrt model(params);
        model.fit(data, rng);
        benchmark::DoNotOptimize(model.treeCount());
    }
    state.counters["threads"] =
        static_cast<double>(bench::activeThreads());
    util::Parallelism::setThreadCount(0); // restore automatic sizing
}
BENCHMARK(BM_GbrtFitThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/** Where BM_GbrtPredictAll's walk reads its feature values. */
enum class PredictFeed
{
    View,     ///< predictAll(view): base columns through the view's rows
    Columns,  ///< one column pointer per feature, read by row
    RowMajor, ///< one row-major matrix, read at row * width + feature
};

/**
 * Whole-dataset prediction across the ensemble (parallel across rows):
 * features x trees x rows, fed the way a caller feeds it. The wide
 * shape goes through predictAll(view), the path of EIR's test error
 * and `cminer predict`. The two models the trajectory workloads serve
 * feed the walk as their scorers do: surveil's MAPM on one stored run
 * (8 x 60 x 130) reads the run's column spans, as
 * AnomalyScorer::scoreRun and calibrate do, and a serve score request
 * (16 x 60 x 460) reads the request's row-major matrix, as
 * AnomalyScorer::score does. Trees are fit on at least 2048 rows, so
 * they grow to full depth; the predicted rows are the first of those.
 */
void
BM_GbrtPredictAll(benchmark::State &state)
{
    const auto features = static_cast<std::size_t>(state.range(0));
    const auto rows = static_cast<int>(state.range(2));
    const auto data = gbrtBenchData(features, rows);
    util::Rng rng(7);
    ml::GbrtParams params;
    params.treeCount = static_cast<std::size_t>(state.range(1));
    ml::Gbrt model(params);
    model.fit(rows >= 2048 ? data : gbrtBenchData(features, 2048), rng);
    const auto count = static_cast<std::size_t>(rows);
    const auto timed = [&](const auto &value_of) {
        for (auto _ : state) {
            std::vector<double> out(count);
            model.predictAll(count, features, value_of, out);
            benchmark::DoNotOptimize(out.data());
        }
    };
    switch (static_cast<PredictFeed>(state.range(3))) {
    case PredictFeed::View:
        for (auto _ : state)
            benchmark::DoNotOptimize(model.predictAll(data));
        break;
    case PredictFeed::Columns: {
        std::vector<const double *> columns;
        for (std::size_t f = 0; f < features; ++f)
            columns.push_back(data.column(f).data());
        timed([&](std::size_t feature, std::size_t row) {
            return columns[feature][row];
        });
        break;
    }
    case PredictFeed::RowMajor: {
        std::vector<double> values(count * features);
        for (std::size_t r = 0; r < count; ++r)
            for (std::size_t f = 0; f < features; ++f)
                values[r * features + f] = data.column(f)[r];
        timed([&](std::size_t feature, std::size_t row) {
            return values[row * features + feature];
        });
        break;
    }
    }
    state.SetItemsProcessed(state.iterations() * rows);
    state.counters["threads"] =
        static_cast<double>(bench::activeThreads());
}
BENCHMARK(BM_GbrtPredictAll)
    ->Args({64, 50, 4096, static_cast<int>(PredictFeed::View)})
    ->Args({8, 60, 130, static_cast<int>(PredictFeed::Columns)})
    ->Args({16, 60, 460, static_cast<int>(PredictFeed::RowMajor)})
    ->UseRealTime();

// --- checkpoint subsystem -------------------------------------------------

/** Full model checkpoint round trip: serialize, atomic write, load. */
void
BM_ModelSaveLoad(benchmark::State &state)
{
    const auto data = gbrtBenchData(64, 800);
    util::Rng rng(7);
    ml::GbrtParams params;
    params.treeCount = static_cast<std::size_t>(state.range(0));
    ml::Gbrt model(params);
    model.fit(data, rng);
    const BenchTempDir tmp;
    const std::string path = tmp.path("model.ckpt");
    const auto before = AllocCounters::now();
    for (auto _ : state) {
        if (!ml::saveModel(model, path).ok())
            state.SkipWithError("save failed");
        auto loaded = ml::loadModel(path);
        if (!loaded.ok())
            state.SkipWithError("load failed");
        benchmark::DoNotOptimize(loaded);
    }
    reportAllocsPerIter(state, before);
    std::error_code ec;
    state.counters["file_kb"] = static_cast<double>(
        std::filesystem::file_size(path, ec)) / 1024.0;
}
BENCHMARK(BM_ModelSaveLoad)->Arg(50)->Arg(150)
    ->Unit(benchmark::kMillisecond);

/** The predict serving path: score a reloaded checkpoint over a view. */
void
BM_PredictThroughput(benchmark::State &state)
{
    const auto data = gbrtBenchData(64, 4096);
    util::Rng rng(7);
    ml::GbrtParams params;
    params.treeCount = 50;
    ml::Gbrt trained(params);
    trained.fit(data, rng);
    const BenchTempDir tmp;
    const std::string path = tmp.path("predict.ckpt");
    if (!ml::saveModel(trained, path).ok()) {
        state.SkipWithError("save failed");
        return;
    }
    auto loaded = ml::loadModel(path);
    if (!loaded.ok()) {
        state.SkipWithError("load failed");
        return;
    }
    const ml::Gbrt &model = loaded.value();
    const ml::DatasetView view(data);
    const auto before = AllocCounters::now();
    for (auto _ : state)
        benchmark::DoNotOptimize(model.predictAll(view));
    reportAllocsPerIter(state, before);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(view.rowCount()));
    state.counters["threads"] =
        static_cast<double>(bench::activeThreads());
}
BENCHMARK(BM_PredictThroughput)->UseRealTime();

// --- columnar data plane: copy vs view twins ------------------------------
// Each pair runs the identical workload through the legacy materializing
// path (Dataset::project / subset copies) and the DatasetView path. The
// allocs_per_iter / alloc_kb_per_iter counters prove the view twin does
// no per-iteration matrix copy; wall clock proves it is no slower.

/** The EIR survivor set: every feature but the 10 dropped last round. */
std::vector<std::string>
eirSurvivors(const ml::Dataset &data)
{
    std::vector<std::string> keep = data.featureNames();
    keep.resize(keep.size() - 10);
    return keep;
}

void
BM_DatasetProjectCopy(benchmark::State &state)
{
    const auto data = gbrtBenchData(226, 800);
    const auto keep = eirSurvivors(data);
    const auto before = AllocCounters::now();
    for (auto _ : state)
        benchmark::DoNotOptimize(data.project(keep));
    reportAllocsPerIter(state, before);
}
BENCHMARK(BM_DatasetProjectCopy);

void
BM_DatasetProjectView(benchmark::State &state)
{
    const auto data = gbrtBenchData(226, 800);
    const auto keep = eirSurvivors(data);
    const auto before = AllocCounters::now();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            ml::DatasetView(data).withFeatures(keep));
    reportAllocsPerIter(state, before);
}
BENCHMARK(BM_DatasetProjectView);

/**
 * One EIR drop-10-retrain iteration: narrow the training matrix to the
 * surviving events, then refit the GBRT. The Copy twin materializes the
 * narrowed matrix the way the pre-columnar pipeline did; the View twin
 * shrinks a column mask. Both run with a metrics registry installed so
 * the gbrt.split_scan_ms histogram wiring is exercised and surfaced.
 */
void
BM_EirRefitCopy(benchmark::State &state)
{
    const auto data = gbrtBenchData(226, 800);
    const auto keep = eirSurvivors(data);
    ml::GbrtParams params;
    params.treeCount = 20;
    util::MetricsRegistry registry;
    util::setGlobalMetrics(&registry);
    const auto before = AllocCounters::now();
    for (auto _ : state) {
        util::Rng rng(7);
        const ml::Dataset current = data.project(keep);
        ml::Gbrt model(params);
        model.fit(current, rng);
        benchmark::DoNotOptimize(model.treeCount());
    }
    reportAllocsPerIter(state, before);
    util::setGlobalMetrics(nullptr);
    const auto scan =
        registry.histogram("gbrt.split_scan_ms").snapshot();
    state.counters["split_scan_ms_per_iter"] =
        scan.totalMs /
        static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_EirRefitCopy)->Unit(benchmark::kMillisecond);

void
BM_EirRefitView(benchmark::State &state)
{
    const auto data = gbrtBenchData(226, 800);
    const auto keep = eirSurvivors(data);
    ml::GbrtParams params;
    params.treeCount = 20;
    util::MetricsRegistry registry;
    util::setGlobalMetrics(&registry);
    const auto before = AllocCounters::now();
    for (auto _ : state) {
        util::Rng rng(7);
        const ml::DatasetView current =
            ml::DatasetView(data).withFeatures(keep);
        ml::Gbrt model(params);
        model.fit(current, rng);
        benchmark::DoNotOptimize(model.treeCount());
    }
    reportAllocsPerIter(state, before);
    util::setGlobalMetrics(nullptr);
    const auto scan =
        registry.histogram("gbrt.split_scan_ms").snapshot();
    state.counters["split_scan_ms_per_iter"] =
        scan.totalMs /
        static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
}
BENCHMARK(BM_EirRefitView)->Unit(benchmark::kMillisecond);

void
BM_CleanerSeries(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    auto values = randomSeries(n, 8);
    util::Rng rng(9);
    for (std::size_t i = 0; i < n / 20; ++i)
        values[rng.uniformInt(0, static_cast<std::int64_t>(n) - 1)] = 0.0;
    const core::DataCleaner cleaner;
    for (auto _ : state) {
        ts::TimeSeries series("X", values);
        benchmark::DoNotOptimize(cleaner.clean(series));
    }
}
BENCHMARK(BM_CleanerSeries)->Range(256, 4096);

void
BM_AndersonDarlingTriage(benchmark::State &state)
{
    const auto values = randomSeries(
        static_cast<std::size_t>(state.range(0)), 10);
    for (auto _ : state)
        benchmark::DoNotOptimize(stats::fitBestDistribution(values));
}
BENCHMARK(BM_AndersonDarlingTriage)->Range(256, 4096);

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto &benchmark_obj =
        workload::BenchmarkSuite::instance().byName("wordcount");
    util::Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(benchmark_obj.generateTrace(rng));
    }
}
BENCHMARK(BM_TraceGeneration);

// --- quantile binning -----------------------------------------------------
// FeatureBinner bins every event once per GBRT fit. Its lowerBoundBins
// sweep is the one kernel with a vector body outside DTW's lockstep
// block (DESIGN.md §13): 229 events (the catalog) x 1,024 rows at 32
// bins, so every column takes the SSE2 sweep.

void
BM_FeatureBinner(benchmark::State &state)
{
    constexpr std::size_t kFeatures = 229;
    constexpr int kRows = 1024;
    const auto data = gbrtBenchData(kFeatures, kRows);
    for (auto _ : state) {
        const ml::FeatureBinner binner(data, 32);
        benchmark::DoNotOptimize(binner.binColumn(0).data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kFeatures * kRows));
}
BENCHMARK(BM_FeatureBinner)->Unit(benchmark::kMillisecond);

// --- observability overhead ----------------------------------------------
// The disabled variants are the zero-overhead contract: with no tracer
// or registry installed, a Span or counter update must reduce to one
// relaxed atomic load and a branch. Compare each *Disabled bench with
// its *Enabled twin (and BM_GbrtFitThreads with flags absent for the
// macro check).

void
BM_SpanDisabled(benchmark::State &state)
{
    for (auto _ : state) {
        util::Span span("bench.span");
        benchmark::DoNotOptimize(span.active());
    }
}
BENCHMARK(BM_SpanDisabled);

void
BM_SpanEnabled(benchmark::State &state)
{
    util::SteadyClock clock;
    util::Tracer tracer(clock);
    util::setGlobalTracer(&tracer);
    for (auto _ : state) {
        util::Span span("bench.span");
        benchmark::DoNotOptimize(span.active());
    }
    util::setGlobalTracer(nullptr);
}
// Every iteration appends a span record; cap the count so the tracer's
// backing store stays small.
BENCHMARK(BM_SpanEnabled)->Iterations(16384);

void
BM_CounterDisabled(benchmark::State &state)
{
    for (auto _ : state)
        util::count("bench.counter");
}
BENCHMARK(BM_CounterDisabled);

void
BM_CounterEnabled(benchmark::State &state)
{
    util::MetricsRegistry registry;
    util::setGlobalMetrics(&registry);
    for (auto _ : state)
        util::count("bench.counter");
    util::setGlobalMetrics(nullptr);
}
BENCHMARK(BM_CounterEnabled);

// --- serving wire protocol -----------------------------------------------
// The serve daemon decodes one frame per request on the accept loop
// thread; encode/decode cost bounds per-connection throughput before
// batching even starts (DESIGN.md §14).

/** A predict payload with `rows` rows over 16 events. */
std::string
makePredictPayload(std::size_t rows)
{
    serve::PredictRequest request;
    request.id = 1;
    request.model = "bench";
    for (int e = 0; e < 16; ++e)
        request.events.push_back("EVT_" + std::to_string(e));
    request.rowCount = rows;
    request.values.resize(rows * request.events.size());
    util::Rng rng(11);
    for (auto &v : request.values)
        v = rng.uniform();
    return serve::encodeRequest(serve::Request(std::move(request)));
}

void
BM_ServeEncodePredict(benchmark::State &state)
{
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    serve::PredictRequest request;
    request.id = 1;
    request.model = "bench";
    for (int e = 0; e < 16; ++e)
        request.events.push_back("EVT_" + std::to_string(e));
    request.rowCount = rows;
    request.values.assign(rows * request.events.size(), 1.5);
    const serve::Request wrapped(std::move(request));
    for (auto _ : state) {
        auto payload = serve::encodeRequest(wrapped);
        benchmark::DoNotOptimize(payload.data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * rows * 16 *
                                  sizeof(double)));
}
BENCHMARK(BM_ServeEncodePredict)->Arg(1)->Arg(64)->Arg(1024);

void
BM_ServeDecodePredict(benchmark::State &state)
{
    const auto payload =
        makePredictPayload(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        auto decoded = serve::decodeRequest(payload);
        benchmark::DoNotOptimize(decoded.ok());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * payload.size()));
}
BENCHMARK(BM_ServeDecodePredict)->Arg(1)->Arg(64)->Arg(1024);

/**
 * Installs a metrics registry for one benchmark, as `cminer serve`
 * always runs with one: the daemon counts every event it answers
 * there. Declare it before the Server, which counts until it is gone.
 */
struct ServeMetrics
{
    ServeMetrics() { util::setGlobalMetrics(&registry); }
    ~ServeMetrics() { util::setGlobalMetrics(nullptr); }
    util::MetricsRegistry registry;
};

/** A 50-tree MAPM over 16 events and the rows it was fit on. */
struct ServeBench
{
    ml::Dataset data;
    core::MapmArtifact artifact;
};

ServeBench
makeServeBench()
{
    ServeBench bench;
    bench.data = gbrtBenchData(16, 256);
    ml::GbrtParams params;
    params.treeCount = 50;
    ml::Gbrt model(params);
    util::Rng rng(21);
    model.fit(bench.data, rng);
    bench.artifact.benchmark = "bench";
    bench.artifact.microarch = "haswell-e";
    bench.artifact.events = bench.data.featureNames();
    bench.artifact.model = std::move(model);
    return bench;
}

/** An encoded one-row predict of row `row` of the bench data. */
std::string
onePredictPayload(const ServeBench &bench, std::size_t row)
{
    serve::PredictRequest request;
    request.id = row + 1;
    request.model = "bench";
    request.events = bench.data.featureNames();
    request.rowCount = 1;
    request.values =
        ml::DatasetView(bench.data).row(row % bench.data.rowCount());
    return serve::encodeRequest(serve::Request(std::move(request)));
}

// Admission -> batch -> score -> respond for single-row requests, the
// worst case for batching overhead: how much daemon machinery costs on
// top of the bare Gbrt::predictAll the CLI path uses.
void
BM_ServeBatchPipeline(benchmark::State &state)
{
    const std::size_t burst = static_cast<std::size_t>(state.range(0));
    ServeBench bench = makeServeBench();

    const ServeMetrics metrics;
    serve::ServerOptions options;
    options.startBatcher = false;
    options.queueCap = burst;
    options.maxBatchRows = burst;
    serve::Server server(options);
    server.registerModel("bench", std::move(bench.artifact));

    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < burst; ++i)
        payloads.push_back(onePredictPayload(bench, i));

    std::size_t responses = 0;
    for (auto _ : state) {
        for (const auto &payload : payloads)
            server.submitFrame(payload, [&responses](std::string r) {
                ++responses;
                benchmark::DoNotOptimize(r.data());
            });
        while (server.runBatchOnce() > 0) {
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * burst));
    if (responses != state.iterations() * burst)
        state.SkipWithError("response count mismatch");
}
BENCHMARK(BM_ServeBatchPipeline)->Arg(16)->Arg(256)->UseRealTime();

// One one-row predict through submitFrame and the running batcher
// thread, timed until its response arrives: what an idle daemon adds
// to a request before the socket. BM_ServeBatchPipeline pumps the
// batcher by hand, so only this benchmark sees the batcher's wait.
void
BM_ServeRoundTrip(benchmark::State &state)
{
    ServeBench bench = makeServeBench();
    const std::string payload = onePredictPayload(bench, 0);

    std::mutex mutex;
    std::condition_variable answered;
    std::size_t responses = 0;
    std::string last;
    const ServeMetrics metrics;
    serve::Server server; // default options: the batcher thread runs
    server.registerModel("bench", std::move(bench.artifact));

    std::size_t sent = 0;
    for (auto _ : state) {
        ++sent;
        server.submitFrame(payload, [&](std::string response) {
            std::lock_guard<std::mutex> lock(mutex);
            last = std::move(response);
            ++responses;
            answered.notify_one();
        });
        std::unique_lock<std::mutex> lock(mutex);
        answered.wait(lock, [&] { return responses == sent; });
    }
    auto decoded = serve::decodeResponse(last);
    if (!decoded.ok() || decoded.value().code != util::StatusCode::Ok)
        state.SkipWithError("predict failed");
}
BENCHMARK(BM_ServeRoundTrip)->UseRealTime();

// --- segment store ---------------------------------------------------------
// Twin benchmarks over the same synthetic fleet: Arg(0) keeps every run
// in the write buffer of a Database with no directory, Arg(1) gives the
// store a directory and a seal threshold small enough that ingest
// really seals and mining really reads mapped files. The rss/hwm
// counters show the resident-memory story the directory exists for;
// allocs_per_iter shows the read path staying zero-copy either way.

/** A /proc/self/status gauge in KiB (VmRSS, VmHWM), 0 if unreadable. */
std::size_t
procStatusKb(const char *key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::string prefix = std::string(key) + ":";
    while (std::getline(status, line)) {
        if (line.rfind(prefix, 0) == 0)
            return static_cast<std::size_t>(
                std::stoull(line.substr(prefix.size())));
    }
    return 0;
}

/**
 * Reset the kernel's peak-RSS mark (VmHWM) to the current resident set,
 * so a later VmHWM read is this benchmark's peak, not the process's.
 */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** The fleet both store benchmarks ingest: `runs` windows, 8 events. */
std::vector<std::vector<ts::TimeSeries>>
storeBenchFleet(std::size_t runs, std::size_t length)
{
    util::Rng rng(33);
    std::vector<std::vector<ts::TimeSeries>> fleet;
    fleet.reserve(runs);
    for (std::size_t r = 0; r < runs; ++r) {
        std::vector<ts::TimeSeries> window;
        for (int e = 0; e < 8; ++e) {
            std::vector<double> values(length);
            for (auto &v : values)
                v = 100.0 * (e + 1) + rng.gaussian();
            window.emplace_back("EVT_" + std::to_string(e),
                                std::move(values), 10.0);
        }
        fleet.push_back(std::move(window));
    }
    return fleet;
}

void
BM_IngestOutOfCore(benchmark::State &state)
{
    const bool out_of_core = state.range(0) != 0;
    const BenchTempDir tmp;
    const std::string dir = tmp.path("store");
    const std::size_t runs = 24;
    const std::size_t length = 4096;
    const auto fleet = storeBenchFleet(runs, length);

    resetPeakRss();
    const auto before = AllocCounters::now();
    for (auto _ : state) {
        state.PauseTiming();
        std::filesystem::remove_all(dir);
        state.ResumeTiming();
        if (out_of_core) {
            store::StoreOptions options;
            options.directory = dir;
            options.sealThresholdBytes = 1ull << 20;
            store::Database db = store::Database::openStore(options);
            for (const auto &window : fleet)
                db.addRun("p", "s", "mlpx", 1.0, window);
            db.flush();
        } else {
            store::Database db;
            for (const auto &window : fleet)
                db.addRun("p", "s", "mlpx", 1.0, window);
        }
    }
    reportAllocsPerIter(state, before);
    state.counters["ingest_mb"] = static_cast<double>(
        runs * 8 * length * sizeof(double)) / (1024.0 * 1024.0);
    state.counters["rss_hwm_mb"] =
        static_cast<double>(procStatusKb("VmHWM")) / 1024.0;
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * runs * 8 * length * sizeof(double)));
}
BENCHMARK(BM_IngestOutOfCore)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_MineFromSegments(benchmark::State &state)
{
    const bool out_of_core = state.range(0) != 0;
    const BenchTempDir tmp;
    const std::string dir = tmp.path("store");
    const std::size_t runs = 24;
    const std::size_t length = 4096;
    const auto fleet = storeBenchFleet(runs, length);

    std::optional<store::Database> db;
    if (out_of_core) {
        store::StoreOptions options;
        options.directory = dir;
        options.sealThresholdBytes = 1ull << 20;
        db.emplace(store::Database::openStore(options));
    } else {
        db.emplace();
    }
    for (const auto &window : fleet)
        db->addRun("p", "s", "mlpx", 1.0, window);
    if (out_of_core)
        db->flush();

    const auto before = AllocCounters::now();
    for (auto _ : state) {
        // The mining access pattern: pin a snapshot, touch every sample
        // of every column through the zero-copy span path.
        const store::StoreSnapshot snap = db->snapshot();
        double acc = 0.0;
        for (std::size_t r = 0; r < runs; ++r) {
            const auto id = static_cast<store::RunId>(r);
            const std::size_t events = snap.runInfo(id).events.size();
            for (std::size_t e = 0; e < events; ++e) {
                for (const double v : snap.values(id, e))
                    acc += v;
            }
        }
        benchmark::DoNotOptimize(acc);
    }
    reportAllocsPerIter(state, before);
    state.counters["rss_mb"] =
        static_cast<double>(procStatusKb("VmRSS")) / 1024.0;
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * runs * 8 * length * sizeof(double)));
}
BENCHMARK(BM_MineFromSegments)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Mining layer: DTW distance work and end-to-end anomaly scoring
// (DESIGN.md §17).

/** `count` z-normalized signatures from a handful of shape families. */
std::vector<std::vector<double>>
syntheticSignatures(std::size_t count, std::size_t length,
                    std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<std::vector<double>> signatures;
    signatures.reserve(count);
    mining::SignatureOptions options;
    options.length = length;
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<double> values(length);
        for (std::size_t t = 0; t < length; ++t) {
            const double x = static_cast<double>(t) /
                             static_cast<double>(length - 1);
            values[t] = std::sin(2.0 * M_PI *
                                 (static_cast<double>(i % 4 + 1) * x)) +
                        0.5 * x + rng.gaussian(0.0, 0.05);
        }
        signatures.push_back(mining::makeSignature(values, options));
    }
    return signatures;
}

/**
 * Assign every signature to its nearest of k medoids — the k-medoids
 * inner loop and the scorer's family lookup. Arg(1) picks the twin:
 * 0 = full DTW against every candidate, 1 = LB_Keogh-pruned search
 * (mining::nearestMedoid). The pairwise matrix feeding PAM is exact by
 * contract, so assignment is where pruning pays.
 */
void
BM_DtwMatrix(benchmark::State &state)
{
    const auto count = static_cast<std::size_t>(state.range(0));
    const bool pruned = state.range(1) != 0;
    mining::SignatureOptions options;
    options.length = 128;
    const auto signatures = syntheticSignatures(count, 128, 0x5e7);
    const std::vector<std::vector<double>> medoids(
        signatures.begin(), signatures.begin() + 8);
    const std::vector<std::span<const double>> medoid_views(
        medoids.begin(), medoids.end());

    std::size_t dtw_evaluations = 0;
    std::size_t assignments = 0;
    for (auto _ : state) {
        double acc = 0.0;
        for (const auto &signature : signatures) {
            if (pruned) {
                const auto nearest = mining::nearestMedoid(
                    signature, medoid_views, options);
                acc += nearest.distance;
                dtw_evaluations += nearest.dtwEvaluations;
            } else {
                double best = mining::signatureDistance(
                    signature, medoids[0], options);
                for (std::size_t m = 1; m < medoids.size(); ++m)
                    best = std::min(
                        best, mining::signatureDistance(
                                  signature, medoids[m], options));
                acc += best;
                dtw_evaluations += medoids.size();
            }
            ++assignments;
        }
        benchmark::DoNotOptimize(acc);
    }
    state.counters["dtw_per_assign"] =
        static_cast<double>(dtw_evaluations) /
        static_cast<double>(assignments);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * count));
}
BENCHMARK(BM_DtwMatrix)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Unit(benchmark::kMillisecond);

/**
 * The exact pairwise matrix PAM clusters on (mining::dtwDistanceMatrix)
 * over `count` 128-sample signatures at band 0.1. Serial, so the figure
 * is the lockstep DTW kernel's, not the pool's.
 */
void
BM_DtwDistanceMatrix(benchmark::State &state)
{
    const auto count = static_cast<std::size_t>(state.range(0));
    mining::SignatureOptions options;
    options.length = 128;
    options.bandFraction = 0.1;
    const auto signatures = syntheticSignatures(count, 128, 0x5e7);
    util::Parallelism::setThreadCount(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mining::dtwDistanceMatrix(signatures, options));
    util::Parallelism::setThreadCount(0); // restore automatic sizing
    const std::size_t pairs = count * (count - 1) / 2;
    state.counters["pairs"] = static_cast<double>(pairs);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(pairs)));
}
BENCHMARK(BM_DtwDistanceMatrix)
    ->Arg(96)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

/**
 * One end-to-end anomaly score: a Gbrt predictAll pass over the run's
 * rows, the residual z-score, and the LB-pruned medoid search — the
 * per-request cost of `cminer serve`'s score path.
 */
void
BM_AnomalyScore(benchmark::State &state)
{
    const std::size_t rows = 96;
    const std::vector<std::string> events = {"FA", "FB", "FC"};
    util::Rng rng(0xab5);

    // A small synthetic training set: IPC is a noisy linear blend of
    // the three features with an asymmetric ramp-driven shape.
    ml::Dataset data(events);
    std::vector<double> train_measured;
    for (std::size_t run = 0; run < 8; ++run) {
        for (std::size_t i = 0; i < rows; ++i) {
            const double x = static_cast<double>(i) /
                             static_cast<double>(rows - 1);
            const double fa =
                100.0 + 40.0 * std::sin(2.0 * M_PI * x) +
                rng.gaussian(0.0, 1.0);
            const double fb = 50.0 + 30.0 * x + rng.gaussian(0.0, 1.0);
            const double fc = 10.0 + 5.0 * std::cos(2.0 * M_PI * x) +
                              rng.gaussian(0.0, 0.5);
            const double ipc = 0.2 + 0.0008 * fa + 0.012 * fb -
                               0.002 * fc + rng.gaussian(0.0, 0.01);
            data.addRow({fa, fb, fc}, ipc);
            if (run == 0)
                train_measured.push_back(ipc);
        }
    }
    ml::GbrtParams params;
    params.treeCount = 50;
    ml::Gbrt gbrt(params);
    util::Rng fit_rng(7);
    gbrt.fit(data, fit_rng);

    core::MapmArtifact artifact;
    artifact.benchmark = "bench";
    artifact.microarch = "haswell-e";
    artifact.events = events;
    artifact.cvErrorPercent = 1.0;
    artifact.model = std::move(gbrt);

    mining::SignatureOptions sig_options;
    sig_options.length = 64;
    mining::ClusterArtifact clusters;
    clusters.benchmark = "bench";
    clusters.microarch = "haswell-e";
    clusters.signature = sig_options;
    mining::ClusterFamily family;
    family.medoidRun = 0;
    family.program = "bench";
    family.memberCount = 8;
    family.signature =
        mining::makeSignature(train_measured, sig_options);
    clusters.families.push_back(std::move(family));
    clusters.residualMean = 0.0;
    clusters.residualStddev = 0.01;
    clusters.residualZThreshold = 6.0;
    clusters.signatureThreshold = 2.0;

    const mining::AnomalyScorer scorer(
        std::make_shared<const core::MapmArtifact>(std::move(artifact)),
        std::move(clusters));

    // One incoming run's wire payload: row-major features + measured.
    std::vector<double> values(rows * events.size());
    std::vector<double> measured(rows);
    for (std::size_t i = 0; i < rows; ++i) {
        const double x =
            static_cast<double>(i) / static_cast<double>(rows - 1);
        const double fa = 100.0 + 40.0 * std::sin(2.0 * M_PI * x);
        const double fb = 50.0 + 30.0 * x;
        const double fc = 10.0 + 5.0 * std::cos(2.0 * M_PI * x);
        values[i * 3 + 0] = fa;
        values[i * 3 + 1] = fb;
        values[i * 3 + 2] = fc;
        measured[i] = 0.2 + 0.0008 * fa + 0.012 * fb - 0.002 * fc;
    }

    for (auto _ : state) {
        auto result = scorer.score(values, rows, measured);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AnomalyScore)->Unit(benchmark::kMicrosecond);

} // namespace
