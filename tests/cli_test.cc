/**
 * @file
 * Tests for the JSON writer, the report exporter, and the
 * `counterminer` CLI (driven through cli::run, no subprocesses).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"
#include "core/counterminer.h"
#include "core/perf_text.h"
#include "core/report_export.h"
#include "pmu/event.h"
#include "store/database.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "workload/suites.h"

namespace {

using namespace cminer;
using cminer::util::JsonWriter;

// --- JsonWriter ---------------------------------------------------------

TEST(JsonWriter, FlatObject)
{
    JsonWriter json;
    json.beginObject();
    json.key("name");
    json.value("wordcount");
    json.key("runs");
    json.value(std::size_t{3});
    json.key("error");
    json.value(7.7);
    json.key("ok");
    json.value(true);
    json.key("none");
    json.null();
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\"name\":\"wordcount\",\"runs\":3,\"error\":7.7,"
              "\"ok\":true,\"none\":null}");
}

TEST(JsonWriter, NestedArraysAndObjects)
{
    JsonWriter json;
    json.beginObject();
    json.key("events");
    json.beginArray();
    json.beginObject();
    json.key("e");
    json.value("ISF");
    json.endObject();
    json.value(1.5);
    json.value("tail");
    json.endArray();
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\"events\":[{\"e\":\"ISF\"},1.5,\"tail\"]}");
}

TEST(JsonWriter, EscapesSpecialCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd\te"),
              "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    JsonWriter json;
    json.beginArray();
    json.value(std::nan(""));
    json.value(1.0 / 0.0);
    json.endArray();
    EXPECT_EQ(json.str(), "[null,null]");
}

// --- report export -----------------------------------------------------

TEST(ReportExport, ContainsAllSections)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("scan");
    store::Database db;
    core::ProfileOptions options;
    options.mlpxRuns = 2;
    options.importance.minEvents = 196;
    core::CounterMiner miner(db, catalog, options);
    util::Rng rng(5);
    const auto report = miner.profile(bench, rng);

    const std::string json = core::reportToJson(report);
    EXPECT_NE(json.find("\"benchmark\":\"scan\""), std::string::npos);
    EXPECT_NE(json.find("\"cleaning\""), std::string::npos);
    EXPECT_NE(json.find("\"mapm\""), std::string::npos);
    EXPECT_NE(json.find("\"eirCurve\""), std::string::npos);
    EXPECT_NE(json.find("\"topEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"interactions\""), std::string::npos);
    // Balanced braces (a crude well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

// --- CLI ---------------------------------------------------------------

TEST(Cli, NoArgumentsShowsUsageAndFails)
{
    std::string output;
    EXPECT_EQ(cli::run({}, output), 1);
    EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds)
{
    std::string output;
    EXPECT_EQ(cli::run({"help"}, output), 0);
    EXPECT_NE(output.find("profile"), std::string::npos);
}

TEST(Cli, UnknownCommandFails)
{
    std::string output;
    EXPECT_EQ(cli::run({"frobnicate"}, output), 1);
    EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(Cli, ListBenchmarks)
{
    std::string output;
    EXPECT_EQ(cli::run({"list-benchmarks"}, output), 0);
    EXPECT_NE(output.find("wordcount"), std::string::npos);
    EXPECT_NE(output.find("WebServing"), std::string::npos);
}

TEST(Cli, ListEventsWithCategoryFilter)
{
    std::string output;
    EXPECT_EQ(cli::run({"list-events", "--category", "remote"}, output),
              0);
    EXPECT_NE(output.find("ORA"), std::string::npos);
    EXPECT_EQ(output.find("ICACHE.MISSES"), std::string::npos);
}

TEST(Cli, ListEventsBadCategoryFails)
{
    std::string output;
    EXPECT_EQ(cli::run({"list-events", "--category", "bogus"}, output),
              1);
    EXPECT_NE(output.find("error:"), std::string::npos);
}

TEST(Cli, UnknownBenchmarkFailsWithSuggestions)
{
    std::string output;
    EXPECT_EQ(cli::run({"profile", "nope"}, output), 1);
    EXPECT_NE(output.find("unknown benchmark"), std::string::npos);
    EXPECT_NE(output.find("wordcount"), std::string::npos);
}

TEST(Cli, MissingFlagValueFails)
{
    std::string output;
    EXPECT_EQ(cli::run({"profile", "sort", "--runs"}, output), 1);
    EXPECT_NE(output.find("expects a value"), std::string::npos);
}

TEST(Cli, UnknownBackendFailsListingChoices)
{
    // Enum-valued flags reject unknown values up front with the valid
    // choices listed — on every command that takes them.
    for (const auto &args :
         {std::vector<std::string>{"profile", "sort", "--backend", "gpu"},
          std::vector<std::string>{"collect", "sort", "--backend", "gpu"},
          std::vector<std::string>{"mapm", "sort", "--backend", "gpu"},
          std::vector<std::string>{"serve", "--allow-empty", "--pipe",
                                   "--backend", "gpu"}}) {
        std::string output;
        EXPECT_EQ(cli::run(args, output), 1) << args.front();
        EXPECT_NE(output.find("unknown backend 'gpu'"),
                  std::string::npos)
            << args.front() << ": " << output;
        EXPECT_NE(output.find("valid choices: sim, perf"),
                  std::string::npos)
            << args.front() << ": " << output;
    }
}

TEST(Cli, FlagsTheCommandDoesNotTakeAreErrors)
{
    // A flag outside the command's list fails before any work; a
    // mistyped filter must not print the whole catalog.
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"list-benchmarks", "--bogus", "1"},
             "error: list-benchmarks does not take --bogus\n"},
            {{"list-events", "--categry", "cache"},
             "error: list-events does not take --categry\n"},
            {{"serve", "--batch-window-ms", "0.5"},
             "error: serve does not take --batch-window-ms\n"},
        };
    for (const auto &[args, expected] : cases) {
        std::string output;
        EXPECT_EQ(cli::run(args, output), 1) << args.front();
        EXPECT_EQ(output, expected) << args.front();
    }
}

TEST(Cli, EveryCommandAcceptsTheFlagsItsUsageLists)
{
    // Each command with the flags its usage line lists; every command
    // also takes the global --threads, --trace-out and --metrics-out.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        commands = {
            {"list-benchmarks", {}},
            {"list-events", {"category"}},
            {"profile",
             {"runs", "seed", "min-events", "skip-cleaning", "json", "db",
              "inject-faults", "max-bad-runs", "max-bad-fraction",
              "backend"}},
            {"collect",
             {"backend", "mode", "runs", "events", "interval-ms", "seed",
              "db", "watch"}},
            {"mapm",
             {"model-out", "db", "runs", "seed", "min-events", "backend"}},
            {"predict", {"model", "out", "mode"}},
            {"clean", {"out", "lenient"}},
            {"explore", {}},
            {"error", {"seed"}},
            {"stats", {}},
            {"cluster",
             {"store-dir", "k", "seed", "mode", "event",
              "signature-length", "band", "mine", "min-events",
              "artifact-out", "model"}},
            {"serve",
             {"model", "scorer", "socket", "pipe", "in", "out",
              "queue-cap", "batch-rows", "deadline-ms", "mine-queue-cap",
              "store-dir", "memory-budget-mb", "inject-faults", "backend",
              "allow-empty"}},
        };
    const std::string help = cli::usage();
    // Without their positional argument most commands stop before any
    // work; the value is a path under a scratch directory so the ones
    // that do write (a trace, a store) leave nothing behind.
    const auto scratch =
        std::filesystem::temp_directory_path() / "cminer_cli_flags";
    std::filesystem::remove_all(scratch);
    std::filesystem::create_directories(scratch);
    for (const auto &[command, listed] : commands) {
        EXPECT_NE(help.find("  " + command), std::string::npos) << command;
        std::vector<std::string> flags = listed;
        flags.insert(flags.end(), {"threads", "trace-out", "metrics-out"});
        for (const auto &flag : flags) {
            EXPECT_NE(help.find("--" + flag), std::string::npos) << flag;
            const std::string value = (scratch / flag).string();
            std::string output;
            cli::run({command, "--" + flag + "=" + value}, output);
            EXPECT_EQ(output.find("does not take"), std::string::npos)
                << command << " --" << flag << ": " << output;
        }
    }
    std::filesystem::remove_all(scratch);
}

TEST(Cli, BadNumbersFailNamingTheFlag)
{
    // Counts are whole integers at or above the flag's minimum and
    // floats are finite; a bad value fails naming the flag instead of
    // being cast, wrapped by a shift, or let through a range check
    // (NaN compares false), and `--runs 0` must not reach the miner's
    // assertion.
    const auto store =
        std::filesystem::temp_directory_path() / "cminer_cli_numbers";
    std::filesystem::remove_all(store);
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"profile", "sort", "--runs", "0"}, "--runs"},
            {{"list-benchmarks", "--threads", "2.5"}, "--threads"},
            {{"list-benchmarks", "--threads", "0x10"}, "--threads"},
            {{"serve", "--queue-cap", "-1"}, "--queue-cap"},
            // 2^44 MB is 2^64 bytes, which a size_t shift wraps to 0.
            {{"serve", "--memory-budget-mb", "17592186044416"},
             "--memory-budget-mb"},
            {{"collect", "sort", "--events", "nan"}, "--events"},
            {{"serve", "--batch-rows", "inf"}, "--batch-rows"},
            {{"error", "sort", "--seed", "1e30"}, "--seed"},
            {{"cluster", "--store-dir", store.string(), "--band", "nan"},
             "--band"},
            {{"collect", "sort", "--interval-ms", "inf"}, "--interval-ms"},
            {{"serve", "--deadline-ms", "nan"}, "--deadline-ms"},
            {{"serve", "--deadline-ms", "-5"}, "--deadline-ms"},
        };
    for (const auto &[args, flag] : cases) {
        std::string output;
        EXPECT_EQ(cli::run(args, output), 1) << flag << ": " << output;
        EXPECT_NE(output.find("error: " + flag + " "), std::string::npos)
            << output;
    }
    std::filesystem::remove_all(store);
}

TEST(Cli, CountsThatSizeAnAllocationHaveAMaximum)
{
    // `--runs 100000000000000000` used to reach runs.reserve() and
    // abort with std::bad_alloc. Every value here fails at parse time,
    // so nothing is allocated or started.
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"profile", "sort", "--runs", "100000000000000000"},
             "error: --runs expects an integer in [1, 10000], got "
             "'100000000000000000'\n"},
            {{"mapm", "sort", "--runs", "10001"},
             "error: --runs expects an integer in [1, 10000], got "
             "'10001'\n"},
            {{"cluster", "/nonexistent/db.cmdb", "--signature-length",
              "65537"},
             "error: --signature-length expects an integer in [2, 65536], "
             "got '65537'\n"},
            {{"list-benchmarks", "--threads", "1025"},
             "error: --threads expects an integer in [1, 1024], got "
             "'1025'\n"},
            {{"serve", "--threads", "18446744073709551615"},
             "error: --threads expects an integer in [1, 1024], got "
             "'18446744073709551615'\n"},
        };
    for (const auto &[args, expected] : cases) {
        std::string output;
        EXPECT_EQ(cli::run(args, output), 1) << args.front();
        EXPECT_EQ(output, expected) << args.front();
    }
}

TEST(Cli, EveryCommandTakesThePositionalWordsItsUsageShows)
{
    // Each command with its usage line's positional form, the word
    // lists that form allows, and what a required word is called.
    // `--threads 0` fails after the word check and before any work, so
    // an accepted list reads as that error; one word more fails naming
    // the command and the word; a missing word names what was expected.
    struct Case
    {
        std::string command;
        std::string form;
        std::vector<std::vector<std::string>> accepted;
        std::string word;
    };
    const std::vector<Case> cases = {
        {"list-benchmarks", "", {{}}, ""},
        {"list-events", " [--category", {{}}, ""},
        {"profile", " <benchmark>", {{"sort"}}, "benchmark name"},
        {"collect", " <benchmark>", {{"sort"}}, "benchmark name"},
        {"mapm", " <benchmark>", {{"sort"}}, "benchmark name"},
        {"predict", " <db.cmdb>", {{"runs.cmdb"}},
         "database file (written by 'mapm --db' or 'profile --db')"},
        {"clean", " <perf.csv>", {{"perf.csv"}}, "perf interval file"},
        {"explore", " <db.cmdb>", {{"runs.cmdb"}}, "database file"},
        {"error", " <benchmark>", {{"sort"}}, "benchmark name"},
        {"stats", " [metrics.json]", {{}, {"metrics.json"}}, ""},
        {"cluster", " (<db.cmdb> | --store-dir DIR)", {{}, {"runs.cmdb"}},
         ""},
        {"serve", " --model", {{}}, ""},
    };
    const std::string help = cli::usage();
    const std::string threads_error =
        "error: --threads expects an integer in [1, 1024], got '0'\n";
    for (const auto &[command, form, accepted, word] : cases) {
        EXPECT_NE(help.find("  " + command + form), std::string::npos)
            << command;
        for (const auto &words : accepted) {
            std::vector<std::string> args = {command};
            args.insert(args.end(), words.begin(), words.end());
            args.insert(args.end(), {"--threads", "0"});
            std::string output;
            EXPECT_EQ(cli::run(args, output), 1) << command;
            EXPECT_EQ(output, threads_error)
                << command << " with " << words.size() << " words";
        }
        std::vector<std::string> args = {command};
        args.insert(args.end(), accepted.back().begin(),
                    accepted.back().end());
        args.insert(args.end(), {"stray", "--threads", "0"});
        std::string output;
        EXPECT_EQ(cli::run(args, output), 1) << command;
        EXPECT_EQ(output.rfind("error: " + command + " takes ", 0), 0u)
            << output;
        EXPECT_NE(output.find("'stray'"), std::string::npos) << output;
        if (accepted.front().empty())
            continue;
        output.clear();
        EXPECT_EQ(cli::run({command, "--threads", "0"}, output), 1);
        EXPECT_EQ(output, "error: " + command + " expects a " + word + "\n");
    }
}

TEST(Cli, ClusterTakesADatabaseOrAStoreNotBoth)
{
    std::string output;
    EXPECT_EQ(cli::run({"cluster", "runs.cmdb", "--store-dir",
                        "/nonexistent/store"},
                       output),
              1);
    EXPECT_EQ(output, "error: cluster takes a database file or "
                      "--store-dir, not both\n");
}

TEST(Cli, UnknownModeFailsListingChoices)
{
    std::string output;
    EXPECT_EQ(cli::run({"collect", "sort", "--mode", "turbo"}, output),
              1);
    EXPECT_NE(output.find("--mode got unknown value 'turbo'"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("valid choices: mlpx, ocoe"),
              std::string::npos)
        << output;
}

TEST(Cli, ErrorCommandReportsBothNumbers)
{
    std::string output;
    EXPECT_EQ(cli::run({"error", "wordcount", "--seed", "3"}, output),
              0);
    EXPECT_NE(output.find("raw"), std::string::npos);
    EXPECT_NE(output.find("cleaned"), std::string::npos);
}

TEST(Cli, ProfileWritesJsonAndDb)
{
    const std::string json_path = "/tmp/cminer_cli_report.json";
    const std::string db_path = "/tmp/cminer_cli_db.cmdb";
    std::string output;
    const int code = cli::run({"profile", "scan", "--runs", "2",
                               "--min-events", "196", "--json",
                               json_path, "--db", db_path},
                              output);
    EXPECT_EQ(code, 0) << output;
    EXPECT_NE(output.find("MAPM"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(json_path));
    EXPECT_TRUE(std::filesystem::exists(db_path));

    // The saved database loads and the explore command reads it.
    std::string explore_output;
    EXPECT_EQ(cli::run({"explore", db_path}, explore_output), 0);
    EXPECT_NE(explore_output.find("scan"), std::string::npos);

    std::filesystem::remove(json_path);
    std::filesystem::remove(db_path);
}

TEST(Cli, ClusterSkipsRunsWithNonFiniteSignatureSamples)
{
    // Injected NaNs land in counter series, never in IPC. A run whose
    // signature series holds one is ineligible, and the skip says why.
    const std::string db_path = "/tmp/cminer_cli_nan.cmdb";
    const std::string event = "BR_INST_RETIRED.ALL_BRANCHES";
    std::string output;
    ASSERT_EQ(cli::run({"profile", "sort", "--runs", "6", "--min-events",
                        "196", "--inject-faults", "nan=0.0005,seed=7",
                        "--db", db_path},
                       output),
              0)
        << output;

    output.clear();
    EXPECT_EQ(cli::run({"cluster", db_path, "--k", "2", "--event", event},
                       output),
              0)
        << output;
    EXPECT_NE(output.find("clustered"), std::string::npos) << output;
    EXPECT_NE(output.find("series has a non-finite sample"),
              std::string::npos)
        << output;

    output.clear();
    EXPECT_EQ(cli::run({"cluster", db_path, "--k", "2"}, output), 0)
        << output;
    EXPECT_EQ(output.find("non-finite"), std::string::npos) << output;
    std::filesystem::remove(db_path);

    // Every run poisoned: the refusal carries the reason too.
    output.clear();
    ASSERT_EQ(cli::run({"profile", "sort", "--runs", "2", "--min-events",
                        "196", "--inject-faults", "nan=0.05,seed=7",
                        "--db", db_path},
                       output),
              0)
        << output;
    output.clear();
    EXPECT_EQ(cli::run({"cluster", db_path, "--k", "2", "--event", event},
                       output),
              1);
    EXPECT_NE(output.find("series has a non-finite sample"),
              std::string::npos)
        << output;
    std::filesystem::remove(db_path);
}

TEST(Cli, CleanRoundTripsPerfLog)
{
    // Write a perf-style log with missing values, clean it via the CLI,
    // and check the output parses with the zeros repaired.
    const std::string in_path = "/tmp/cminer_cli_perf.csv";
    const std::string out_path = "/tmp/cminer_cli_perf_clean.csv";
    {
        std::vector<ts::TimeSeries> series;
        std::vector<double> values(100, 500.0);
        values[10] = 0.0;
        values[50] = 0.0;
        series.emplace_back("ICACHE.MISSES", values, 10.0);
        std::ofstream out(in_path);
        out << core::renderPerfIntervals(series);
    }
    std::string output;
    const int code =
        cli::run({"clean", in_path, "--out", out_path}, output);
    EXPECT_EQ(code, 0) << output;
    EXPECT_NE(output.find("filled 2 missing"), std::string::npos);

    std::ifstream in(out_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto cleaned = core::parsePerfIntervals(buffer.str());
    ASSERT_EQ(cleaned.size(), 1u);
    EXPECT_GT(cleaned[0].at(10), 0.0);
    EXPECT_GT(cleaned[0].at(50), 0.0);

    std::filesystem::remove(in_path);
    std::filesystem::remove(out_path);
}

TEST(Cli, PathsThatAreNotRegularFilesAreCleanErrors)
{
    // A directory opens as a stream whose size reads as huge: each
    // reader must refuse it by name before sizing anything from it.
    const std::string dir = "/tmp/cminer_cli_not_a_file";
    std::filesystem::create_directories(dir);
    const std::string message = "not a regular file: " + dir;

    std::string output;
    EXPECT_EQ(cli::run({"explore", dir}, output), 1);
    EXPECT_NE(output.find(message), std::string::npos) << output;
    EXPECT_EQ(output.find("allocation"), std::string::npos) << output;
    // Each layer of the load names the path only if no layer below it
    // has: the message names it once.
    EXPECT_EQ(output.find(dir), output.rfind(dir)) << output;

    output.clear();
    EXPECT_EQ(cli::run({"predict", "db.cmdb", "--model", dir}, output), 1);
    EXPECT_NE(output.find(message), std::string::npos) << output;
    EXPECT_EQ(output.find("allocation"), std::string::npos) << output;
    EXPECT_EQ(output.find(dir), output.rfind(dir)) << output;
    std::filesystem::remove_all(dir);
}

TEST(Cli, StatsRejectsCountsThatAreNotWholeNumbers)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "cli_bad_counts.json")
            .string();
    {
        std::ofstream out(path);
        out << "{\"counters\":{\"x\":-1,\"y\":1e300,\"z\":2.5},"
               "\"gauges\":{},\"histograms\":{}}\n";
    }
    std::string output;
    EXPECT_EQ(cli::run({"stats", path}, output), 1);
    EXPECT_NE(output.find("error:"), std::string::npos) << output;
    EXPECT_NE(output.find("counter 'x'"), std::string::npos) << output;
    std::filesystem::remove(path);
}

TEST(Cli, CleanMissingFileFails)
{
    std::string output;
    EXPECT_EQ(cli::run({"clean", "/nonexistent.csv"}, output), 1);
    EXPECT_NE(output.find("error:"), std::string::npos);
}

} // namespace
