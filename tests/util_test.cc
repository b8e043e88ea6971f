/**
 * @file
 * Unit tests for the util module: RNG determinism and distribution
 * moments, string helpers, CSV writer bytes, table rendering, error
 * handling.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "support/test_support.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace cminer::util;
using cminer::test::readBytes;
using cminer::test::tmpPath;

// --- Rng --------------------------------------------------------------

TEST(Rng, DeterministicGivenSeed)
{
    Rng a(1234);
    Rng b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanAndRange)
{
    Rng rng(11);
    double total = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        total += rng.uniform(2.0, 6.0);
    EXPECT_NEAR(total / n, 4.0, 0.05);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(13);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(17);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(19);
    const int n = 100000;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double g = rng.gaussian();
        sum += g;
        sum_sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianParameterized)
{
    Rng rng(23);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(29);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(2.0);
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, GumbelLocationShift)
{
    Rng rng(31);
    const int n = 50000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i)
        sum += rng.gumbel(1.0, 0.5);
    // Gumbel mean = location + gamma * scale.
    EXPECT_NEAR(sum / n, 1.0 + 0.5772 * 0.5, 0.02);
}

TEST(Rng, GevHeavyTailIsRightSkewed)
{
    Rng rng(37);
    const int n = 50000;
    int above = 0;
    for (int i = 0; i < n; ++i) {
        if (rng.gev(0.0, 1.0, 0.3) > 5.0)
            ++above;
    }
    // A shape-0.3 GEV puts noticeable mass far right of the location.
    EXPECT_GT(above, 100);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(47);
    const int n = 50000;
    int hits = 0;
    for (int i = 0; i < n; ++i) {
        if (rng.bernoulli(0.3))
            ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
    EXPECT_FALSE(Rng(1).bernoulli(0.0));
    EXPECT_TRUE(Rng(1).bernoulli(1.0));
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(53);
    std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = values;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, values);
}

TEST(Rng, SampleIndicesDistinct)
{
    Rng rng(59);
    const auto sample = rng.sampleIndices(100, 30);
    EXPECT_EQ(sample.size(), 30u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 30u);
    for (std::size_t idx : sample)
        EXPECT_LT(idx, 100u);
}

TEST(Rng, SampleIndicesClampedToPopulation)
{
    Rng rng(61);
    const auto sample = rng.sampleIndices(5, 50);
    EXPECT_EQ(sample.size(), 5u);
}

// --- string_util --------------------------------------------------------

TEST(StringUtil, SplitBasic)
{
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, SplitKeepsEmptyFields)
{
    const auto parts = split("a,,c,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, JoinRoundTrip)
{
    const std::vector<std::string> parts = {"x", "y", "z"};
    EXPECT_EQ(join(parts, ";"), "x;y;z");
    EXPECT_EQ(join({}, ";"), "");
}

TEST(StringUtil, Trim)
{
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("no-ws"), "no-ws");
}

TEST(StringUtil, StartsWith)
{
    EXPECT_TRUE(startsWith("spark.executor.memory", "spark."));
    EXPECT_FALSE(startsWith("spark", "spark."));
}

TEST(StringUtil, Format)
{
    EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
}

TEST(StringUtil, ParseDoubleStrict)
{
    double v = 0.0;
    EXPECT_TRUE(parseDouble("3.5", v));
    EXPECT_DOUBLE_EQ(v, 3.5);
    EXPECT_TRUE(parseDouble("  -2e3 ", v));
    EXPECT_DOUBLE_EQ(v, -2000.0);
    EXPECT_FALSE(parseDouble("3.5x", v));
    EXPECT_FALSE(parseDouble("", v));
    EXPECT_FALSE(parseDouble("abc", v));
}

// --- csv ---------------------------------------------------------------

TEST(Csv, QuoteOnlyWhenNeeded)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriterEmitsExactBytes)
{
    const std::string path = tmpPath("writer.csv");
    {
        CsvWriter writer(path);
        writer.writeRow({"plain", "with,comma", "with\"quote",
                         "with\nnewline", ""});
        writer.writeNumericRow({1.5, 0.1});
    }
    EXPECT_EQ(readBytes(path), "plain,\"with,comma\",\"with\"\"quote\","
                               "\"with\nnewline\",\n"
                               "1.5,0.10000000000000001\n");
    std::filesystem::remove(path);
}

// --- table printer -------------------------------------------------------

TEST(TablePrinter, RendersAlignedTable)
{
    TablePrinter table({"bench", "error"});
    table.addRow({"wordcount", "28.3"});
    table.addRow("sort", {7.7});
    const std::string text = table.render();
    EXPECT_NE(text.find("wordcount"), std::string::npos);
    EXPECT_NE(text.find("7.70"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
    // Every line has the same width.
    std::size_t width = std::string::npos;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        const std::size_t line_width = end - start;
        if (width == std::string::npos)
            width = line_width;
        EXPECT_EQ(line_width, width);
        start = end + 1;
    }
}

TEST(TablePrinter, AsciiBarScalesAndClamps)
{
    EXPECT_EQ(asciiBar(0.0, 100.0, 10), "..........");
    EXPECT_EQ(asciiBar(100.0, 100.0, 10), "##########");
    EXPECT_EQ(asciiBar(50.0, 100.0, 10), "#####.....");
    EXPECT_EQ(asciiBar(200.0, 100.0, 10), "##########");
}

// --- JSON escaping ----------------------------------------------------

TEST(JsonEscape, ControlCharactersAlwaysEscape)
{
    // RFC 8259: every character below 0x20 must be escaped — the short
    // forms where they exist, \u00XX for the rest. Raw control bytes in
    // a string make the document unparseable.
    EXPECT_EQ(JsonWriter::escape(std::string("a\x01z")), "a\\u0001z");
    EXPECT_EQ(JsonWriter::escape(std::string("a\x1fz")), "a\\u001fz");
    EXPECT_EQ(JsonWriter::escape(std::string("a\bz")), "a\\bz");
    EXPECT_EQ(JsonWriter::escape(std::string("a\fz")), "a\\fz");
    EXPECT_EQ(JsonWriter::escape("a\tb\nc\rd"), "a\\tb\\nc\\rd");
    EXPECT_EQ(JsonWriter::escape("quote\"back\\slash"),
              "quote\\\"back\\\\slash");
    // NUL embedded mid-string must not truncate the escape.
    EXPECT_EQ(JsonWriter::escape(std::string("a\0z", 3)), "a\\u0000z");
    // High-bit bytes (UTF-8 continuation) pass through untouched; a
    // signed-char sign extension here would emit \uffxx garbage.
    EXPECT_EQ(JsonWriter::escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

// --- error -----------------------------------------------------------

TEST(ErrorHandling, FatalThrowsWithMessage)
{
    try {
        fatal("something the user did");
        FAIL() << "fatal() must throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "something the user did");
    }
}

TEST(ErrorHandling, AssertPassesOnTrue)
{
    CM_ASSERT(1 + 1 == 2); // must not abort
    SUCCEED();
}

// --- logging ------------------------------------------------------------

TEST(Logging, LevelFiltering)
{
    const LogLevel original = logLevel();
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    // Smoke: these must not crash at any level.
    inform("info message");
    warn("warn message");
    debug("debug message");
    setLogLevel(original);
}

} // namespace
