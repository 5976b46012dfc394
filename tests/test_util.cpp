// Unit tests for the util layer: statistics, histograms, ranges, units,
// table printing, CSV escaping, RNG determinism, environment parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/histogram.hpp"
#include "util/ranges.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table_printer.hpp"
#include "util/units.hpp"

namespace tfetsram {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Stats, BasicMoments) {
    const double xs[] = {1.0, 2.0, 3.0, 4.0, 5.0};
    const SampleSummary s = summarize(xs);
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Stats, InfiniteSamplesCountedSeparately) {
    const double xs[] = {1.0, kInf, 3.0, kInf};
    const SampleSummary s = summarize(xs);
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.n_infinite, 2u);
    EXPECT_DOUBLE_EQ(s.mean, 2.0);
}

TEST(Stats, AllNonFinite) {
    const double xs[] = {kInf, -kInf};
    const SampleSummary s = summarize(xs);
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.n_infinite, 2u);
}

TEST(Stats, SingleSample) {
    const double xs[] = {42.0};
    const SampleSummary s = summarize(xs);
    EXPECT_EQ(s.count, 1u);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.median, 42.0);
}

TEST(Stats, PercentileInterpolates) {
    const double xs[] = {0.0, 1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 1.5);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 3.0);
}

TEST(Histogram, BinningAndEdges) {
    Histogram h(0.0, 10.0, 10);
    h.add(0.0);   // first bin
    h.add(9.999); // last bin
    h.add(5.0);   // bin 5
    h.add(10.0);  // overflow (right-open range)
    h.add(-0.1);  // underflow
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(9), 1u);
    EXPECT_EQ(h.count(5), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, NonFiniteCounted) {
    Histogram h(0.0, 1.0, 4);
    h.add(kInf);
    h.add(std::nan(""));
    EXPECT_EQ(h.nonfinite(), 2u);
}

TEST(Histogram, OfSpansSampleRange) {
    const double xs[] = {2.0, 4.0, 8.0};
    const Histogram h = Histogram::of(xs, 6);
    EXPECT_LE(h.lo(), 2.0);
    EXPECT_GT(h.hi(), 8.0);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.underflow() + h.overflow(), 0u);
}

TEST(Histogram, RenderMentionsFailures) {
    Histogram h(0.0, 1.0, 4);
    h.add(kInf);
    h.add(0.5);
    EXPECT_NE(h.render().find("non-finite"), std::string::npos);
}

TEST(Ranges, Linspace) {
    const auto v = linspace(0.0, 1.0, 5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v.front(), 0.0);
    EXPECT_DOUBLE_EQ(v.back(), 1.0);
    EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(Ranges, LinspaceSinglePoint) {
    const auto v = linspace(3.0, 9.0, 1);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_DOUBLE_EQ(v[0], 3.0);
}

TEST(Ranges, Logspace) {
    const auto v = logspace(1.0, 1000.0, 4);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_NEAR(v[1], 10.0, 1e-9);
    EXPECT_NEAR(v[2], 100.0, 1e-9);
}

TEST(Ranges, Arange) {
    const auto v = arange(0.5, 1.0, 0.1);
    ASSERT_EQ(v.size(), 6u);
    EXPECT_NEAR(v.back(), 1.0, 1e-9);
}

TEST(Units, SiPrefixes) {
    EXPECT_EQ(format_si(4.5e-11, "s"), "45 ps");
    EXPECT_EQ(format_si(1.0, "V"), "1 V");
    EXPECT_EQ(format_si(0.0, "W"), "0 W");
    EXPECT_EQ(format_si(2.5e-15, "A"), "2.5 fA");
}

TEST(Units, NonFinite) {
    EXPECT_EQ(format_si(kInf, "s"), "inf s");
    EXPECT_EQ(format_si(std::nan(""), "s"), "nan");
}

TEST(Units, TinyFallsBackToScientific) {
    const std::string s = format_si(1e-30, "A");
    EXPECT_NE(s.find("e-30"), std::string::npos);
}

TEST(TablePrinter, AlignsColumns) {
    TablePrinter t({"a", "long-header"});
    t.add_row({"xxxx", "1"});
    const std::string out = t.render();
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("xxxx"), std::string::npos);
    EXPECT_EQ(t.row_count(), 1u);
}

TEST(TablePrinter, RejectsMismatchedRow) {
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), contract_violation);
}

TEST(Csv, EscapesSpecials) {
    EXPECT_EQ(csv_escape("plain"), "plain");
    EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(csv_escape("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, WritesRowsRoundTrip) {
    const std::string path = ::testing::TempDir() + "tfetsram_csv_test.csv";
    {
        CsvWriter w(path);
        w.write_row(std::vector<std::string>{"a", "b,c"});
        w.write_row(std::vector<double>{1.5, 2.5e-12});
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line1;
    std::string line2;
    std::getline(in, line1);
    std::getline(in, line2);
    EXPECT_EQ(line1, "a,\"b,c\"");
    EXPECT_NE(line2.find("1.5"), std::string::npos);
    EXPECT_NE(line2.find("e-12"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
    EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"),
                 std::runtime_error);
}

TEST(Rng, Deterministic) {
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
}

TEST(Rng, TruncatedNormalRespectsBounds) {
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        const double x = r.truncated_normal(10.0, 1.0, 0.5);
        EXPECT_GE(x, 9.5);
        EXPECT_LE(x, 10.5);
    }
}

TEST(Rng, ZeroSigmaIsMean) {
    Rng r(3);
    EXPECT_DOUBLE_EQ(r.normal(5.0, 0.0), 5.0);
    EXPECT_DOUBLE_EQ(r.truncated_normal(5.0, 0.0, 1.0), 5.0);
}

TEST(Contracts, ExpectsThrows) {
    EXPECT_THROW(TFET_EXPECTS(false), contract_violation);
    EXPECT_NO_THROW(TFET_EXPECTS(true));
}

TEST(Env, ParseIntAcceptsSignedDecimals) {
    EXPECT_EQ(env::parse_int("42"), 42);
    EXPECT_EQ(env::parse_int("-7"), -7);
    EXPECT_EQ(env::parse_int("+9"), 9);
    EXPECT_EQ(env::parse_int("0"), 0);
}

TEST(Env, ParseIntRejectsJunkEmptyAndOverflow) {
    EXPECT_FALSE(env::parse_int("").has_value());
    EXPECT_FALSE(env::parse_int("12x").has_value());
    EXPECT_FALSE(env::parse_int("x12").has_value());
    EXPECT_FALSE(env::parse_int("-").has_value());
    EXPECT_FALSE(env::parse_int("1e3").has_value());
    EXPECT_FALSE(env::parse_int("99999999999999999999999").has_value());
}

TEST(Env, ParseBoolRecognizesBothSpellingsCaseInsensitively) {
    for (const char* t : {"1", "true", "TRUE", "on", "Yes"})
        EXPECT_EQ(env::parse_bool(t), true) << t;
    for (const char* f : {"0", "false", "OFF", "no", "No"})
        EXPECT_EQ(env::parse_bool(f), false) << f;
    EXPECT_FALSE(env::parse_bool("").has_value());
    EXPECT_FALSE(env::parse_bool("maybe").has_value());
}

TEST(Env, TypedGettersLayerFallbacks) {
    ::setenv("TFETSRAM_TEST_KNOB", "17", 1);
    EXPECT_EQ(env::get_int("TFETSRAM_TEST_KNOB", 3), 17);
    EXPECT_EQ(env::get_string("TFETSRAM_TEST_KNOB", "d"), "17");
    ::setenv("TFETSRAM_TEST_KNOB", "", 1);
    EXPECT_EQ(env::get_int("TFETSRAM_TEST_KNOB", 3), 3);
    EXPECT_EQ(env::get_string("TFETSRAM_TEST_KNOB", "d"), "d");
    ::unsetenv("TFETSRAM_TEST_KNOB");
    EXPECT_EQ(env::get_int("TFETSRAM_TEST_KNOB", 3), 3);
    EXPECT_EQ(env::raw("TFETSRAM_TEST_KNOB"), nullptr);
}

TEST(Env, GetBoolArmsOnUnrecognizedNonEmptyText) {
    ::setenv("TFETSRAM_TEST_FLAG", "false", 1);
    EXPECT_FALSE(env::get_bool("TFETSRAM_TEST_FLAG", true));
    // Historical behavior: "TFETSRAM_KEEP_GOING=anything" arms the flag.
    ::setenv("TFETSRAM_TEST_FLAG", "anything", 1);
    EXPECT_TRUE(env::get_bool("TFETSRAM_TEST_FLAG", false));
    ::unsetenv("TFETSRAM_TEST_FLAG");
    EXPECT_TRUE(env::get_bool("TFETSRAM_TEST_FLAG", true));
    EXPECT_FALSE(env::get_bool("TFETSRAM_TEST_FLAG", false));
}

} // namespace
} // namespace tfetsram
