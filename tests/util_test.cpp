// Unit tests for src/util: RNG, CLI flags, CSV, ASCII charts, logging/checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <system_error>
#include <vector>

#include "util/ascii_chart.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/gnuplot.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "temp_paths.hpp"

namespace sjs {
namespace {

// ---------------------------------------------------------------- RNG

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(123), b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(7, 0), b(7, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, StreamIsDeterministic) {
  Rng a(7, 5), b(7, 5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, Uniform01InRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(2);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_mean(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, ExponentialStrictlyPositive) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential_mean(1.0), 0.0);
}

TEST(Rng, ExponentialRateIsReciprocalMean) {
  Rng a(6), b(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.exponential_rate(4.0), b.exponential_mean(0.25));
  }
}

TEST(Rng, BelowInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowZeroIsZero) {
  Rng rng(8);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowOneIsZero) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowRoughlyUniform) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(12);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, BoundedParetoInRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.bounded_pareto(1.5, 0.1, 20.0);
    EXPECT_GE(x, 0.1 - 1e-9);
    EXPECT_LE(x, 20.0 + 1e-9);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(14);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
  EXPECT_NE(v, original);  // 50! permutations; identity is absurdly unlikely
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForEmptyIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<int> hits(3, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForSingleItem) {
  ThreadPool pool(4);
  std::vector<int> hits(1, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ThreadPool, ParallelForNonDivisibleBlockSizes) {
  // 1000 % 7 threads != 0: the trailing partial block must still run and no
  // index may be visited twice.
  ThreadPool pool(7);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPrimeCountOnSingleThread) {
  ThreadPool pool(1);
  std::vector<int> hits(13, 0);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, WaitIdleOnFreshPool) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
}

TEST(ThreadPool, SizeReflectsThreadCount) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

// ---------------------------------------------------------------- CLI

TEST(Cli, ParsesEqualsSyntax) {
  CliFlags flags;
  flags.add_double("rate", 1.0, "");
  const char* argv[] = {"prog", "--rate=2.5"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 2.5);
}

TEST(Cli, ParsesSpaceSyntax) {
  CliFlags flags;
  flags.add_int("runs", 10, "");
  const char* argv[] = {"prog", "--runs", "800"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("runs"), 800);
}

TEST(Cli, BareBooleanFlag) {
  CliFlags flags;
  flags.add_bool("verbose", false, "");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Cli, BooleanExplicitFalse) {
  CliFlags flags;
  flags.add_bool("verbose", true, "");
  const char* argv[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.get_bool("verbose"));
}

TEST(Cli, MixedSyntaxAcrossAllTypes) {
  // One invocation freely mixing --name=value and --name value, covering
  // every registered flag type (the serving binaries are driven both ways).
  CliFlags flags;
  flags.add_double("rate", 1.0, "");
  flags.add_int("port", 0, "");
  flags.add_bool("drain", false, "");
  flags.add_string("scheduler", "V-Dover", "");
  flags.add_double_list("lambda", {1.0}, "");
  const char* argv[] = {"prog",   "--rate=2.5", "--port", "7070",
                        "--drain", "--scheduler", "EDF",  "--lambda=4,5"};
  ASSERT_TRUE(flags.parse(8, const_cast<char**>(argv))) << flags.error();
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 2.5);
  EXPECT_EQ(flags.get_int("port"), 7070);
  EXPECT_TRUE(flags.get_bool("drain"));
  EXPECT_EQ(flags.get_string("scheduler"), "EDF");
  EXPECT_EQ(flags.get_double_list("lambda"), (std::vector<double>{4.0, 5.0}));
}

TEST(Cli, SpaceSyntaxForStringAndList) {
  CliFlags flags;
  flags.add_string("journal", "", "");
  flags.add_double_list("c-hats", {}, "");
  const char* argv[] = {"prog", "--journal", "/tmp/j", "--c-hats", "1,2,3"};
  ASSERT_TRUE(flags.parse(5, const_cast<char**>(argv))) << flags.error();
  EXPECT_EQ(flags.get_string("journal"), "/tmp/j");
  EXPECT_EQ(flags.get_double_list("c-hats"),
            (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Cli, EqualsValueMayContainEquals) {
  // Only the first '=' splits name from value.
  CliFlags flags;
  flags.add_string("define", "", "");
  const char* argv[] = {"prog", "--define=key=value"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_string("define"), "key=value");
}

TEST(Cli, BareBoolDoesNotConsumeNextFlag) {
  // --drain is bare boolean syntax: the following --rate=9 must still parse
  // as its own flag, not be swallowed as drain's value.
  CliFlags flags;
  flags.add_bool("drain", false, "");
  flags.add_double("rate", 1.0, "");
  const char* argv[] = {"prog", "--drain", "--rate=9"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv))) << flags.error();
  EXPECT_TRUE(flags.get_bool("drain"));
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 9.0);
}

TEST(Cli, RepeatedFlagLastOneWins) {
  CliFlags flags;
  flags.add_int("seed", 1, "");
  const char* argv[] = {"prog", "--seed=2", "--seed", "3"};
  ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("seed"), 3);
}

TEST(Cli, BadBoolValueIsError) {
  CliFlags flags;
  flags.add_bool("drain", false, "");
  const char* argv[] = {"prog", "--drain=yes"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(flags.error().find("bad value"), std::string::npos);
}

TEST(Cli, DefaultsSurviveNoArgs) {
  CliFlags flags;
  flags.add_double("x", 3.5, "");
  flags.add_string("name", "abc", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(flags.get_double("x"), 3.5);
  EXPECT_EQ(flags.get_string("name"), "abc");
}

TEST(Cli, UnknownFlagIsError) {
  CliFlags flags;
  flags.add_double("x", 0.0, "");
  const char* argv[] = {"prog", "--y=1"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_NE(flags.error().find("unknown"), std::string::npos);
}

TEST(Cli, MissingValueIsError) {
  CliFlags flags;
  flags.add_double("x", 0.0, "");
  const char* argv[] = {"prog", "--x"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, MalformedNumberIsError) {
  CliFlags flags;
  flags.add_double("x", 0.0, "");
  const char* argv[] = {"prog", "--x=abc"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(Cli, DoubleListParses) {
  CliFlags flags;
  flags.add_double_list("lambda", {1.0}, "");
  const char* argv[] = {"prog", "--lambda=4,5,6.5"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_double_list("lambda"),
            (std::vector<double>{4.0, 5.0, 6.5}));
}

TEST(Cli, HelpReturnsFalse) {
  CliFlags flags;
  flags.add_double("x", 0.0, "the x flag");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.error().empty());
}

TEST(Cli, UsageMentionsFlagsAndHelp) {
  CliFlags flags;
  flags.add_double("rate", 1.0, "arrival rate");
  auto usage = flags.usage("prog");
  EXPECT_NE(usage.find("--rate"), std::string::npos);
  EXPECT_NE(usage.find("arrival rate"), std::string::npos);
}

TEST(Cli, RejectsNumbersWithTrailingText) {
  // A numeric prefix is not a value: --cluster-lambda=6abc must fail, not
  // run with 6, and the error names the flag.
  for (const char* arg : {"--lambda=6abc", "--runs=1x", "--runs=2.5",
                          "--lambda=", "--lambda=1.5 2"}) {
    CliFlags flags;
    flags.add_double("lambda", 1.0, "");
    flags.add_int("runs", 1, "");
    const char* argv[] = {"prog", arg};
    EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv))) << arg;
    const std::string flag = arg;
    const std::string name = flag.substr(0, flag.find('='));
    EXPECT_NE(flags.error().find(name), std::string::npos) << flags.error();
  }
  EXPECT_EQ(parse_double("6"), 6.0);
  EXPECT_EQ(parse_int("-3"), -3);
  EXPECT_THROW(parse_double("6abc"), std::invalid_argument);
  EXPECT_THROW(parse_int("7.0"), std::invalid_argument);
  EXPECT_THROW(parse_double_list("1,2x"), std::invalid_argument);
}

TEST(Cli, WrongTypeAccessThrows) {
  CliFlags flags;
  flags.add_double("x", 0.0, "");
  EXPECT_THROW(flags.get_int("x"), std::logic_error);
  EXPECT_THROW(flags.get_double("nope"), std::logic_error);
}

TEST(Cli, RequirePositiveRejectsZeroNegativeAndNonFinite) {
  CliFlags flags;
  flags.add_double("accel", 1.0, "");
  flags.add_int("max-in-flight", 1024, "");

  const char* bad_zero[] = {"prog", "--accel=0"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(bad_zero)));
  EXPECT_FALSE(flags.require_positive("accel"));
  EXPECT_NE(flags.error().find("--accel"), std::string::npos);

  const char* bad_neg[] = {"prog", "--max-in-flight=-3"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(bad_neg)));
  EXPECT_FALSE(flags.require_positive("max-in-flight"));
  EXPECT_NE(flags.error().find("--max-in-flight"), std::string::npos);

  const char* bad_inf[] = {"prog", "--accel=inf"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(bad_inf)));
  EXPECT_FALSE(flags.require_positive("accel"));

  const char* good[] = {"prog", "--accel=2.5", "--max-in-flight=1"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(good)));
  EXPECT_TRUE(flags.require_positive("accel"));
  EXPECT_TRUE(flags.require_positive("max-in-flight"));
}

TEST(Cli, RequireAtLeastValidatesIntLowerBound) {
  CliFlags flags;
  flags.add_int("trace-ring", 4096, "");
  const char* neg[] = {"prog", "--trace-ring=-1"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(neg)));
  EXPECT_FALSE(flags.require_at_least("trace-ring", 0));
  EXPECT_NE(flags.error().find("--trace-ring"), std::string::npos);

  const char* zero[] = {"prog", "--trace-ring=0"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(zero)));
  EXPECT_TRUE(flags.require_at_least("trace-ring", 0));
}

TEST(Cli, RequireHelpersRejectUnregisteredOrNonNumeric) {
  CliFlags flags;
  flags.add_string("name", "x", "");
  EXPECT_THROW(flags.require_positive("nope"), std::logic_error);
  EXPECT_THROW(flags.require_positive("name"), std::logic_error);
  EXPECT_THROW(flags.require_at_least("name", 0), std::logic_error);
}

TEST(ParseDoubleList, HandlesEmptyAndMalformed) {
  EXPECT_TRUE(parse_double_list("").empty());
  EXPECT_EQ(parse_double_list("1,2"), (std::vector<double>{1, 2}));
  EXPECT_THROW(parse_double_list("1,x"), std::invalid_argument);
}

// ---------------------------------------------------------------- CSV

using testing_paths::case_temp_path;

class CsvRoundtrip : public ::testing::Test {
 protected:
  std::string path_ = case_temp_path("sjs_csv_test", ".csv");
  void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(CsvRoundtrip, SimpleRows) {
  {
    CsvWriter w(path_);
    w.write_row({"a", "b"});
    w.write_row({"1", "2"});
  }
  auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2"}));
}

TEST_F(CsvRoundtrip, EscapedFields) {
  {
    CsvWriter w(path_);
    w.write_row({"with,comma", "with\"quote", "plain"});
  }
  auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "with,comma");
  EXPECT_EQ(rows[0][1], "with\"quote");
  EXPECT_EQ(rows[0][2], "plain");
}

TEST_F(CsvRoundtrip, QuotedNewlinesSurviveRoundTrip) {
  // Regression: csv_escape quotes fields containing '\n', but read_csv used
  // to parse line-at-a-time, splitting such a field into two rows and
  // carrying the broken quote state into the next line (the row after the
  // newline came back with its commas swallowed into one field).
  {
    CsvWriter w(path_);
    w.write_row({"a\nb", "x"});
    w.write_row({"multi\nline\nnote", "with,comma", "with\"quote"});
    w.write_row({"plain", "tail"});
  }
  auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a\nb", "x"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"multi\nline\nnote",
                                               "with,comma", "with\"quote"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"plain", "tail"}));
}

TEST_F(CsvRoundtrip, CrlfTerminatorsAndMissingFinalNewline) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "a,b\r\n"      // CRLF-terminated row
        << "\"q\r\",c\r\n"  // CR *inside* quotes is field content
        << "last,row";    // no trailing newline at all
  }
  auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"q\r", "c"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"last", "row"}));
}

TEST_F(CsvRoundtrip, NumericRoundTrip) {
  {
    CsvWriter w(path_);
    const double row[] = {0.1, 1e-17, 12345.6789};
    w.write_row_numeric(row, 3);
  }
  auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(std::stod(rows[0][0]), 0.1);
  EXPECT_DOUBLE_EQ(std::stod(rows[0][1]), 1e-17);
  EXPECT_DOUBLE_EQ(std::stod(rows[0][2]), 12345.6789);
}

TEST(Csv, EscapePassthroughForPlainFields) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("a\"b"), "\"a\"\"b\"");
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/definitely/missing.csv"),
               std::runtime_error);
}

TEST(Csv, WriteToBadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent/dir/file.csv"), std::runtime_error);
}

// The "%.17g round-trips" contract of docs/serving.md: the to_chars writer
// must spell every double exactly as snprintf("%.17g") does (journals,
// bundles and outcomes.csv stay byte-identical), and every finite value must
// read back bit-exactly. A switch to shortest to_chars fails here.
std::string printf_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string codec_17g(double v) {
  char buf[kDoubleChars];
  return std::string(buf, format_double(buf, v));
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t to_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double parse_whole(const std::string& s) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  EXPECT_EQ(ec, std::errc()) << s;
  EXPECT_EQ(end, s.data() + s.size()) << s;
  return v;
}

TEST(CsvCodec, FormatMatchesPrintfOnEdgeValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> edges = {
      0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      inf, -inf, nan, -nan, 1e16, 1e17, 9007199254740993.0 /* 2^53+1 */,
      9007199254740992.0, 0.1, 0.2 + 0.1, 1.0 / 3.0, 1.0, 2.0, 3.0, 12.0,
      858611.0, 4294967295.0, 123456789012.0, 35.0, 1.5, 1e-17, 1e21,
      12345.6789};
  for (const double v : edges) {
    EXPECT_EQ(codec_17g(v), printf_17g(v)) << "bits " << to_bits(v);
    EXPECT_EQ(format_double(v), printf_17g(v));
    if (std::isfinite(v)) {
      EXPECT_EQ(to_bits(parse_whole(codec_17g(v))), to_bits(v)) << v;
    }
  }
  EXPECT_EQ(codec_17g(-0.0), "-0");
  EXPECT_EQ(codec_17g(5e-324), "4.9406564584124654e-324");
  EXPECT_EQ(codec_17g(1e17), "1e+17");
  EXPECT_EQ(codec_17g(0.1), "0.10000000000000001");
  EXPECT_EQ(codec_17g(42.0), "42");
}

TEST(CsvCodec, FormatMatchesPrintfOnRandomBitPatterns) {
  Rng rng(0xC5F, 3);
  std::size_t mismatches = 0, roundtrip_failures = 0;
  for (int i = 0; i < 100000; ++i) {
    const double v = from_bits(rng());
    const std::string mine = codec_17g(v);
    mismatches += mine != printf_17g(v);
    if (std::isfinite(v)) {
      roundtrip_failures += to_bits(parse_whole(mine)) != to_bits(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(roundtrip_failures, 0u);
}

class NumericCsv : public ::testing::Test {
 protected:
  std::string path_ = case_temp_path("sjs_numeric_csv_test", ".csv");
  void TearDown() override { std::filesystem::remove(path_); }
  void write(const std::string& text) {
    std::ofstream out(path_, std::ios::binary);
    out << text;
  }
  // The message NumericCsvReader throws for the first bad field, or "".
  std::string first_error() {
    try {
      NumericCsvReader in(path_, "test");
      while (in.next()) {
        if (in.row() == 0) continue;  // header
        for (std::size_t i = 0; i < in.field_count(); ++i) in.number(i);
      }
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }
};

TEST_F(NumericCsv, WriterRowsReadBackBitExactly) {
  Rng rng(77);
  std::vector<double> values;
  for (int i = 0; i < 4000; ++i) {
    double v = from_bits(rng());
    if (std::isnan(v)) v = 0.5;
    values.push_back(v);
  }
  {
    CsvWriter w(path_);
    for (std::size_t i = 0; i < values.size(); i += 4) {
      w.write_row_numeric(values.data() + i, 4);
    }
  }
  NumericCsvReader in(path_, "test");
  std::size_t k = 0;
  while (in.next()) {
    in.expect_fields(4);
    for (std::size_t i = 0; i < 4; ++i, ++k) {
      EXPECT_EQ(to_bits(in.number(i)), to_bits(values[k]));
    }
  }
  EXPECT_EQ(k, values.size());
}

TEST_F(NumericCsv, WideRowsMatchPrintf) {
  std::vector<double> row;
  std::string expected;
  for (int i = 0; i < 20; ++i) {
    row.push_back(-1.0 / (i + 3));
    if (i) expected += ',';
    expected += printf_17g(row.back());
  }
  {
    CsvWriter w(path_);
    w.write_row_numeric(row.data(), row.size());
  }
  std::ifstream in(path_);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, expected);
}

TEST_F(NumericCsv, RowsFieldsAndTerminators) {
  write("a,b\r\n1,2.5\n\n-3,4e2");  // CRLF, a blank row, no final newline
  NumericCsvReader in(path_, "test");
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.row(), 0u);
  EXPECT_EQ(in.field(1), "b");
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.integer(0), 1);
  EXPECT_EQ(in.number(1), 2.5);
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.field_count(), 1u);
  EXPECT_EQ(in.field(0), "");
  ASSERT_TRUE(in.next());
  EXPECT_EQ(in.row(), 3u);
  EXPECT_EQ(in.integer(0), -3);
  EXPECT_EQ(in.number(1), 400.0);
  EXPECT_FALSE(in.next());
}

TEST_F(NumericCsv, WholeFieldOrRowNumberedError) {
  const std::vector<std::string> bad = {"1.5abc", "", " 1", "1 ", "+1",
                                        "\"1\"", "0x10", "1,5x"};
  for (const std::string& field : bad) {
    write("h\n0\n" + field + "\n");
    const std::string what = first_error();
    EXPECT_NE(what.find("test row 2 is not numeric"), std::string::npos)
        << "field '" << field << "': " << what;
    EXPECT_NE(what.find(path_), std::string::npos) << what;
  }
  write("1\n2\n");
  EXPECT_EQ(first_error(), "");
}

TEST_F(NumericCsv, IntegerRejectsFractionsAndExponents) {
  write("3.7,3e2,12,-4\n");
  NumericCsvReader in(path_, "test");
  ASSERT_TRUE(in.next());
  EXPECT_THROW(in.integer(0), std::runtime_error);
  EXPECT_THROW(in.integer(1), std::runtime_error);
  EXPECT_EQ(in.integer(2), 12);
  EXPECT_EQ(in.integer(3), -4);
}

TEST_F(NumericCsv, FieldCountErrorNamesTheRow) {
  write("1,2\n1,2,3\n");
  NumericCsvReader in(path_, "test");
  ASSERT_TRUE(in.next());
  EXPECT_NO_THROW(in.expect_fields(2));
  ASSERT_TRUE(in.next());
  try {
    in.expect_fields(2);
    FAIL() << "3 fields accepted as 2";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("test row 1 must have 2 fields"),
              std::string::npos)
        << e.what();
  }
}

TEST(NumericCsvReaderTest, MissingFileThrows) {
  EXPECT_THROW(NumericCsvReader("/nonexistent/definitely/missing.csv", "x"),
               std::runtime_error);
}

// ---------------------------------------------------------------- ASCII chart

TEST(AsciiChart, ContainsMarkersAndLegend) {
  AsciiSeries s;
  s.name = "series-one";
  s.marker = '@';
  for (int i = 0; i < 20; ++i) {
    s.x.push_back(i);
    s.y.push_back(i * i);
  }
  AsciiChartOptions opt;
  opt.title = "squares";
  auto chart = render_ascii_chart({s}, opt);
  EXPECT_NE(chart.find('@'), std::string::npos);
  EXPECT_NE(chart.find("series-one"), std::string::npos);
  EXPECT_NE(chart.find("squares"), std::string::npos);
}

TEST(AsciiChart, EmptySeriesSafe) {
  auto chart = render_ascii_chart({}, {});
  EXPECT_NE(chart.find("no data"), std::string::npos);
}

TEST(AsciiChart, SparklineLengthMatches) {
  auto spark = render_sparkline({1, 2, 3, 2, 1});
  EXPECT_FALSE(spark.empty());
  EXPECT_TRUE(render_sparkline({}).empty());
}

// ---------------------------------------------------------------- gnuplot

class GnuplotTest : public ::testing::Test {
 protected:
  std::string path_ = case_temp_path("sjs_gnuplot_test", ".gp");
  void TearDown() override { std::filesystem::remove(path_); }

  std::string read_all() {
    std::ifstream in(path_);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
};

TEST_F(GnuplotTest, EmitsSeriesAndLabels) {
  GnuplotFigure figure;
  figure.title = "my title";
  figure.x_label = "time";
  figure.y_label = "value";
  figure.series = {{"data.csv", 1, 2, "V-Dover"},
                   {"data.csv", 1, 3, "Dover"}};
  write_gnuplot_script(figure, path_);
  auto script = read_all();
  EXPECT_NE(script.find("set title \"my title\""), std::string::npos);
  EXPECT_NE(script.find("using 1:2"), std::string::npos);
  EXPECT_NE(script.find("using 1:3"), std::string::npos);
  EXPECT_NE(script.find("title \"V-Dover\""), std::string::npos);
  EXPECT_EQ(script.find("set output"), std::string::npos);  // interactive
}

TEST_F(GnuplotTest, PngOutputAndEscaping) {
  GnuplotFigure figure;
  figure.title = "quote \" here";
  figure.output_png = "out.png";
  figure.series = {{"d.csv", 1, 2, "s"}};
  write_gnuplot_script(figure, path_);
  auto script = read_all();
  EXPECT_NE(script.find("set output \"out.png\""), std::string::npos);
  EXPECT_NE(script.find("quote \\\" here"), std::string::npos);
}

TEST(Gnuplot, BadPathThrows) {
  GnuplotFigure figure;
  EXPECT_THROW(write_gnuplot_script(figure, "/nonexistent/dir/x.gp"),
               std::runtime_error);
}

// ---------------------------------------------------------------- Logging

TEST(Logging, CheckThrowsWithMessage) {
  try {
    SJS_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
  }
}

TEST(Logging, CheckPassesSilently) {
  SJS_CHECK(1 + 1 == 2);  // must not throw
}

TEST(Logging, LevelGating) {
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
}

}  // namespace
}  // namespace sjs
