// Unit tests for src/common: status, result, strings, rng, csv, table,
// retry/backoff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

#include "common/csv.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"

namespace trajkit {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIoError), "IoError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
            "DeadlineExceeded");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "ResourceExhausted");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
}

TEST(StatusTest, ServingFactoriesCarryTheirCodes) {
  EXPECT_EQ(Status::DeadlineExceeded("late").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("full").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Unavailable("down").code(), StatusCode::kUnavailable);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

Status FailsThenPropagates() {
  TRAJKIT_RETURN_IF_ERROR(Status::IoError("disk on fire"));
  return Status::Ok();  // Unreachable.
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  const Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------- Result --

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r.value_or("fallback"), "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  TRAJKIT_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(ResultTest, AssignOrReturnChains) {
  ASSERT_TRUE(Quarter(8).ok());
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd.
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, SplitBasic) {
  const auto parts = SplitString("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = SplitString("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitEmptyInput) {
  const auto parts = SplitString("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\r\n"), "");
  EXPECT_EQ(StripWhitespace("abc"), "abc");
}

TEST(StringsTest, StripWhitespaceStripsWhatIsspaceDoes) {
  for (int c = 0; c < 256; ++c) {
    const std::string text = std::string(1, static_cast<char>(c)) + "x";
    EXPECT_EQ(StripWhitespace(text).size(), std::isspace(c) ? 1u : 2u) << c;
  }
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("trajkit", "traj"));
  EXPECT_FALSE(StartsWith("traj", "trajkit"));
}

TEST(StringsTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("WaLk"), "walk");
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e3 ").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("0").value(), 0.0);
}

TEST(StringsTest, ParseDoubleInvalid) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
}

TEST(StringsTest, ParseInt64Valid) {
  EXPECT_EQ(ParseInt64("123").value(), 123);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
}

TEST(StringsTest, ParseInt64Invalid) {
  EXPECT_FALSE(ParseInt64("12.5").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").ok());
}

// The strtod/strtoll parsers the from_chars fast paths must match: accept
// exactly when the whole stripped field converts without ERANGE, with the
// same value.
Result<double> StrtodReference(std::string_view text) {
  const std::string buf(StripWhitespace(text));
  if (buf.empty()) return Status::ParseError("empty");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::ParseError("not a double");
  }
  return value;
}

Result<long long> StrtollReference(std::string_view text) {
  const std::string buf(StripWhitespace(text));
  if (buf.empty()) return Status::ParseError("empty");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::ParseError("not an integer");
  }
  return value;
}

void ExpectSameDouble(const std::string& text) {
  const Result<double> got = ParseDouble(text);
  const Result<double> want = StrtodReference(text);
  ASSERT_EQ(got.ok(), want.ok()) << "'" << text << "'";
  if (got.ok()) {
    // Bitwise, so -0.0 and NaN payloads count too.
    EXPECT_EQ(std::memcmp(&got.value(), &want.value(), sizeof(double)), 0)
        << "'" << text << "'";
  }
}

void ExpectSameInt64(const std::string& text) {
  const Result<long long> got = ParseInt64(text);
  const Result<long long> want = StrtollReference(text);
  ASSERT_EQ(got.ok(), want.ok()) << "'" << text << "'";
  if (got.ok()) {
    EXPECT_EQ(got.value(), want.value()) << "'" << text << "'";
  }
}

TEST(StringsTest, ParseDoubleMatchesStrtodOnEdgeCases) {
  for (const char* text :
       {"+1.5", "-0", "+0", "0.0", "-0.0", "0x1p3", "0X1.8P-2", "inf", "-INF",
        "infinity", "nan", "NaN(123)", "1e-310", "-1e-310", "1e-400",
        "1e400", "-1e400", "1.7976931348623157e308", "1.7976931348623159e308",
        "2.2250738585072014e-308", "2.2250738585072011e-308",
        "4.9406564584124654e-324", "1e", "1e+", ".5", "5.", ".", "-", "+",
        "1_0", " \t39.984702\r", "116.318417 ", "1 2", "1,5", "0001.5",
        "00000000000000000000000000000000000000000000000000000000000000000000"
        "00000000000000000000000000000000000000000000000000000000000000000000"
        "1.25"}) {
    ExpectSameDouble(text);
  }
  ExpectSameDouble(std::string("1.5\0x", 5));
}

TEST(StringsTest, ParseInt64MatchesStrtollOnEdgeCases) {
  for (const char* text :
       {"+12", "-0", "+0", "007", "9223372036854775807",
        "9223372036854775808", "-9223372036854775808",
        "-9223372036854775809", "0x10", "1e3", "-", "+", "+-1", " 42\t",
        "4 2", "4294969304"}) {
    ExpectSameInt64(text);
  }
  ExpectSameInt64(std::string("12\0", 3));
}

TEST(StringsTest, ParseNumbersMatchStrtoOnRandomFields) {
  // Seeded random fields over the characters numbers are made of.
  constexpr char kAlphabet[] = "0123456789+-.eEpPxXabcdfinINFAty \t";
  Rng rng(20190326);
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    const int length = static_cast<int>(rng.UniformInt(0, 24));
    for (int c = 0; c < length; ++c) {
      text.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
    }
    ExpectSameDouble(text);
    ExpectSameInt64(text);
  }
  // Round-tripped random doubles across the whole exponent range.
  for (int i = 0; i < 20000; ++i) {
    const double value =
        rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.UniformInt(-320, 308));
    ExpectSameDouble(StrPrintf("%.*g", static_cast<int>(rng.UniformInt(1, 20)),
                               value));
  }
}

TEST(StringsTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"solo"}, ","), "solo");
}

TEST(StringsTest, StrPrintfFormats) {
  EXPECT_EQ(StrPrintf("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrPrintf("%.2f", 3.14159), "3.14");
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All residues hit.
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, SampleDiscreteRespectsWeights) {
  Rng rng(31);
  const std::vector<double> weights = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.SampleDiscrete(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(41);
  Rng child = a.Fork();
  // Child's next outputs differ from the parent's (overwhelmingly likely).
  EXPECT_NE(child.NextUint64(), a.NextUint64());
}

TEST(RngTest, ReseedResetsStream) {
  Rng rng(43);
  const uint64_t first = rng.NextUint64();
  rng.NextUint64();
  rng.Reseed(43);
  EXPECT_EQ(rng.NextUint64(), first);
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, ParsesHeaderAndRows) {
  const auto table = ParseCsv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][2], "6");
}

TEST(CsvTest, ColumnIndexLookup) {
  const auto table = ParseCsv("x,y\n1,2\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->ColumnIndex("y"), 1);
  EXPECT_EQ(table->ColumnIndex("z"), -1);
}

TEST(CsvTest, RejectsRaggedRows) {
  const auto table = ParseCsv("a,b\n1,2\n3\n");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, RejectsFirstRowThatDisagreesWithHeader) {
  const auto table = ParseCsv("a,b,c\n1,2\n");
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, HandlesCrLfAndBlankLines) {
  const auto table = ParseCsv("a,b\r\n1,2\r\n\r\n3,4\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][1], "4");
}

TEST(CsvTest, StripsFieldWhitespace) {
  const auto table = ParseCsv("a , b\n 1 , 2 \n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->header[1], "b");
  EXPECT_EQ(table->rows[0][0], "1");
}

TEST(CsvTest, WriteRoundTrips) {
  CsvTable table;
  table.header = {"a", "b"};
  table.rows = {{"1", "2"}, {"3", "4"}};
  const std::string text = WriteCsv(table);
  const auto parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, table.header);
  EXPECT_EQ(parsed->rows, table.rows);
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path =
      testing::TempDir() + "/trajkit_csv_test/sub/data.csv";
  CsvTable table;
  table.header = {"x"};
  table.rows = {{"42"}};
  ASSERT_TRUE(WriteCsvFile(path, table).ok());
  const auto read = ReadCsvFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->rows[0][0], "42");
}

TEST(CsvTest, MissingFileIsIoError) {
  const auto result = ReadCsvFile("/nonexistent/path.csv");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, ReadFileToStringReadsWholeFiles) {
  const std::string dir = testing::TempDir() + "/trajkit_read_file_test";
  const std::string empty_path = dir + "/empty.txt";
  ASSERT_TRUE(WriteStringToFile(empty_path, "").ok());
  const auto empty = ReadFileToString(empty_path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  // Larger than any stream buffer, with every byte value, NUL included.
  std::string big;
  for (int i = 0; i < 300000; ++i) big.push_back(static_cast<char>(i * 7));
  const std::string big_path = dir + "/big.bin";
  ASSERT_TRUE(WriteStringToFile(big_path, big).ok());
  const auto read = ReadFileToString(big_path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), big);

  const auto directory = ReadFileToString(dir);
  EXPECT_FALSE(directory.ok());
  EXPECT_EQ(directory.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------- TablePrinter --

TEST(TablePrinterTest, AlignsAndRules) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1.5"});
  table.AddRow({"b", "22.25"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("22.25"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TablePrinterTest, DoubleRowFormatsPrecision) {
  TablePrinter table({"k", "v1", "v2"});
  table.AddRow("row", {1.23456, 2.0}, 3);
  EXPECT_NE(table.ToString().find("1.235"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsArePadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NO_FATAL_FAILURE(table.ToString());
}

// ------------------------------------------------------------- Stopwatch --

TEST(StopwatchTest, MeasuresNonNegativeMonotonicTime) {
  Stopwatch timer;
  const double t1 = timer.ElapsedSeconds();
  const double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  timer.Reset();
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

// ----------------------------------------------------------------- Retry --

TEST(RetryTest, OnlyTransientCodesAreRetryable) {
  EXPECT_TRUE(IsRetryableStatus(Status::Unavailable("backend hiccup")));
  EXPECT_FALSE(IsRetryableStatus(Status::Ok()));
  EXPECT_FALSE(IsRetryableStatus(Status::DeadlineExceeded("late")));
  EXPECT_FALSE(IsRetryableStatus(Status::ResourceExhausted("full")));
  EXPECT_FALSE(IsRetryableStatus(Status::InvalidArgument("bad")));
}

TEST(RetryTest, BackoffGrowsClampsAndJittersDeterministically) {
  Backoff a(/*seed=*/99);
  Backoff b(/*seed=*/99);
  Backoff other(/*seed=*/100);
  bool differs = false;
  double base = kBackoffInitialSeconds;
  for (int i = 0; i < 10; ++i) {
    const double delay = a.NextDelaySeconds();
    // Same seed => same sequence (chaos runs are reproducible).
    EXPECT_EQ(delay, b.NextDelaySeconds());
    differs |= delay != other.NextDelaySeconds();
    // Jitter only shrinks the delay, never past (1 - jitter) * base.
    EXPECT_LE(delay, base);
    EXPECT_GE(delay, (1.0 - kBackoffJitter) * base);
    base = std::min(base * kBackoffMultiplier, kBackoffMaxSeconds);
  }
  // Ten doublings from 1 ms pass the 50 ms cap.
  EXPECT_EQ(base, kBackoffMaxSeconds);
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace trajkit
