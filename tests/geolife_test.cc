// Tests for the real-GeoLife directory reader (PLT + labels.txt parsing).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/strings.h"
#include "geolife/geolife_reader.h"
#include "synthgeo/generator.h"
#include "traj/types.h"

namespace trajkit::geolife {
namespace {

constexpr char kPltSample[] =
    "Geolife trajectory\n"
    "WGS 84\n"
    "Altitude is in Feet\n"
    "Reserved 3\n"
    "0,2,255,My Track,0,0,2,8421376\n"
    "0\n"
    "39.984702,116.318417,0,492,39744.1201851852,2008-10-23,02:53:04\n"
    "39.984683,116.31845,0,492,39744.1202546296,2008-10-23,02:53:10\n"
    "39.984686,116.318417,0,492,39744.1203240741,2008-10-23,02:53:15\n";

constexpr char kLabelsSample[] =
    "Start Time\tEnd Time\tTransportation Mode\n"
    "2008/10/23 02:53:00\t2008/10/23 02:53:12\twalk\n"
    "2008/10/23 02:53:13\t2008/10/23 03:10:00\tbus\n";

TEST(GeoLifeDateTimeTest, ParsesSlashAndDashFormats) {
  const auto a = ParseGeoLifeDateTime("2008/10/23", "02:53:04");
  const auto b = ParseGeoLifeDateTime("2008-10-23", "02:53:04");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.value(), b.value());
  // 2008-10-23 00:00 UTC = 1224720000; 02:53:04 = +10384 s.
  EXPECT_DOUBLE_EQ(a.value(), 1224720000.0 + 10384.0);
}

TEST(GeoLifeDateTimeTest, EpochReference) {
  const auto epoch = ParseGeoLifeDateTime("1970/01/01", "00:00:00");
  ASSERT_TRUE(epoch.ok());
  EXPECT_DOUBLE_EQ(epoch.value(), 0.0);
}

TEST(GeoLifeDateTimeTest, RejectsGarbage) {
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/10", "02:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/10/23", "0253").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/13/23", "02:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/10/23", "25:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/10/23/1", "02:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/10/23", "02:53:04:05").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime(" 2008/10/23", "02:53:04:05").ok());
}

TEST(GeoLifeDateTimeTest, RejectsEachComponentJustOutOfRange) {
  for (const char* date : {"2008/00/10", "2008/13/10", "2008/10/00",
                           "2008/10/32", " 2008/13/10", " 2008/10/00"}) {
    EXPECT_FALSE(ParseGeoLifeDateTime(date, "12:00:00").ok()) << date;
  }
  for (const char* time : {"24:00:00", "12:60:00", "12:00:61", " 24:00:00",
                           " 12:60:00", " 12:00:61"}) {
    EXPECT_FALSE(ParseGeoLifeDateTime("2008/10/10", time).ok()) << time;
  }
}

TEST(GeoLifeDateTimeTest, ChecksDayAgainstMonthLength) {
  EXPECT_TRUE(ParseGeoLifeDateTime("2008/02/29", "12:00:00").ok());
  EXPECT_TRUE(ParseGeoLifeDateTime("2000/02/29", "12:00:00").ok());
  EXPECT_TRUE(ParseGeoLifeDateTime("2008/04/30", "12:00:00").ok());
  EXPECT_TRUE(ParseGeoLifeDateTime("2008/12/31", "12:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2007/02/29", "12:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("1900/02/29", "12:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/02/30", "12:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/02/31", "12:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/04/31", "12:00:00").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008-06-31", "12:00:00").ok());
}

TEST(GeoLifeDateTimeTest, LeapSecondCountsIntoNextMinute) {
  const auto leap = ParseGeoLifeDateTime("2008/12/31", "23:59:60");
  const auto next = ParseGeoLifeDateTime("2009/01/01", "00:00:00");
  ASSERT_TRUE(leap.ok());
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(leap.value(), next.value());
}

TEST(GeoLifeDateTimeTest, RejectsComponentsThatOnlyFitAfterNarrowing) {
  // 4294969304 = 2^32 + 2008 and 4294967297 = 2^32 + 1 would pass as 2008
  // and 1 once cast to int.
  EXPECT_FALSE(ParseGeoLifeDateTime("4294969304/10/23", "02:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/4294967297/23", "02:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/10/23", "4294967298:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("0/10/23", "02:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("10000/10/23", "02:53:04").ok());
  EXPECT_TRUE(ParseGeoLifeDateTime("1/01/01", "00:00:00").ok());
  EXPECT_TRUE(ParseGeoLifeDateTime("9999/12/31", "23:59:59").ok());
}

TEST(GeoLifeDateTimeTest, ComponentsAcceptPaddingAndSigns) {
  const auto plain = ParseGeoLifeDateTime("2008/10/23", "02:53:04");
  const auto padded = ParseGeoLifeDateTime(" +2008/ 10 /023", "+2: 53 :4");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded.value(), plain.value());
  const auto midnight = ParseGeoLifeDateTime("2008/10/23", "00:00:00");
  const auto negative_zero = ParseGeoLifeDateTime("2008/10/23", "-0:00:00");
  ASSERT_TRUE(negative_zero.ok());
  EXPECT_EQ(negative_zero.value(), midnight.value());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/1 0/23", "02:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/+/23", "02:53:04").ok());
  EXPECT_FALSE(ParseGeoLifeDateTime("2008/10/23", "-1:53:04").ok());
}

TEST(GeoLifeDateTimeTest, FixedLayoutMatchesGeneralSpelling) {
  // "dddd/dd/dd dd:dd:dd" takes a direct-digit path; a padded spelling of
  // the same text takes the general one. Both must agree on everything,
  // including which texts are rejected.
  Rng rng(1807);
  auto digit = [&rng] { return static_cast<char>('0' + rng.NextBounded(10)); };
  size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string date = StrPrintf("%04d/%02d/%02d",
                                 static_cast<int>(rng.UniformInt(0, 2100)),
                                 static_cast<int>(rng.UniformInt(0, 13)),
                                 static_cast<int>(rng.UniformInt(0, 32)));
    std::string time = StrPrintf("%02d:%02d:%02d",
                                 static_cast<int>(rng.UniformInt(0, 25)),
                                 static_cast<int>(rng.UniformInt(0, 61)),
                                 static_cast<int>(rng.UniformInt(0, 61)));
    if (rng.NextBernoulli(0.3)) date[4] = date[7] = '-';
    if (rng.NextBernoulli(0.2)) {
      static const char kOdd[] = "/-:+ x.";
      std::string& target = rng.NextBernoulli(0.5) ? date : time;
      target[rng.NextBounded(target.size())] =
          rng.NextBernoulli(0.5) ? kOdd[rng.NextBounded(sizeof(kOdd) - 1)]
                                 : digit();
    }
    const auto fixed = ParseGeoLifeDateTime(date, time);
    const auto general = ParseGeoLifeDateTime(" " + date, time + " ");
    ASSERT_EQ(fixed.ok(), general.ok()) << date << " " << time;
    if (fixed.ok()) {
      ++accepted;
      ASSERT_EQ(fixed.value(), general.value()) << date << " " << time;
    }
  }
  EXPECT_GT(accepted, 5000u);
}

TEST(PltParserTest, SkipsRowsWithImpossibleDates) {
  std::string text(kPltSample);
  text += "39.98,116.31,0,0,0,2008/02/30,02:55:00\n";
  text += "39.98,116.31,0,0,0,4294969304/10/23,02:55:00\n";
  const auto points = ParsePltText(text);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 3u);
}

TEST(PltParserTest, ParsesSampleWithPreamble) {
  const auto points = ParsePltText(kPltSample);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 3u);
  EXPECT_NEAR((*points)[0].pos.lat_deg, 39.984702, 1e-9);
  EXPECT_NEAR((*points)[0].pos.lon_deg, 116.318417, 1e-9);
  EXPECT_EQ((*points)[0].mode, traj::Mode::kUnknown);
  EXPECT_LT((*points)[0].timestamp, (*points)[1].timestamp);
}

TEST(PltParserTest, SkipsInvalidRows) {
  std::string text(kPltSample);
  text += "not,a,valid,row,x,y,z\n";
  text += "999.0,116.3,0,492,39744.13,2008-10-23,02:54:00\n";  // Bad lat.
  const auto points = ParsePltText(text);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 3u);
}

TEST(PltParserTest, SortsOutOfOrderFixes) {
  std::string text =
      "h1\nh2\nh3\nh4\nh5\nh6\n"
      "39.98,116.31,0,0,0,2008-10-23,02:55:00\n"
      "39.99,116.32,0,0,0,2008-10-23,02:53:00\n";
  const auto points = ParsePltText(text);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 2u);
  EXPECT_LT((*points)[0].timestamp, (*points)[1].timestamp);
  EXPECT_NEAR((*points)[0].pos.lat_deg, 39.99, 1e-9);
}

TEST(LabelsParserTest, ParsesIntervals) {
  const auto intervals = ParseLabelsText(kLabelsSample);
  ASSERT_TRUE(intervals.ok());
  ASSERT_EQ(intervals->size(), 2u);
  EXPECT_EQ((*intervals)[0].mode, traj::Mode::kWalk);
  EXPECT_EQ((*intervals)[1].mode, traj::Mode::kBus);
  EXPECT_LT((*intervals)[0].start_time, (*intervals)[0].end_time);
}

TEST(LabelsParserTest, SkipsUnknownModes) {
  const std::string text =
      "Start Time\tEnd Time\tTransportation Mode\n"
      "2008/10/23 02:53:00\t2008/10/23 02:53:12\thovercraft\n"
      "2008/10/23 02:54:00\t2008/10/23 02:55:00\twalk\n";
  const auto intervals = ParseLabelsText(text);
  ASSERT_TRUE(intervals.ok());
  ASSERT_EQ(intervals->size(), 1u);
  EXPECT_EQ((*intervals)[0].mode, traj::Mode::kWalk);
}

TEST(ApplyLabelsTest, AssignsByInterval) {
  auto points = ParsePltText(kPltSample);
  ASSERT_TRUE(points.ok());
  auto intervals = ParseLabelsText(kLabelsSample);
  ASSERT_TRUE(intervals.ok());
  ApplyLabels(std::move(intervals).value(), points.value());
  // 02:53:04 and 02:53:10 fall in the walk interval; 02:53:15 in bus.
  EXPECT_EQ((*points)[0].mode, traj::Mode::kWalk);
  EXPECT_EQ((*points)[1].mode, traj::Mode::kWalk);
  EXPECT_EQ((*points)[2].mode, traj::Mode::kBus);
}

TEST(ApplyLabelsTest, PointsOutsideIntervalsStayUnknown) {
  auto points = ParsePltText(kPltSample);
  ASSERT_TRUE(points.ok());
  std::vector<LabelInterval> intervals = {
      {0.0, 1.0, traj::Mode::kWalk}};  // Far in the past.
  ApplyLabels(intervals, points.value());
  for (const auto& p : points.value()) {
    EXPECT_EQ(p.mode, traj::Mode::kUnknown);
  }
}

TEST(ApplyLabelsTest, UnsortedIntervalsHandled) {
  auto points = ParsePltText(kPltSample);
  ASSERT_TRUE(points.ok());
  auto intervals = ParseLabelsText(kLabelsSample).value();
  std::swap(intervals[0], intervals[1]);  // Unsort.
  ApplyLabels(std::move(intervals), points.value());
  EXPECT_EQ((*points)[0].mode, traj::Mode::kWalk);
  EXPECT_EQ((*points)[2].mode, traj::Mode::kBus);
}

TEST(WritePltTest, RoundTripsThroughParser) {
  auto original = ParsePltText(kPltSample).value();
  const std::string text = WritePltText(original);
  const auto reparsed = ParsePltText(text);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_NEAR((*reparsed)[i].pos.lat_deg, original[i].pos.lat_deg, 1e-6);
    EXPECT_NEAR((*reparsed)[i].pos.lon_deg, original[i].pos.lon_deg, 1e-6);
    EXPECT_NEAR((*reparsed)[i].timestamp, original[i].timestamp, 1.0);
  }
}

class GeoLifeDirectoryTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(testing::TempDir()) /
            "trajkit_geolife_test";
    std::filesystem::remove_all(root_);
    const auto user_dir = root_ / "000";
    std::filesystem::create_directories(user_dir / "Trajectory");
    ASSERT_TRUE(WriteStringToFile(
                    (user_dir / "Trajectory" / "20081023025304.plt")
                        .string(),
                    kPltSample)
                    .ok());
    ASSERT_TRUE(WriteStringToFile((user_dir / "labels.txt").string(),
                                  kLabelsSample)
                    .ok());
    // A second, unlabelled user.
    const auto user_dir2 = root_ / "001";
    std::filesystem::create_directories(user_dir2 / "Trajectory");
    ASSERT_TRUE(WriteStringToFile(
                    (user_dir2 / "Trajectory" / "a.plt").string(),
                    kPltSample)
                    .ok());
    // Non-user directories that must be skipped: not a number, and
    // numbers no int user id can hold (2^32 would load as user 0).
    std::filesystem::create_directories(root_ / "README_dir");
    for (const char* name : {"4294967296", "-1"}) {
      std::filesystem::create_directories(root_ / name / "Trajectory");
      ASSERT_TRUE(WriteStringToFile(
                      (root_ / name / "Trajectory" / "a.plt").string(),
                      kPltSample)
                      .ok());
    }
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  std::filesystem::path root_;
};

TEST_F(GeoLifeDirectoryTest, LoadsLabelledUser) {
  const auto user = LoadGeoLifeUser((root_ / "000").string(), 0);
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(user->user_id, 0);
  ASSERT_EQ(user->points.size(), 3u);
  EXPECT_EQ(user->points[0].mode, traj::Mode::kWalk);
  EXPECT_EQ(user->points[2].mode, traj::Mode::kBus);
}

TEST_F(GeoLifeDirectoryTest, LoadsUnlabelledUser) {
  const auto user = LoadGeoLifeUser((root_ / "001").string(), 1);
  ASSERT_TRUE(user.ok());
  for (const auto& p : user->points) {
    EXPECT_EQ(p.mode, traj::Mode::kUnknown);
  }
}

TEST_F(GeoLifeDirectoryTest, LoadsWholeCorpusSkippingNonUsers) {
  const auto corpus = LoadGeoLifeCorpus(root_.string());
  ASSERT_TRUE(corpus.ok());
  EXPECT_EQ(corpus->size(), 2u);
  EXPECT_EQ((*corpus)[0].user_id, 0);
  EXPECT_EQ((*corpus)[1].user_id, 1);
}

TEST_F(GeoLifeDirectoryTest, UnlistableDirectoriesAreIoErrors) {
  if (geteuid() == 0) {
    GTEST_SKIP() << "permission bits do not apply to root";
  }
  namespace fs = std::filesystem;
  const fs::path trajectory = root_ / "000" / "Trajectory";
  fs::permissions(trajectory, fs::perms::none);
  const auto user = LoadGeoLifeUser((root_ / "000").string(), 0);
  const auto corpus_with_bad_user = LoadGeoLifeCorpus(root_.string());
  fs::permissions(trajectory, fs::perms::owner_all);
  ASSERT_FALSE(user.ok());
  EXPECT_EQ(user.status().code(), StatusCode::kIoError);
  ASSERT_FALSE(corpus_with_bad_user.ok());
  EXPECT_EQ(corpus_with_bad_user.status().code(), StatusCode::kIoError);

  fs::permissions(root_, fs::perms::owner_write | fs::perms::owner_exec);
  const auto corpus = LoadGeoLifeCorpus(root_.string());
  fs::permissions(root_, fs::perms::owner_all);
  ASSERT_FALSE(corpus.ok());
  EXPECT_EQ(corpus.status().code(), StatusCode::kIoError);
}

TEST_F(GeoLifeDirectoryTest, MissingDirectoryIsNotFound) {
  EXPECT_FALSE(LoadGeoLifeCorpus((root_ / "missing").string()).ok());
  EXPECT_FALSE(LoadGeoLifeUser((root_ / "missing").string(), 9).ok());
}

// ------------------------------------------------- Differential mutants --
//
// The reference is the reader as it was before the span scanner: a generic
// CSV pass that builds one string per field (6-line preamble, CRLF and
// blank lines, field count fixed by the first data row, other counts
// dropped), strtod on a copy of each coordinate, the public
// ParseGeoLifeDateTime, and a stable sort per file and per user. Seeded
// mutants of exported synthgeo files must load identically through both.

struct RefCsv {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

Result<RefCsv> RefParseCsv(std::string_view text, char delimiter,
                           bool has_header, int skip_lines) {
  RefCsv table;
  size_t pos = 0;
  int line_number = 0;
  int skipped_preamble = 0;
  size_t expected_fields = 0;
  bool saw_first_data_row = false;
  bool header_pending = has_header;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = (eol == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (skipped_preamble < skip_lines) {
      ++skipped_preamble;
      continue;
    }
    if (StripWhitespace(line).empty()) continue;
    std::vector<std::string_view> fields = SplitString(line, delimiter);
    if (header_pending) {
      header_pending = false;
      for (std::string_view f : fields) {
        table.header.emplace_back(StripWhitespace(f));
      }
      continue;
    }
    if (!saw_first_data_row) {
      saw_first_data_row = true;
      expected_fields = fields.size();
      if (!table.header.empty() && table.header.size() != expected_fields) {
        return Status::ParseError(StrPrintf(
            "line %d: %zu fields but header has %zu columns", line_number,
            expected_fields, table.header.size()));
      }
    } else if (fields.size() != expected_fields) {
      continue;
    }
    std::vector<std::string> row;
    for (std::string_view f : fields) row.emplace_back(StripWhitespace(f));
    table.rows.push_back(std::move(row));
  }
  return table;
}

Result<double> RefParseDouble(std::string_view text) {
  std::string_view stripped = StripWhitespace(text);
  if (stripped.empty()) return Status::ParseError("empty");
  std::string buf(stripped);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || errno == ERANGE) {
    return Status::ParseError("not a double: '" + buf + "'");
  }
  return value;
}

bool RefByTimestamp(const traj::TrajectoryPoint& a,
                    const traj::TrajectoryPoint& b) {
  return a.timestamp < b.timestamp;
}

Result<std::vector<traj::TrajectoryPoint>> RefParsePlt(
    std::string_view text) {
  TRAJKIT_ASSIGN_OR_RETURN(RefCsv table, RefParseCsv(text, ',', false, 6));
  std::vector<traj::TrajectoryPoint> points;
  for (const std::vector<std::string>& row : table.rows) {
    if (row.size() < 7) continue;
    const Result<double> lat = RefParseDouble(row[0]);
    const Result<double> lon = RefParseDouble(row[1]);
    if (!lat.ok() || !lon.ok()) continue;
    traj::TrajectoryPoint point;
    point.pos = geo::LatLon{lat.value(), lon.value()};
    if (!geo::IsValid(point.pos)) continue;
    const Result<double> timestamp = ParseGeoLifeDateTime(row[5], row[6]);
    if (!timestamp.ok()) continue;
    point.timestamp = timestamp.value();
    points.push_back(point);
  }
  std::stable_sort(points.begin(), points.end(), RefByTimestamp);
  return points;
}

Result<std::vector<LabelInterval>> RefParseLabels(std::string_view text) {
  TRAJKIT_ASSIGN_OR_RETURN(RefCsv table, RefParseCsv(text, '\t', true, 0));
  std::vector<LabelInterval> intervals;
  for (const std::vector<std::string>& row : table.rows) {
    if (row.size() < 3) continue;
    const std::vector<std::string_view> start = SplitString(row[0], ' ');
    const std::vector<std::string_view> end = SplitString(row[1], ' ');
    if (start.size() != 2 || end.size() != 2) continue;
    const Result<double> start_time =
        ParseGeoLifeDateTime(start[0], start[1]);
    const Result<double> end_time = ParseGeoLifeDateTime(end[0], end[1]);
    const Result<traj::Mode> mode = traj::ModeFromString(row[2]);
    if (!start_time.ok() || !end_time.ok() || !mode.ok()) continue;
    intervals.push_back(
        {start_time.value(), end_time.value(), mode.value()});
  }
  return intervals;
}

Result<std::vector<traj::Trajectory>> RefLoadCorpus(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<fs::path> user_dirs;
  for (const fs::directory_entry& entry : fs::directory_iterator(root)) {
    if (entry.is_directory()) user_dirs.push_back(entry.path());
  }
  std::sort(user_dirs.begin(), user_dirs.end());
  std::vector<traj::Trajectory> corpus;
  for (const fs::path& dir : user_dirs) {
    const Result<long long> uid = ParseInt64(dir.filename().string());
    if (!uid.ok() || uid.value() < 0 || uid.value() > INT_MAX) continue;
    traj::Trajectory user;
    user.user_id = static_cast<int>(uid.value());
    std::vector<fs::path> files;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(dir / "Trajectory")) {
      if (entry.is_regular_file() && entry.path().extension() == ".plt") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      TRAJKIT_ASSIGN_OR_RETURN(std::string text,
                               ReadFileToString(file.string()));
      TRAJKIT_ASSIGN_OR_RETURN(std::vector<traj::TrajectoryPoint> points,
                               RefParsePlt(text));
      user.points.insert(user.points.end(), points.begin(), points.end());
    }
    std::stable_sort(user.points.begin(), user.points.end(), RefByTimestamp);
    if (fs::is_regular_file(dir / "labels.txt")) {
      TRAJKIT_ASSIGN_OR_RETURN(
          std::string text, ReadFileToString((dir / "labels.txt").string()));
      TRAJKIT_ASSIGN_OR_RETURN(std::vector<LabelInterval> intervals,
                               RefParseLabels(text));
      ApplyLabels(std::move(intervals), user.points);
    }
    corpus.push_back(std::move(user));
  }
  return corpus;
}

// Bitwise point equality: lat, lon and timestamp by memcmp, plus the mode.
::testing::AssertionResult SamePoints(
    const std::vector<traj::TrajectoryPoint>& got,
    const std::vector<traj::TrajectoryPoint>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " points, reference has " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i].pos.lat_deg, &want[i].pos.lat_deg,
                    sizeof(double)) != 0 ||
        std::memcmp(&got[i].pos.lon_deg, &want[i].pos.lon_deg,
                    sizeof(double)) != 0 ||
        std::memcmp(&got[i].timestamp, &want[i].timestamp,
                    sizeof(double)) != 0 ||
        got[i].mode != want[i].mode) {
      return ::testing::AssertionFailure() << "point " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameIntervals(
    const std::vector<LabelInterval>& got,
    const std::vector<LabelInterval>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " intervals, reference has " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i].start_time, &want[i].start_time,
                    sizeof(double)) != 0 ||
        std::memcmp(&got[i].end_time, &want[i].end_time, sizeof(double)) !=
            0 ||
        got[i].mode != want[i].mode) {
      return ::testing::AssertionFailure() << "interval " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::string_view line : SplitString(text, '\n')) {
    lines.emplace_back(line);
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  return JoinStrings(lines, "\n");
}

// Applies one seeded mutation to `text`. `sep` is the field delimiter and
// `first_data_line` the index of the first data row.
void Mutate(Rng& rng, char sep, size_t first_data_line, std::string& text) {
  static const char* const kNumbers[] = {
      "+39.9", "-0", "+0", "0x1.4p5", "0X1P-2", "inf", "-inf", "nan",
      "NaN", "1e-310", "1e400", "-1e400", "1e-400", " 39.9 ", "39.9e",
      ".5", "5.", "", "2.2250738585072011e-308", "116.31841700000000001"};
  static const char* const kDates[] = {
      "2008/02/29", "2007/02/29", "2008/04/31", "2008/02/30",
      "4294969304/10/23", "0000/01/01", "2008-13-01", "+2008/ 10/23",
      "2008/10/23/1", "2008-10-23", " 2008 -10- 23 ", "2008/10"};
  static const char* const kTimes[] = {"24:00:00", "23:59:60", "-0:00:00",
                                       "+1:2:3",   " 1:02:03", "1:02",
                                       "4294967298:00:00"};
  static const char kBytes[] = " \t\r\n\v\f,/:-+.0123456789eExp";
  auto pick = [&rng](size_t n) { return static_cast<size_t>(rng.NextBounded(n)); };
  const size_t op = pick(12);
  if (text.empty() && op < 3) return;
  switch (op) {
    case 0:  // Bit flip.
      text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
      return;
    case 1:  // Byte insert.
      text.insert(text.begin() + static_cast<long>(pick(text.size() + 1)),
                  rng.NextBernoulli(0.5)
                      ? kBytes[pick(sizeof(kBytes) - 1)]
                      : static_cast<char>(pick(256)));
      return;
    case 2:  // Byte delete.
      text.erase(pick(text.size()), 1 + pick(3));
      return;
    case 3: {  // CRLF, on every line or one.
      std::vector<std::string> lines = SplitLines(text);
      const bool all = rng.NextBernoulli(0.5);
      const size_t one = pick(lines.size());
      for (size_t i = 0; i + 1 < lines.size(); ++i) {
        if (all || i == one) lines[i] += '\r';
      }
      text = JoinLines(lines);
      return;
    }
    case 4: {  // No newline after the last line.
      while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
        text.pop_back();
      }
      return;
    }
    case 5: {  // Blank or whitespace-only line.
      std::vector<std::string> lines = SplitLines(text);
      static const char* const kBlank[] = {"", "   ", "\t", "\r", " \v "};
      lines.insert(lines.begin() + static_cast<long>(pick(lines.size() + 1)),
                   kBlank[pick(5)]);
      text = JoinLines(lines);
      return;
    }
    case 6: {  // Swap two lines: out-of-order fixes, moved preamble.
      std::vector<std::string> lines = SplitLines(text);
      std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
      text = JoinLines(lines);
      return;
    }
    case 7:  // Truncate.
      text.resize(pick(text.size() + 1));
      return;
    default:
      break;
  }
  // Field-level mutations on one data row (the first one half the time).
  std::vector<std::string> lines = SplitLines(text);
  if (lines.size() <= first_data_line) return;
  const size_t line_index =
      rng.NextBernoulli(0.5)
          ? first_data_line
          : first_data_line + pick(lines.size() - first_data_line);
  std::vector<std::string> fields;
  for (std::string_view f : SplitString(lines[line_index], sep)) {
    fields.emplace_back(f);
  }
  const size_t field = pick(fields.size());
  switch (op) {
    case 8: {  // Padding and signs.
      static const char* const kPad[] = {" ", "  ", "\t", "\v", "\f", "\r"};
      const std::string pad = sep == '\t' && pick(2) == 0 ? " " : kPad[pick(6)];
      if (rng.NextBernoulli(0.5)) {
        fields[field] = pad + fields[field];
      } else {
        fields[field] += pad;
      }
      if (rng.NextBernoulli(0.3)) fields[field] = "+" + fields[field];
      break;
    }
    case 9:  // Number edge cases.
      fields[sep == ',' ? pick(2) : field] = kNumbers[pick(std::size(kNumbers))];
      break;
    case 10:  // Date or time edge cases.
      if (sep == ',') {
        if (fields.size() >= 7) {
          if (rng.NextBernoulli(0.6)) {
            fields[5] = kDates[pick(std::size(kDates))];
          } else {
            fields[6] = kTimes[pick(std::size(kTimes))];
          }
        }
      } else {
        fields[field] = std::string(kDates[pick(std::size(kDates))]) + " " +
                        kTimes[pick(std::size(kTimes))];
      }
      break;
    default:  // One field fewer or more (first rows of 6 and 8 fields).
      if (rng.NextBernoulli(0.5) && fields.size() > 1) {
        fields.pop_back();
      } else {
        fields.push_back("0");
      }
      break;
  }
  lines[line_index] = JoinStrings(fields, std::string(1, sep));
  text = JoinLines(lines);
}

class GeoLifeDifferentialTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::path(testing::TempDir()) /
            "trajkit_geolife_differential";
    std::filesystem::remove_all(root_);
    synthgeo::GeneratorOptions options;
    options.num_users = 3;
    options.days_per_user = 2;
    options.seed = 12;
    synthgeo::GeoLifeLikeGenerator generator(options);
    ASSERT_TRUE(ExportGeoLifeCorpus(generator.Generate(), root_.string())
                    .ok());
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  // The first `max_lines` lines of one exported file of `user` ("000").
  std::string ExportedFile(const std::string& user, const std::string& name,
                           size_t max_lines) {
    namespace fs = std::filesystem;
    fs::path path = root_ / user / name;
    if (name == "Trajectory") {
      std::vector<fs::path> files;
      for (const auto& entry : fs::directory_iterator(path)) {
        files.push_back(entry.path());
      }
      std::sort(files.begin(), files.end());
      path = files.front();
    }
    std::vector<std::string> lines =
        SplitLines(ReadFileToString(path.string()).value());
    if (lines.size() > max_lines) {
      lines.resize(max_lines);
      lines.push_back("");  // Keep the final newline.
    }
    return JoinLines(lines);
  }

  std::filesystem::path root_;
};

TEST_F(GeoLifeDifferentialTest, PltMutantsParseLikeTheReference) {
  const std::string base = ExportedFile("000", "Trajectory", 6 + 120);
  ASSERT_EQ(ParsePltText(base)->size(), 120u);
  Rng rng(20190326);
  size_t changed = 0;
  for (int i = 0; i < 2500; ++i) {
    std::string text = base;
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations; ++m) Mutate(rng, ',', 6, text);
    const auto got = ParsePltText(text);
    const auto want = RefParsePlt(text);
    ASSERT_EQ(got.ok(), want.ok()) << "mutant " << i;
    ASSERT_TRUE(SamePoints(got.value(), want.value()))
        << "mutant " << i << ":\n" << text;
    if (!SamePoints(got.value(), ParsePltText(base).value())) ++changed;
  }
  // The mutants must actually bite.
  EXPECT_GT(changed, 500u);
}

TEST_F(GeoLifeDifferentialTest, LabelsMutantsParseLikeTheReference) {
  // Every user's intervals under one header.
  std::string base = ExportedFile("000", "labels.txt", 1u << 30);
  for (const char* user : {"001", "002"}) {
    const std::string more = ExportedFile(user, "labels.txt", 1u << 30);
    base += more.substr(more.find('\n') + 1);
  }
  ASSERT_GT(ParseLabelsText(base)->size(), 8u);
  Rng rng(20190327);
  size_t errors = 0;
  for (int i = 0; i < 2500; ++i) {
    std::string text = base;
    const int mutations = 1 + static_cast<int>(rng.NextBounded(3));
    for (int m = 0; m < mutations; ++m) Mutate(rng, '\t', 1, text);
    const auto got = ParseLabelsText(text);
    const auto want = RefParseLabels(text);
    ASSERT_EQ(got.ok(), want.ok()) << "mutant " << i << ":\n" << text;
    if (!got.ok()) {
      ++errors;
      EXPECT_EQ(got.status().ToString(), want.status().ToString());
      continue;
    }
    ASSERT_TRUE(SameIntervals(got.value(), want.value()))
        << "mutant " << i << ":\n" << text;
  }
  EXPECT_GT(errors, 10u);
}

TEST_F(GeoLifeDifferentialTest, CorpusLoadsLikeTheReference) {
  // An extra, reversed file whose fixes share timestamps with day one's:
  // both the per-file and the per-user stable sort decide its order.
  const std::string day = ExportedFile("000", "Trajectory", 1u << 30);
  std::vector<traj::TrajectoryPoint> shifted = ParsePltText(day).value();
  ASSERT_FALSE(shifted.empty());
  for (traj::TrajectoryPoint& p : shifted) p.pos.lat_deg += 0.001;
  std::reverse(shifted.begin(), shifted.end());
  ASSERT_TRUE(WriteStringToFile(
                  (root_ / "000" / "Trajectory" / "zz_reversed.plt").string(),
                  WritePltText(shifted))
                  .ok());
  std::filesystem::create_directories(root_ / "notes");

  const auto got = LoadGeoLifeCorpus(root_.string());
  const auto want = RefLoadCorpus(root_.string());
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->size(), 3u);
  ASSERT_EQ(got->size(), want->size());
  for (size_t u = 0; u < got->size(); ++u) {
    EXPECT_EQ((*got)[u].user_id, (*want)[u].user_id);
    EXPECT_GT((*got)[u].points.size(), 1000u);
    EXPECT_TRUE(SamePoints((*got)[u].points, (*want)[u].points))
        << "user " << u;
  }
}

// The corpus loader parses one user per task on the shared pool: the
// corpus, and the first failure in sorted-directory order, must be the
// same at any thread count.
TEST_F(GeoLifeDifferentialTest, CorpusLoadIsThreadCountInvariant) {
  const int prior_threads = MaxThreads();
  SetMaxThreads(1);
  const auto serial = LoadGeoLifeCorpus(root_.string());
  SetMaxThreads(4);
  const auto parallel = LoadGeoLifeCorpus(root_.string());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->size(), 3u);
  ASSERT_EQ(parallel->size(), serial->size());
  for (size_t u = 0; u < serial->size(); ++u) {
    EXPECT_EQ((*parallel)[u].user_id, (*serial)[u].user_id);
    EXPECT_TRUE(SamePoints((*parallel)[u].points, (*serial)[u].points))
        << "user " << u;
  }

  // The middle user's labels.txt loses its header's field count (a
  // ParseError); the last user has no Trajectory directory (NotFound).
  // Either thread count reports the middle user's error, the first in
  // sorted order.
  ASSERT_TRUE(WriteStringToFile((root_ / "001" / "labels.txt").string(),
                                "Start Time\tEnd Time\tTransportation Mode\n"
                                "2008/10/23 02:53:04\twalk\n")
                  .ok());
  std::filesystem::remove_all(root_ / "002" / "Trajectory");
  std::vector<Status> statuses;
  for (const int threads : {1, 4}) {
    SetMaxThreads(threads);
    statuses.push_back(LoadGeoLifeCorpus(root_.string()).status());
  }
  SetMaxThreads(prior_threads);
  EXPECT_EQ(statuses[0].code(), StatusCode::kParseError)
      << statuses[0].ToString();
  EXPECT_EQ(statuses[1].code(), statuses[0].code());
  EXPECT_EQ(statuses[1].ToString(), statuses[0].ToString());
}

}  // namespace
}  // namespace trajkit::geolife
