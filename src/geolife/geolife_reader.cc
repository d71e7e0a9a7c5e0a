#include "geolife/geolife_reader.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <utility>

#include "common/csv.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "geo/geodesy.h"

namespace trajkit::geolife {

namespace {

// Days from 1970-01-01 of a proleptic-Gregorian civil date (Hinnant's
// days_from_civil).
int64_t DaysFromCivil(int year, int month, int day) {
  year -= month <= 2;
  const int64_t era = (year >= 0 ? year : year - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(year - era * 400);
  const unsigned doy = static_cast<unsigned>(
      (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

int DaysInMonth(int64_t year, int64_t month) {
  static constexpr int kDays[12] = {31, 28, 31, 30, 31, 30,
                                    31, 31, 30, 31, 30, 31};
  const bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
  return month == 2 && leap ? 29 : kDays[month - 1];
}

// The fixed layout every GeoLife file uses, "dddd/dd/dd" (or with '-')
// and "dd:dd:dd", read straight from the digits. Any other spelling returns
// false and takes the general path, which reads this layout to the same six
// numbers.
bool ParseFixedLayout(std::string_view date, std::string_view time,
                      int64_t out[6]) {
  auto digits = [](std::string_view text, size_t at, size_t n, int64_t* v) {
    *v = 0;
    for (size_t i = at; i < at + n; ++i) {
      if (text[i] < '0' || text[i] > '9') return false;
      *v = *v * 10 + (text[i] - '0');
    }
    return true;
  };
  return date.size() == 10 && time.size() == 8 && date[4] == date[7] &&
         (date[4] == '/' || date[4] == '-') && time[2] == ':' &&
         time[5] == ':' && digits(date, 0, 4, &out[0]) &&
         digits(date, 5, 2, &out[1]) && digits(date, 8, 2, &out[2]) &&
         digits(time, 0, 2, &out[3]) && digits(time, 3, 2, &out[4]) &&
         digits(time, 6, 2, &out[5]);
}

// Calls `on_line` with every line of `text` after its first `skip_lines`,
// skipping blank lines. A CRLF line end needs no handling of its own: the
// '\r' is whitespace and goes with the last field's stripping.
template <typename OnLine>
void ForEachLine(std::string_view text, int skip_lines, OnLine on_line) {
  size_t pos = 0;
  int line_number = 0;
  while (pos <= text.size()) {
    const size_t eol = text.find('\n', pos);
    std::string_view line = (eol == std::string_view::npos)
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;
    ++line_number;
    if (line_number <= skip_lines || StripWhitespace(line).empty()) continue;
    if (!on_line(line, line_number)) return;
  }
}

// Splits `line` on `sep`, keeping the first N whitespace-stripped fields
// in `fields`; returns the total field count.
template <size_t N>
size_t ScanFields(std::string_view line, char sep,
                  std::string_view (&fields)[N]) {
  size_t count = 0;
  size_t start = 0;
  while (true) {
    const size_t end = line.find(sep, start);
    if (count < N) {
      fields[count] = StripWhitespace(line.substr(
          start, end == std::string_view::npos ? end : end - start));
    }
    ++count;
    if (end == std::string_view::npos) return count;
    start = end + 1;
  }
}

// Time-orders `points` stably. Input already in order, the common case, is
// left as it is, which is what the stable sort would do with it.
void SortByTimestamp(std::vector<traj::TrajectoryPoint>& points) {
  const auto by_timestamp = [](const traj::TrajectoryPoint& a,
                               const traj::TrajectoryPoint& b) {
    return a.timestamp < b.timestamp;
  };
  if (!std::is_sorted(points.begin(), points.end(), by_timestamp)) {
    std::stable_sort(points.begin(), points.end(), by_timestamp);
  }
}

// Appends the valid rows of one PLT file to `points`, in file order. The
// row rules: a 6-line preamble; the first data row fixes the field count
// and rows with another count are dropped; rows with fewer than 7 fields,
// unparseable or invalid coordinates, or a bad datetime are skipped.
void AppendPltPoints(std::string_view text,
                     std::vector<traj::TrajectoryPoint>& points) {
  size_t expected_fields = 0;
  ForEachLine(text, 6, [&](std::string_view line, int) {
    std::string_view row[7];
    const size_t fields = ScanFields(line, ',', row);
    if (expected_fields == 0) expected_fields = fields;
    if (fields != expected_fields || fields < 7) return true;
    const Result<double> lat = ParseDouble(row[0]);
    const Result<double> lon = ParseDouble(row[1]);
    if (!lat.ok() || !lon.ok()) return true;
    traj::TrajectoryPoint point;
    point.pos = geo::LatLon{lat.value(), lon.value()};
    if (!geo::IsValid(point.pos)) return true;
    const Result<double> timestamp = ParseGeoLifeDateTime(row[5], row[6]);
    if (!timestamp.ok()) return true;
    point.timestamp = timestamp.value();
    points.push_back(point);
    return true;
  });
}

}  // namespace

Result<double> ParseGeoLifeDateTime(std::string_view date,
                                    std::string_view time) {
  int64_t c[6] = {0, 0, 0, 0, 0, 0};
  if (!ParseFixedLayout(date, time, c)) {
    // General path: each component as strtoll reads it (padding, a sign),
    // range-checked below at full width rather than after an int cast.
    const char date_sep =
        date.find('-') != std::string_view::npos ? '-' : '/';
    std::string_view d[3];
    std::string_view t[3];
    if (ScanFields(date, date_sep, d) != 3 || ScanFields(time, ':', t) != 3) {
      return Status::ParseError("bad GeoLife datetime: '" +
                                std::string(date) + " " + std::string(time) +
                                "'");
    }
    const std::string_view parts[6] = {d[0], d[1], d[2], t[0], t[1], t[2]};
    for (int i = 0; i < 6; ++i) {
      TRAJKIT_ASSIGN_OR_RETURN(c[i], ParseInt64(parts[i]));
    }
  }
  const auto [year, month, day, hour, minute, second] = c;
  if (year < 1 || year > 9999 || month < 1 || month > 12 || day < 1 ||
      day > DaysInMonth(year, month) || hour < 0 || hour > 23 || minute < 0 ||
      minute > 59 || second < 0 || second > 60) {
    return Status::ParseError("out-of-range GeoLife datetime: '" +
                              std::string(date) + " " + std::string(time) +
                              "'");
  }
  return static_cast<double>(DaysFromCivil(static_cast<int>(year),
                                           static_cast<int>(month),
                                           static_cast<int>(day))) *
             86400.0 +
         static_cast<double>(hour) * 3600.0 +
         static_cast<double>(minute) * 60.0 + static_cast<double>(second);
}

Result<std::vector<traj::TrajectoryPoint>> ParsePltText(
    std::string_view text) {
  std::vector<traj::TrajectoryPoint> points;
  AppendPltPoints(text, points);
  SortByTimestamp(points);
  return points;
}

Result<std::vector<LabelInterval>> ParseLabelsText(std::string_view text) {
  std::vector<LabelInterval> intervals;
  size_t header_fields = 0;
  size_t expected_fields = 0;
  Status status;
  ForEachLine(text, 0, [&](std::string_view line, int line_number) {
    std::string_view row[3];
    const size_t fields = ScanFields(line, '\t', row);
    if (header_fields == 0) {
      header_fields = fields;
      return true;
    }
    if (expected_fields == 0) {
      expected_fields = fields;
      if (fields != header_fields) {
        status = Status::ParseError(StrPrintf(
            "line %d: %zu fields but header has %zu columns", line_number,
            fields, header_fields));
        return false;
      }
    }
    if (fields != expected_fields || fields < 3) return true;
    // Fields: "yyyy/mm/dd hh:mm:ss" twice, then the mode.
    std::string_view start[2];
    std::string_view end[2];
    if (ScanFields(row[0], ' ', start) != 2 ||
        ScanFields(row[1], ' ', end) != 2) {
      return true;
    }
    const Result<double> start_time =
        ParseGeoLifeDateTime(start[0], start[1]);
    const Result<double> end_time = ParseGeoLifeDateTime(end[0], end[1]);
    const Result<traj::Mode> mode = traj::ModeFromString(row[2]);
    if (!start_time.ok() || !end_time.ok() || !mode.ok()) return true;
    intervals.push_back(
        {start_time.value(), end_time.value(), mode.value()});
    return true;
  });
  if (!status.ok()) return status;
  return intervals;
}

void ApplyLabels(std::vector<LabelInterval> intervals,
                 std::vector<traj::TrajectoryPoint>& points) {
  std::stable_sort(intervals.begin(), intervals.end(),
                   [](const LabelInterval& a, const LabelInterval& b) {
                     return a.start_time < b.start_time;
                   });
  size_t cursor = 0;
  for (traj::TrajectoryPoint& point : points) {
    // Points are time-sorted, so the matching interval only moves forward.
    while (cursor < intervals.size() &&
           intervals[cursor].end_time < point.timestamp) {
      ++cursor;
    }
    point.mode = traj::Mode::kUnknown;
    if (cursor < intervals.size() &&
        point.timestamp >= intervals[cursor].start_time &&
        point.timestamp <= intervals[cursor].end_time) {
      point.mode = intervals[cursor].mode;
    }
  }
}

namespace {

// Lists the entries of `directory`, failing on any error the listing
// reports instead of stopping short.
Result<std::vector<std::filesystem::directory_entry>> ListDirectory(
    const std::filesystem::path& directory) {
  namespace fs = std::filesystem;
  std::vector<fs::directory_entry> entries;
  std::error_code ec;
  for (fs::directory_iterator it(directory, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    entries.push_back(*it);
  }
  if (ec) {
    return Status::IoError("cannot list directory: " + directory.string() +
                           ": " + ec.message());
  }
  return entries;
}

}  // namespace

Result<traj::Trajectory> LoadGeoLifeUser(const std::string& user_directory,
                                         int user_id) {
  namespace fs = std::filesystem;
  traj::Trajectory trajectory;
  trajectory.user_id = user_id;

  const fs::path traj_dir = fs::path(user_directory) / "Trajectory";
  std::error_code ec;
  if (!fs::is_directory(traj_dir, ec)) {
    return Status::NotFound("no Trajectory directory under: " +
                            user_directory);
  }
  TRAJKIT_ASSIGN_OR_RETURN(std::vector<fs::directory_entry> entries,
                           ListDirectory(traj_dir));
  std::vector<fs::path> plt_files;
  for (const fs::directory_entry& entry : entries) {
    if (entry.is_regular_file(ec) && entry.path().extension() == ".plt") {
      plt_files.push_back(entry.path());
    }
  }
  std::sort(plt_files.begin(), plt_files.end());
  // One stable sort of the concatenation gives the same order as sorting
  // each file first: equal timestamps keep their file order either way.
  for (const fs::path& file : plt_files) {
    TRAJKIT_ASSIGN_OR_RETURN(std::string content,
                             ReadFileToString(file.string()));
    AppendPltPoints(content, trajectory.points);
  }
  SortByTimestamp(trajectory.points);

  const fs::path labels_path = fs::path(user_directory) / "labels.txt";
  if (fs::is_regular_file(labels_path, ec)) {
    TRAJKIT_ASSIGN_OR_RETURN(std::string text,
                             ReadFileToString(labels_path.string()));
    TRAJKIT_ASSIGN_OR_RETURN(std::vector<LabelInterval> intervals,
                             ParseLabelsText(text));
    ApplyLabels(std::move(intervals), trajectory.points);
  }
  return trajectory;
}

Result<std::vector<traj::Trajectory>> LoadGeoLifeCorpus(
    const std::string& data_root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(data_root, ec)) {
    return Status::NotFound("not a directory: " + data_root);
  }
  TRAJKIT_ASSIGN_OR_RETURN(std::vector<fs::directory_entry> entries,
                           ListDirectory(data_root));
  std::vector<fs::path> user_dirs;
  for (const fs::directory_entry& entry : entries) {
    if (entry.is_directory(ec)) user_dirs.push_back(entry.path());
  }
  std::sort(user_dirs.begin(), user_dirs.end());
  std::vector<std::pair<fs::path, int>> users;
  for (const fs::path& dir : user_dirs) {
    const Result<long long> uid = ParseInt64(dir.filename().string());
    // Not a numbered user directory, or a number no user id can hold.
    if (!uid.ok() || uid.value() < 0 ||
        uid.value() > std::numeric_limits<int>::max()) {
      continue;
    }
    users.emplace_back(dir, static_cast<int>(uid.value()));
  }
  // One user per task; results land in sorted-directory order, so the
  // corpus — and the first error in that order — is the serial one.
  TRAJKIT_ASSIGN_OR_RETURN(
      std::vector<Result<traj::Trajectory>> loaded,
      ParallelMap<Result<traj::Trajectory>>(users.size(), 1, [&](size_t i) {
        return LoadGeoLifeUser(users[i].first.string(), users[i].second);
      }));
  std::vector<traj::Trajectory> corpus;
  corpus.reserve(loaded.size());
  for (Result<traj::Trajectory>& trajectory : loaded) {
    TRAJKIT_RETURN_IF_ERROR(trajectory.status());
    corpus.push_back(std::move(trajectory).value());
  }
  if (corpus.empty()) {
    return Status::NotFound("no user directories under: " + data_root);
  }
  return corpus;
}

std::string WritePltText(const std::vector<traj::TrajectoryPoint>& points) {
  std::string out =
      "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
      "0,2,255,My Track,0,0,2,8421376\n0\n";
  for (const traj::TrajectoryPoint& p : points) {
    const int64_t days = static_cast<int64_t>(
        std::floor(p.timestamp / 86400.0));
    double rem = p.timestamp - static_cast<double>(days) * 86400.0;
    const int hour = static_cast<int>(rem / 3600.0);
    rem -= hour * 3600.0;
    const int minute = static_cast<int>(rem / 60.0);
    const int second = static_cast<int>(rem - minute * 60.0);
    // Invert DaysFromCivil via civil_from_days.
    int64_t z = days + 719468;
    const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
    const unsigned doe = static_cast<unsigned>(z - era * 146097);
    const unsigned yoe =
        (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    const int64_t y = static_cast<int64_t>(yoe) + era * 400;
    const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    const unsigned mp = (5 * doy + 2) / 153;
    const unsigned d = doy - (153 * mp + 2) / 5 + 1;
    const unsigned m = mp + (mp < 10 ? 3 : -9);
    const int64_t year = y + (m <= 2);
    // Excel-style day number used by GeoLife (days since 1899-12-30).
    const double excel_days =
        static_cast<double>(days) + 25569.0 +
        (p.timestamp - static_cast<double>(days) * 86400.0) / 86400.0;
    out += StrPrintf("%.6f,%.6f,0,0,%.10f,%04lld/%02u/%02u,%02d:%02d:%02d\n",
                     p.pos.lat_deg, p.pos.lon_deg, excel_days,
                     static_cast<long long>(year), m, d, hour, minute,
                     second);
  }
  return out;
}

namespace {

// civil_from_days (Hinnant): inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int* year, unsigned* month, unsigned* day) {
  int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  *day = doy - (153 * mp + 2) / 5 + 1;
  *month = mp + (mp < 10 ? 3 : -9);
  *year = static_cast<int>(y + (*month <= 2));
}

}  // namespace

std::string FormatGeoLifeDateTime(double timestamp) {
  const int64_t days = static_cast<int64_t>(std::floor(timestamp / 86400.0));
  double rem = timestamp - static_cast<double>(days) * 86400.0;
  const int hour = static_cast<int>(rem / 3600.0);
  rem -= hour * 3600.0;
  const int minute = static_cast<int>(rem / 60.0);
  const int second = static_cast<int>(rem - minute * 60.0);
  int year;
  unsigned month;
  unsigned day;
  CivilFromDays(days, &year, &month, &day);
  return StrPrintf("%04d/%02u/%02u %02d:%02d:%02d", year, month, day, hour,
                   minute, second);
}

Status ExportGeoLifeUser(const traj::Trajectory& user,
                         const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path user_dir = fs::path(root) / StrPrintf("%03d", user.user_id);

  // One .plt file per UTC day.
  std::map<int64_t, std::vector<traj::TrajectoryPoint>> by_day;
  for (const traj::TrajectoryPoint& p : user.points) {
    by_day[traj::DayIndex(p.timestamp)].push_back(p);
  }
  for (const auto& [day, points] : by_day) {
    const std::string path =
        (user_dir / "Trajectory" /
         StrPrintf("day%06lld.plt", static_cast<long long>(day)))
            .string();
    TRAJKIT_RETURN_IF_ERROR(WriteStringToFile(path, WritePltText(points)));
  }

  // labels.txt: one interval per maximal run of a labelled mode.
  std::string labels = "Start Time\tEnd Time\tTransportation Mode\n";
  traj::Mode run_mode = traj::Mode::kUnknown;
  double run_start = 0.0;
  double run_end = 0.0;
  auto flush = [&]() {
    if (run_mode != traj::Mode::kUnknown) {
      labels += FormatGeoLifeDateTime(run_start) + "\t" +
                FormatGeoLifeDateTime(run_end) + "\t" +
                std::string(traj::ModeToString(run_mode)) + "\n";
    }
  };
  for (const traj::TrajectoryPoint& p : user.points) {
    if (p.mode != run_mode) {
      flush();
      run_mode = p.mode;
      run_start = p.timestamp;
    }
    run_end = p.timestamp;
  }
  flush();
  return WriteStringToFile((user_dir / "labels.txt").string(), labels);
}

Status ExportGeoLifeCorpus(const std::vector<traj::Trajectory>& corpus,
                           const std::string& root) {
  for (const traj::Trajectory& user : corpus) {
    TRAJKIT_RETURN_IF_ERROR(ExportGeoLifeUser(user, root));
  }
  return Status::Ok();
}

}  // namespace trajkit::geolife
