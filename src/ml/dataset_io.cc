#include "ml/dataset_io.h"

#include <algorithm>

#include "common/csv.h"
#include "common/strings.h"

namespace trajkit::ml {

namespace {
constexpr char kLabelColumn[] = "__label";
constexpr char kGroupColumn[] = "__group";
constexpr char kTimeColumn[] = "__time";
}  // namespace

std::string DatasetToCsv(const Dataset& dataset) {
  CsvTable table;
  table.header = dataset.feature_names();
  table.header.push_back(kLabelColumn);
  table.header.push_back(kGroupColumn);
  if (dataset.has_times()) table.header.push_back(kTimeColumn);
  table.rows.reserve(dataset.num_samples());
  for (size_t r = 0; r < dataset.num_samples(); ++r) {
    std::vector<std::string> row;
    row.reserve(dataset.num_features() + 2);
    for (size_t c = 0; c < dataset.num_features(); ++c) {
      row.push_back(StrPrintf("%.17g", dataset.features()(r, c)));
    }
    row.push_back(StrPrintf("%d", dataset.labels()[r]));
    row.push_back(StrPrintf("%d", dataset.groups()[r]));
    if (dataset.has_times()) {
      row.push_back(StrPrintf("%.17g", dataset.times()[r]));
    }
    table.rows.push_back(std::move(row));
  }
  return WriteCsv(table);
}

Status SaveDatasetCsv(const Dataset& dataset, const std::string& path) {
  return WriteStringToFile(path, DatasetToCsv(dataset));
}

Result<Dataset> DatasetFromCsv(std::string_view text,
                               std::vector<std::string> class_names) {
  TRAJKIT_ASSIGN_OR_RETURN(CsvTable table, ParseCsv(text));
  const int label_col = table.ColumnIndex(kLabelColumn);
  const int group_col = table.ColumnIndex(kGroupColumn);
  const int time_col = table.ColumnIndex(kTimeColumn);
  if (label_col < 0 || group_col < 0) {
    return Status::ParseError(
        "dataset CSV must contain __label and __group columns");
  }
  if (table.rows.empty()) {
    return Status::InvalidArgument("dataset CSV has no rows");
  }
  std::vector<int> feature_cols;
  std::vector<std::string> feature_names;
  for (size_t c = 0; c < table.header.size(); ++c) {
    if (static_cast<int>(c) == label_col ||
        static_cast<int>(c) == group_col ||
        static_cast<int>(c) == time_col) {
      continue;
    }
    feature_cols.push_back(static_cast<int>(c));
    feature_names.push_back(table.header[c]);
  }

  Matrix features(table.rows.size(), feature_cols.size());
  std::vector<int> labels(table.rows.size());
  std::vector<int> groups(table.rows.size());
  std::vector<double> times;
  if (time_col >= 0) times.resize(table.rows.size());
  int max_label = 0;
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const std::vector<std::string>& row = table.rows[r];
    for (size_t i = 0; i < feature_cols.size(); ++i) {
      TRAJKIT_ASSIGN_OR_RETURN(
          double v, ParseDouble(row[static_cast<size_t>(feature_cols[i])]));
      features(r, i) = v;
    }
    TRAJKIT_ASSIGN_OR_RETURN(
        long long label, ParseInt64(row[static_cast<size_t>(label_col)]));
    TRAJKIT_ASSIGN_OR_RETURN(
        long long group, ParseInt64(row[static_cast<size_t>(group_col)]));
    labels[r] = static_cast<int>(label);
    groups[r] = static_cast<int>(group);
    if (time_col >= 0) {
      TRAJKIT_ASSIGN_OR_RETURN(
          double t, ParseDouble(row[static_cast<size_t>(time_col)]));
      times[r] = t;
    }
    max_label = std::max(max_label, labels[r]);
  }
  if (class_names.empty()) {
    for (int k = 0; k <= max_label; ++k) {
      class_names.push_back(StrPrintf("class%d", k));
    }
  }
  TRAJKIT_ASSIGN_OR_RETURN(
      Dataset dataset,
      Dataset::Create(std::move(features), std::move(labels),
                      std::move(groups), std::move(feature_names),
                      std::move(class_names)));
  if (time_col >= 0) {
    TRAJKIT_RETURN_IF_ERROR(dataset.SetTimes(std::move(times)));
  }
  return dataset;
}

Result<Dataset> LoadDatasetCsv(const std::string& path,
                               std::vector<std::string> class_names) {
  TRAJKIT_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return DatasetFromCsv(text, std::move(class_names));
}

}  // namespace trajkit::ml
