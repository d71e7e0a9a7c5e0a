// GeoLife-format interop: exports a synthetic corpus to the real GeoLife
// directory layout (<root>/<user>/Trajectory/*.plt + labels.txt), reads it
// back with the geolife reader, and runs the full pipeline on the
// re-imported corpus. With --data=<path to GeoLife "Data" dir> it skips
// the export and runs on the real dataset instead — the library is
// format-compatible with the original distribution.
//
// Build & run:
//   ./build/examples/geolife_roundtrip [--data=/path/to/Geolife/Data]

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/flags.h"
#include "common/strings.h"
#include "core/experiments.h"
#include "core/label_sets.h"
#include "core/pipeline.h"
#include "geolife/geolife_reader.h"
#include "ml/crossval.h"
#include "ml/factory.h"
#include "synthgeo/generator.h"
#include "traj/segmentation.h"

namespace trajkit {
namespace {

int Run(int argc, char** argv) {
  const Flags flags(argc, argv);
  std::string data_root = flags.GetString("data", "");
  flags.CheckOrExit();

  if (data_root.empty()) {
    // Export a small synthetic corpus in GeoLife layout.
    data_root =
        (std::filesystem::temp_directory_path() / "trajkit_geolife_export")
            .string();
    std::filesystem::remove_all(data_root);
    std::printf("no --data given; exporting a synthetic corpus to %s\n",
                data_root.c_str());
    synthgeo::GeneratorOptions options;
    options.num_users = 8;
    options.days_per_user = 2;
    options.seed = 29;
    synthgeo::GeoLifeLikeGenerator generator(options);
    const Status status =
        geolife::ExportGeoLifeCorpus(generator.Generate(), data_root);
    if (!status.ok()) {
      std::fprintf(stderr, "export failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  // Read it back with the real-GeoLife reader.
  const auto corpus = geolife::LoadGeoLifeCorpus(data_root);
  if (!corpus.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }
  size_t total_points = 0;
  size_t labelled = 0;
  for (const traj::Trajectory& user : corpus.value()) {
    total_points += user.points.size();
    for (const auto& p : user.points) {
      if (p.mode != traj::Mode::kUnknown) ++labelled;
    }
  }
  std::printf("loaded %zu users, %zu points (%.1f%% labelled)\n",
              corpus->size(), total_points,
              100.0 * static_cast<double>(labelled) /
                  static_cast<double>(total_points));

  // Run the paper's pipeline + a quick RF evaluation on the import.
  const core::Pipeline pipeline;
  const auto dataset =
      pipeline.BuildDataset(corpus.value(), core::LabelSet::Dabiri());
  if (!dataset.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("pipeline: %zu labelled segments x %zu features\n",
              dataset->num_samples(), dataset->num_features());
  const auto rf = ml::MakeClassifier("random_forest", {.seed = 1});
  if (!rf.ok()) return 1;
  const auto folds =
      core::MakeFolds(core::CvScheme::kRandom, dataset.value(), 3, 9);
  const auto cv = ml::CrossValidate(*rf.value(), dataset.value(), folds);
  if (!cv.ok()) {
    std::fprintf(stderr, "cv failed: %s\n",
                 cv.status().ToString().c_str());
    return 1;
  }
  std::printf("random 3-fold CV accuracy on the imported corpus: %.4f\n",
              cv->MeanAccuracy());
  return 0;
}

}  // namespace
}  // namespace trajkit

int main(int argc, char** argv) { return trajkit::Run(argc, argv); }
