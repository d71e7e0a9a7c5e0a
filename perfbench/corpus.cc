#include "corpus.h"

#include "synthgeo/generator.h"

namespace perfbench {

using namespace trajkit;

KWayMerge::KWayMerge(const std::vector<traj::Trajectory>& corpus)
    : corpus_(corpus) {
  for (uint32_t t = 0; t < corpus.size(); ++t) {
    if (!corpus[t].points.empty()) {
      heap_.push(Cursor{corpus[t].points[0].timestamp, t, 0});
    }
  }
}

bool KWayMerge::Next(uint32_t* trajectory, uint32_t* point) {
  if (heap_.empty()) return false;
  const Cursor cursor = heap_.top();
  heap_.pop();
  *trajectory = cursor.trajectory;
  *point = cursor.point;
  const std::vector<traj::TrajectoryPoint>& points =
      corpus_[cursor.trajectory].points;
  if (cursor.point + 1 < points.size()) {
    heap_.push(Cursor{points[cursor.point + 1].timestamp, cursor.trajectory,
                      cursor.point + 1});
  }
  return true;
}

std::vector<std::pair<uint32_t, uint32_t>> MergeOrder(
    const std::vector<traj::Trajectory>& corpus) {
  std::vector<std::pair<uint32_t, uint32_t>> order;
  KWayMerge merge(corpus);
  uint32_t t = 0;
  uint32_t p = 0;
  while (merge.Next(&t, &p)) order.emplace_back(t, p);
  return order;
}

std::vector<traj::Trajectory> MakeCorpus(uint64_t seed, bool tiny) {
  synthgeo::GeneratorOptions options;
  options.num_users = tiny ? 6 : 69;
  options.days_per_user = tiny ? 2 : 8;
  options.seed = seed;
  synthgeo::GeoLifeLikeGenerator generator(options);
  std::vector<traj::Trajectory> corpus = generator.Generate();
  if (tiny) return corpus;
  // Keep each trajectory's prefix that falls among the first
  // kCorpusPoints points of the merged stream.
  const std::vector<std::pair<uint32_t, uint32_t>> order = MergeOrder(corpus);
  std::vector<size_t> keep(corpus.size(), 0);
  for (size_t i = 0; i < std::min(order.size(), kCorpusPoints); ++i) {
    keep[order[i].first] = order[i].second + 1;
  }
  for (size_t t = 0; t < corpus.size(); ++t) {
    corpus[t].points.resize(keep[t]);
    corpus[t].points.shrink_to_fit();
  }
  return corpus;
}

}  // namespace perfbench
