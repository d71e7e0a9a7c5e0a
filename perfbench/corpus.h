// The corpus every workload starts from.

#ifndef TRAJKIT_PERFBENCH_CORPUS_H_
#define TRAJKIT_PERFBENCH_CORPUS_H_

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "traj/types.h"

namespace perfbench {

/// Points kept from the generated corpus (see MakeCorpus).
inline constexpr size_t kCorpusPoints = 880000;

/// The k-way merge serve::ReplayCorpus performs: every point of a corpus
/// in global timestamp order, ties broken by trajectory index, a user's
/// own points never reordered. `corpus` must outlive the merge.
class KWayMerge {
 public:
  explicit KWayMerge(const std::vector<trajkit::traj::Trajectory>& corpus);
  /// The next (trajectory index, point index); false when exhausted.
  bool Next(uint32_t* trajectory, uint32_t* point);

 private:
  struct Cursor {
    double timestamp;
    uint32_t trajectory;
    uint32_t point;
  };
  struct Later {
    bool operator()(const Cursor& a, const Cursor& b) const {
      if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
      return a.trajectory > b.trajectory;
    }
  };
  const std::vector<trajkit::traj::Trajectory>& corpus_;
  std::priority_queue<Cursor, std::vector<Cursor>, Later> heap_;
};

/// Every (trajectory index, point index) in KWayMerge order.
std::vector<std::pair<uint32_t, uint32_t>> MergeOrder(
    const std::vector<trajkit::traj::Trajectory>& corpus);

/// A synthgeo corpus of GeoLife's scale (69 users x 8 days, `seed`), cut
/// at the time its first kCorpusPoints points are reached, so every seed
/// makes the same amount of work. `tiny` gives 6 users x 2 days, uncut,
/// for the smoke self-test.
std::vector<trajkit::traj::Trajectory> MakeCorpus(uint64_t seed, bool tiny);

}  // namespace perfbench

#endif  // TRAJKIT_PERFBENCH_CORPUS_H_
