#include "ml/flat_forest.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "ml/decision_tree.h"

namespace trajkit::ml {

namespace {

/// Rows per cohort in the batched kernel. 64 cursors (256 B) plus 64 row
/// pointers stay resident in L1 while a whole tree's SoA node pool streams
/// through; bigger blocks stop helping once the accumulator rows spill.
constexpr size_t kBlockRows = 64;

}  // namespace

size_t FlatForestScratch::DistributionHash::operator()(
    const std::vector<double>& dist) const {
  // FNV-1a over the raw double bits: deterministic across runs (no
  // pointer/seed inputs), which keeps the dedup probe order — though not
  // the table layout, which follows insertion order — reproducible.
  uint64_t hash = 1469598103934665603ull;
  for (const double value : dist) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int shift = 0; shift < 64; shift += 8) {
      hash ^= (bits >> shift) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return static_cast<size_t>(hash);
}

Result<FlatForest> FlatForest::Compile(const RandomForest& forest) {
  return Compile(forest, nullptr);
}

Result<FlatForest> FlatForest::Compile(const RandomForest& forest,
                                       FlatForestScratch* scratch) {
  if (!forest.fitted()) {
    return Status::FailedPrecondition(
        "FlatForest::Compile requires a fitted forest");
  }
  FlatForest flat;
  flat.num_classes_ = forest.num_classes();
  flat.num_features_ = forest.FeatureImportances().size();

  size_t total_nodes = 0;
  for (const DecisionTree& tree : forest.trees()) {
    total_nodes += tree.NodeCount();
  }
  TRAJKIT_CHECK_LT(total_nodes,
                   static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  flat.feature_.reserve(total_nodes);
  flat.threshold_.reserve(total_nodes);
  flat.child_.reserve(total_nodes);
  flat.dist_offset_.reserve(total_nodes);
  flat.roots_.reserve(forest.NumTrees());
  flat.depths_.reserve(forest.NumTrees());

  // Leaves across ALL trees fold into one shared distribution table;
  // identical distributions (pure leaves are overwhelmingly common) are
  // stored once. The dedup map (and the BFS arrays below) live in the
  // caller's scratch when one is supplied, so repeated compiles — the
  // continuous trainer recompiles a candidate per refit — reuse the
  // node/bucket allocations instead of rebuilding them.
  FlatForestScratch local_scratch;
  FlatForestScratch& ws = scratch != nullptr ? *scratch : local_scratch;
  ws.dedup.clear();
  auto& dedup = ws.dedup;

  for (const DecisionTree& tree : forest.trees()) {
    const std::vector<DecisionTree::Node>& nodes = tree.nodes();
    const std::vector<std::vector<double>>& dists =
        tree.leaf_distributions();
    const int32_t base = static_cast<int32_t>(flat.feature_.size());

    // Breadth-first renumbering: children are pushed as a consecutive
    // pair, so in the flat order right = left + 1 and descent needs only
    // the left offset plus the comparison bit.
    std::vector<int32_t>& bfs = ws.bfs;
    bfs.clear();
    bfs.reserve(nodes.size());
    std::vector<int32_t>& pos = ws.pos;
    pos.assign(nodes.size(), -1);
    bfs.push_back(0);
    pos[0] = 0;
    for (size_t j = 0; j < bfs.size(); ++j) {
      const DecisionTree::Node& node = nodes[static_cast<size_t>(bfs[j])];
      if (node.feature >= 0) {
        pos[static_cast<size_t>(node.left)] =
            static_cast<int32_t>(bfs.size());
        bfs.push_back(node.left);
        pos[static_cast<size_t>(node.right)] =
            static_cast<int32_t>(bfs.size());
        bfs.push_back(node.right);
      }
    }
    TRAJKIT_CHECK_EQ(bfs.size(), nodes.size());

    for (size_t j = 0; j < bfs.size(); ++j) {
      const DecisionTree::Node& node = nodes[static_cast<size_t>(bfs[j])];
      const int32_t self = base + static_cast<int32_t>(j);
      if (node.feature >= 0) {
        flat.feature_.push_back(node.feature);
        flat.threshold_.push_back(node.threshold);
        flat.child_.push_back(base + pos[static_cast<size_t>(node.left)]);
        flat.dist_offset_.push_back(0);
      } else {
        const std::vector<double>& dist =
            dists[static_cast<size_t>(node.distribution)];
        const auto [it, inserted] = dedup.try_emplace(
            dist, static_cast<int32_t>(flat.dist_table_.size()));
        if (inserted) {
          flat.dist_table_.insert(flat.dist_table_.end(), dist.begin(),
                                  dist.end());
        }
        flat.feature_.push_back(-1);
        // Leaf self-loop: NaN threshold makes the comparison false for any
        // input (including NaN, matching the pointer walk's right-on-NaN),
        // so the branchless step yields (self - 1) + 1 = self.
        flat.threshold_.push_back(std::numeric_limits<double>::quiet_NaN());
        flat.child_.push_back(self - 1);
        flat.dist_offset_.push_back(it->second);
        ++flat.num_leaves_;
      }
    }
    flat.roots_.push_back(base);
    flat.depths_.push_back(tree.Depth());
  }
  flat.num_distributions_ = dedup.size();
  return flat;
}

size_t FlatForest::Descend(size_t tree, std::span<const double> row) const {
  size_t i = static_cast<size_t>(roots_[tree]);
  int32_t f = feature_[i];
  while (f >= 0) {
    const double v = row[static_cast<size_t>(f)];
    i = static_cast<size_t>(child_[i] +
                            static_cast<int32_t>(!(v <= threshold_[i])));
    f = feature_[i];
  }
  return i;
}

void FlatForest::AccumulateVotes(std::span<const double> row, double scale,
                                 std::span<double> acc) const {
  TRAJKIT_CHECK_GE(row.size(), num_features_);
  TRAJKIT_CHECK_EQ(acc.size(), static_cast<size_t>(num_classes_));
  const size_t k = static_cast<size_t>(num_classes_);
  for (size_t t = 0; t < roots_.size(); ++t) {
    const double* dist = dist_table_.data() + dist_offset_[Descend(t, row)];
    for (size_t c = 0; c < k; ++c) acc[c] += dist[c] * scale;
  }
}

void FlatForest::AccumulateBlock(const Matrix& features, size_t begin,
                                 size_t end, double scale,
                                 double* acc) const {
  const size_t block = end - begin;
  TRAJKIT_CHECK_LE(block, kBlockRows);
  const size_t k = static_cast<size_t>(num_classes_);
  std::fill(acc, acc + block * k, 0.0);

  const double* rows[kBlockRows];
  for (size_t r = 0; r < block; ++r) {
    rows[r] = features.Row(begin + r).data();
  }
  int32_t cursor[kBlockRows];

  const int32_t* const feature = feature_.data();
  const int32_t* const child = child_.data();
  const int32_t* const dist_offset = dist_offset_.data();
  const double* const table = dist_table_.data();

  const double* const threshold = threshold_.data();
  for (size_t t = 0; t < roots_.size(); ++t) {
    const int32_t root = roots_[t];
    const int32_t depth = depths_[t];
    for (size_t r = 0; r < block; ++r) cursor[r] = root;
    // Level-cohort descent: every row advances one level per sweep; rows
    // already at a leaf self-loop, so no per-row termination test and the
    // inner loop is a straight-line gather + compare + offset add.
    for (int32_t level = 0; level < depth; ++level) {
      for (size_t r = 0; r < block; ++r) {
        const int32_t i = cursor[r];
        const int32_t f = feature[i];
        const double v = rows[r][f < 0 ? 0 : f];
        cursor[r] = child[i] + static_cast<int32_t>(!(v <= threshold[i]));
      }
    }
    for (size_t r = 0; r < block; ++r) {
      const double* dist = table + dist_offset[cursor[r]];
      double* a = acc + r * k;
      for (size_t c = 0; c < k; ++c) a[c] += dist[c] * scale;
    }
  }
}

std::vector<int> FlatForest::Predict(const Matrix& features) const {
  TRAJKIT_CHECK_GE(features.cols(), num_features_);
  const size_t n = features.rows();
  std::vector<int> out(n);
  if (n == 0) return out;
  const size_t k = static_cast<size_t>(num_classes_);
  const size_t num_blocks = (n + kBlockRows - 1) / kBlockRows;
  // Blocks write disjoint out[] slots and each row accumulates its votes
  // in tree order, so the result is bit-identical at any thread count and
  // to the per-row pointer walk.
  const Status status = ParallelFor(0, num_blocks, 1, [&](size_t b) {
    const size_t begin = b * kBlockRows;
    const size_t end = std::min(begin + kBlockRows, n);
    double acc[kBlockRows * 32];
    std::vector<double> heap;
    double* block_acc = acc;
    if ((end - begin) * k > std::size(acc)) {
      heap.resize((end - begin) * k);
      block_acc = heap.data();
    }
    AccumulateBlock(features, begin, end, 1.0, block_acc);
    for (size_t r = begin; r < end; ++r) {
      const double* row_acc = block_acc + (r - begin) * k;
      out[r] = static_cast<int>(
          std::max_element(row_acc, row_acc + k) - row_acc);
    }
  });
  TRAJKIT_CHECK(status.ok()) << status.ToString();
  return out;
}

Matrix FlatForest::PredictProba(const Matrix& features) const {
  TRAJKIT_CHECK_GE(features.cols(), num_features_);
  const size_t n = features.rows();
  const size_t k = static_cast<size_t>(num_classes_);
  Matrix probs(n, k);
  if (n == 0) return probs;
  const double inv = 1.0 / static_cast<double>(roots_.size());
  const size_t num_blocks = (n + kBlockRows - 1) / kBlockRows;
  const Status status = ParallelFor(0, num_blocks, 1, [&](size_t b) {
    const size_t begin = b * kBlockRows;
    const size_t end = std::min(begin + kBlockRows, n);
    // Rows are contiguous in the row-major output, so the block kernel
    // accumulates straight into the result matrix.
    AccumulateBlock(features, begin, end, inv,
                    probs.MutableRow(begin).data());
  });
  TRAJKIT_CHECK(status.ok()) << status.ToString();
  return probs;
}

FlatForestStats FlatForest::Stats() const {
  FlatForestStats stats;
  stats.num_trees = num_trees();
  stats.num_nodes = num_nodes();
  stats.num_leaves = num_leaves_;
  stats.shared_distributions = num_distributions_;
  return stats;
}

}  // namespace trajkit::ml
