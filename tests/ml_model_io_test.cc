// Tests for model persistence (model_io) and balanced class weights.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "common/strings.h"
#include "ml/decision_tree.h"
#include "ml/flat_forest.h"
#include "ml/metrics.h"
#include "ml/model_io.h"
#include "ml/random_forest.h"

namespace trajkit::ml {
namespace {

Dataset MakeBlobs(int num_classes, int per_class, double spread,
                  uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int c = 0; c < num_classes; ++c) {
    for (int i = 0; i < per_class; ++i) {
      rows.push_back({rng.Gaussian(3.0 * c, spread),
                      rng.Gaussian(c % 2 ? 2.0 : -2.0, spread)});
      labels.push_back(c);
    }
  }
  std::vector<std::string> class_names;
  for (int c = 0; c < num_classes; ++c) {
    class_names.push_back(std::string(1, 'c') + std::to_string(c));
  }
  return std::move(Dataset::Create(Matrix::FromRows(rows),
                                   std::move(labels), {}, {},
                                   std::move(class_names)))
      .value();
}

// --------------------------------------------------------- Serialization --

TEST(ModelIoTest, ForestRoundTripPredictsIdentically) {
  const Dataset train = MakeBlobs(3, 60, 1.2, 1);
  const Dataset test = MakeBlobs(3, 40, 1.2, 2);
  RandomForestParams params;
  params.n_estimators = 12;
  params.seed = 7;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());

  const std::string blob = forest.Serialize();
  const auto restored = RandomForest::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->NumTrees(), forest.NumTrees());
  EXPECT_EQ(restored->Predict(test.features()),
            forest.Predict(test.features()));

  // Probabilities too.
  const auto p1 = forest.PredictProba(test.features());
  const auto p2 = restored->PredictProba(test.features());
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  for (size_t r = 0; r < p1->rows(); ++r) {
    for (size_t c = 0; c < p1->cols(); ++c) {
      EXPECT_DOUBLE_EQ(p1->At(r, c), p2->At(r, c));
    }
  }
}

TEST(ModelIoTest, ImportancesSurviveRoundTrip) {
  const Dataset train = MakeBlobs(2, 80, 0.8, 3);
  RandomForestParams params;
  params.n_estimators = 10;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const auto restored = RandomForest::Deserialize(forest.Serialize());
  ASSERT_TRUE(restored.ok());
  const auto& a = forest.FeatureImportances();
  const auto& b = restored->FeatureImportances();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-12);
  }
  EXPECT_EQ(restored->ImportanceRanking(), forest.ImportanceRanking());
}

TEST(ModelIoTest, FileRoundTrip) {
  const Dataset train = MakeBlobs(2, 40, 0.5, 4);
  RandomForestParams params;
  params.n_estimators = 5;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const std::string path =
      testing::TempDir() + "/trajkit_model_io/forest.txt";
  ASSERT_TRUE(SaveRandomForest(forest, path).ok());
  const auto loaded = LoadRandomForest(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Predict(train.features()),
            forest.Predict(train.features()));
}

TEST(ModelIoTest, UnfittedForestCannotBeSaved) {
  RandomForest forest;
  EXPECT_FALSE(SaveRandomForest(forest, "/tmp/never.txt").ok());
}

TEST(ModelIoTest, GarbageRejected) {
  EXPECT_FALSE(RandomForest::Deserialize("").ok());
  EXPECT_FALSE(RandomForest::Deserialize("hello world").ok());
  EXPECT_FALSE(
      RandomForest::Deserialize("trajkit_random_forest v1\n").ok());
  EXPECT_FALSE(RandomForest::Deserialize(
                   "trajkit_random_forest v1\n"
                   "params 1 0 0 2 1 0 1 0 42\nclasses 2\ntrees 1\n"
                   "tree 2 0\nnodes 1\n0 0.5 99 99 0\n"
                   "distributions 1 2\n0.5 0.5\nimportances 2\n0 0\n")
                   .ok());  // Child index out of range.
  EXPECT_FALSE(LoadRandomForest("/nonexistent/forest.txt").ok());
}

TEST(ModelIoTest, FutureFormatVersionRejectedCleanly) {
  // A model written by a future trajkit must fail with a clean Status that
  // names the version — not a CHECK-abort or a confusing structural error.
  const Dataset train = MakeBlobs(2, 20, 0.5, 11);
  RandomForestParams params;
  params.n_estimators = 3;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  std::string blob = forest.Serialize();
  const std::string magic = "trajkit_random_forest v1";
  ASSERT_EQ(blob.compare(0, magic.size(), magic), 0);
  blob.replace(0, magic.size(), "trajkit_random_forest v7");

  const auto result = RandomForest::Deserialize(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find("v7"), std::string::npos)
      << result.status().ToString();

  // Same via the file path: a clean error, and v1 still loads.
  const std::string dir = testing::TempDir() + "/trajkit_model_io";
  ASSERT_TRUE(WriteStringToFile(dir + "/future.txt", blob).ok());
  EXPECT_FALSE(LoadRandomForest(dir + "/future.txt").ok());
  ASSERT_TRUE(SaveRandomForest(forest, dir + "/current.txt").ok());
  EXPECT_TRUE(LoadRandomForest(dir + "/current.txt").ok());
}

TEST(ModelIoTest, MalformedVersionTagRejected) {
  EXPECT_FALSE(RandomForest::Deserialize("trajkit_random_forest\n").ok());
  EXPECT_FALSE(
      RandomForest::Deserialize("trajkit_random_forest vX\n").ok());
  EXPECT_FALSE(
      RandomForest::Deserialize("trajkit_random_forest 1\n").ok());
}

TEST(ModelIoTest, TruncatedFileRejected) {
  const Dataset train = MakeBlobs(2, 20, 0.5, 5);
  RandomForestParams params;
  params.n_estimators = 3;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  std::string blob = forest.Serialize();
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(RandomForest::Deserialize(blob).ok());
}

TEST(ModelIoTest, CloneOfRestoredForestRetrains) {
  const Dataset train = MakeBlobs(2, 30, 0.5, 6);
  RandomForestParams params;
  params.n_estimators = 4;
  params.seed = 99;
  RandomForest forest(params);
  ASSERT_TRUE(forest.Fit(train).ok());
  const auto restored = RandomForest::Deserialize(forest.Serialize());
  ASSERT_TRUE(restored.ok());
  auto clone = restored->Clone();  // Same hyper-parameters, unfitted.
  ASSERT_TRUE(clone->Fit(train).ok());
  EXPECT_EQ(clone->Predict(train.features()),
            forest.Predict(train.features()));
}

// ------------------------------------------------- Hostile model text --

// One hand-written tree over two features, depth 2:
//   node 0: x0 <= 0.5 ? node 1 : node 4 (class 1)
//   node 1: x1 <= 1.5 ? node 2 (class 0) : node 3 (class 1)
// Each fixture below changes one token or line of it.
constexpr const char* kHandModel =
    "trajkit_random_forest v1\n"
    "params 1 0 0 2 1 0 1 0 42\n"
    "classes 2\n"
    "trees 1\n"
    "tree 2 2\n"
    "nodes 5\n"
    "0 0.5 1 4 -1\n"
    "1 1.5 2 3 -1\n"
    "-1 0 -1 -1 0\n"
    "-1 0 -1 -1 1\n"
    "-1 0 -1 -1 1\n"
    "distributions 2 2\n"
    "1 0\n"
    "0 1\n"
    "importances 2\n"
    "0.5 0.5\n";

/// kHandModel with the first occurrence of `from` replaced by `to`.
std::string HandModelWith(const std::string& from, const std::string& to) {
  std::string text = kHandModel;
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

void ExpectParseError(const std::string& text, const char* why) {
  const auto result = RandomForest::Deserialize(text);
  ASSERT_FALSE(result.ok()) << why;
  EXPECT_EQ(result.status().code(), StatusCode::kParseError)
      << why << ": " << result.status().ToString();
}

TEST(ModelIoTest, HandModelLoadsAndPredictsByHand) {
  auto forest = RandomForest::Deserialize(kHandModel);
  ASSERT_TRUE(forest.ok()) << forest.status().ToString();
  ASSERT_TRUE(forest->CompileFlat().ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN compares false, so it always goes right.
  const Matrix rows = Matrix::FromRows(
      {{0.2, 1.0}, {0.2, 2.0}, {0.9, 0.0}, {0.5, 1.5}, {nan, 0.0}, {0.0, nan}});
  EXPECT_EQ(forest->Predict(rows), (std::vector<int>{0, 1, 1, 0, 1, 1}));
  EXPECT_EQ(forest->trees()[0].Depth(), 2);
  EXPECT_EQ(forest->Serialize(), kHandModel);
}

TEST(ModelIoTest, NegativeOrOversizedCountsRejected) {
  ExpectParseError(HandModelWith("nodes 5", "nodes -1"), "negative nodes");
  ExpectParseError(HandModelWith("nodes 5", "nodes 4000000000"),
                   "node count beyond the lines left");
  ExpectParseError(HandModelWith("distributions 2 2", "distributions -1 2"),
                   "negative distributions");
  ExpectParseError(HandModelWith("distributions 2 2", "distributions 9 2"),
                   "distribution count beyond the lines left");
  ExpectParseError(HandModelWith("trees 1", "trees -1"), "negative trees");
  ExpectParseError(HandModelWith("trees 1", "trees 99"),
                   "tree count beyond the lines left");
  ExpectParseError(HandModelWith("importances 2", "importances -1"),
                   "negative importances");
  ExpectParseError(HandModelWith("classes 2", "classes 4294967298"),
                   "class count that wraps to 2 as int");
}

TEST(ModelIoTest, SplitFeatureOutsideImportanceWidthRejected) {
  ExpectParseError(HandModelWith("0 0.5 1 4 -1", "9999 0.5 1 4 -1"),
                   "feature 9999");
  ExpectParseError(HandModelWith("1 1.5 2 3 -1", "2 1.5 2 3 -1"),
                   "feature == width");
  ExpectParseError(HandModelWith("0 0.5 1 4 -1", "4294967296 0.5 1 4 -1"),
                   "feature that wraps to 0 as int");
  ExpectParseError(HandModelWith("0 0.5 1 4 -1", "-4294967296 0.5 1 4 -1"),
                   "negative feature that wraps to 0 as int");
  ExpectParseError(HandModelWith("-1 0 -1 -1 0", "-2 0 -1 -1 0"),
                   "leaf feature other than -1");
}

TEST(ModelIoTest, ChildIndicesMustFormAPreorderTree) {
  ExpectParseError(HandModelWith("1 1.5 2 3 -1", "1 1.5 0 3 -1"),
                   "child pointing back at the root");
  ExpectParseError(HandModelWith("1 1.5 2 3 -1", "1 1.5 1 3 -1"),
                   "child pointing at itself");
  ExpectParseError(HandModelWith("0 0.5 1 4 -1", "0 0.5 1 5 -1"),
                   "child past the node count");
  ExpectParseError(HandModelWith("0 0.5 1 4 -1", "0 0.5 1 2 -1"),
                   "node shared by two parents, node 4 orphaned");
  // Nodes 3 and 4 are each other's parent, detached from the root: every
  // non-root node still has exactly one parent, so only the index order
  // rules the cycle out.
  ExpectParseError(
      "trajkit_random_forest v1\n"
      "params 1 0 0 2 1 0 1 0 42\nclasses 2\ntrees 1\n"
      "tree 2 2\nnodes 7\n"
      "0 0.5 1 2 -1\n-1 0 -1 -1 0\n-1 0 -1 -1 1\n"
      "0 0.5 4 5 -1\n0 0.5 3 6 -1\n-1 0 -1 -1 0\n-1 0 -1 -1 1\n"
      "distributions 2 2\n1 0\n0 1\nimportances 2\n0.5 0.5\n",
      "cycle detached from the root");
  // Node 3 is its own only parent.
  ExpectParseError(
      "trajkit_random_forest v1\n"
      "params 1 0 0 2 1 0 1 0 42\nclasses 2\ntrees 1\n"
      "tree 2 2\nnodes 5\n"
      "0 0.5 1 2 -1\n-1 0 -1 -1 0\n-1 0 -1 -1 1\n"
      "0 0.5 3 4 -1\n-1 0 -1 -1 1\n"
      "distributions 2 2\n1 0\n0 1\nimportances 2\n0.5 0.5\n",
      "self loop");
}

TEST(ModelIoTest, HeaderDepthMustEqualLongestPath) {
  ExpectParseError(HandModelWith("tree 2 2", "tree 2 0"), "depth 0");
  ExpectParseError(HandModelWith("tree 2 2", "tree 2 3"), "depth 3");
  ExpectParseError(HandModelWith("tree 2 2", "tree 2 2000000000"),
                   "depth 2000000000");
}

// Seeded mutation test for model text. Every mutant of a serialized small
// forest must either fail to load or load to a forest whose compiled flat
// form answers bit-identically to the pointer walk (batched and single
// row) and whose serialization is stable across a second load.
TEST(ModelIoTest, MutatedModelTextLoadsConsistentlyOrFails) {
  const Dataset train = MakeBlobs(3, 25, 1.0, 12);
  RandomForestParams params;
  params.n_estimators = 4;
  params.seed = 5;
  RandomForest original(params);
  ASSERT_TRUE(original.Fit(train).ok());
  const std::string text = original.Serialize();
  const std::vector<std::string_view> line_views = SplitString(text, '\n');
  const std::vector<std::string> lines(line_views.begin(), line_views.end());

  // Every whitespace-separated numeric token, by (line, field).
  std::vector<std::vector<std::string>> fields;
  struct Token {
    size_t line;
    size_t field;
  };
  std::vector<Token> numeric;
  for (size_t l = 0; l < lines.size(); ++l) {
    const std::vector<std::string_view> parts = SplitString(lines[l], ' ');
    fields.emplace_back(parts.begin(), parts.end());
    for (size_t f = 0; f < parts.size(); ++f) {
      if (ParseDouble(parts[f]).ok()) numeric.push_back({l, f});
    }
  }
  ASSERT_GT(numeric.size(), 100u);

  auto join = [](const std::vector<std::vector<std::string>>& rows) {
    std::string out;
    for (size_t l = 0; l < rows.size(); ++l) {
      if (l > 0) out += '\n';
      for (size_t f = 0; f < rows[l].size(); ++f) {
        if (f > 0) out += ' ';
        out += rows[l][f];
      }
    }
    return out;
  };
  const char* const kHuge[] = {"2147483648", "4294967297", "-4294967296",
                               "9223372036854775807", "1e308"};

  // Fixed queries per feature width, including NaN and infinite rows.
  std::map<size_t, Matrix> queries_by_width;
  auto queries_for = [&](size_t width) -> const Matrix& {
    auto it = queries_by_width.find(width);
    if (it != queries_by_width.end()) return it->second;
    const size_t cols = std::max<size_t>(width, 1);
    Matrix q(12, cols);
    Rng qrng(99);
    for (size_t r = 0; r < q.rows(); ++r) {
      for (size_t c = 0; c < cols; ++c) q.At(r, c) = qrng.Gaussian(2.0, 4.0);
    }
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < cols; ++c) {
      q.At(0, c) = nan;
      q.At(1, c) = c % 2 == 0 ? inf : -inf;
    }
    q.At(2, 0) = nan;
    return queries_by_width.emplace(width, std::move(q)).first->second;
  };

  Rng rng(20240613);
  size_t accepted = 0;
  size_t rejected = 0;
  constexpr int kMutants = 2400;
  for (int m = 0; m < kMutants; ++m) {
    std::string mutant;
    std::string what;
    const uint64_t kind = rng.NextBounded(8);
    if (kind <= 4) {
      std::vector<std::vector<std::string>> rows = fields;
      const size_t pick = rng.NextBounded(numeric.size());
      const Token& t = numeric[pick];
      std::string value;
      switch (kind) {
        case 0: value = "-1"; break;
        case 1: value = "0"; break;
        case 2: value = kHuge[rng.NextBounded(std::size(kHuge))]; break;
        case 3: value = std::to_string(t.line); break;
        default: {
          const size_t other =
              pick + 1 < numeric.size() && (pick == 0 || rng.NextBounded(2))
                  ? pick + 1
                  : pick - 1;
          value = fields[numeric[other].line][numeric[other].field];
        }
      }
      what = "line " + std::to_string(t.line) + " field " +
             std::to_string(t.field) + " -> " + value;
      rows[t.line][t.field] = value;
      mutant = join(rows);
    } else if (kind <= 6) {
      std::vector<std::vector<std::string>> rows = fields;
      const size_t l = rng.NextBounded(rows.size());
      if (kind == 5) {
        rows.erase(rows.begin() + static_cast<long>(l));
        what = "delete line " + std::to_string(l);
      } else {
        rows.insert(rows.begin() + static_cast<long>(l), rows[l]);
        what = "duplicate line " + std::to_string(l);
      }
      mutant = join(rows);
    } else {
      mutant = text;
      const size_t at = rng.NextBounded(mutant.size());
      mutant[at] = static_cast<char>(mutant[at] ^ (1 << rng.NextBounded(8)));
      what = "flip a bit of byte " + std::to_string(at);
    }
    SCOPED_TRACE("mutant " + std::to_string(m) + ": " + what);

    auto loaded = RandomForest::Deserialize(mutant);
    if (!loaded.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    const RandomForest& pointer = *loaded;
    RandomForest flat = pointer;
    ASSERT_TRUE(flat.CompileFlat().ok());
    const Matrix& q = queries_for(pointer.FeatureImportances().size());

    const std::vector<int> want_labels = pointer.Predict(q);
    const std::vector<int> got_labels = flat.Predict(q);
    ASSERT_EQ(want_labels, got_labels);
    const Matrix want = std::move(pointer.PredictProba(q)).value();
    const Matrix got = std::move(flat.PredictProba(q)).value();
    const size_t k = static_cast<size_t>(pointer.num_classes());
    ASSERT_EQ(want.cols(), k);
    ASSERT_EQ(got.cols(), k);
    ASSERT_EQ(std::memcmp(want.Row(0).data(), got.Row(0).data(),
                          q.rows() * k * sizeof(double)),
              0);

    const double inv = 1.0 / static_cast<double>(pointer.NumTrees());
    std::vector<double> acc(k);
    for (size_t r = 0; r < q.rows(); ++r) {
      std::fill(acc.begin(), acc.end(), 0.0);
      flat.flat()->AccumulateVotes(q.Row(r), inv, acc);
      ASSERT_EQ(std::memcmp(acc.data(), want.Row(r).data(), k * sizeof(double)),
                0)
          << "row " << r;
      std::fill(acc.begin(), acc.end(), 0.0);
      flat.flat()->AccumulateVotes(q.Row(r), 1.0, acc);
      ASSERT_EQ(std::max_element(acc.begin(), acc.end()) - acc.begin(),
                want_labels[r])
          << "row " << r;
    }

    const std::string once = pointer.Serialize();
    const auto reloaded = RandomForest::Deserialize(once);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    ASSERT_EQ(reloaded->Serialize(), once);
  }
  // Both outcomes must actually occur, or the mutations test nothing.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

// ------------------------------------------------ Balanced class weights --

TEST(BalancedWeightsTest, ImprovesMinorityRecallOnImbalancedData) {
  // 95:5 imbalance with heavy overlap: unweighted trees ignore the
  // minority; balanced weights recover recall.
  Rng rng(7);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 950; ++i) {
    rows.push_back({rng.Gaussian(0.0, 1.0)});
    labels.push_back(0);
  }
  for (int i = 0; i < 50; ++i) {
    rows.push_back({rng.Gaussian(1.0, 1.0)});
    labels.push_back(1);
  }
  auto ds = Dataset::Create(Matrix::FromRows(rows), std::move(labels), {},
                            {}, {"majority", "minority"});

  DecisionTreeParams plain_params;
  plain_params.max_depth = 3;
  DecisionTree plain(plain_params);
  ASSERT_TRUE(plain.Fit(ds.value()).ok());
  DecisionTreeParams balanced_params = plain_params;
  balanced_params.balanced_class_weights = true;
  DecisionTree balanced(balanced_params);
  ASSERT_TRUE(balanced.Fit(ds.value()).ok());

  const auto plain_report = Evaluate(
      ds->labels(), plain.Predict(ds->features()), 2);
  const auto balanced_report = Evaluate(
      ds->labels(), balanced.Predict(ds->features()), 2);
  EXPECT_GT(balanced_report.recall[1], plain_report.recall[1] + 0.2);
}

TEST(BalancedWeightsTest, NoEffectOnBalancedData) {
  const Dataset ds = MakeBlobs(2, 50, 0.4, 8);
  DecisionTree plain;
  DecisionTreeParams params;
  params.balanced_class_weights = true;
  DecisionTree balanced(params);
  ASSERT_TRUE(plain.Fit(ds).ok());
  ASSERT_TRUE(balanced.Fit(ds).ok());
  EXPECT_EQ(plain.Predict(ds.features()), balanced.Predict(ds.features()));
}

TEST(BalancedWeightsTest, ForestForwardsTheOption) {
  Rng rng(9);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 570; ++i) {
    rows.push_back({rng.Gaussian(0.0, 1.0)});
    labels.push_back(0);
  }
  for (int i = 0; i < 30; ++i) {
    rows.push_back({rng.Gaussian(1.2, 1.0)});
    labels.push_back(1);
  }
  auto ds = Dataset::Create(Matrix::FromRows(rows), std::move(labels), {},
                            {}, {"a", "b"});
  RandomForestParams params;
  params.n_estimators = 15;
  params.max_depth = 3;
  RandomForest plain(params);
  params.balanced_class_weights = true;
  RandomForest balanced(params);
  ASSERT_TRUE(plain.Fit(ds.value()).ok());
  ASSERT_TRUE(balanced.Fit(ds.value()).ok());
  const auto plain_report =
      Evaluate(ds->labels(), plain.Predict(ds->features()), 2);
  const auto balanced_report =
      Evaluate(ds->labels(), balanced.Predict(ds->features()), 2);
  EXPECT_GE(balanced_report.recall[1], plain_report.recall[1]);
}

}  // namespace
}  // namespace trajkit::ml
