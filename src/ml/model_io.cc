#include "ml/model_io.h"

#include <algorithm>
#include <limits>

#include "common/csv.h"
#include "common/strings.h"

// Serialization member functions of DecisionTree and RandomForest live
// here next to the file helpers so the wire format has a single home.
//
// Format (line-based text):
//   trajkit_random_forest v1
//   params <n_estimators> <criterion> <max_depth> <min_split> <min_leaf>
//          <max_features> <bootstrap> <balanced> <seed>
//   classes <k>
//   trees <t>
//   <t tree blocks>
// Tree block:
//   tree <num_classes> <depth>
//   nodes <n>
//   <feature> <threshold> <left> <right> <distribution>   (n lines)
//   distributions <m> <k>
//   <k probabilities>                                      (m lines)
//   importances <f>
//   <f values on one line>

#include "ml/decision_tree.h"
#include "ml/random_forest.h"

namespace trajkit::ml {

namespace {

Result<std::vector<double>> ParseDoubles(std::string_view line,
                                         size_t expected) {
  std::vector<double> out;
  for (std::string_view field : SplitString(line, ' ')) {
    if (StripWhitespace(field).empty()) continue;
    TRAJKIT_ASSIGN_OR_RETURN(double v, ParseDouble(field));
    out.push_back(v);
  }
  if (out.size() != expected) {
    return Status::ParseError(StrPrintf(
        "expected %zu numeric fields, got %zu", expected, out.size()));
  }
  return out;
}

Result<std::string_view> NextLine(const std::vector<std::string_view>& lines,
                                  size_t& cursor) {
  if (cursor >= lines.size()) {
    return Status::ParseError("unexpected end of model file");
  }
  return lines[cursor++];
}

/// Parses an integer field and checks it lies in [lo, hi] before the
/// caller narrows it, so a huge or negative value cannot wrap into range.
Result<long long> ParseIntIn(std::string_view field, long long lo,
                             long long hi, const char* what) {
  TRAJKIT_ASSIGN_OR_RETURN(long long value, ParseInt64(field));
  if (value < lo || value > hi) {
    return Status::ParseError(StrPrintf("%s %lld outside [%lld, %lld]", what,
                                        value, lo, hi));
  }
  return value;
}

/// An int field no smaller than `lo`.
Result<int> ParseInt(std::string_view field, const char* what,
                     long long lo = std::numeric_limits<int>::min()) {
  TRAJKIT_ASSIGN_OR_RETURN(
      long long value,
      ParseIntIn(field, lo, std::numeric_limits<int>::max(), what));
  return static_cast<int>(value);
}

/// A count of the lines that follow: never negative and never more than
/// the lines left, so nothing is sized from an impossible value.
Result<size_t> ParseLineCount(std::string_view field,
                              const std::vector<std::string_view>& lines,
                              size_t cursor, const char* what) {
  TRAJKIT_ASSIGN_OR_RETURN(
      long long count,
      ParseIntIn(field, 0, static_cast<long long>(lines.size() - cursor),
                 what));
  return static_cast<size_t>(count);
}

}  // namespace

void DecisionTree::AppendSerialized(std::string& out) const {
  TRAJKIT_CHECK(fitted());
  out += StrPrintf("tree %d %d\n", num_classes_, depth_);
  out += StrPrintf("nodes %zu\n", nodes_.size());
  for (const Node& node : nodes_) {
    out += StrPrintf("%d %.17g %d %d %d\n", node.feature, node.threshold,
                     node.left, node.right, node.distribution);
  }
  out += StrPrintf("distributions %zu %d\n", leaf_distributions_.size(),
                   num_classes_);
  for (const std::vector<double>& dist : leaf_distributions_) {
    for (size_t c = 0; c < dist.size(); ++c) {
      if (c > 0) out += ' ';
      out += StrPrintf("%.17g", dist[c]);
    }
    out += '\n';
  }
  out += StrPrintf("importances %zu\n", importances_.size());
  for (size_t f = 0; f < importances_.size(); ++f) {
    if (f > 0) out += ' ';
    out += StrPrintf("%.17g", importances_[f]);
  }
  out += '\n';
}

Result<DecisionTree> DecisionTree::DeserializeBlock(
    const std::vector<std::string_view>& lines, size_t& cursor) {
  DecisionTree tree;

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view header, NextLine(lines, cursor));
  {
    const auto fields = SplitString(header, ' ');
    if (fields.size() != 3 || fields[0] != "tree") {
      return Status::ParseError("bad tree header");
    }
    TRAJKIT_ASSIGN_OR_RETURN(tree.num_classes_,
                             ParseInt(fields[1], "tree class count", 1));
    TRAJKIT_ASSIGN_OR_RETURN(tree.depth_, ParseInt(fields[2], "tree depth"));
  }

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view nodes_line,
                           NextLine(lines, cursor));
  {
    const auto fields = SplitString(nodes_line, ' ');
    if (fields.size() != 2 || fields[0] != "nodes") {
      return Status::ParseError("bad nodes header");
    }
    TRAJKIT_ASSIGN_OR_RETURN(
        size_t count, ParseLineCount(fields[1], lines, cursor, "node count"));
    tree.nodes_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      TRAJKIT_ASSIGN_OR_RETURN(std::string_view line,
                               NextLine(lines, cursor));
      const auto f = SplitString(line, ' ');
      if (f.size() != 5) return Status::ParseError("bad node line");
      Node node;
      TRAJKIT_ASSIGN_OR_RETURN(node.feature, ParseInt(f[0], "node feature"));
      TRAJKIT_ASSIGN_OR_RETURN(node.threshold, ParseDouble(f[1]));
      TRAJKIT_ASSIGN_OR_RETURN(node.left, ParseInt(f[2], "left child"));
      TRAJKIT_ASSIGN_OR_RETURN(node.right, ParseInt(f[3], "right child"));
      TRAJKIT_ASSIGN_OR_RETURN(node.distribution,
                               ParseInt(f[4], "leaf distribution"));
      tree.nodes_.push_back(node);
    }
  }

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view dist_line,
                           NextLine(lines, cursor));
  {
    const auto fields = SplitString(dist_line, ' ');
    if (fields.size() != 3 || fields[0] != "distributions") {
      return Status::ParseError("bad distributions header");
    }
    TRAJKIT_ASSIGN_OR_RETURN(
        size_t count,
        ParseLineCount(fields[1], lines, cursor, "distribution count"));
    TRAJKIT_ASSIGN_OR_RETURN(long long k, ParseInt64(fields[2]));
    if (k != tree.num_classes_) {
      return Status::ParseError("distribution width != class count");
    }
    tree.leaf_distributions_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      TRAJKIT_ASSIGN_OR_RETURN(std::string_view line,
                               NextLine(lines, cursor));
      TRAJKIT_ASSIGN_OR_RETURN(
          std::vector<double> dist,
          ParseDoubles(line, static_cast<size_t>(k)));
      tree.leaf_distributions_.push_back(std::move(dist));
    }
  }

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view imp_line,
                           NextLine(lines, cursor));
  {
    const auto fields = SplitString(imp_line, ' ');
    if (fields.size() != 2 || fields[0] != "importances") {
      return Status::ParseError("bad importances header");
    }
    TRAJKIT_ASSIGN_OR_RETURN(int count,
                             ParseInt(fields[1], "importance count", 0));
    TRAJKIT_ASSIGN_OR_RETURN(std::string_view line,
                             NextLine(lines, cursor));
    TRAJKIT_ASSIGN_OR_RETURN(
        std::vector<double> imp,
        ParseDoubles(line, static_cast<size_t>(count)));
    tree.importances_ = std::move(imp);
  }

  // Structural validation: the builder writes nodes in preorder with the
  // root at 0, so every child index is greater than its parent's. With
  // each non-root node claimed by exactly one parent, the nodes form one
  // tree reachable from the root: no cycles, no shared or orphan nodes.
  // That is the shape the pointer walk and the flat compile both descend,
  // and the header depth must be its longest path because the batched
  // flat kernel makes exactly that many sweeps.
  const size_t node_count = tree.nodes_.size();
  if (node_count == 0) return Status::ParseError("tree has no nodes");
  const size_t width = tree.importances_.size();
  std::vector<int> parents(node_count, 0);
  std::vector<int> depth(node_count, 0);
  int longest = 0;
  for (size_t i = 0; i < node_count; ++i) {
    const Node& node = tree.nodes_[i];
    if (node.feature < 0) {
      if (node.feature != -1) {
        return Status::ParseError(
            StrPrintf("node %zu has feature %d; leaves use -1", i,
                      node.feature));
      }
      if (node.distribution < 0 ||
          static_cast<size_t>(node.distribution) >=
              tree.leaf_distributions_.size()) {
        return Status::ParseError("leaf distribution index out of range");
      }
      continue;
    }
    if (static_cast<size_t>(node.feature) >= width) {
      return Status::ParseError(StrPrintf(
          "node %zu splits on feature %d; the tree has %zu features", i,
          node.feature, width));
    }
    for (const int child : {node.left, node.right}) {
      if (child <= static_cast<int>(i) ||
          static_cast<size_t>(child) >= node_count) {
        return Status::ParseError(StrPrintf(
            "node %zu child index %d must lie in (%zu, %zu)", i, child, i,
            node_count));
      }
      ++parents[static_cast<size_t>(child)];
      depth[static_cast<size_t>(child)] = depth[i] + 1;
      longest = std::max(longest, depth[i] + 1);
    }
  }
  for (size_t i = 1; i < node_count; ++i) {
    if (parents[i] != 1) {
      return Status::ParseError(StrPrintf(
          "node %zu has %d parents; every non-root node needs exactly one",
          i, parents[i]));
    }
  }
  if (tree.depth_ != longest) {
    return Status::ParseError(StrPrintf(
        "tree header depth %d != longest root-to-leaf path %d", tree.depth_,
        longest));
  }
  return tree;
}

std::string RandomForest::Serialize() const {
  TRAJKIT_CHECK(fitted());
  std::string out = "trajkit_random_forest v1\n";
  out += StrPrintf(
      "params %d %d %d %d %d %d %d %d %llu\n", params_.n_estimators,
      static_cast<int>(params_.criterion), params_.max_depth,
      params_.min_samples_split, params_.min_samples_leaf,
      params_.max_features, params_.bootstrap ? 1 : 0,
      params_.balanced_class_weights ? 1 : 0,
      static_cast<unsigned long long>(params_.seed));
  out += StrPrintf("classes %d\n", num_classes_);
  out += StrPrintf("trees %zu\n", trees_.size());
  for (const DecisionTree& tree : trees_) {
    tree.AppendSerialized(out);
  }
  return out;
}

Result<RandomForest> RandomForest::Deserialize(std::string_view text) {
  std::vector<std::string_view> lines;
  for (std::string_view line : SplitString(text, '\n')) {
    const std::string_view stripped = StripWhitespace(line);
    if (!stripped.empty()) lines.push_back(stripped);
  }
  size_t cursor = 0;
  TRAJKIT_ASSIGN_OR_RETURN(std::string_view magic, NextLine(lines, cursor));
  // Version-aware magic check: a file written by a future trajkit with a
  // newer format version gets a clean, actionable error instead of a
  // confusing structural parse failure further down.
  {
    const auto fields = SplitString(magic, ' ');
    if (fields.size() != 2 || fields[0] != "trajkit_random_forest" ||
        fields[1].size() < 2 || fields[1][0] != 'v') {
      return Status::ParseError("not a trajkit_random_forest file");
    }
    TRAJKIT_ASSIGN_OR_RETURN(long long version,
                             ParseInt64(fields[1].substr(1)));
    if (version != 1) {
      return Status::ParseError(StrPrintf(
          "model file uses format v%lld; this build reads v1 only — "
          "re-save the model with a matching trajkit version",
          version));
    }
  }

  RandomForestParams params;
  TRAJKIT_ASSIGN_OR_RETURN(std::string_view params_line,
                           NextLine(lines, cursor));
  {
    const auto f = SplitString(params_line, ' ');
    if (f.size() != 10 || f[0] != "params") {
      return Status::ParseError("bad params line");
    }
    TRAJKIT_ASSIGN_OR_RETURN(params.n_estimators,
                             ParseInt(f[1], "n_estimators"));
    TRAJKIT_ASSIGN_OR_RETURN(long long criterion,
                             ParseIntIn(f[2], 0, 1, "criterion"));
    params.criterion = static_cast<SplitCriterion>(criterion);
    TRAJKIT_ASSIGN_OR_RETURN(params.max_depth, ParseInt(f[3], "max_depth"));
    TRAJKIT_ASSIGN_OR_RETURN(params.min_samples_split,
                             ParseInt(f[4], "min_samples_split"));
    TRAJKIT_ASSIGN_OR_RETURN(params.min_samples_leaf,
                             ParseInt(f[5], "min_samples_leaf"));
    TRAJKIT_ASSIGN_OR_RETURN(params.max_features,
                             ParseInt(f[6], "max_features"));
    TRAJKIT_ASSIGN_OR_RETURN(long long bootstrap,
                             ParseIntIn(f[7], 0, 1, "bootstrap"));
    TRAJKIT_ASSIGN_OR_RETURN(long long balanced,
                             ParseIntIn(f[8], 0, 1, "balanced"));
    params.bootstrap = bootstrap != 0;
    params.balanced_class_weights = balanced != 0;
    TRAJKIT_ASSIGN_OR_RETURN(params.seed, ParseUint64(f[9]));
  }
  RandomForest forest(params);

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view classes_line,
                           NextLine(lines, cursor));
  {
    const auto f = SplitString(classes_line, ' ');
    if (f.size() != 2 || f[0] != "classes") {
      return Status::ParseError("bad classes line");
    }
    TRAJKIT_ASSIGN_OR_RETURN(forest.num_classes_,
                             ParseInt(f[1], "class count", 1));
  }

  TRAJKIT_ASSIGN_OR_RETURN(std::string_view trees_line,
                           NextLine(lines, cursor));
  const auto f = SplitString(trees_line, ' ');
  if (f.size() != 2 || f[0] != "trees") {
    return Status::ParseError("bad trees line");
  }
  TRAJKIT_ASSIGN_OR_RETURN(
      size_t tree_count, ParseLineCount(f[1], lines, cursor, "tree count"));
  if (tree_count == 0) {
    return Status::ParseError("forest must contain at least one tree");
  }
  forest.trees_.reserve(tree_count);
  for (size_t i = 0; i < tree_count; ++i) {
    TRAJKIT_ASSIGN_OR_RETURN(DecisionTree tree,
                             DecisionTree::DeserializeBlock(lines, cursor));
    if (tree.num_classes() != forest.num_classes_) {
      return Status::ParseError("tree class count != forest class count");
    }
    forest.trees_.push_back(std::move(tree));
  }

  // Rebuild aggregate importances from the trees.
  if (!forest.trees_.empty()) {
    const std::vector<double>& first =
        forest.trees_.front().FeatureImportances();
    forest.importances_.assign(first.size(), 0.0);
    for (const DecisionTree& tree : forest.trees_) {
      const std::vector<double>& imp = tree.FeatureImportances();
      if (imp.size() != forest.importances_.size()) {
        return Status::ParseError("inconsistent importance widths");
      }
      for (size_t j = 0; j < imp.size(); ++j) {
        forest.importances_[j] += imp[j];
      }
    }
    double total = 0.0;
    for (double v : forest.importances_) total += v;
    if (total > 0.0) {
      for (double& v : forest.importances_) v /= total;
    }
  }
  return forest;
}

Status SaveRandomForest(const RandomForest& forest,
                        const std::string& path) {
  if (!forest.fitted()) {
    return Status::FailedPrecondition("cannot save an unfitted forest");
  }
  return WriteStringToFile(path, forest.Serialize());
}

Result<RandomForest> LoadRandomForest(const std::string& path) {
  TRAJKIT_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return RandomForest::Deserialize(text);
}

}  // namespace trajkit::ml
