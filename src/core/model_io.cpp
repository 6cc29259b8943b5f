#include "core/model_io.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "util/artifact.hpp"

namespace drcshap {

namespace {

constexpr std::string_view kForestKind = "forest";

// Structural caps: a corrupt header must fail with a typed error, not drive
// a multi-gigabyte allocation. Generous vs. anything this repo trains
// (500 trees x ~100k-node trees x 387 features).
constexpr std::size_t kMaxTrees = 1u << 20;
constexpr std::size_t kMaxFeatures = 1u << 20;
constexpr std::size_t kMaxNodes = 1u << 27;

[[noreturn]] void fail_corrupt(const std::string& why) {
  throw ArtifactError({StatusCode::kCorrupt, "model_io: " + why});
}

void expect(std::istream& is, const std::string& keyword) {
  std::string tok;
  is >> tok;
  if (tok != keyword) {
    fail_corrupt("expected '" + keyword + "', got '" + tok + "'");
  }
}

/// A fitted tree from our own writer satisfies these invariants; anything
/// else is corruption or tampering, and feeding it to predict/SHAP would be
/// UB (out-of-range feature reads, infinite descent on a node cycle).
void validate_node(const TreeNode& n, std::size_t index, std::size_t n_nodes,
                   std::size_t n_features) {
  if (!std::isfinite(n.threshold)) {
    fail_corrupt("non-finite threshold at node " + std::to_string(index));
  }
  if (!std::isfinite(n.value) || n.value < 0.0 || n.value > 1.0) {
    fail_corrupt("leaf value outside [0,1] at node " + std::to_string(index));
  }
  if (!std::isfinite(n.cover) || n.cover < 0.0) {
    fail_corrupt("negative/non-finite cover at node " + std::to_string(index));
  }
  if (n.feature < -1 ||
      (n.feature >= 0 &&
       static_cast<std::size_t>(n.feature) >= n_features)) {
    fail_corrupt("feature index " + std::to_string(n.feature) +
                 " out of range at node " + std::to_string(index));
  }
  if (n.feature == -1) {
    if (n.left != -1 || n.right != -1) {
      fail_corrupt("leaf with children at node " + std::to_string(index));
    }
    return;
  }
  // Internal node: children must exist and point strictly forward. Our
  // writer emits trees in preorder (child index > parent index), so this
  // check both bounds the indices and makes cycles impossible.
  for (const std::int32_t child : {n.left, n.right}) {
    if (child <= static_cast<std::int32_t>(index) ||
        static_cast<std::size_t>(child) >= n_nodes) {
      fail_corrupt("child index " + std::to_string(child) +
                   " not strictly forward of node " + std::to_string(index));
    }
  }
}

}  // namespace

void save_forest(const RandomForestClassifier& forest, std::ostream& os) {
  if (!forest.fitted()) throw std::logic_error("save_forest: unfitted model");
  os << std::setprecision(17);
  const auto& trees = forest.trees();
  os << "FOREST " << trees.size() << " " << trees.front().n_features() << "\n";
  for (const DecisionTree& tree : trees) {
    os << "TREE " << tree.n_nodes() << "\n";
    for (const TreeNode& n : tree.nodes()) {
      os << n.feature << " " << n.threshold << " " << n.left << " " << n.right
         << " " << n.value << " " << n.cover << "\n";
    }
  }
  os << "END\n";
}

void save_forest_file(const RandomForestClassifier& forest,
                      const std::string& path) {
  std::ostringstream payload;
  save_forest(forest, payload);
  throw_if_error(
      write_artifact_atomic(path, kForestKind, std::move(payload).str()));
}

RandomForestClassifier load_forest(std::istream& is) {
  expect(is, "FOREST");
  std::size_t n_trees = 0, n_features = 0;
  is >> n_trees >> n_features;
  if (!is || n_trees == 0 || n_features == 0) {
    fail_corrupt("bad forest header");
  }
  if (n_trees > kMaxTrees || n_features > kMaxFeatures) {
    fail_corrupt("implausible forest header: " + std::to_string(n_trees) +
                 " trees x " + std::to_string(n_features) + " features");
  }
  std::vector<DecisionTree> trees(n_trees);
  for (std::size_t t = 0; t < n_trees; ++t) {
    expect(is, "TREE");
    std::size_t n_nodes = 0;
    is >> n_nodes;
    if (!is || n_nodes == 0 || n_nodes > kMaxNodes) {
      fail_corrupt("bad node count in tree " + std::to_string(t));
    }
    std::vector<TreeNode> nodes;
    nodes.reserve(n_nodes);
    for (std::size_t i = 0; i < n_nodes; ++i) {
      TreeNode n;
      is >> n.feature >> n.threshold >> n.left >> n.right >> n.value >> n.cover;
      if (!is) fail_corrupt("truncated tree " + std::to_string(t));
      validate_node(n, i, n_nodes, n_features);
      nodes.push_back(n);
    }
    trees[t].set_nodes(std::move(nodes), n_features);
  }
  expect(is, "END");
  RandomForestOptions options;
  options.n_trees = static_cast<int>(n_trees);
  RandomForestClassifier forest(options);
  forest.set_trees(std::move(trees), options);
  return forest;
}

RandomForestClassifier load_forest_file(const std::string& path) {
  std::istringstream payload(read_artifact(path, kForestKind).value());
  return load_forest(payload);
}

}  // namespace drcshap
