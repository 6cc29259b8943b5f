#include "core/random_forest.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {

RandomForestClassifier::RandomForestClassifier(RandomForestOptions options)
    : options_(options) {
  if (options_.n_trees <= 0) {
    throw std::invalid_argument("RandomForest: n_trees must be positive");
  }
}

void RandomForestClassifier::fit(const Dataset& data) {
  if (data.n_rows() == 0) throw std::invalid_argument("RandomForest: empty");
  DRCSHAP_OBS_TIMER("forest/fit");
  obs::counter_add("forest/fit_rows", data.n_rows());
  obs::counter_add("forest/trees_built",
                   static_cast<std::uint64_t>(options_.n_trees));
  const BinnedMatrix binned = [&] {
    DRCSHAP_OBS_TIMER("forest/bin");
    return BinnedMatrix(data, options_.max_bins, options_.n_threads);
  }();
  std::vector<DecisionTree> trees(static_cast<std::size_t>(options_.n_trees));

  // Pre-draw per-tree seeds so results are independent of thread scheduling.
  Rng seeder(options_.seed);
  std::vector<std::uint64_t> tree_seeds(trees.size());
  for (auto& s : tree_seeds) s = seeder();
  std::vector<std::size_t> unique_rows(trees.size());

  auto build_tree = [&](std::size_t t) {
    Rng rng(tree_seeds[t]);
    std::vector<std::size_t> rows;
    if (options_.bootstrap) {
      rows = rng.bootstrap_indices(data.n_rows());
    } else {
      rows.resize(data.n_rows());
      std::iota(rows.begin(), rows.end(), 0);
    }
    DecisionTreeOptions tree_options;
    tree_options.max_depth = options_.max_depth;
    tree_options.min_samples_leaf = options_.min_samples_leaf;
    tree_options.min_samples_split = options_.min_samples_leaf * 2;
    tree_options.max_features = options_.max_features;
    tree_options.positive_weight = options_.positive_weight;
    tree_options.seed = rng();
    unique_rows[t] = trees[t].fit_binned(binned, data, rows, tree_options);
  };

  parallel_for_shared(trees.size(), build_tree, options_.n_threads);
  obs::counter_add("forest/fit_unique_rows",
                   std::accumulate(unique_rows.begin(), unique_rows.end(),
                                   std::uint64_t{0}));
  install(std::move(trees));
}

// Binned training splits a feature only at its bin cuts, so every fitted
// forest quantizes and install() cannot reject it.
static_assert(BinnedMatrix::kMaxBins - 1 <= CompiledForest::kMaxCutsPerFeature);

void RandomForestClassifier::install(std::vector<DecisionTree> trees) {
  // Both layouts are built before anything is assigned, so a forest the
  // compiled layout rejects leaves the classifier as it was.
  auto flat =
      std::make_shared<const FlatForest>(std::span<const DecisionTree>(trees));
  std::shared_ptr<const CompiledForest> compiled;
  {
    // The quantize/layout lowering is paid once per fit/deserialize; the
    // timer lets run reports attribute it separately from tree training.
    DRCSHAP_OBS_TIMER("forest/quantize_ms");
    compiled = std::make_shared<const CompiledForest>(*flat);
  }
  trees_ = std::move(trees);
  flat_ = std::move(flat);
  compiled_ = std::move(compiled);
}

double RandomForestClassifier::predict_proba(
    std::span<const float> features) const {
  if (!fitted()) throw std::logic_error("RandomForest: not fitted");
  if (features.size() != flat_->n_features()) {
    throw std::invalid_argument("RandomForest: feature count mismatch");
  }
  // A lone sample serves exact: the compiled layout would pay the full
  // quantization of every feature for a single descent, which costs more
  // than the exact walk reads (~depth features). Batches amortize
  // quantization across all trees and go compiled (see predict_proba_all).
  return flat_->predict(features.data());
}

std::vector<double> RandomForestClassifier::predict_proba_all(
    const Dataset& data) const {
  return predict_proba_all(data, ForestEngine::kAuto);
}

std::vector<double> RandomForestClassifier::predict_proba_all(
    const Dataset& data, ForestEngine engine) const {
  if (!fitted()) throw std::logic_error("RandomForest: not fitted");
  if (data.n_features() != flat_->n_features()) {
    throw std::invalid_argument("RandomForest: feature count mismatch");
  }
  return predict_proba_all(std::span<const float>(data.features_flat()),
                           data.n_rows(), engine);
}

std::vector<double> RandomForestClassifier::predict_proba_all(
    std::span<const float> features, std::size_t n_rows,
    ForestEngine engine) const {
  if (!fitted()) throw std::logic_error("RandomForest: not fitted");
  const std::size_t n_features = flat_->n_features();
  if (features.size() != n_rows * n_features) {
    throw std::invalid_argument("RandomForest: feature count mismatch");
  }
  const bool exact = engine == ForestEngine::kExact;
  DRCSHAP_OBS_TIMER("forest/predict_all");
  obs::counter_add("forest/rows_scored", n_rows);
  obs::note_set("forest/engine", exact ? "exact" : "compiled");
  std::vector<double> out(n_rows);
  if (out.empty()) return out;
  if (!exact) {
    // Chunks of whole 8-lane blocks; each chunk quantizes and descends its
    // rows independently, so results are position-keyed and bit-identical
    // at any thread count.
    const CompiledForest& compiled = *compiled_;
    constexpr std::size_t kChunkRows = 64 * CompiledForest::kBlock;
    const std::size_t n_chunks = (out.size() + kChunkRows - 1) / kChunkRows;
    const float* rows = features.data();
    parallel_for_shared(
        n_chunks,
        [&](std::size_t c) {
          const std::size_t begin = c * kChunkRows;
          const std::size_t count = std::min(kChunkRows, out.size() - begin);
          compiled.predict_batch(rows + begin * n_features, count,
                                 out.data() + begin);
        },
        options_.n_threads);
    return out;
  }
  const FlatForest& flat = *flat_;
  const float* rows = features.data();
  parallel_for_shared(
      out.size(),
      [&](std::size_t i) { out[i] = flat.predict(rows + i * n_features); },
      options_.n_threads);
  return out;
}

std::size_t RandomForestClassifier::n_parameters() const {
  // Each internal node stores (feature, threshold), each leaf a value.
  std::size_t params = 0;
  for (const DecisionTree& tree : trees_) {
    const std::size_t leaves = tree.n_leaves();
    params += (tree.n_nodes() - leaves) * 2 + leaves;
  }
  return params;
}

std::size_t RandomForestClassifier::prediction_ops() const {
  // One comparison per level walked in each tree, plus the aggregation adds.
  double ops = 0.0;
  for (const DecisionTree& tree : trees_) ops += tree.mean_depth();
  return static_cast<std::size_t>(ops) + trees_.size();
}

const FlatForest& RandomForestClassifier::flat() const {
  if (!fitted()) throw std::logic_error("RandomForest: not fitted");
  return *flat_;
}

std::shared_ptr<const FlatForest> RandomForestClassifier::flat_shared() const {
  if (!fitted()) throw std::logic_error("RandomForest: not fitted");
  return flat_;
}

double RandomForestClassifier::expected_value() const {
  if (!fitted()) throw std::logic_error("RandomForest: not fitted");
  double total = 0.0;
  for (const DecisionTree& tree : trees_) total += tree.expected_value();
  return total / static_cast<double>(trees_.size());
}

void RandomForestClassifier::set_trees(std::vector<DecisionTree> trees,
                                       RandomForestOptions options) {
  if (trees.empty()) throw std::invalid_argument("set_trees: empty forest");
  install(std::move(trees));
  options_ = options;
  options_.n_trees = static_cast<int>(trees_.size());
}

}  // namespace drcshap
