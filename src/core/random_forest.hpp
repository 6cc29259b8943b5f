#pragma once
// Random Forest classifier (Breiman 2001), the paper's proposed model:
// bootstrap-sampled, feature-subsampled, unpruned CART trees whose leaf
// probabilities are averaged. Tree training is embarrassingly parallel
// (Section III-A's parallelism argument) via the shared thread pool.
//
// Two inference engines back every fitted model, rebuilt on fit and on
// deserialization: the *exact* FlatForest SoA walk (the reference oracle,
// also the substrate of the SHAP tree explainer) and the *compiled*
// CompiledForest layout (quantized thresholds, breadth-first branch-free
// descent, batch-of-8 block kernel). Both return byte-identical
// probabilities. Batches score compiled and single samples exact unless a
// call pins the exact engine; every fitted or loaded forest has both
// layouts (set_trees rejects one that cannot be quantized).

#include <memory>

#include "core/compiled_forest.hpp"
#include "core/decision_tree.hpp"
#include "core/flat_forest.hpp"
#include "ml/classifier.hpp"

namespace drcshap {

/// Inference backend of one predict call. Selection is purely a
/// performance choice: every engine returns byte-identical probabilities
/// (proved by tests/test_compiled_forest.cpp).
enum class ForestEngine {
  /// Batches run the compiled layout; a single sample runs exact, since one
  /// descent does not repay quantizing every feature.
  kAuto = 0,
  /// FlatForest float-threshold traversal — the reference oracle.
  kExact,
};

struct RandomForestOptions {
  int n_trees = 500;            ///< the paper's final model uses 500
  int max_depth = -1;           ///< unpruned by default
  std::size_t min_samples_leaf = 1;
  /// Candidate features per split; 0 = floor(sqrt(M)) (classification
  /// default), -1 = all features.
  int max_features = 0;
  int max_bins = 64;
  bool bootstrap = true;
  double positive_weight = 1.0; ///< class weight on hotspots
  std::uint64_t seed = 42;
  /// Cap on shared-pool workers for fit/predict (0 = whole pool, 1 =
  /// serial); nested inside an outer parallel region the work runs serial
  /// regardless.
  std::size_t n_threads = 0;
};

class RandomForestClassifier final : public BinaryClassifier {
 public:
  explicit RandomForestClassifier(RandomForestOptions options = {});

  void fit(const Dataset& data) override;
  double predict_proba(std::span<const float> features) const override;

  /// Batched scoring: rows fan out across the shared thread pool (capped at
  /// options().n_threads workers), each accumulating its trees in fixed
  /// order, so the result is identical to the per-row loop for any thread
  /// count. Cross-validation and grid search call this on every fold.
  /// Served by the compiled layout; the forest/engine note in the run
  /// report records which backend ran.
  std::vector<double> predict_proba_all(const Dataset& data) const override;

  /// Same, with the backend pinned per call. Every engine returns
  /// byte-identical probabilities.
  std::vector<double> predict_proba_all(const Dataset& data,
                                        ForestEngine engine) const;

  /// Same, over a raw row-major n_rows x n_features float matrix — no
  /// Dataset wrapper, so the serving layer can score request batches
  /// straight off the wire. Byte-identical to the Dataset overload row for
  /// row (both delegate to the same engine dispatch).
  std::vector<double> predict_proba_all(std::span<const float> features,
                                        std::size_t n_rows,
                                        ForestEngine engine) const;

  std::size_t n_parameters() const override;
  std::size_t prediction_ops() const override;
  std::string name() const override { return "RF"; }

  bool fitted() const { return !trees_.empty(); }
  const std::vector<DecisionTree>& trees() const { return trees_; }
  const RandomForestOptions& options() const { return options_; }

  /// Flattened SoA view of the fitted ensemble (throws if not fitted). The
  /// shared_ptr form lets explainers outlive a refit of this classifier.
  const FlatForest& flat() const;
  std::shared_ptr<const FlatForest> flat_shared() const;

  /// Compiled (quantized, breadth-first) layout of the fitted ensemble
  /// (nullptr only when not fitted). The shared_ptr form lets explainers
  /// outlive a refit, like flat_shared().
  const CompiledForest* compiled() const { return compiled_.get(); }
  std::shared_ptr<const CompiledForest> compiled_shared() const {
    return compiled_;
  }

  /// Cover-weighted mean prediction over training data: the SHAP base value.
  double expected_value() const;

  /// For deserialization (model_io). Throws std::invalid_argument for an
  /// empty forest or one whose feature has more than
  /// CompiledForest::kMaxCutsPerFeature distinct thresholds; the classifier
  /// is then left as it was.
  void set_trees(std::vector<DecisionTree> trees, RandomForestOptions options);

 private:
  /// Builds both layouts of `trees` and commits all three; throws (and
  /// commits nothing) if the compiled layout rejects the forest.
  void install(std::vector<DecisionTree> trees);

  RandomForestOptions options_;
  std::vector<DecisionTree> trees_;
  std::shared_ptr<const FlatForest> flat_;
  std::shared_ptr<const CompiledForest> compiled_;
};

}  // namespace drcshap
