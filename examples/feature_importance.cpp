// Global feature importance via SHAP: trains a Random Forest on two design
// groups and ranks the 387 features by mean |SHAP value| over a sample of
// held-out g-cells — the summary view that complements the paper's
// per-hotspot Fig. 4 explanations. Also aggregates the importance by
// feature block (placement / edge congestion / via congestion) and by
// window position (central cell vs neighbors).
//
// Usage: feature_importance [scale]

#include <cstdlib>
#include <cstring>
#include <iostream>

#include "benchsuite/pipeline.hpp"
#include "core/explanation.hpp"
#include "core/tree_shap.hpp"
#include "util/table.hpp"

using namespace drcshap;

namespace {

int usage() {
  std::cerr << "usage: feature_importance [scale]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 8.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] == '-') return usage();
    scale = std::atof(arg.c_str());
  }
  PipelineOptions pipeline;
  pipeline.generator.scale = scale;

  Dataset train(FeatureSchema::kNumFeatures, FeatureSchema::names());
  for (const BenchmarkSpec& spec : ispd2015_suite()) {
    if (spec.table_group == 1 || spec.table_group == 3) {
      train.append(run_pipeline(spec, pipeline).samples);
    }
  }
  const Dataset test =
      run_pipeline(suite_spec("des_perf_1"), pipeline).samples;

  RandomForestOptions options;
  options.n_trees = 120;
  RandomForestClassifier forest(options);
  forest.fit(train);
  const TreeShapExplainer explainer(forest);

  // Streaming global summary over a sample of held-out rows: mean |SHAP|
  // plus sign statistics, accumulated in O(n_features) memory.
  std::vector<std::size_t> probe_rows(std::min<std::size_t>(test.n_rows(), 200));
  for (std::size_t i = 0; i < probe_rows.size(); ++i) probe_rows[i] = i;
  const Dataset probe = test.subset(probe_rows);
  const GlobalShapSummary summary = global_shap_summary(explainer, probe);
  const std::vector<double> importance = summary.mean_abs_all();

  Table top({"rank", "feature", "mean |SHAP|", "mean SHAP", "pos %"});
  const std::vector<std::size_t> order = summary.top_features(15);
  for (std::size_t r = 0; r < order.size(); ++r) {
    top.add_row({std::to_string(r + 1), FeatureSchema::names()[order[r]],
                 fmt_fixed(summary.mean_abs(order[r]), 5),
                 fmt_fixed(summary.mean_signed(order[r]), 5),
                 fmt_fixed(summary.positive_fraction(order[r]) * 100.0, 1)});
  }
  std::cout << "=== global feature importance on held-out des_perf_1 ===\n"
            << top.to_string();

  // Cross-check the SHAP ranking against split-improvement importance:
  // the classic (biased) training-data MDI and the Loecher-style debiased
  // variant evaluated on the held-out probe rows.
  const std::vector<double> mdi = split_improvement_importance(forest.flat());
  const std::vector<double> mdi_debiased =
      debiased_split_importance(forest.flat(), probe);
  Table agreement({"importance pair", "Spearman rank corr"});
  agreement.add_row({"mean |SHAP| vs split improvement (train MDI)",
                     fmt_fixed(rank_correlation(importance, mdi), 3)});
  agreement.add_row({"mean |SHAP| vs debiased split improvement",
                     fmt_fixed(rank_correlation(importance, mdi_debiased), 3)});
  agreement.add_row({"train MDI vs debiased split improvement",
                     fmt_fixed(rank_correlation(mdi, mdi_debiased), 3)});
  std::cout << "\n" << agreement.to_string();

  // By block.
  double placement = 0.0, edges = 0.0, vias = 0.0;
  for (std::size_t f = 0; f < importance.size(); ++f) {
    (f < 99 ? placement : f < 279 ? edges : vias) += importance[f];
  }
  Table blocks({"feature block", "total mean |SHAP|"});
  blocks.add_row({"placement (99 features)", fmt_fixed(placement, 4)});
  blocks.add_row({"edge congestion (180)", fmt_fixed(edges, 4)});
  blocks.add_row({"via congestion (108)", fmt_fixed(vias, 4)});
  std::cout << "\n" << blocks.to_string();

  // Central cell vs neighborhood.
  double central = 0.0, neighbors = 0.0;
  const auto& names = FeatureSchema::names();
  for (std::size_t f = 0; f < importance.size(); ++f) {
    const std::string& n = names[f];
    const bool is_central =
        (n.size() > 2 && n.substr(n.size() - 2) == "_o") ||
        n.find("_4V") != std::string::npos || n.find("_6H") != std::string::npos ||
        n.find("_7H") != std::string::npos || n.find("_9V") != std::string::npos;
    (is_central ? central : neighbors) += importance[f];
  }
  Table window({"window part", "total mean |SHAP|"});
  window.add_row({"central g-cell (+ incident edges)", fmt_fixed(central, 4)});
  window.add_row({"neighboring g-cells", fmt_fixed(neighbors, 4)});
  std::cout << "\n" << window.to_string();
  return 0;
}
