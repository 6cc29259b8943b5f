// The Fig. 3 / Fig. 4 workflow: train a Random Forest on several designs,
// predict hotspots on a held-out design, pick archetypal predicted hotspots
// (edge-congestion-driven, via-congestion-driven, macro-adjacent), print
// their SHAP force-plot explanations, and cross-check each explanation
// against the "actual" DRC errors the oracle produced there — which are, as
// in the paper, not available at prediction/explanation time.
//
// Usage: hotspot_explain [test_design] [scale] [--explain-cache on|off]

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "benchsuite/pipeline.hpp"
#include "core/explanation.hpp"
#include "core/tree_shap.hpp"
#include "features/labeler.hpp"
#include "util/table.hpp"

using namespace drcshap;

namespace {

void describe_actual_errors(const DesignRun& run, std::size_t cell) {
  const auto errors =
      violations_in_gcell(run.design.grid(), cell, run.drc.violations());
  std::cout << "  actual DRC errors after detailed routing (" << errors.size()
            << "):\n";
  for (const DrcViolation& v : errors) {
    std::cout << "    - " << to_string(v.type) << " in "
              << Technology::metal_name(v.metal_layer) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string test_name = "des_perf_1";
  double scale = 8.0;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--explain-cache" && i + 1 < argc) {
      // Flag form of $DRCSHAP_EXPLAIN_CACHE (re-read per explain call).
      const std::string name = argv[++i];
      if (name == "on") ::setenv("DRCSHAP_EXPLAIN_CACHE", "1", 1);
      else if (name == "off") ::setenv("DRCSHAP_EXPLAIN_CACHE", "0", 1);
      else { std::cerr << "--explain-cache wants on|off\n"; return 2; }
    } else if (arg == "--help" || arg == "-h" ||
               (!arg.empty() && arg[0] == '-')) {
      std::cerr << "usage: hotspot_explain [test_design] [scale]\n"
                   "         [--explain-cache on|off]\n";
      return arg == "--help" || arg == "-h" ? 0 : 2;
    } else if (positional == 0) {
      test_name = arg;
      ++positional;
    } else {
      scale = std::atof(arg.c_str());
      ++positional;
    }
  }

  PipelineOptions pipeline;
  pipeline.generator.scale = scale;

  // Train on a few designs from other Table I groups.
  Dataset train(FeatureSchema::kNumFeatures, FeatureSchema::names());
  for (const char* name : {"fft_b", "mult_b", "bridge32_a", "fft_1"}) {
    if (test_name == name) continue;
    train.append(run_pipeline(suite_spec(name), pipeline).samples);
  }
  const DesignRun test_run = run_pipeline(suite_spec(test_name), pipeline);

  RandomForestOptions rf_options;
  rf_options.n_trees = 150;
  RandomForestClassifier forest(rf_options);
  forest.fit(train);
  const TreeShapExplainer explainer(forest);

  const std::vector<double> scores =
      forest.predict_proba_all(test_run.samples);

  // Rank predicted hotspots and pick three archetypes by their dominant
  // feature block (edge congestion / via congestion / macro adjacency).
  std::vector<std::size_t> order(scores.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });

  const auto agg = compute_gcell_aggregates(test_run.design);
  const TrackModel track(test_run.design, test_run.congestion);

  auto dominant_kind = [&](std::size_t cell) {
    double edge = 0.0, via = 0.0;
    for (int m = 0; m < 5; ++m) edge += track.edge_overflow(cell, m);
    for (int v = 0; v < 4; ++v) {
      via += std::max(0.0, track.via_pressure(cell, v) - 0.75);
    }
    if (agg[cell].macro_adjacent) return 2;
    return via * 3.0 > edge ? 1 : 0;
  };

  std::array<std::ptrdiff_t, 3> picks = {-1, -1, -1};
  for (const std::size_t cell : order) {
    if (scores[cell] < 0.2) break;
    const int kind = dominant_kind(cell);
    if (picks[static_cast<std::size_t>(kind)] < 0) {
      picks[static_cast<std::size_t>(kind)] = static_cast<std::ptrdiff_t>(cell);
    }
  }
  static const char* kKindName[3] = {
      "edge-congestion-dominated", "via-congestion-dominated",
      "macro-adjacent"};

  // One batched SHAP pass over every picked cell (the three archetypes all
  // ride the thread-parallel engine in a single call).
  std::vector<std::size_t> picked_cells;
  for (const std::ptrdiff_t p : picks) {
    if (p >= 0) picked_cells.push_back(static_cast<std::size_t>(p));
  }
  const std::vector<Explanation> explanations =
      explain_batch(explainer, forest, test_run.samples.subset(picked_cells),
                    FeatureSchema::names());

  std::cout << "=== explaining predicted hotspots in " << test_name
            << " (base value " << fmt_fixed(explainer.base_value(), 4)
            << ") ===\n";
  std::size_t next_explained = 0;
  for (std::size_t k = 0; k < picks.size(); ++k) {
    if (picks[k] < 0) {
      std::cout << "\n(" << static_cast<char>('a' + k) << ") no strongly "
                << kKindName[k] << " hotspot predicted in this design\n";
      continue;
    }
    const auto cell = static_cast<std::size_t>(picks[k]);
    const Explanation& explanation = explanations[next_explained++];
    std::cout << "\n(" << static_cast<char>('a' + k) << ") g-cell " << cell
              << " [" << kKindName[k] << "], predicted "
              << fmt_fixed(scores[cell], 3) << ", actual label "
              << test_run.samples.label(cell) << "\n"
              << explanation.to_text(8);
    describe_actual_errors(test_run, cell);
  }
  return 0;
}
