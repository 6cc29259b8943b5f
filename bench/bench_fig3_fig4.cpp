// Reproduces Fig. 3 + Fig. 4: individual SHAP explanations for three
// archetypal predicted DRC hotspots, cross-checked against the "actual" DRC
// errors produced by the detailed-routing oracle (which are, as in the
// paper, never visible to the model or the explainer).
//
//   (a) a hotspot in a highly congested area (edge overflows dominate),
//       from des_perf_1;
//   (b) a hotspot with moderate edge congestion but crowded vias, from
//       des_perf_1;
//   (c) a hotspot near a macro, from mult_a (the paper's matrix_mult_a).
//
// The RF model is trained on Table I groups {1, 3, 5} only, so both test
// designs (group 4 and group 2) are design-held-out. For each example the
// bench prints the local congestion context (Fig. 3), the ranked SHAP force
// plot (Fig. 4), the actual error list, and the per-sample explanation
// latency (the paper reports 1.4 s/sample for 500 trees on full-scale data).
//
// Usage: bench_fig3_fig4 [--scale N] [--trees N]

#include <algorithm>
#include <cstring>
#include <iostream>

#include "benchsuite/pipeline.hpp"
#include "core/explanation.hpp"
#include "core/tree_shap.hpp"
#include "obs/run_report.hpp"
#include "features/labeler.hpp"
#include "ml/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace drcshap;

namespace {

/// Which schema block a feature index belongs to.
enum class Block { kPlacement, kEdge, kVia };

Block block_of(std::size_t feature) {
  if (feature < 99) return Block::kPlacement;
  if (feature < 279) return Block::kEdge;
  return Block::kVia;
}

/// Prints the 3x3 window congestion context of a g-cell (the Fig. 3 panel).
void print_window_context(const DesignRun& run, std::size_t cell) {
  const TrackModel track(run.design, run.congestion);
  std::cout << "  local congestion (per metal layer: overflow incident to "
               "the cell / mean load / mean capacity):\n";
  for (int m = 0; m < 5; ++m) {
    std::cout << "    " << Technology::metal_name(m) << ": ovf "
              << track.edge_overflow(cell, m) << ", load "
              << fmt_fixed(track.wire_demand(cell, m), 1) << "/"
              << fmt_fixed(track.wire_supply(cell, m), 1) << "\n";
  }
  for (int v = 0; v < 4; ++v) {
    std::cout << "    " << Technology::via_name(v) << ": load "
              << run.congestion.via_load(v, cell) << "/"
              << run.congestion.via_capacity(v, cell) << "\n";
  }
  const auto agg = compute_gcell_aggregates(run.design);
  std::cout << "    pins " << agg[cell].n_pins << ", local nets "
            << agg[cell].n_local_nets << ", macro adjacent "
            << (agg[cell].macro_adjacent ? "yes" : "no") << "\n";
}

void explain_hotspot(char tag, const char* description, const DesignRun& run,
                     std::size_t cell, const RandomForestClassifier& forest,
                     const TreeShapExplainer& explainer) {
  const auto x = run.samples.row(cell);
  Stopwatch timer;
  const Explanation explanation =
      explain_sample(explainer, forest, x, FeatureSchema::names());
  const double explain_seconds = timer.seconds();

  std::cout << "\n--- hotspot (" << tag << "): " << description << " ---\n";
  std::cout << "  design " << run.spec.name << ", g-cell " << cell << " (col "
            << run.design.grid().col_of(cell) << ", row "
            << run.design.grid().row_of(cell) << ")\n";
  print_window_context(run, cell);
  std::cout << "\n  Fig.4-style SHAP force plot (prediction "
            << fmt_fixed(explanation.prediction(), 3) << " = "
            << fmt_fixed(explanation.prediction() / std::max(1e-9, explanation.base_value()), 0)
            << "x the base value " << fmt_fixed(explanation.base_value(), 4)
            << "):\n"
            << explanation.to_text(8);

  // Block-level attribution: which part of the feature space drives this
  // prediction (this is the consistency check the paper does by eye).
  double by_block[3] = {0.0, 0.0, 0.0};
  const auto& shap = explanation.shap_values();
  for (std::size_t f = 0; f < shap.size(); ++f) {
    if (shap[f] > 0.0) {
      by_block[static_cast<int>(block_of(f))] += shap[f];
    }
  }
  std::cout << "  positive SHAP mass by block: placement "
            << fmt_fixed(by_block[0], 3) << ", edge congestion "
            << fmt_fixed(by_block[1], 3) << ", via congestion "
            << fmt_fixed(by_block[2], 3) << "\n";

  const auto errors =
      violations_in_gcell(run.design.grid(), cell, run.drc.violations());
  std::cout << "  actual DRC errors after detailed routing (" << errors.size()
            << ", hidden from the model):\n";
  for (const DrcViolation& v : errors) {
    std::cout << "    - " << to_string(v.type) << " in "
              << Technology::metal_name(v.metal_layer) << "\n";
  }
  std::cout << "  explanation latency: " << fmt_fixed(explain_seconds, 3)
            << " s/sample (paper: 1.4 s/sample at full scale, 500 trees)\n";
  std::cout << "  additivity gap: " << explanation.additivity_gap() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 8.0;
  int trees = 150;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--trees") && i + 1 < argc) {
      trees = std::atoi(argv[++i]);
    }
  }
  std::cout << "=== Fig. 3 / Fig. 4: explaining individual DRC hotspots "
               "(scale 1/" << scale << ", " << trees << " trees) ===\n";

  PipelineOptions pipeline;
  pipeline.generator.scale = scale;

  // Train on groups 1, 3, 5 (holds out group 4 = des_perf_1 and group 2 =
  // mult_a simultaneously).
  Dataset train(FeatureSchema::kNumFeatures, FeatureSchema::names());
  for (const BenchmarkSpec& spec : ispd2015_suite()) {
    if (spec.table_group == 2 || spec.table_group == 4) continue;
    train.append(run_pipeline(spec, pipeline).samples);
  }
  const DesignRun des_perf_1 = run_pipeline(suite_spec("des_perf_1"), pipeline);
  const DesignRun mult_a = run_pipeline(suite_spec("mult_a"), pipeline);

  RandomForestOptions rf_options;
  rf_options.n_trees = trees;
  RandomForestClassifier forest(rf_options);
  Stopwatch fit_timer;
  forest.fit(train);
  std::cout << "RF trained on " << train.n_rows() << " samples ("
            << fmt_fixed(fit_timer.seconds(), 1) << " s)\n";
  const TreeShapExplainer explainer(forest);

  // ---- archetype selection -------------------------------------------------
  const TrackModel track_d1(des_perf_1.design, des_perf_1.congestion);
  const auto agg_ma = compute_gcell_aggregates(mult_a.design);
  const std::vector<double> scores_d1 =
      forest.predict_proba_all(des_perf_1.samples);
  const std::vector<double> scores_ma = forest.predict_proba_all(mult_a.samples);

  auto best_cell = [](const std::vector<double>& scores,
                      const std::function<bool(std::size_t)>& eligible) {
    std::ptrdiff_t best = -1;
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (!eligible(i)) continue;
      if (best < 0 || scores[i] > scores[static_cast<std::size_t>(best)]) {
        best = static_cast<std::ptrdiff_t>(i);
      }
    }
    return best;
  };

  // The paper's examples are actual DRC-violated g-cells ("three typical
  // DRC-violated g-cells ... are taken as examples"), so selection prefers
  // cells whose (hidden) label is positive; if no actual hotspot of an
  // archetype exists at this scale, the strongest *predicted* one is shown
  // instead (the workflow is identical either way).
  auto pick = [&](const std::vector<double>& scores, const Dataset& samples,
                  const std::function<bool(std::size_t)>& archetype) {
    const auto strict = best_cell(scores, [&](std::size_t i) {
      return samples.label(i) != 0 && archetype(i);
    });
    if (strict >= 0 && scores[static_cast<std::size_t>(strict)] >= 0.15) {
      return strict;
    }
    const auto relaxed = best_cell(scores, archetype);
    return relaxed >= 0 ? relaxed : strict;
  };

  // (a) heavy edge congestion: large incident edge overflow.
  const auto cell_a = pick(scores_d1, des_perf_1.samples, [&](std::size_t i) {
    int ovf = 0;
    for (int m = 0; m < 5; ++m) ovf += track_d1.edge_overflow(i, m);
    return ovf >= 3;
  });
  // (b) via-dominated: high via pressure, little edge overflow.
  const auto cell_b = pick(scores_d1, des_perf_1.samples, [&](std::size_t i) {
    int ovf = 0;
    for (int m = 0; m < 5; ++m) ovf += track_d1.edge_overflow(i, m);
    double via = 0.0;
    for (int v = 0; v < 4; ++v) {
      via = std::max(via, track_d1.via_pressure(i, v));
    }
    return ovf <= 1 && via > 0.85;
  });
  // (c) macro-adjacent in mult_a.
  const auto cell_c = pick(scores_ma, mult_a.samples, [&](std::size_t i) {
    return agg_ma[i].macro_adjacent;
  });

  if (cell_a >= 0) {
    explain_hotspot('a', "highly congested area (edge overflows)", des_perf_1,
                    static_cast<std::size_t>(cell_a), forest, explainer);
  }
  if (cell_b >= 0) {
    explain_hotspot('b', "moderate edges, crowded vias", des_perf_1,
                    static_cast<std::size_t>(cell_b), forest, explainer);
  }
  if (cell_c >= 0) {
    explain_hotspot('c', "hotspot near a macro", mult_a,
                    static_cast<std::size_t>(cell_c), forest, explainer);
  }

  // ---- aggregate explanation latency (the Section IV-B runtime claim) -----
  std::vector<std::size_t> hotspot_rows;
  for (std::size_t i = 0; i < scores_d1.size() && hotspot_rows.size() < 10;
       ++i) {
    if (scores_d1[i] > 0.3) hotspot_rows.push_back(i);
  }
  if (!hotspot_rows.empty()) {
    const Dataset hotspots = des_perf_1.samples.subset(hotspot_rows);
    Stopwatch batch;
    (void)explainer.shap_values_batch(hotspots);
    std::cout << "\nmean batched explanation latency over "
              << hotspots.n_rows() << " predicted hotspots: "
              << fmt_fixed(batch.seconds() /
                               static_cast<double>(hotspots.n_rows()), 3)
              << " s/sample\n";
  }

  obs::RunReportOptions report;
  report.tool = "bench_fig3_fig4";
  obs::write_default_run_report(report);
  return 0;
}
