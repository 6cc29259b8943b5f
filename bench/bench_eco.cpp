// Incremental ECO benchmark: the headline claim of the ECO loop — applying
// a small edit to a resident EcoEngine (dirty-region re-route, re-feature,
// re-predict, re-explain) must beat a from-scratch rebuild of the edited
// design by >=10x CPU. Both legs run the identical pipeline stages on the
// identical design, so the ratio is pure dirty-tracking win, and the golden
// digest tests (EcoDigest.*) prove the fast path is byte-identical.
//
// The design is a dedicated low-congestion spec: routing converges with
// zero overflow, so PathFinder's rip-up feedback cannot amplify the edit
// and the locality the speedup depends on actually holds (on a congested
// suite design a one-track macro nudge legitimately dirties everything —
// see SmallEditOnUncongestedDesignStaysLocal in test_eco.cpp). The edit is
// a quarter-micron macro move: a realistic late-stage ECO.
//
// CI gates the serial legs' median CPU time against BENCH_eco.json and
// the >=10x ratio of the two serial legs, both in tools/check_bench.py
// (--ratio): both legs run in one process on one host, so the ratio cannot
// rot behind a stale baseline. The 8-thread legs are wall-clock telemetry
// for multi-core hosts (byte-identity across thread counts is covered by
// the tests).

#include <benchmark/benchmark.h>

#include <memory>
#include <utility>

#include "benchsuite/pipeline.hpp"
#include "eco/eco_engine.hpp"
#include "obs/registry.hpp"
#include "obs_report.hpp"
#include "util/log.hpp"

namespace drcshap {
namespace {

/// A 60x60-g-cell design dense enough that a macro move reroutes real nets
/// but sparse enough that routing converges overflow-free — the regime the
/// incremental engine is built for.
BenchmarkSpec eco_bench_spec() {
  BenchmarkSpec spec;
  spec.name = "eco_bench";
  spec.table_group = 0;
  spec.die_microns = 400.0;
  spec.gcells_x = 60;
  spec.gcells_y = 60;
  spec.cells_thousands = 2.0;
  spec.n_macros = 8;
  spec.difficulty = 0.02;
  spec.wiring_richness = 1.0;
  spec.seed = 7;
  return spec;
}

/// The design exactly as run_pipeline would construct it (same generator,
/// placer seed and row height); full scale — the spec is bench-sized.
Design make_bench_design() { return place_spec(eco_bench_spec(), {}); }

/// Paper-scale forest (500 trees), trained once on suite pipeline data so
/// the predict + explain stages carry their production-shaped cost.
std::shared_ptr<const RandomForestClassifier> bench_forest() {
  static const std::shared_ptr<const RandomForestClassifier> forest = [] {
    PipelineOptions train_options;
    train_options.generator.scale = 16.0;
    Dataset train(FeatureSchema::kNumFeatures, FeatureSchema::names());
    train.append(run_pipeline(suite_spec("fft_2"), train_options).samples);
    RandomForestOptions options;
    options.n_trees = 500;
    auto model = std::make_shared<RandomForestClassifier>(options);
    model->fit(train);
    return std::shared_ptr<const RandomForestClassifier>(std::move(model));
  }();
  return forest;
}

/// The benchmarked ECO: nudge macro 1 east by a quarter micron.
EcoEdit bench_edit() {
  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kMoveMacro;
  edit.macro = 1;
  edit.dx = 0.25;
  edit.dy = 0.0;
  return edit;
}

void BM_EcoFullRebuild(benchmark::State& state) {
  EcoOptions options;
  options.n_threads = static_cast<std::size_t>(state.range(0));
  const EcoEdit edit = bench_edit();
  // Untimed setup: design generation + placement are shared by both legs
  // (the incremental leg's resident engine was built on the same design),
  // and the forest is trained once per process.
  const auto forest = bench_forest();
  Design edited = make_bench_design();
  edited.move_macro(edit.macro, edit.dx, edit.dy);
  for (auto _ : state) {  // Iterations(1): `edited` is consumed exactly once
    const EcoEngine engine(std::move(edited), forest,
                           TreeShapExplainer(*forest), options);
    benchmark::DoNotOptimize(engine.num_cells());
  }
}
BENCHMARK(BM_EcoFullRebuild)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

void BM_EcoIncremental(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  EcoOptions options;
  options.n_threads = n_threads;
  const auto forest = bench_forest();
  // Untimed setup: the resident, fully scored engine — the state a serving
  // daemon (drcshap_serve --eco-design) holds between edits.
  EcoEngine engine(make_bench_design(), forest, TreeShapExplainer(*forest),
                   options);
  const EcoEdit edit = bench_edit();
  EcoStats stats;
  for (auto _ : state) {
    const EcoResult result = engine.apply(edit);
    stats = result.stats;
    benchmark::DoNotOptimize(stats.dirty_cells);
  }
  state.counters["dirty_cells"] = static_cast<double>(stats.dirty_cells);
  state.counters["rows_rescored"] = static_cast<double>(stats.rows_rescored);
  if (n_threads == 1) {
    obs::gauge_set("bench/eco/dirty_cells",
                   static_cast<double>(stats.dirty_cells));
  }
}
BENCHMARK(BM_EcoIncremental)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

}  // namespace
}  // namespace drcshap

int main(int argc, char** argv) {
  drcshap::set_log_level(drcshap::LogLevel::kWarn);
  return drcshap::run_benchmarks_with_report(argc, argv, "bench_eco");
}
