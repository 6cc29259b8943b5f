// Micro-benchmarks proving the compiled forest backend's speedup claims:
// exact vs compiled batch scoring at 1 and 8 threads on the paper-scale
// model (500 unpruned trees, 387 features, 4000 rows), the scalar block
// kernel (SIMD contribution), single-sample latency, the one-time
// quantize/layout lowering cost, and a SHAP batch on the paper-scale model.
//
// CI perf-smoke gates the serial legs' median CPU time against
// BENCH_compiled.json and, with tools/check_bench.py --ratio, the
// exact/compiled ratio at 1 thread: the backend's >= 2x claim, measured
// where parallelism cannot flatter it.

#include <benchmark/benchmark.h>

#include <numeric>

#include "core/tree_shap.hpp"
#include "obs_report.hpp"
#include "util/rng.hpp"

namespace drcshap {
namespace {

/// Synthetic 387-feature task resembling the DRC dataset (same generator
/// shape as bench_shap_runtime so numbers are comparable across benches).
Dataset make_data(std::size_t n_rows, std::size_t n_features,
                  std::uint64_t seed) {
  Dataset d(n_features);
  Rng rng(seed);
  std::vector<float> x(n_features);
  for (std::size_t i = 0; i < n_rows; ++i) {
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    const double danger = 2.0 * x[5] + 1.5 * x[17] +
                          (x[5] > 0.7 && x[42] > 0.5 ? 1.5 : 0.0) +
                          0.6 * rng.normal();
    d.append_row(x, danger > 2.6 ? 1 : 0, 0);
  }
  return d;
}

const Dataset& paper_scale_data() {
  static const Dataset data = make_data(4000, 387, 7);
  return data;
}

/// The paper-scale model, fitted once and shared by every bench below.
const RandomForestClassifier& paper_scale_forest() {
  static const RandomForestClassifier forest = [] {
    RandomForestOptions options;
    options.n_trees = 500;
    RandomForestClassifier f(options);
    f.fit(paper_scale_data());
    return f;
  }();
  return forest;
}

/// Same trees, thread-pool width pinned to `n_threads` for predict calls.
RandomForestClassifier forest_with_threads(std::size_t n_threads) {
  RandomForestOptions options = paper_scale_forest().options();
  options.n_threads = n_threads;
  RandomForestClassifier forest(options);
  forest.set_trees(paper_scale_forest().trees(), options);
  return forest;
}

void BM_PredictAll_Exact(benchmark::State& state) {
  const Dataset& data = paper_scale_data();
  const RandomForestClassifier forest =
      forest_with_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        forest.predict_proba_all(data, ForestEngine::kExact));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * data.n_rows()));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PredictAll_Exact)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The production call: kAuto resolves to the compiled engine for this
// quantizable model, so the exact/compiled ratio gate also fails if that
// resolution ever stops picking it.
void BM_PredictAll_Compiled(benchmark::State& state) {
  const Dataset& data = paper_scale_data();
  const RandomForestClassifier forest =
      forest_with_threads(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_proba_all(data));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * data.n_rows()));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PredictAll_Compiled)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PredictAll_CompiledScalar(benchmark::State& state) {
  // The scalar block kernel, serial: isolates the quantize + branch-free
  // layout win from the AVX2 contribution (compare against _Compiled/1).
  const Dataset& data = paper_scale_data();
  const CompiledForest* compiled = paper_scale_forest().compiled();
  if (compiled == nullptr) {
    state.SkipWithError("model did not compile");
    return;
  }
  std::vector<double> out(data.n_rows());
  for (auto _ : state) {
    compiled->predict_batch(data.features_flat().data(), data.n_rows(),
                            out.data(), CompiledForest::Simd::kScalar);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * data.n_rows()));
  state.counters["threads"] = 1.0;
}
BENCHMARK(BM_PredictAll_CompiledScalar)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_PredictSingle_Exact(benchmark::State& state) {
  const RandomForestClassifier& forest = paper_scale_forest();
  const auto x = paper_scale_data().row(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_proba(x, ForestEngine::kExact));
  }
}
BENCHMARK(BM_PredictSingle_Exact)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_PredictSingle_Compiled(benchmark::State& state) {
  const RandomForestClassifier& forest = paper_scale_forest();
  const auto x = paper_scale_data().row(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        forest.predict_proba(x, ForestEngine::kCompiled));
  }
}
BENCHMARK(BM_PredictSingle_Compiled)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_CompiledBuild(benchmark::State& state) {
  // One-time lowering cost per fit/deserialize (the forest/quantize_ms
  // timer); must stay negligible next to training 500 trees.
  const FlatForest& flat = paper_scale_forest().flat();
  for (auto _ : state) {
    const CompiledForest compiled(flat);
    benchmark::DoNotOptimize(compiled.layout_digest());
  }
}
BENCHMARK(BM_CompiledBuild)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ShapBatch_Exact(benchmark::State& state) {
  const Dataset& data = paper_scale_data();
  const TreeShapExplainer explainer(paper_scale_forest());
  constexpr std::size_t kBatchRows = 16;
  std::vector<std::size_t> rows(kBatchRows);
  std::iota(rows.begin(), rows.end(), 0);
  const Dataset batch = data.subset(rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(explainer.shap_values_batch(batch, 1));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBatchRows));
}
BENCHMARK(BM_ShapBatch_Exact)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace drcshap

int main(int argc, char** argv) {
  return drcshap::run_benchmarks_with_report(argc, argv, "bench_compiled");
}
