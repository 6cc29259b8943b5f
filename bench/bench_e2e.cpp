// End-to-end experiment benchmark: the serial-vs-parallel wall clock of the
// paper's actual reproduction loops — suite build (Table I data
// acquisition), design-held-out grouped CV, grid search, SVM-RBF fit and
// the full chain (suite -> CV -> fit -> predict) — at 1/2/8 shared-pool
// workers. Every stage is bit-identical across thread counts (tested in
// test_parallel_experiments.cpp), so these numbers measure pure scheduling.
//
// Wall-clock scaling is capped by the host's hardware threads; on a
// one-core host the >1-thread legs only prove the parallel path adds no
// overhead. Set DRCSHAP_THREADS=8 when timing them so the 8-way legs
// really run 8 workers. The >1-thread suite legs also run
// build_suite_dataset's schedule probe (heaviest design claimed first).
// CI gates the median of 5 repetitions of the 1-thread legs (fully serial,
// so CPU time is stable across runners) via tools/check_bench.py against
// BENCH_e2e.json, which holds only those legs; its context records
// num_cpus, the git sha and the build type.

#include <benchmark/benchmark.h>

#include "baselines/svm_rbf.hpp"
#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "core/random_forest.hpp"
#include "ml/cross_validation.hpp"
#include "ml/grid_search.hpp"
#include "obs_report.hpp"
#include "util/log.hpp"

namespace drcshap {
namespace {

/// Four designs drawn from four different Table I groups, so the grouped CV
/// below has 4 folds; scale 16 keeps one full chain in the seconds range.
std::vector<BenchmarkSpec> e2e_specs() {
  return {suite_spec("fft_2"), suite_spec("fft_b"), suite_spec("des_perf_1"),
          suite_spec("fft_1")};
}

PipelineOptions e2e_pipeline_options() {
  PipelineOptions options;
  options.generator.scale = 16.0;
  return options;
}

const Dataset& e2e_dataset() {
  static const Dataset data =
      build_suite_dataset(e2e_specs(), e2e_pipeline_options());
  return data;
}

ModelFactory forest_factory(std::size_t n_threads) {
  return [n_threads] {
    RandomForestOptions o;
    o.n_trees = 60;
    o.n_threads = n_threads;
    return std::make_unique<RandomForestClassifier>(o);
  };
}

void BM_SuiteBuild(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  const auto specs = e2e_specs();
  const auto options = e2e_pipeline_options();
  for (auto _ : state) {
    const Dataset data =
        build_suite_dataset(specs, options, nullptr, n_threads);
    benchmark::DoNotOptimize(data.n_rows());
  }
}
BENCHMARK(BM_SuiteBuild)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

void BM_GroupedCv(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  const Dataset& data = e2e_dataset();
  const std::vector<int> groups{0, 1, 2, 3};
  for (auto _ : state) {
    // The inner forest cap follows the leg so the 1-thread leg is wholly
    // serial (stable CPU time for the CI gate); at >1 thread the nesting
    // policy serializes the inner fit on the fold workers anyway.
    const CrossValResult cv = grouped_cross_validate(
        forest_factory(n_threads), data, groups, n_threads);
    benchmark::DoNotOptimize(cv.mean_auprc);
  }
}
BENCHMARK(BM_GroupedCv)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

void BM_GridSearch(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  const Dataset& data = e2e_dataset();
  const std::vector<int> groups{0, 1, 2, 3};
  const ParamModelFactory factory = [n_threads](const ParamSet& p) {
    RandomForestOptions o;
    o.n_trees = 30;
    o.n_threads = n_threads;
    o.max_features = static_cast<int>(p.at("mtry"));
    o.min_samples_leaf = static_cast<std::size_t>(p.at("leaf"));
    return std::make_unique<RandomForestClassifier>(o);
  };
  const std::map<std::string, std::vector<double>> grid{
      {"mtry", {0.0, 40.0}}, {"leaf", {1.0, 4.0}}};
  for (auto _ : state) {
    const GridSearchResult result =
        grid_search(factory, data, groups, grid, n_threads);
    benchmark::DoNotOptimize(result.best_score);
  }
}
BENCHMARK(BM_GridSearch)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

void BM_SvmFit(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  const Dataset& data = e2e_dataset();
  SvmRbfOptions options;
  options.max_training_samples = 1200;
  options.n_threads = n_threads;
  for (auto _ : state) {
    SvmRbfClassifier svm(options);
    svm.fit(data);
    benchmark::DoNotOptimize(svm.n_support_vectors());
  }
}
BENCHMARK(BM_SvmFit)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

void BM_E2E(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  const auto specs = e2e_specs();
  const auto options = e2e_pipeline_options();
  const std::vector<int> groups{0, 1, 2, 3};
  for (auto _ : state) {
    const Dataset data =
        build_suite_dataset(specs, options, nullptr, n_threads);
    const CrossValResult cv = grouped_cross_validate(
        forest_factory(n_threads), data, groups, n_threads);
    auto model = forest_factory(n_threads)();
    model->fit(data);
    const std::vector<double> scores = model->predict_proba_all(data);
    benchmark::DoNotOptimize(cv.mean_auprc);
    benchmark::DoNotOptimize(scores.size());
  }
}
BENCHMARK(BM_E2E)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

}  // namespace
}  // namespace drcshap

int main(int argc, char** argv) {
  drcshap::set_log_level(drcshap::LogLevel::kWarn);
  return drcshap::run_benchmarks_with_report(argc, argv, "bench_e2e");
}
