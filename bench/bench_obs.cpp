// Cost of the observability primitives themselves: a counter bump or gauge
// set is one uncontended shard-mutex lock plus a map touch (~20-40 ns), a
// scoped timer adds two clock reads (~100-120 ns). These per-call costs,
// times the calls each stage makes, give the per-stage overhead table in
// EXPERIMENTS.md: well under 1 % of every millisecond-scale stage, but a
// few percent of a batch that is one cached SHAP row. The instrumented
// parallel_for case exercises the per-thread shard path under the same
// pool the SHAP batch engine uses. With -DDRCSHAP_OBS=OFF every primitive
// compiles to nothing and these benches measure an empty loop.

#include <benchmark/benchmark.h>

#include "obs_report.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {
namespace {

void BM_CounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    obs::counter_add("bench_obs/counter");
  }
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeSet(benchmark::State& state) {
  double v = 0.0;
  for (auto _ : state) {
    obs::gauge_set("bench_obs/gauge", v);
    v += 1.0;
  }
}
BENCHMARK(BM_GaugeSet);

void BM_ScopedTimer(benchmark::State& state) {
  for (auto _ : state) {
    DRCSHAP_OBS_TIMER("bench_obs/timer");
  }
}
BENCHMARK(BM_ScopedTimer);

void BM_SnapshotMerge(benchmark::State& state) {
  // Populate a handful of distinct names first so the merge has real work.
  for (int i = 0; i < 32; ++i) {
    obs::counter_add("bench_obs/name_" + std::to_string(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::snapshot());
  }
}
BENCHMARK(BM_SnapshotMerge);

void BM_InstrumentedParallelFor(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    pool.parallel_for(1024, [](std::size_t) {
      obs::counter_add("bench_obs/parallel_counter");
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_InstrumentedParallelFor)->Arg(1)->Arg(4);

}  // namespace
}  // namespace drcshap

int main(int argc, char** argv) {
  return drcshap::run_benchmarks_with_report(argc, argv, "bench_obs");
}
