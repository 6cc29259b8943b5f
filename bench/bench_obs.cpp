// Cost of the observability primitives themselves: a counter bump or gauge
// set is one uncontended shard-mutex lock plus a map touch (~20-40 ns), and
// a scoped timer adds two clock reads (BM_NowNs) to that. These per-call
// costs, times the calls each stage makes, give the per-stage overhead
// table in EXPERIMENTS.md. The timer's name is longer than libstdc++'s
// 15-character small-string buffer, like most library timer sites, so the
// bench shows that a scope allocates nothing for its name. The
// instrumented parallel_for case exercises the per-thread shard path under
// the same pool the SHAP batch engine uses.

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

// The floor under every timer: one steady_clock read. A scope makes two.
void BM_NowNs(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::now_ns());
  }
}
BENCHMARK(BM_NowNs);

void BM_ScopedTimer(benchmark::State& state) {
  for (auto _ : state) {
    DRCSHAP_OBS_TIMER("bench_obs/scoped_timer");
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
