// EDA-substrate benchmark: per-stage wall clock of the data-acquisition
// pipeline on one design — global route, g-cell aggregates, feature
// extraction, DRC oracle and the full generate->place->route->label
// pipeline — with the parallel stages at 1/2/8 shared-pool workers.
//
// Every stage is bit-identical across thread counts (the DRC oracle draws
// its per-cell RNG streams serially up front; features are slot-per-row
// writes), so the >1-thread legs measure pure scheduling. Routing is serial
// at every leg and is nearly all of BM_Pipeline, so the >1-thread pipeline
// legs barely move even on a multi-core host. CI gates the median of 5
// repetitions of the 1-thread legs (fully serial, so CPU time is stable
// across runners) via tools/check_bench.py against BENCH_substrate.json,
// which holds only those legs; its context records num_cpus, the git sha
// and the build type.

#include <benchmark/benchmark.h>

#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "obs_report.hpp"
#include "util/log.hpp"

namespace drcshap {
namespace {

/// One mid-size design (400 g-cells at scale 16) with enough congestion to
/// exercise the rip-up loop; shared by all stage legs.
const BenchmarkSpec& substrate_spec() {
  static const BenchmarkSpec spec = suite_spec("fft_b");
  return spec;
}

PipelineOptions substrate_options() {
  PipelineOptions options;
  options.generator.scale = 16.0;
  return options;
}

const Design& substrate_design() {
  static const Design design =
      place_spec(substrate_spec(), substrate_options());
  return design;
}

const CongestionMap& substrate_congestion() {
  static const CongestionMap congestion =
      global_route(substrate_design(), substrate_options().router).congestion;
  return congestion;
}

const std::vector<GCellAggregate>& substrate_aggregates() {
  static const std::vector<GCellAggregate> agg =
      compute_gcell_aggregates(substrate_design());
  return agg;
}

void BM_Route(benchmark::State& state) {
  const Design& design = substrate_design();
  const GlobalRouterOptions options = substrate_options().router;
  for (auto _ : state) {
    const GlobalRouteResult route = global_route(design, options);
    benchmark::DoNotOptimize(route.edge_overflow);
  }
}
BENCHMARK(BM_Route)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

void BM_Aggregates(benchmark::State& state) {
  const Design& design = substrate_design();
  for (auto _ : state) {
    const std::vector<GCellAggregate> agg = compute_gcell_aggregates(design);
    benchmark::DoNotOptimize(agg.size());
  }
}
BENCHMARK(BM_Aggregates)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

void BM_Features(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  const FeatureExtractor extractor(substrate_design(), substrate_congestion(),
                                   substrate_aggregates());
  for (auto _ : state) {
    const std::vector<float> matrix = extractor.extract_all(n_threads);
    benchmark::DoNotOptimize(matrix.data());
  }
}
BENCHMARK(BM_Features)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

void BM_Drc(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  const DrcOracleOptions options = substrate_options().drc;
  for (auto _ : state) {
    const DrcReport report =
        run_drc_oracle(substrate_design(), substrate_congestion(),
                       substrate_aggregates(), options, n_threads);
    benchmark::DoNotOptimize(report.n_hotspots);
  }
}
BENCHMARK(BM_Drc)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

void BM_Pipeline(benchmark::State& state) {
  const auto n_threads = static_cast<std::size_t>(state.range(0));
  PipelineOptions options = substrate_options();
  options.n_threads = n_threads;
  for (auto _ : state) {
    const DesignRun run = run_pipeline(substrate_spec(), options);
    benchmark::DoNotOptimize(run.samples.n_rows());
  }
}
BENCHMARK(BM_Pipeline)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(1);

}  // namespace
}  // namespace drcshap

int main(int argc, char** argv) {
  drcshap::set_log_level(drcshap::LogLevel::kWarn);
  return drcshap::run_benchmarks_with_report(argc, argv, "bench_substrate");
}
