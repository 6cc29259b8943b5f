#pragma once
// Shared plumbing of the perfbench workloads: the run configuration parsed
// from the command line, the result every workload returns, and the small
// statistics helpers the metrics are computed with.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "benchsuite/pipeline.hpp"
#include "core/random_forest.hpp"
#include "obs/json.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// The workload seed the pinned output digests were recorded with.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Config {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;   ///< measured time budget of the run
  bool trace = false;      ///< per-layer (traced) run instead of end-to-end
  std::string out_dir;     ///< where spans and the result record are written
};

/// The thread count of every part of the benchmark — the shared pool, the
/// suite's design workers, the serve batcher and the generator's
/// connections: the shared pool's size, which main() checks equals nproc.
std::size_t workers();

struct Metric {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics of an untraced run, each defined per workload in
/// README.md ("op" is the workload's headline operation, "side" its second
/// one). Tail latencies and throughputs are printed on the summary lines but
/// not gated: on a shared host they spread more than the bounds allow.
inline constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"side_p50_ms", "ms"},
};

/// The per-layer metrics of a traced run. Every workload prints all of
/// them; a layer the workload bypasses reads 0. Times and counts are per
/// operation of the workload (one suite build, one edit, one request at
/// the reference rate) unless README.md says otherwise.
inline constexpr Metric kPerLayer[] = {
    {"trace.op_p50_ms", "ms"},
    {"netlist.generate_ms", "ms"},
    {"place.place_ms", "ms"},
    {"route.global_route_ms", "ms"},
    {"route.ripup_ms", "ms"},
    {"route.pattern_ms", "ms"},
    {"route.maze_expansions", "count"},
    {"route.ripup_iterations", "count"},
    {"route.segments_rerouted", "count"},
    {"route.critical_design_ms", "ms"},
    {"route.edge_overflow", "count"},
    {"route.via_overflow", "count"},
    {"route.maze_reuse_ratio", "ratio"},
    {"route.pattern_reused", "count"},
    {"pipeline.critical_path_ms", "ms"},
    {"pipeline.worker_busy_ratio", "ratio"},
    {"pipeline.span_coverage", "ratio"},
    {"drc.aggregates_ms", "ms"},
    {"drc.oracle_ms", "ms"},
    {"drc.hotspots", "count"},
    {"eco.drc_rescore_ms", "ms"},
    {"features.extract_ms", "ms"},
    {"features.rows", "count"},
    {"eco.feature_rescore_ms", "ms"},
    {"forest.fit_ms", "ms"},
    {"forest.mean_leaves", "count"},
    {"forest.mean_depth", "count"},
    {"forest.predict_ms", "ms"},
    {"forest.rows_scored", "count"},
    {"shap.batch_ms", "ms"},
    {"shap.rows", "count"},
    {"shap.unique_rows", "count"},
    {"shap.tree_traversals", "count"},
    {"shap.ms_per_miss_row", "ms"},
    {"shap.cache_hit_ratio", "ratio"},
    {"eco.apply_ms", "ms"},
    {"eco.dirty_cells", "count"},
    {"eco.route_dirty_cells", "count"},
    {"eco.rows_rescored", "count"},
    {"eco.other_ms", "ms"},
    {"eco.undo_share", "ratio"},
    {"serve.batches", "count"},
    {"serve.mean_batch_rows", "count"},
    {"serve.max_queue_depth", "count"},
    {"serve.batch_score_ms", "ms"},
    {"serve.batch_explain_ms", "ms"},
    {"serve.generator_lag_p95_ms", "ms"},
    {"serve.explain_repeat_share", "ratio"},
    {"serve.max_rate_rps", "1/s"},
};

/// What a workload hands back to main(): the contract metrics by name
/// (kEndToEnd for an untraced run, kPerLayer for a traced one), the
/// workload's own figures under the names README.md gives them for the
/// human-readable summary, and the measured input properties recorded with
/// the provenance.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> summary;  // name, "v unit"
  drcshap::obs::JsonValue inputs = drcshap::obs::JsonValue::make_object();

  /// Records one failed operation (an output check that did not hold).
  void fail(const std::string& why);
  void note(const std::string& name, double value, const std::string& unit);
};

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Splits `values` (in measurement order) into `parts` consecutive runs of
/// near-equal length and returns the lowest of the runs' p-th percentiles.
/// The host is shared and a stall only ever slows a part down, so the
/// fastest part is the closest to the program's own speed.
double min_of_parts(const std::vector<double>& values, std::size_t parts,
                    double p);

/// Set-up is timed in bursts of kSetupBurst spread over the run — before,
/// during and after the measured work — and setup_s is the lowest median of
/// a burst. The host's speed drifts between a quiet and a contended level
/// over seconds, and a burst in a contended stretch only ever reads high.
inline constexpr std::size_t kSetupBurst = 3;
/// setup_s of a run from its set-up times in order, `burst` to a burst.
double setup_of(const std::vector<double>& seconds, std::size_t burst);

/// splitmix64 of (seed, stream): independent, reproducible sub-seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Per-layer figures every workload reads off an obs delta: route, DRC and
/// feature rescoring, fit, predict, TreeSHAP and the explanation cache.
/// Times and counts are divided by `ops`; ratios are not.
void add_obs_layers(const trace::ObsDelta& delta, double ops,
                    std::size_t n_trees, std::map<std::string, double>& layers);

/// forest.mean_leaves / forest.mean_depth of a fitted forest.
void add_forest_shape(const drcshap::RandomForestClassifier& forest,
                      std::map<std::string, double>& layers);

/// Generator scale of the suite designs (9202 g-cell rows in all).
inline constexpr double kSuiteScale = 16.0;

/// Pipeline options of the suite designs. The workload seed derives the DRC
/// oracle's seed (the default seed keeps the library default), so labels
/// vary with the seed while the Table I netlists, and with them the routing
/// work, stay fixed.
drcshap::PipelineOptions suite_options(std::uint64_t seed);
/// The paper's 500-tree forest.
drcshap::RandomForestOptions forest_options();

RunResult run_suite_build(const Config& config);
RunResult run_eco_edit(const Config& config);
RunResult run_serve_mix(const Config& config);

}  // namespace perfbench

