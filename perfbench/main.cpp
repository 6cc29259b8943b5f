// perfbench: the repository's benchmark. One binary runs one workload per
// invocation and prints, as the last line of stdout, a JSON object with
// the run's correctness verdict, operation counts and metrics:
//
//   perfbench --workload suite_build|eco_edit|serve_mix --seed N
//             --seconds S --trace 0|1 --out DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with spans and obs deltas recorded and prints the per-layer metrics. The
// metric definitions, the reason for each workload and how to run it all
// live in perfbench/README.md; run.py builds this binary and calls it.

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/compiled_forest.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

void RunResult::fail(const std::string& why) {
  correct = false;
  ++failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void RunResult::note(const std::string& name, double value,
                     const std::string& unit) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.6g %s", value, unit.c_str());
  summary.emplace_back(name, text);
}

void add_obs_layers(const trace::ObsDelta& delta, double ops,
                    std::size_t n_trees, std::map<std::string, double>& layers) {
  const auto per_op = [&](double value) { return ops > 0.0 ? value / ops : 0.0; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  layers["route.global_route_ms"] = per_op(delta.timer_ms("route/global_route"));
  layers["route.ripup_ms"] = per_op(delta.timer_ms("route/ripup_reroute"));
  layers["route.pattern_ms"] = per_op(delta.timer_ms("route/pattern_route"));
  layers["route.maze_expansions"] =
      per_op(static_cast<double>(delta.counter("route/maze_expansions")));
  layers["route.ripup_iterations"] =
      per_op(static_cast<double>(delta.counter("route/ripup_iterations")));
  layers["route.segments_rerouted"] =
      per_op(static_cast<double>(delta.counter("route/segments_rerouted")));
  layers["route.pattern_reused"] =
      per_op(static_cast<double>(delta.counter("route/eco_pattern_reused")));
  const double maze_reused =
      static_cast<double>(delta.counter("route/eco_maze_reused"));
  layers["route.maze_reuse_ratio"] = ratio(
      maze_reused,
      maze_reused +
          static_cast<double>(delta.counter("route/eco_maze_recomputed")));
  layers["drc.oracle_ms"] = per_op(delta.timer_ms("drc/oracle"));
  layers["eco.drc_rescore_ms"] = per_op(delta.timer_ms("eco/drc_rescore"));
  layers["features.extract_ms"] = per_op(delta.timer_ms("features/extract"));
  layers["features.rows"] =
      per_op(static_cast<double>(delta.counter("features/rows")));
  layers["eco.feature_rescore_ms"] =
      per_op(delta.timer_ms("eco/feature_rescore"));
  layers["forest.fit_ms"] = per_op(delta.timer_ms("forest/fit"));
  layers["forest.predict_ms"] = per_op(delta.timer_ms("forest/predict_all"));
  layers["forest.rows_scored"] =
      per_op(static_cast<double>(delta.counter("forest/rows_scored")));
  const double shap_ms = delta.timer_ms("shap/values_batch");
  const double traversals =
      static_cast<double>(delta.counter("shap/tree_traversals"));
  layers["shap.batch_ms"] = per_op(shap_ms);
  layers["shap.rows"] =
      per_op(static_cast<double>(delta.counter("shap/batch_samples")));
  layers["shap.unique_rows"] =
      per_op(static_cast<double>(delta.counter("shap/batch_unique_rows")));
  layers["shap.tree_traversals"] = per_op(traversals);
  // Rows actually walked = traversals / trees (unique rows the cache missed).
  layers["shap.ms_per_miss_row"] =
      ratio(shap_ms, traversals / static_cast<double>(n_trees));
  const double hits = static_cast<double>(delta.counter("shap/cache_hits"));
  layers["shap.cache_hit_ratio"] = ratio(
      hits, hits + static_cast<double>(delta.counter("shap/cache_misses")));
  layers["eco.apply_ms"] = per_op(delta.timer_ms("eco/apply"));
  layers["eco.dirty_cells"] =
      per_op(static_cast<double>(delta.counter("eco/dirty_cells")));
}

void add_forest_shape(const drcshap::RandomForestClassifier& forest,
                      std::map<std::string, double>& layers) {
  double leaves = 0.0;
  double depth = 0.0;
  for (const drcshap::DecisionTree& tree : forest.trees()) {
    leaves += static_cast<double>(tree.n_leaves());
    depth += tree.depth();
  }
  const double n = static_cast<double>(forest.trees().size());
  layers["forest.mean_leaves"] = n > 0.0 ? leaves / n : 0.0;
  layers["forest.mean_depth"] = n > 0.0 ? depth / n : 0.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(values.size() - 1)));
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double min_of_parts(const std::vector<double>& values, std::size_t parts,
                    double p) {
  parts = std::min(parts, values.size());
  double lowest = 0.0;
  for (std::size_t i = 0; i < parts; ++i) {
    const auto begin = values.begin() + static_cast<std::ptrdiff_t>(
                                            i * values.size() / parts);
    const auto end = values.begin() + static_cast<std::ptrdiff_t>(
                                          (i + 1) * values.size() / parts);
    const double part = percentile(std::vector<double>(begin, end), p);
    lowest = i == 0 ? part : std::min(lowest, part);
  }
  return lowest;
}

double setup_of(const std::vector<double>& seconds, std::size_t burst) {
  return min_of_parts(seconds, seconds.size() / burst, 50.0);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return drcshap::splitmix64_next(state);
}

std::size_t workers() { return drcshap::ThreadPool::global().size(); }

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload suite_build|eco_edit|serve_mix "
               "--seed N --seconds S --trace 0|1 --out DIR\n");
  return 2;
}

/// CPUs this process may run on.
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

drcshap::obs::JsonValue provenance(const Config& config) {
  drcshap::obs::RunReportOptions options;
  options.tool = "perfbench/" + config.workload;
  options.seed = config.seed;
  options.n_threads = workers();
  drcshap::obs::JsonValue doc = drcshap::obs::provenance_json(options);
  // The library's own git_sha is read when its build is configured, which a
  // reused build directory does not repeat; run.py reads it on every run.
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  doc["git_sha"] = sha != nullptr ? sha : "unknown";
  doc["nproc"] = static_cast<std::uint64_t>(nproc());
  doc["pool_threads"] = static_cast<std::uint64_t>(workers());
  doc["simd_compiled"] = drcshap::CompiledForest::simd_compiled();
  doc["simd_available"] = drcshap::CompiledForest::simd_available();
  doc["seconds"] = config.seconds;
  doc["trace"] = config.trace;
  const char* source = std::getenv("PERFBENCH_SOURCE_DIGEST");
  doc["source_digest"] = source != nullptr ? source : "unknown";
  return doc;
}

/// The contract line: every metric of the run's kind, by name and unit.
/// A missing end-to-end metric is a benchmark bug; a per-layer metric the
/// workload did not fill is a bypassed layer and reads 0.
template <std::size_t N>
std::string result_json(const RunResult& result, const Metric (&table)[N],
                        bool missing_is_zero) {
  drcshap::obs::JsonValue metrics = drcshap::obs::JsonValue::make_object();
  for (const Metric& metric : table) {
    const auto it = result.metrics.find(metric.name);
    if (it == result.metrics.end() && !missing_is_zero) {
      throw std::logic_error(std::string("metric not measured: ") +
                             metric.name);
    }
    drcshap::obs::JsonValue entry = drcshap::obs::JsonValue::make_object();
    entry["value"] = it == result.metrics.end() ? 0.0 : it->second;
    entry["unit"] = metric.unit;
    metrics[metric.name] = std::move(entry);
  }
  drcshap::obs::JsonValue doc = drcshap::obs::JsonValue::make_object();
  doc["correct"] = result.correct;
  doc["attempted"] = result.attempted;
  doc["failed"] = result.failed;
  doc["metrics"] = std::move(metrics);
  return doc.dump(0);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--out") {
      config.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || config.workload.empty() || !have_trace ||
      !(config.seconds > 0.0) || config.out_dir.empty()) {
    return usage();
  }

  drcshap::set_log_level(drcshap::LogLevel::kWarn);
  try {
    drcshap::obs::JsonValue prov = provenance(config);
    const std::string build_type = prov.at("build_type").as_string();
    if (build_type.empty() || build_type == "Debug" || build_type == "debug") {
      std::fprintf(stderr,
                   "perfbench: refusing to measure a '%s' build of the "
                   "library; configure with an optimized build type\n",
                   build_type.c_str());
      return 2;
    }
    if (workers() != nproc()) {
      std::fprintf(stderr,
                   "perfbench: shared pool has %zu threads, nproc is %zu "
                   "(set DRCSHAP_THREADS)\n",
                   workers(), nproc());
      return 2;
    }
    ::mkdir(config.out_dir.c_str(), 0755);

    trace::set_enabled(config.trace);
    RunResult result;
    if (config.workload == "suite_build") {
      result = run_suite_build(config);
    } else if (config.workload == "eco_edit") {
      result = run_eco_edit(config);
    } else if (config.workload == "serve_mix") {
      result = run_serve_mix(config);
    } else {
      return usage();
    }

    const std::string stem = config.out_dir + "/" + config.workload + "-seed" +
                             std::to_string(config.seed) + "-trace" +
                             (config.trace ? "1" : "0");
    drcshap::obs::JsonValue record = drcshap::obs::JsonValue::make_object();
    if (config.trace) {
      // Per span name over the whole run: count, total, self and max ms.
      const std::vector<trace::SpanRecord> spans = trace::spans();
      trace::write_spans(stem + ".spans.json", spans);
      drcshap::obs::JsonValue layers = drcshap::obs::JsonValue::make_object();
      for (const auto& [name, time] : trace::layer_times(spans)) {
        drcshap::obs::JsonValue entry = drcshap::obs::JsonValue::make_object();
        entry["count"] = time.count;
        entry["total_ms"] = time.total_ms;
        entry["self_ms"] = time.self_ms;
        entry["max_ms"] = time.max_ms;
        layers[name] = std::move(entry);
      }
      record["span_layers"] = std::move(layers);
    }
    record["provenance"] = prov;
    record["inputs"] = result.inputs;
    drcshap::obs::JsonValue summary = drcshap::obs::JsonValue::make_object();
    for (const auto& [name, text] : result.summary) summary[name] = text;
    record["summary"] = std::move(summary);
    const std::string line =
        config.trace ? result_json(result, kPerLayer, true)
                     : result_json(result, kEndToEnd, false);
    record["result"] = drcshap::obs::JsonValue::parse(line);
    drcshap::throw_if_error(
        drcshap::write_file_atomic(stem + ".json", record.dump(2) + "\n"));

    std::printf("provenance %s\n", prov.dump(0).c_str());
    std::printf("inputs %s\n", result.inputs.dump(0).c_str());
    for (const auto& [name, text] : result.summary) {
      std::printf("%-12s %-26s %s\n", config.workload.c_str(), name.c_str(),
                  text.c_str());
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
