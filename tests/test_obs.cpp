#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "core/explanation_cache.hpp"
#include "core/random_forest.hpp"
#include "core/tree_shap.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/run_report.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {
namespace {

// Every test starts from an empty registry; the compile-time switch decides
// whether anything is recorded at all (both configurations run in CI).
class Obs : public ::testing::Test {
 protected:
  void SetUp() override { obs::reset(); }
};

// ------------------------------------------------------------------ counters

TEST_F(Obs, CounterSumsAcrossConcurrentWorkers) {
  ThreadPool pool(4);
  pool.parallel_for(10000, [](std::size_t) {
    obs::counter_add("obs_test/hits");
  });
  const obs::Snapshot snap = obs::snapshot();
  if (!obs::kEnabled) {
    EXPECT_TRUE(snap.counters.empty());
    return;
  }
  ASSERT_TRUE(snap.counters.contains("obs_test/hits"));
  EXPECT_EQ(snap.counters.at("obs_test/hits"), 10000u);
}

TEST_F(Obs, CounterDeltaAccumulates) {
  obs::counter_add("obs_test/delta", 5);
  obs::counter_add("obs_test/delta", 7);
  const obs::Snapshot snap = obs::snapshot();
  if (!obs::kEnabled) return;
  EXPECT_EQ(snap.counters.at("obs_test/delta"), 12u);
}

TEST_F(Obs, MergeIsDeterministicAcrossRuns) {
  // The merged snapshot is a pure function of the recorded operations —
  // shard layout and thread scheduling must not leak into it. Run the same
  // concurrent workload twice on fresh pools and compare.
  auto run_once = [] {
    obs::reset();
    ThreadPool pool(4);
    pool.parallel_for(4096, [](std::size_t i) {
      obs::counter_add("obs_test/a");
      if (i % 2 == 0) obs::counter_add("obs_test/b", 3);
      obs::timer_record("obs_test/t", 1000);
    });
    return obs::snapshot();
  };
  const obs::Snapshot first = run_once();
  const obs::Snapshot second = run_once();
  EXPECT_EQ(first.counters, second.counters);
  ASSERT_EQ(first.timers.size(), second.timers.size());
  for (const auto& [name, stat] : first.timers) {
    ASSERT_TRUE(second.timers.contains(name));
    EXPECT_EQ(stat.count, second.timers.at(name).count);
    EXPECT_EQ(stat.total_ns, second.timers.at(name).total_ns);
  }
  if (obs::kEnabled) {
    EXPECT_EQ(first.counters.at("obs_test/a"), 4096u);
    EXPECT_EQ(first.counters.at("obs_test/b"), 3u * 2048u);
    EXPECT_EQ(first.timers.at("obs_test/t").count, 4096u);
    EXPECT_EQ(first.timers.at("obs_test/t").total_ns, 4096u * 1000u);
  }
}

TEST_F(Obs, ExitedThreadDataSurvivesInSnapshot) {
  std::thread worker([] { obs::counter_add("obs_test/from_thread", 42); });
  worker.join();
  const obs::Snapshot snap = obs::snapshot();
  if (!obs::kEnabled) return;
  EXPECT_EQ(snap.counters.at("obs_test/from_thread"), 42u);
}

// -------------------------------------------------------------------- timers

TEST_F(Obs, ScopedTimerRecordsEachScope) {
  for (int i = 0; i < 3; ++i) {
    DRCSHAP_OBS_TIMER("obs_test/scoped");
  }
  const obs::Snapshot snap = obs::snapshot();
  if (!obs::kEnabled) {
    EXPECT_TRUE(snap.timers.empty());
    return;
  }
  const obs::TimerStat& stat = snap.timers.at("obs_test/scoped");
  EXPECT_EQ(stat.count, 3u);
  EXPECT_GE(stat.total_ns, stat.max_ns);
}

TEST_F(Obs, TimerStatDerivedUnits) {
  obs::TimerStat stat;
  stat.count = 4;
  stat.total_ns = 8'000'000;
  stat.max_ns = 5'000'000;
  EXPECT_DOUBLE_EQ(stat.total_ms(), 8.0);
  EXPECT_DOUBLE_EQ(stat.mean_ms(), 2.0);
  EXPECT_DOUBLE_EQ(obs::TimerStat{}.mean_ms(), 0.0);
}

TEST_F(Obs, ConcurrentTimersKeepMaxOfAnyScope) {
  ThreadPool pool(3);
  pool.parallel_for(64, [](std::size_t i) {
    obs::timer_record("obs_test/max", (i + 1) * 10);
  });
  if (!obs::kEnabled) return;
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.timers.at("obs_test/max").max_ns, 640u);
}

// -------------------------------------------------------------------- gauges

TEST_F(Obs, GaugeLastWriteWins) {
  obs::gauge_set("obs_test/g", 1.5);
  obs::gauge_set("obs_test/g", 2.5);
  const obs::Snapshot snap = obs::snapshot();
  if (!obs::kEnabled) return;
  EXPECT_DOUBLE_EQ(snap.gauges.at("obs_test/g"), 2.5);
}

TEST_F(Obs, GaugeLastWriteWinsAcrossThreads) {
  // Sequenced writes from different threads: the later one must win even
  // though it lives in a different shard.
  obs::gauge_set("obs_test/xg", 1.0);
  std::thread worker([] { obs::gauge_set("obs_test/xg", 9.0); });
  worker.join();
  if (!obs::kEnabled) return;
  EXPECT_DOUBLE_EQ(obs::snapshot().gauges.at("obs_test/xg"), 9.0);
}

// --------------------------------------------------------------------- notes

TEST_F(Obs, NoteLastWriteWins) {
  obs::note_set("obs_test/n", "first");
  obs::note_set("obs_test/n", "second");
  const obs::Snapshot snap = obs::snapshot();
  if (!obs::kEnabled) {
    EXPECT_TRUE(snap.notes.empty());
    return;
  }
  EXPECT_EQ(snap.notes.at("obs_test/n"), "second");
}

TEST_F(Obs, NoteLastWriteWinsAcrossThreads) {
  obs::note_set("obs_test/xn", "main");
  std::thread worker([] { obs::note_set("obs_test/xn", "worker"); });
  worker.join();
  if (!obs::kEnabled) return;
  EXPECT_EQ(obs::snapshot().notes.at("obs_test/xn"), "worker");
}

// --------------------------------------------------------------------- reset

TEST_F(Obs, ResetClearsEverything) {
  obs::counter_add("obs_test/c");
  obs::gauge_set("obs_test/g", 1.0);
  obs::timer_record("obs_test/t", 10);
  obs::note_set("obs_test/n", "v");
  obs::reset();
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.timers.empty());
  EXPECT_TRUE(snap.notes.empty());
}

// ------------------------------------------------------- compile-time switch

TEST_F(Obs, DisabledBuildRecordsNothing) {
  // With -DDRCSHAP_OBS=OFF every primitive is an inline no-op; with ON this
  // is the positive control. Either way the API stays callable.
  obs::counter_add("obs_test/switch");
  obs::gauge_set("obs_test/switch_g", 1.0);
  {
    DRCSHAP_OBS_TIMER("obs_test/switch_t");
  }
  const obs::Snapshot snap = obs::snapshot();
  if (obs::kEnabled) {
    EXPECT_EQ(snap.counters.at("obs_test/switch"), 1u);
    EXPECT_EQ(snap.timers.at("obs_test/switch_t").count, 1u);
  } else {
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.gauges.empty());
    EXPECT_TRUE(snap.timers.empty());
  }
}

// ---------------------------------------------------------------------- json

TEST(ObsJson, ParsesScalarsAndNesting) {
  const obs::JsonValue v = obs::JsonValue::parse(
      R"({"a": 1.5, "b": [true, null, "x\n\"y\""], "c": {"d": -2e3}})");
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
  const auto& b = v.at("b").as_array();
  ASSERT_EQ(b.size(), 3u);
  EXPECT_TRUE(b[0].as_bool());
  EXPECT_TRUE(b[1].is_null());
  EXPECT_EQ(b[2].as_string(), "x\n\"y\"");
  EXPECT_DOUBLE_EQ(v.at("c").at("d").as_number(), -2000.0);
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW(obs::JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(obs::JsonValue::parse("{\"a\": 1} junk"), std::runtime_error);
  EXPECT_THROW(obs::JsonValue::parse("nope"), std::runtime_error);
  EXPECT_THROW(obs::JsonValue::parse("\"unterminated"), std::runtime_error);
}

TEST(ObsJson, DumpParseRoundTrip) {
  obs::JsonValue doc = obs::JsonValue::make_object();
  doc["name"] = "run \"1\"\n";
  doc["count"] = std::uint64_t{12345};
  doc["ratio"] = 0.23;
  doc["flag"] = true;
  obs::JsonValue list = obs::JsonValue::make_array();
  list.push_back(1);
  list.push_back("two");
  doc["list"] = std::move(list);

  for (const int indent : {0, 2}) {
    const obs::JsonValue back = obs::JsonValue::parse(doc.dump(indent));
    EXPECT_EQ(back.at("name").as_string(), "run \"1\"\n");
    EXPECT_DOUBLE_EQ(back.at("count").as_number(), 12345.0);
    EXPECT_DOUBLE_EQ(back.at("ratio").as_number(), 0.23);
    EXPECT_TRUE(back.at("flag").as_bool());
    ASSERT_EQ(back.at("list").as_array().size(), 2u);
    EXPECT_EQ(back.at("list").as_array()[1].as_string(), "two");
  }
}

TEST(ObsJson, MissingKeyThrows) {
  const obs::JsonValue v = obs::JsonValue::parse(R"({"a": 1})");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("b"));
  EXPECT_THROW(v.at("b"), std::out_of_range);
}

// ---------------------------------------------------------------- run report

TEST_F(Obs, RunReportRoundTripsThroughJson) {
  obs::counter_add("obs_test/report_counter", 7);
  obs::gauge_set("obs_test/report_gauge", 0.5);
  obs::timer_record("obs_test/report_timer", 2'000'000);
  obs::note_set("obs_test/report_note", "quarantined: boom");

  obs::RunReportOptions options;
  options.tool = "test_obs";
  options.seed = 1234;
  options.n_threads = 4;
  options.extra["scenario"] = "round-trip";

  const obs::JsonValue report =
      obs::JsonValue::parse(obs::build_run_report(options).dump(2));

  EXPECT_EQ(report.at("tool").as_string(), "test_obs");
  const obs::JsonValue& prov = report.at("provenance");
  for (const char* key : {"git_sha", "compiler", "build_type", "cxx_flags",
                          "timestamp_utc", "hardware_threads"}) {
    EXPECT_TRUE(prov.contains(key)) << key;
  }
  EXPECT_EQ(prov.at("obs_enabled").as_bool(), obs::kEnabled);
  EXPECT_DOUBLE_EQ(prov.at("seed").as_number(), 1234.0);
  EXPECT_DOUBLE_EQ(prov.at("n_threads").as_number(), 4.0);
  EXPECT_EQ(prov.at("scenario").as_string(), "round-trip");

  if (obs::kEnabled) {
    EXPECT_DOUBLE_EQ(
        report.at("counters").at("obs_test/report_counter").as_number(), 7.0);
    EXPECT_DOUBLE_EQ(
        report.at("gauges").at("obs_test/report_gauge").as_number(), 0.5);
    const obs::JsonValue& timer =
        report.at("timers").at("obs_test/report_timer");
    EXPECT_DOUBLE_EQ(timer.at("count").as_number(), 1.0);
    EXPECT_DOUBLE_EQ(timer.at("total_ms").as_number(), 2.0);
    EXPECT_EQ(report.at("notes").at("obs_test/report_note").as_string(),
              "quarantined: boom");
  } else {
    EXPECT_TRUE(report.at("counters").as_object().empty());
    EXPECT_TRUE(report.at("timers").as_object().empty());
    EXPECT_TRUE(report.at("notes").as_object().empty());
  }
}

TEST_F(Obs, RunReportWritesParsableFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "drcshap_runreport_test.json")
          .string();
  obs::counter_add("obs_test/file_counter");
  obs::RunReportOptions options;
  options.tool = "test_obs_file";
  obs::write_run_report(path, options);

  const obs::JsonValue report = obs::JsonValue::parse_file(path);
  EXPECT_EQ(report.at("tool").as_string(), "test_obs_file");
  EXPECT_DOUBLE_EQ(report.at("schema_version").as_number(), 1.0);
  std::remove(path.c_str());
}

TEST_F(Obs, InstrumentedStagesAppearInSnapshot) {
  // End-to-end: the library's own instrumentation points must populate the
  // registry when their code paths run (here: fit + predict + batched SHAP
  // through the public API; the route/features stages are covered by the
  // pipeline-driven integration tests and bench binaries).
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  // Dataset/forest kept tiny: this checks presence, not performance.
  Dataset data(4);
  std::vector<float> row(4);
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform());
    data.append_row(row, row[0] > 0.5f ? 1 : 0, 0);
  }
  RandomForestOptions fopts;
  fopts.n_trees = 5;
  fopts.n_threads = 2;
  RandomForestClassifier forest(fopts);
  forest.fit(data);
  (void)forest.predict_proba_all(data);
  const TreeShapExplainer explainer(forest);
  (void)explainer.shap_values_batch(data, 2);

  const obs::Snapshot snap = obs::snapshot();
  EXPECT_TRUE(snap.timers.contains("forest/fit"));
  EXPECT_TRUE(snap.timers.contains("forest/predict_all"));
  EXPECT_TRUE(snap.timers.contains("shap/values_batch"));
  EXPECT_EQ(snap.counters.at("forest/rows_scored"), 64u);
  EXPECT_EQ(snap.counters.at("shap/batch_samples"), 64u);
  // The batch engine dedupes rows whose explanation keys coincide (rows
  // whose u16 threshold-bucket codes are equal), so traversals count
  // unique rows — never more than rows * trees.
  ASSERT_TRUE(snap.counters.contains("shap/batch_unique_rows"));
  const std::uint64_t unique_rows =
      snap.counters.at("shap/batch_unique_rows");
  EXPECT_GE(unique_rows, 1u);
  EXPECT_LE(unique_rows, 64u);
  EXPECT_EQ(snap.counters.at("shap/tree_traversals"), unique_rows * 5u);
}

TEST_F(Obs, ShapWalkNoteAndCacheCountersSurface) {
  // The fast-path instrumentation: which walk ran (avx2 where the CPU runs
  // it, else scalar) is a note, and an attached explanation cache reports
  // its hit/miss traffic as counters.
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  Dataset data(4);
  std::vector<float> row(4);
  Rng rng(5);
  for (int i = 0; i < 32; ++i) {
    for (auto& v : row) v = static_cast<float>(rng.uniform());
    data.append_row(row, row[0] > 0.5f ? 1 : 0, 0);
  }
  RandomForestOptions fopts;
  fopts.n_trees = 4;
  fopts.n_threads = 1;
  RandomForestClassifier forest(fopts);
  forest.fit(data);

  TreeShapExplainer explainer(forest);
  explainer.set_cache(std::make_shared<ExplanationCache>());
  (void)explainer.shap_values_batch(data, 1);  // cold: all misses
  (void)explainer.shap_values_batch(data, 1);  // warm: all hits

  const obs::Snapshot snap = obs::snapshot();
  ASSERT_TRUE(snap.notes.contains("shap/walk"));
  EXPECT_EQ(snap.notes.at("shap/walk"),
            CompiledForest::simd_available() ? "avx2" : "scalar");
  ASSERT_TRUE(snap.counters.contains("shap/cache_misses"));
  ASSERT_TRUE(snap.counters.contains("shap/cache_hits"));
  EXPECT_GT(snap.counters.at("shap/cache_misses"), 0u);
  EXPECT_GT(snap.counters.at("shap/cache_hits"), 0u);
}

TEST_F(Obs, SubstrateCountersAppearInRunReport) {
  // The EDA-substrate instrumentation points — maze expansions, rip-up
  // iterations, DRC cells scored — must populate both the snapshot and a
  // written run report when a pipeline actually runs. fft_b at scale 16 is
  // congested enough that the rip-up loop always iterates.
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  PipelineOptions options;
  options.generator.scale = 16.0;
  const DesignRun run = run_pipeline(suite_spec("fft_b"), options);

  const obs::Snapshot snap = obs::snapshot();
  ASSERT_TRUE(snap.counters.contains("route/maze_expansions"));
  EXPECT_GT(snap.counters.at("route/maze_expansions"), 0u);
  ASSERT_TRUE(snap.counters.contains("route/ripup_iterations"));
  EXPECT_GT(snap.counters.at("route/ripup_iterations"), 0u);
  ASSERT_TRUE(snap.counters.contains("drc/cells_scored"));
  EXPECT_EQ(snap.counters.at("drc/cells_scored"),
            run.design.grid().size());

  const std::string path =
      (std::filesystem::temp_directory_path() / "drcshap_substrate_obs.json")
          .string();
  obs::RunReportOptions report_options;
  report_options.tool = "test_obs_substrate";
  obs::write_run_report(path, report_options);
  const obs::JsonValue report = obs::JsonValue::parse_file(path);
  for (const char* key : {"route/maze_expansions", "route/ripup_iterations",
                          "drc/cells_scored"}) {
    EXPECT_TRUE(report.at("counters").contains(key)) << key;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace drcshap
