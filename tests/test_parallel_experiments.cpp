// Experiment-level parallelism: the shared global pool's nesting policy and
// the bit-identical guarantee of parallel build_suite_dataset /
// grouped_cross_validate / grid_search / SVM kernel rows versus their serial
// paths. The *.Nested* and ParallelExperiments.* tests run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "baselines/svm_rbf.hpp"
#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "core/random_forest.hpp"
#include "ml/cross_validation.hpp"
#include "ml/grid_search.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {
namespace {

// ---------------------------------------------------------------- SharedPool

TEST(SharedPool, GlobalIsOneInstanceWithAtLeastTwoWorkers) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 2u);
}

TEST(SharedPool, MaxWorkersCapsConcurrency) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> threads;
  pool.parallel_for(
      100,
      [&](std::size_t) {
        std::lock_guard lock(mutex);
        threads.insert(std::this_thread::get_id());
      },
      /*grain=*/1, /*max_workers=*/2);
  EXPECT_LE(threads.size(), 2u);
}

TEST(SharedPool, NestedParallelForDegradesToSerialOnTheOuterWorker) {
  ThreadPool pool(3);
  std::atomic<int> outer_done{0};
  std::atomic<bool> nested_ok{true};
  pool.parallel_for(
      6,
      [&](std::size_t) {
        const std::thread::id outer_thread = std::this_thread::get_id();
        EXPECT_TRUE(ThreadPool::in_parallel_region());
        // The inner range must run inline on this worker, in order.
        std::size_t expected = 0;
        pool.parallel_for(50, [&](std::size_t i) {
          if (std::this_thread::get_id() != outer_thread || i != expected) {
            nested_ok = false;
          }
          ++expected;
        });
        if (expected != 50) nested_ok = false;
        ++outer_done;
      },
      /*grain=*/1);
  EXPECT_EQ(outer_done.load(), 6);
  EXPECT_TRUE(nested_ok.load());
}

TEST(SharedPool, ParallelForSharedSerialCapRunsInlineInOrder) {
  std::vector<std::size_t> order;
  parallel_for_shared(
      20, [&](std::size_t i) { order.push_back(i); }, /*n_threads=*/1);
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(ThreadPool::current_worker_index(), -1);
}

TEST(SharedPool, ParallelForSharedCoversRangeOnce) {
  std::vector<std::atomic<int>> hits(500);
  parallel_for_shared(500, [&](std::size_t i) { ++hits[i]; }, /*n_threads=*/8,
                      /*grain=*/3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// ------------------------------------------------------- experiment helpers

/// x0 correlates with the label; 4 groups of 120 rows.
Dataset grouped_data(std::uint64_t seed = 4242) {
  Dataset d(3);
  Rng rng(seed);
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 120; ++i) {
      const int label = rng.bernoulli(0.25) ? 1 : 0;
      const float x0 = static_cast<float>(label * 2.0 + rng.normal(0.0, 0.8));
      const float x1 = static_cast<float>(rng.normal(0.0, 1.0));
      d.append_row(
          std::vector<float>{x0, x1, static_cast<float>(g)}, label, g);
    }
  }
  return d;
}

ModelFactory small_forest_factory() {
  return [] {
    RandomForestOptions o;
    o.n_trees = 20;
    o.max_depth = 6;
    return std::make_unique<RandomForestClassifier>(o);
  };
}

// ------------------------------------------------------ ParallelExperiments

TEST(ParallelExperiments, SuiteBuildBitIdenticalAcrossThreadCounts) {
  PipelineOptions options;
  options.generator.scale = 16.0;
  const std::vector<BenchmarkSpec> specs = {
      suite_spec("fft_1"), suite_spec("fft_2"), suite_spec("des_perf_1")};
  const Dataset serial = build_suite_dataset(specs, options, nullptr, 1);
  for (const std::size_t n_threads : {2u, 8u}) {
    std::vector<std::string> seen;
    const Dataset parallel = build_suite_dataset(
        specs, options,
        [&](const DesignRun& run) { seen.push_back(run.spec.name); },
        n_threads);
    EXPECT_EQ(parallel.features_flat(), serial.features_flat())
        << "n_threads=" << n_threads;
    EXPECT_EQ(parallel.labels(), serial.labels());
    EXPECT_EQ(parallel.groups(), serial.groups());
    // on_design fires on the calling thread, in spec order.
    EXPECT_EQ(seen, (std::vector<std::string>{"fft_1", "fft_2", "des_perf_1"}));
  }
}

TEST(ParallelExperiments, GroupedCvBitIdenticalAcrossThreadCounts) {
  const Dataset data = grouped_data();
  const std::vector<int> groups{0, 1, 2, 3};
  const auto serial =
      grouped_cross_validate(small_forest_factory(), data, groups, 1);
  ASSERT_EQ(serial.fold_auprc.size(), 4u);
  for (const std::size_t n_threads : {2u, 8u}) {
    const auto parallel =
        grouped_cross_validate(small_forest_factory(), data, groups, n_threads);
    ASSERT_EQ(parallel.fold_auprc.size(), serial.fold_auprc.size());
    for (std::size_t f = 0; f < serial.fold_auprc.size(); ++f) {
      EXPECT_EQ(parallel.fold_auprc[f], serial.fold_auprc[f])
          << "fold " << f << ", n_threads=" << n_threads;
    }
    EXPECT_EQ(parallel.mean_auprc, serial.mean_auprc);
  }
}

TEST(ParallelExperiments, GridSearchBitIdenticalAcrossThreadCounts) {
  const Dataset data = grouped_data();
  const std::vector<int> groups{0, 1, 2, 3};
  const ParamModelFactory factory = [](const ParamSet& p) {
    RandomForestOptions o;
    o.n_trees = 10;
    o.max_depth = static_cast<int>(p.at("depth"));
    o.min_samples_leaf = static_cast<std::size_t>(p.at("leaf"));
    return std::make_unique<RandomForestClassifier>(o);
  };
  const std::map<std::string, std::vector<double>> grid{
      {"depth", {3.0, 5.0}}, {"leaf", {1.0, 4.0}}};
  const auto serial = grid_search(factory, data, groups, grid, 1);
  ASSERT_EQ(serial.evaluations.size(), 4u);
  for (const std::size_t n_threads : {2u, 8u}) {
    const auto parallel = grid_search(factory, data, groups, grid, n_threads);
    EXPECT_EQ(parallel.best_params, serial.best_params);
    EXPECT_EQ(parallel.best_score, serial.best_score);
    ASSERT_EQ(parallel.evaluations.size(), serial.evaluations.size());
    for (std::size_t c = 0; c < serial.evaluations.size(); ++c) {
      EXPECT_EQ(parallel.evaluations[c].first, serial.evaluations[c].first);
      EXPECT_EQ(parallel.evaluations[c].second, serial.evaluations[c].second);
    }
  }
}

// Outer CV fold x inner forest fit/predict: the inner parallel_for calls
// must degrade to serial on their fold's worker (no oversubscription, no
// deadlock) and leave the scores bit-identical. This is the nested path the
// CI TSan job exercises.
TEST(ParallelExperiments, NestedCvOverForestFitMatchesSerial) {
  const Dataset data = grouped_data(7);
  const std::vector<int> groups{0, 1, 2, 3};
  const ModelFactory nested_factory = [] {
    RandomForestOptions o;
    o.n_trees = 16;
    o.max_depth = 5;
    o.n_threads = 0;  // would fan out, but degrades serial inside a fold
    return std::make_unique<RandomForestClassifier>(o);
  };
  const auto serial = grouped_cross_validate(nested_factory, data, groups, 1);
  const auto nested = grouped_cross_validate(nested_factory, data, groups, 8);
  ASSERT_EQ(nested.fold_auprc.size(), serial.fold_auprc.size());
  for (std::size_t f = 0; f < serial.fold_auprc.size(); ++f) {
    EXPECT_EQ(nested.fold_auprc[f], serial.fold_auprc[f]);
  }
}

TEST(ParallelExperiments, CvEmitsPerFoldTimersAndCounters) {
  obs::reset();
  const Dataset data = grouped_data();
  const std::vector<int> groups{0, 1, 2, 3};
  grouped_cross_validate(small_forest_factory(), data, groups, 2);
  const obs::Snapshot snap = obs::snapshot();
  ASSERT_TRUE(snap.timers.count("cv/fold"));
  EXPECT_EQ(snap.timers.at("cv/fold").count, 4u);
  ASSERT_TRUE(snap.counters.count("cv/folds"));
  EXPECT_EQ(snap.counters.at("cv/folds"), 4u);
  ASSERT_TRUE(snap.timers.count("cv/run"));
}

TEST(ParallelExperiments, GridSearchEmitsPerCandidateTimers) {
  obs::reset();
  const Dataset data = grouped_data();
  const std::vector<int> groups{0, 1, 2, 3};
  const ParamModelFactory factory = [](const ParamSet& p) {
    RandomForestOptions o;
    o.n_trees = 8;
    o.max_depth = static_cast<int>(p.at("depth"));
    return std::make_unique<RandomForestClassifier>(o);
  };
  grid_search(factory, data, groups, {{"depth", {3.0, 5.0}}}, 2);
  const obs::Snapshot snap = obs::snapshot();
  ASSERT_TRUE(snap.timers.count("grid/candidate"));
  EXPECT_EQ(snap.timers.at("grid/candidate").count, 2u);
  ASSERT_TRUE(snap.counters.count("grid/candidates"));
  EXPECT_EQ(snap.counters.at("grid/candidates"), 2u);
}

// ------------------------------------------------------------- SvmParallel

/// Two overlapping blobs, enough rows that SMO revisits kernel rows.
Dataset svm_data() {
  Dataset d(4);
  Rng rng(99);
  for (int i = 0; i < 240; ++i) {
    const int label = i % 3 == 0 ? 1 : 0;
    std::vector<float> row(4);
    for (std::size_t f = 0; f < 4; ++f) {
      row[f] = static_cast<float>(rng.normal(label * 1.2, 1.0));
    }
    d.append_row(row, label, 0);
  }
  return d;
}

TEST(SvmParallel, KernelRowsBitIdenticalAcrossThreadCountsAndCacheSizes) {
  const Dataset data = svm_data();
  SvmRbfOptions serial_options;
  serial_options.n_threads = 1;
  SvmRbfClassifier serial(serial_options);
  serial.fit(data);

  SvmRbfOptions parallel_options;
  parallel_options.n_threads = 8;
  SvmRbfOptions tiny_cache_options;
  tiny_cache_options.n_threads = 8;
  tiny_cache_options.kernel_cache_mb = 0;  // floor of 2 resident rows
  for (const SvmRbfOptions& options : {parallel_options, tiny_cache_options}) {
    SvmRbfClassifier svm(options);
    svm.fit(data);
    EXPECT_EQ(svm.n_support_vectors(), serial.n_support_vectors());
    EXPECT_EQ(svm.iterations_used(), serial.iterations_used());
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(svm.decision_value(data.row(i)),
                serial.decision_value(data.row(i)))
          << "row " << i << ", cache_mb=" << options.kernel_cache_mb;
    }
  }
}

TEST(SvmParallel, LruCacheHitsOnRevisitedRows) {
  obs::reset();
  SvmRbfClassifier svm;
  svm.fit(svm_data());
  ASSERT_GT(svm.iterations_used(), 0u);
  const obs::Snapshot snap = obs::snapshot();
  ASSERT_TRUE(snap.counters.count("svm/kernel_rows_computed"));
  const std::uint64_t computed = snap.counters.at("svm/kernel_rows_computed");
  const std::uint64_t hits = snap.counters.count("svm/kernel_row_hits")
                                 ? snap.counters.at("svm/kernel_row_hits")
                                 : 0;
  // Two rows are touched per SMO step; with a revisited working set the
  // cache must serve most touches without recomputation.
  EXPECT_GE(computed + hits, 2 * svm.iterations_used());
  EXPECT_GT(hits, 0u);
  EXPECT_LE(computed, 240u);  // never more than one compute per row
}

}  // namespace
}  // namespace drcshap
