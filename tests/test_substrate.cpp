// Bit-identity and correctness tests for the parallel EDA substrate: the
// feature matrices and DRC labels a pipeline run produces must be
// byte-identical at any thread count (the dataset contract every
// downstream experiment relies on), and the GridGraph's O(1) incremental
// overflow totals must agree with a brute-force rescan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "route/grid_graph.hpp"
#include "route/net_route.hpp"
#include "util/artifact.hpp"

namespace drcshap {
namespace {

// FNV-1a digests (util::fnv1a) make mismatches cheap to compare and easy
// to report.
std::uint64_t features_digest(const DesignRun& run) {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::size_t r = 0; r < run.samples.n_rows(); ++r) {
    const auto row = run.samples.row(r);
    const std::uint64_t row_digest =
        fnv1a(row.data(), row.size() * sizeof(float));
    h = fnv1a(&row_digest, sizeof(row_digest), h);
  }
  return h;
}

std::uint64_t labels_digest(const DesignRun& run) {
  std::vector<std::uint8_t> labels(run.samples.n_rows());
  for (std::size_t r = 0; r < labels.size(); ++r) {
    labels[r] = run.samples.label(r) ? 1 : 0;
  }
  return fnv1a(labels.data(), labels.size());
}

DesignRun run_design(const char* name, std::size_t n_threads) {
  PipelineOptions options;
  options.generator.scale = 16.0;
  options.n_threads = n_threads;
  return run_pipeline(suite_spec(name), options);
}

class SubstrateDigest : public ::testing::TestWithParam<const char*> {};

// The golden contract: one design, pipeline run serially and with the
// intra-design stages fanned out over (up to) 8 workers, must produce a
// byte-identical feature matrix and label vector. Exact float equality is
// deliberate — the parallel fill is slot-per-index with no reductions.
TEST_P(SubstrateDigest, SerialAndParallelRunsAreByteIdentical) {
  const DesignRun serial = run_design(GetParam(), 1);
  const DesignRun parallel = run_design(GetParam(), 8);

  EXPECT_EQ(features_digest(serial), features_digest(parallel));
  EXPECT_EQ(labels_digest(serial), labels_digest(parallel));

  ASSERT_EQ(serial.samples.n_rows(), parallel.samples.n_rows());
  for (std::size_t r = 0; r < serial.samples.n_rows(); ++r) {
    const auto a = serial.samples.row(r);
    const auto b = parallel.samples.row(r);
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << "feature row " << r << " differs";
    ASSERT_EQ(serial.samples.label(r), parallel.samples.label(r))
        << "label " << r << " differs";
  }
  EXPECT_EQ(serial.drc.n_hotspots, parallel.drc.n_hotspots);
}

INSTANTIATE_TEST_SUITE_P(Suite, SubstrateDigest,
                         ::testing::Values("fft_1", "fft_b", "des_perf_1"));

TEST(ParallelSubstrate, ExtractAllMatchesSerial) {
  PipelineOptions options;
  options.generator.scale = 16.0;
  const DesignRun run = run_design("fft_b", 1);
  const FeatureExtractor extractor(run.design, run.congestion,
                                   compute_gcell_aggregates(run.design));
  const std::vector<float> serial = extractor.extract_all(1);
  const std::vector<float> parallel = extractor.extract_all(8);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(0,
            std::memcmp(serial.data(), parallel.data(),
                        serial.size() * sizeof(float)));
}

// The thread-parallel oracle must reproduce the serial one exactly: same
// violations in the same order, same coverage and hotspot map.
TEST(ParallelSubstrate, OracleThreadCountsAgree) {
  const DesignRun run = run_design("des_perf_1", 1);
  const DrcOracleOptions options;
  const std::vector<GCellAggregate> agg = compute_gcell_aggregates(run.design);
  const DrcReport serial =
      run_drc_oracle(run.design, run.congestion, agg, options, 1);
  const DrcReport parallel =
      run_drc_oracle(run.design, run.congestion, agg, options, 8);

  EXPECT_EQ(serial.n_hotspots, parallel.n_hotspots);
  EXPECT_EQ(serial.hotspot, parallel.hotspot);
  EXPECT_EQ(serial.coverage, parallel.coverage);
  const std::vector<DrcViolation> sv = serial.violations();
  const std::vector<DrcViolation> pv = parallel.violations();
  ASSERT_EQ(sv.size(), pv.size());
  for (std::size_t i = 0; i < sv.size(); ++i) {
    const DrcViolation& a = sv[i];
    const DrcViolation& b = pv[i];
    EXPECT_EQ(a.type, b.type) << i;
    EXPECT_EQ(a.metal_layer, b.metal_layer) << i;
    EXPECT_DOUBLE_EQ(a.box.x_lo, b.box.x_lo) << i;
    EXPECT_DOUBLE_EQ(a.box.y_lo, b.box.y_lo) << i;
    EXPECT_DOUBLE_EQ(a.box.x_hi, b.box.x_hi) << i;
    EXPECT_DOUBLE_EQ(a.box.y_hi, b.box.y_hi) << i;
  }
}

// The incremental O(1) overflow totals must track a brute-force rescan
// through arbitrary load/unload sequences, including capacity-zero edges.
TEST(ParallelSubstrate, IncrementalOverflowTotalsMatchBruteForce) {
  const DesignRun run = run_design("fft_1", 1);
  GridGraph g(run.design);

  auto brute_edge = [&] {
    long total = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) total += g.edge_overflow(e);
    return total;
  };
  auto brute_via = [&] {
    long total = 0;
    for (int v = 0; v < g.num_via_layers(); ++v) {
      for (std::size_t cell = 0; cell < g.num_cells(); ++cell) {
        total += g.via_overflow(v, cell);
      }
    }
    return total;
  };

  EXPECT_EQ(g.total_edge_overflow(), 0);
  EXPECT_EQ(g.total_via_overflow(), 0);

  // Pile asymmetric load on a stride of edges and vias, check, then remove
  // half and check again.
  for (EdgeId e = 0; e < g.num_edges(); e += 3) {
    g.add_edge_load(e, (static_cast<int>(e % 7) + 1) * 16);
  }
  for (std::size_t cell = 0; cell < g.num_cells(); cell += 2) {
    g.add_via_load(static_cast<int>(cell % g.num_via_layers()), cell,
                   (static_cast<int>(cell % 5) + 1) * 16);
  }
  EXPECT_EQ(g.total_edge_overflow(), brute_edge());
  EXPECT_EQ(g.total_via_overflow(), brute_via());
  EXPECT_GT(g.total_edge_overflow() + g.total_via_overflow(), 0);

  for (EdgeId e = 0; e < g.num_edges(); e += 6) {
    g.add_edge_load(e, -(static_cast<int>(e % 7) + 1) * 16);
  }
  EXPECT_EQ(g.total_edge_overflow(), brute_edge());

  g.reset_loads();
  EXPECT_EQ(g.total_edge_overflow(), 0);
  EXPECT_EQ(g.total_via_overflow(), 0);
  EXPECT_EQ(brute_edge(), 0);
  EXPECT_EQ(brute_via(), 0);
}

}  // namespace
}  // namespace drcshap
