// Bit-identity and correctness tests for the parallel EDA substrate: the
// feature matrices and DRC labels a pipeline run produces must be
// byte-identical at any thread count (the dataset contract every
// downstream experiment relies on), the routed paths of three suite designs
// match pinned golden digests, and the GridGraph's O(1) incremental
// overflow totals must agree with a brute-force rescan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "obs/registry.hpp"
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

/// Digest of every routed path of every net, in net and segment order:
/// metal edges, then (via layer, cell) pairs, with explicit widths so the
/// digest does not depend on struct padding.
std::uint64_t routes_digest(const std::vector<NetRoute>& routes) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const NetRoute& net : routes) {
    for (const RoutePath& path : net.segments) {
      const std::uint64_t sizes[2] = {path.edges.size(), path.vias.size()};
      h = fnv1a(sizes, sizeof(sizes), h);
      h = fnv1a(path.edges.data(), path.edges.size() * sizeof(EdgeId), h);
      for (const auto& [layer, cell] : path.vias) {
        const std::uint64_t via[2] = {static_cast<std::uint64_t>(layer), cell};
        h = fnv1a(via, sizeof(via), h);
      }
    }
  }
  return h;
}

struct RouteGolden {
  const char* design;
  std::uint64_t paths_digest;
  long edge_overflow;
  long via_overflow;
  std::uint64_t maze_expansions;
};

/// ctest names each case Suite/RouteDigest.MatchesPinnedGolden/<design>
/// from this printed value. It has no spaces, so ctest's cost file can key
/// the case and schedule it by its measured time.
void PrintTo(const RouteGolden& golden, std::ostream* os) {
  *os << golden.design;
}

class RouteDigest : public ::testing::TestWithParam<RouteGolden> {};

// Pinned results of the full global route (pattern stage + rip-up) at scale
// 16. SubstrateDigest only compares two runs of the same build, so a kernel
// change that alters paths the same way in both passes it; this test does
// not. The expansion count pins the maze search itself: a change to the
// open list's pop order or the cost model shows up here first.
TEST_P(RouteDigest, MatchesPinnedGolden) {
  const RouteGolden& golden = GetParam();
  PipelineOptions options;
  options.generator.scale = 16.0;
  const Design design = place_spec(suite_spec(golden.design), options);

  const obs::Snapshot before = obs::snapshot();
  const GlobalRouteResult route = global_route(design, options.router);
  const obs::Snapshot after = obs::snapshot();

  EXPECT_EQ(routes_digest(route.routes), golden.paths_digest)
      << std::hex << routes_digest(route.routes);
  EXPECT_EQ(route.edge_overflow, golden.edge_overflow);
  EXPECT_EQ(route.via_overflow, golden.via_overflow);
  const auto count = [](const obs::Snapshot& s) {
    const auto it = s.counters.find("route/maze_expansions");
    return it == s.counters.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(count(after) - count(before), golden.maze_expansions);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RouteDigest,
    ::testing::Values(
        RouteGolden{"fft_1", 0x3e291edf7769e877ULL, 98, 96, 1249133},
        RouteGolden{"fft_b", 0x0d3fa4a713d10104ULL, 180, 79, 8543483},
        RouteGolden{"des_perf_1", 0xec8a1c3c167d5b44ULL, 562, 239, 9984642}));

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
