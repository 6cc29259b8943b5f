// Parameterized property sweeps (TEST_P): invariants that must hold across
// randomized instances, not just hand-picked cases.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/brute_force_shap.hpp"
#include "core/tree_shap.hpp"
#include "ml/metrics.hpp"
#include "route/global_router.hpp"
#include "route/maze_router.hpp"
#include "route/pattern_router.hpp"
#include "util/rng.hpp"

namespace drcshap {
namespace {

// ---------------------------------------------------------------- routing

struct RouteCase {
  std::size_t nx, ny, n_nets;
  std::uint64_t seed;
};

class RoutingProperties : public ::testing::TestWithParam<RouteCase> {};

Design random_instance(const RouteCase& c) {
  Design d("prop", {0, 0, 10.0 * c.nx, 10.0 * c.ny}, c.nx, c.ny);
  Rng rng(c.seed);
  for (std::size_t i = 0; i < c.n_nets; ++i) {
    const NetId n = d.add_net({"n" + std::to_string(i), {}, false, false});
    const std::size_t pins = 2 + rng.index(3);
    for (std::size_t p = 0; p < pins; ++p) {
      d.add_pin({kInvalidId, n,
                 {rng.uniform(0.0, 10.0 * c.nx), rng.uniform(0.0, 10.0 * c.ny)},
                 false, false});
    }
  }
  return d;
}

TEST_P(RoutingProperties, LoadsEqualCommittedPaths) {
  const Design d = random_instance(GetParam());
  const GlobalRouteResult result = global_route(d);
  // Sum of all edge loads equals the number of edges across all paths.
  long path_edges = 0;
  for (const NetRoute& route : result.routes) {
    for (const RoutePath& seg : route.segments) {
      path_edges += static_cast<long>(seg.edges.size());
    }
  }
  long graph_load = 0;
  for (std::size_t e = 0; e < result.graph.num_edges(); ++e) {
    graph_load += result.graph.edge_load(static_cast<EdgeId>(e));
  }
  EXPECT_EQ(graph_load, path_edges);
}

TEST_P(RoutingProperties, EverySegmentConnectsItsEndpointsOnM1) {
  const Design d = random_instance(GetParam());
  const GlobalRouteResult result = global_route(d);
  for (NetId n = 0; n < d.num_nets(); ++n) {
    const auto pairs = decompose_net(d, n);
    ASSERT_EQ(pairs.size(), result.routes[n].segments.size());
    for (std::size_t s = 0; s < pairs.size(); ++s) {
      const RoutePath& path = result.routes[n].segments[s];
      // Parity check: each (metal, cell) node must have even degree except
      // the two endpoints at M1.
      std::map<std::pair<int, std::size_t>, int> degree;
      for (const EdgeId e : path.edges) {
        const auto [a, b] = result.graph.edge_cells(e);
        const int m = result.graph.edge_metal(e);
        ++degree[{m, a}];
        ++degree[{m, b}];
      }
      for (const auto& [via, cell] : path.vias) {
        ++degree[{via, cell}];
        ++degree[{via + 1, cell}];
      }
      ++degree[{0, pairs[s].first}];
      ++degree[{0, pairs[s].second}];
      for (const auto& [node, deg] : degree) {
        EXPECT_EQ(deg % 2, 0) << "net " << n << " seg " << s;
      }
    }
  }
}

TEST_P(RoutingProperties, MazeNeverCostsMoreThanPattern) {
  const Design d = random_instance(GetParam());
  GridGraph g(d);
  MazeRouter maze(g);
  Rng rng(GetParam().seed + 1);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t a = rng.index(g.num_cells());
    const std::size_t b = rng.index(g.num_cells());
    if (a == b) continue;
    const RoutePath pattern = pattern_route(g, a, b);
    const MazeResult mr = maze.route(a, b);
    ASSERT_TRUE(mr.found);
    EXPECT_LE(mr.cost, path_cost(g, pattern) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoutingProperties,
    ::testing::Values(RouteCase{5, 5, 20, 1}, RouteCase{8, 3, 40, 2},
                      RouteCase{3, 9, 30, 3}, RouteCase{12, 12, 120, 4},
                      RouteCase{2, 2, 8, 5}));

// --------------------------------------------------------------- TreeSHAP

class TreeShapProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeShapProperties, MatchesBruteForceAndIsAdditive) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  Dataset d(5);
  for (int i = 0; i < 250; ++i) {
    std::vector<float> x(5);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    const double score =
        x[0] + 0.7 * x[1] * (x[2] > 0.5 ? 1.0 : -1.0) + 0.4 * rng.normal();
    d.append_row(x, score > 0.8 ? 1 : 0, 0);
  }
  DecisionTreeOptions options;
  options.max_depth = 6;
  options.seed = seed;
  DecisionTree tree;
  tree.fit(d, options);

  for (int trial = 0; trial < 5; ++trial) {
    std::vector<float> x(5);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    const auto fast = TreeShapExplainer::tree_shap_values(tree, x);
    const auto slow = brute_force_shap_values(tree, x);
    double total = tree.expected_value();
    for (std::size_t f = 0; f < 5; ++f) {
      EXPECT_NEAR(fast[f], slow[f], 1e-9);
      total += fast[f];
    }
    EXPECT_NEAR(total, tree.predict_proba(x), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, TreeShapProperties,
                         ::testing::Range<std::uint64_t>(100, 112));

// ----------------------------------------------------------------- metrics

struct MetricsCase {
  std::size_t n;
  double positive_rate;
  std::uint64_t seed;
};

class MetricsProperties : public ::testing::TestWithParam<MetricsCase> {};

TEST_P(MetricsProperties, RangesOrderingAndBudget) {
  const MetricsCase c = GetParam();
  Rng rng(c.seed);
  std::vector<double> scores(c.n);
  std::vector<std::uint8_t> labels(c.n);
  std::size_t positives = 0;
  for (std::size_t i = 0; i < c.n; ++i) {
    labels[i] = rng.bernoulli(c.positive_rate);
    positives += labels[i];
    // Mildly informative scores.
    scores[i] = 0.3 * labels[i] + rng.uniform();
  }
  if (positives == 0 || positives == c.n) GTEST_SKIP();

  const double pr = auprc(scores, labels);
  const double roc = auroc(scores, labels);
  EXPECT_GE(pr, 0.0);
  EXPECT_LE(pr, 1.0);
  EXPECT_GE(roc, 0.0);
  EXPECT_LE(roc, 1.0);
  // Informative scores beat chance on both metrics.
  EXPECT_GT(roc, 0.5);
  EXPECT_GT(pr, static_cast<double>(positives) / static_cast<double>(c.n) - 0.02);

  const OperatingPoint op = operating_point_at_fpr(scores, labels, 0.01);
  if (!std::isnan(op.fpr)) {
    EXPECT_LE(op.fpr, 0.01 + 1e-12);
    EXPECT_GE(op.tpr, 0.0);
    EXPECT_LE(op.tpr, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MetricsProperties,
    ::testing::Values(MetricsCase{200, 0.5, 11}, MetricsCase{2000, 0.05, 12},
                      MetricsCase{5000, 0.01, 13}, MetricsCase{300, 0.2, 14},
                      MetricsCase{10000, 0.002, 15}));

// ----------------------------------------------------------------- binning

class BinningProperties : public ::testing::TestWithParam<int> {};

TEST_P(BinningProperties, BinCodesMonotoneAndThresholdsConsistent) {
  const int max_bins = GetParam();
  Rng rng(21);
  Dataset d(2);
  for (int i = 0; i < 700; ++i) {
    d.append_row(std::vector<float>{static_cast<float>(rng.normal()),
                                    static_cast<float>(rng.index(5))},
                 0, 0);
  }
  const BinnedMatrix binned(d, max_bins);
  for (std::size_t f = 0; f < 2; ++f) {
    EXPECT_LE(binned.n_bins(f), max_bins);
    // Every split threshold must separate the bins it claims to separate.
    for (int b = 0; b + 1 < binned.n_bins(f); ++b) {
      const float cut = binned.split_threshold(f, b);
      for (std::size_t r = 0; r < d.n_rows(); ++r) {
        if (d.row(r)[f] <= cut) {
          EXPECT_LE(binned.bin(r, f), b) << "f" << f << " bin " << b;
        } else {
          EXPECT_GT(binned.bin(r, f), b) << "f" << f << " bin " << b;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BinningProperties,
                         ::testing::Values(2, 4, 16, 64, 256));

}  // namespace
}  // namespace drcshap
