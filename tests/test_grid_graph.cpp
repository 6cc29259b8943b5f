#include "route/grid_graph.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "route/net_route.hpp"
#include "util/rng.hpp"

namespace drcshap {
namespace {

Design empty_design(std::size_t nx = 4, std::size_t ny = 3) {
  return Design("gg", {0, 0, 40.0, 30.0}, nx, ny);
}

TEST(GridGraph, EdgeCountsPerLayer) {
  const GridGraph g(empty_design());
  // 5 layers on a 4x3 grid: horizontal layers (M1,M3,M5): 3*3=9 edges each;
  // vertical layers (M2,M4): 4*2=8 edges each.
  EXPECT_EQ(g.num_edges(), 3u * 9u + 2u * 8u);
}

TEST(GridGraph, EdgeRespectsPreferredDirection) {
  const GridGraph g(empty_design());
  // M1 (horizontal): east/west only.
  EXPECT_TRUE(g.edge(0, 0, Dir::kEast).has_value());
  EXPECT_FALSE(g.edge(0, 0, Dir::kNorth).has_value());
  // M2 (vertical): north/south only.
  EXPECT_FALSE(g.edge(1, 0, Dir::kEast).has_value());
  EXPECT_TRUE(g.edge(1, 0, Dir::kNorth).has_value());
}

TEST(GridGraph, EdgeNoneAtBorder) {
  const GridGraph g(empty_design(4, 3));
  EXPECT_FALSE(g.edge(0, 3, Dir::kEast).has_value());   // col 3 is last
  EXPECT_FALSE(g.edge(0, 0, Dir::kWest).has_value());
  EXPECT_FALSE(g.edge(1, 8, Dir::kNorth).has_value());  // row 2 is last
}

TEST(GridGraph, EdgeSymmetric) {
  const GridGraph g(empty_design());
  const auto east = g.edge(0, 0, Dir::kEast);
  const auto west = g.edge(0, 1, Dir::kWest);
  ASSERT_TRUE(east && west);
  EXPECT_EQ(*east, *west);
}

TEST(GridGraph, EdgeCellsInverse) {
  const GridGraph g(empty_design());
  for (int m = 0; m < 5; ++m) {
    for (std::size_t cell = 0; cell < g.num_cells(); ++cell) {
      const auto e = g.edge_low(m, cell);
      if (!e) continue;
      EXPECT_EQ(g.edge_metal(*e), m);
      const auto [a, b] = g.edge_cells(*e);
      EXPECT_EQ(a, cell);
      EXPECT_EQ(b, Technology::is_horizontal(m) ? cell + 1 : cell + g.nx());
    }
  }
}

TEST(GridGraph, CapacitiesMatchTracksWithoutObstacles) {
  const Design d = empty_design();
  const GridGraph g(d);
  for (int m = 2; m < 5; ++m) {  // M3..M5: no density deration
    for (std::size_t cell = 0; cell < g.num_cells(); ++cell) {
      const auto e = g.edge_low(m, cell);
      if (!e) continue;
      EXPECT_EQ(g.edge_capacity(*e),
                d.tech().tracks_per_gcell[static_cast<std::size_t>(m)]);
    }
  }
}

TEST(GridGraph, BlockageReducesCapacity) {
  Design d = empty_design();
  const GridGraph before(d);
  d.add_blockage({{0, 0, 20, 30}, 2, 2});  // left half, M3 only
  const GridGraph after(d);
  const auto e = after.edge_low(2, 0);  // M3 edge inside the blockage
  ASSERT_TRUE(e.has_value());
  EXPECT_LT(after.edge_capacity(*e), before.edge_capacity(*e));
  // Other layers unaffected.
  const auto e_m5 = after.edge_low(4, 0);
  ASSERT_TRUE(e_m5.has_value());
  EXPECT_EQ(after.edge_capacity(*e_m5), before.edge_capacity(*e_m5));
}

TEST(GridGraph, FullBlockageZeroesCapacity) {
  Design d = empty_design();
  d.add_blockage({{0, 0, 40, 30}, 0, 4});  // everything, all layers
  const GridGraph g(d);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.edge_capacity(static_cast<EdgeId>(e)), 0);
  }
}

TEST(GridGraph, CellDensityDeratesLowerLayers) {
  Design d = empty_design();
  // Fill cell (0,0) fully with a standard cell.
  d.add_cell({"fat", {0, 0, 10, 10}, false});
  const GridGraph g(d);
  const Design empty = empty_design();
  const GridGraph base(empty);
  const auto e = g.edge_low(0, 0);  // M1 edge next to the dense cell
  ASSERT_TRUE(e.has_value());
  EXPECT_LT(g.edge_capacity(*e), base.edge_capacity(*e));
}

TEST(GridGraph, LoadAccounting) {
  GridGraph g(empty_design());
  const EdgeId e = *g.edge_low(0, 0);
  EXPECT_EQ(g.edge_load(e), 0);
  g.add_edge_load(e, 2);
  EXPECT_EQ(g.edge_load(e), 2);
  g.add_edge_load(e, -2);
  EXPECT_EQ(g.edge_load(e), 0);
  EXPECT_THROW(g.add_edge_load(e, -1), std::logic_error);
}

TEST(GridGraph, OverflowComputation) {
  GridGraph g(empty_design());
  const EdgeId e = *g.edge_low(4, 0);
  const int cap = g.edge_capacity(e);
  g.add_edge_load(e, cap + 3);
  EXPECT_EQ(g.edge_overflow(e), 3);
  EXPECT_EQ(g.total_edge_overflow(), 3);
}

TEST(GridGraph, ViaAccounting) {
  GridGraph g(empty_design());
  EXPECT_EQ(g.via_load(0, 0), 0);
  g.add_via_load(0, 0, 5);
  EXPECT_EQ(g.via_load(0, 0), 5);
  EXPECT_EQ(g.via_overflow(0, 0), 0);
  g.add_via_load(0, 0, 1000);
  EXPECT_GT(g.via_overflow(0, 0), 0);
  EXPECT_GT(g.total_via_overflow(), 0L);
  EXPECT_THROW(g.via_load(4, 0), std::out_of_range);
}

TEST(GridGraph, ResetLoadsKeepsCapacity) {
  GridGraph g(empty_design());
  const EdgeId e = *g.edge_low(0, 0);
  const int cap = g.edge_capacity(e);
  g.add_edge_load(e, 7);
  g.add_via_load(1, 2, 3);
  g.reset_loads();
  EXPECT_EQ(g.edge_load(e), 0);
  EXPECT_EQ(g.via_load(1, 2), 0);
  EXPECT_EQ(g.edge_capacity(e), cap);
}

TEST(GridGraph, NeighborDirections) {
  const GridGraph g(empty_design(4, 3));
  EXPECT_EQ(g.neighbor(0, Dir::kEast), std::optional<std::size_t>(1));
  EXPECT_EQ(g.neighbor(0, Dir::kNorth), std::optional<std::size_t>(4));
  EXPECT_FALSE(g.neighbor(0, Dir::kWest).has_value());
  EXPECT_FALSE(g.neighbor(0, Dir::kSouth).has_value());
  EXPECT_FALSE(g.neighbor(3, Dir::kEast).has_value());
}

TEST(GridGraph, HistoryAccumulates) {
  GridGraph g(empty_design());
  const EdgeId e = *g.edge_low(0, 0);
  EXPECT_DOUBLE_EQ(g.edge_history(e), 0.0);
  g.add_edge_history(e, 1.5);
  g.add_edge_history(e, 0.5);
  EXPECT_DOUBLE_EQ(g.edge_history(e), 2.0);
}

TEST(GridGraph, RemoveLoadUndoesAdd) {
  GridGraph g(empty_design());
  const EdgeId e = *g.edge_low(0, 0);
  g.add_edge_load(e, 5);
  g.remove_edge_load(e, 3);
  EXPECT_EQ(g.edge_load(e), 2);
  g.remove_edge_load(e, 2);
  EXPECT_EQ(g.edge_load(e), 0);
  g.add_via_load(0, 1, 4);
  g.remove_via_load(0, 1, 4);
  EXPECT_EQ(g.via_load(0, 1), 0);
}

TEST(GridGraph, RemoveBelowZeroThrows) {
  GridGraph g(empty_design());
  const EdgeId e = *g.edge_low(0, 0);
  EXPECT_THROW(g.remove_edge_load(e, 1), std::logic_error);
  g.add_edge_load(e, 2);
  EXPECT_THROW(g.remove_edge_load(e, 3), std::logic_error);
  EXPECT_THROW(g.remove_via_load(0, 0, 1), std::logic_error);
}

// The incremental O(1) overflow totals must agree with a brute-force
// recount after *any* interleaving of load adds and removals — the rip-up
// loops of the router and the ECO engine's replay both lean on this.
TEST(GridGraph, IncrementalOverflowMatchesBruteForceUnderAddRemove) {
  GridGraph g(empty_design(5, 4));
  Rng rng(0xec0);
  std::vector<int> edge_loads(g.num_edges(), 0);
  const std::size_t n_via_slots =
      static_cast<std::size_t>(g.num_via_layers()) * g.num_cells();
  std::vector<int> via_loads(n_via_slots, 0);

  const auto brute_force_edges = [&] {
    long total = 0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) total += g.edge_overflow(e);
    return total;
  };
  const auto brute_force_vias = [&] {
    long total = 0;
    for (int v = 0; v < g.num_via_layers(); ++v) {
      for (std::size_t c = 0; c < g.num_cells(); ++c) {
        total += g.via_overflow(v, c);
      }
    }
    return total;
  };

  for (int step = 0; step < 4000; ++step) {
    if (rng.uniform() < 0.5) {
      const EdgeId e = static_cast<EdgeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.num_edges()) - 1));
      // Bias toward adding so loads routinely cross capacity in both
      // directions; removals strip a random slice of what is there.
      if (edge_loads[e] > 0 && rng.uniform() < 0.4) {
        const int amount =
            static_cast<int>(rng.uniform_int(1, edge_loads[e]));
        g.remove_edge_load(e, amount);
        edge_loads[e] -= amount;
      } else {
        const int delta = static_cast<int>(rng.uniform_int(1, 6));
        g.add_edge_load(e, delta);
        edge_loads[e] += delta;
      }
    } else {
      const int v = static_cast<int>(
          rng.uniform_int(0, g.num_via_layers() - 1));
      const std::size_t c = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.num_cells()) - 1));
      const std::size_t slot =
          static_cast<std::size_t>(v) * g.num_cells() + c;
      if (via_loads[slot] > 0 && rng.uniform() < 0.4) {
        const int amount =
            static_cast<int>(rng.uniform_int(1, via_loads[slot]));
        g.remove_via_load(v, c, amount);
        via_loads[slot] -= amount;
      } else {
        const int delta = static_cast<int>(rng.uniform_int(1, 30));
        g.add_via_load(v, c, delta);
        via_loads[slot] += delta;
      }
    }
    if (step % 97 == 0 || step + 1 == 4000) {
      ASSERT_EQ(g.total_edge_overflow(), brute_force_edges())
          << "step " << step;
      ASSERT_EQ(g.total_via_overflow(), brute_force_vias()) << "step " << step;
    }
  }

  // Drain everything: totals must return to exactly zero.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (edge_loads[e] > 0) g.remove_edge_load(e, edge_loads[e]);
  }
  for (int v = 0; v < g.num_via_layers(); ++v) {
    for (std::size_t c = 0; c < g.num_cells(); ++c) {
      const std::size_t slot = static_cast<std::size_t>(v) * g.num_cells() + c;
      if (via_loads[slot] > 0) g.remove_via_load(v, c, via_loads[slot]);
    }
  }
  EXPECT_EQ(g.total_edge_overflow(), 0);
  EXPECT_EQ(g.total_via_overflow(), 0);
}

// The cost table is a cache of edge_route_cost / via_route_cost, kept
// current by the graph's mutators. Drive a seeded random mix of path
// commits and uncommits (loads well past capacity), history bumps and load
// resets over a graph with zero-capacity and derated resources, and after
// every step require every entry to be bit-equal to a fresh evaluation.
TEST(GridGraph, CostTableMatchesFreshEvaluationUnderMutation) {
  Design d = empty_design(6, 5);
  d.add_blockage({{0, 0, 60, 10}, 0, 4});   // bottom row: zero capacity
  d.add_blockage({{20, 20, 35, 50}, 2, 3});  // M3/M4 partly derated
  GridGraph g(d);

  std::size_t zero_cap = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    zero_cap += g.edge_capacity(e) == 0 ? 1 : 0;
  }
  ASSERT_GT(zero_cap, 0u);

  const auto expect_coherent = [&](int step) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const double fresh = edge_route_cost(g, e);
      const double cached = g.edge_cost(e);
      ASSERT_EQ(0, std::memcmp(&fresh, &cached, sizeof(double)))
          << "step " << step << " edge " << e << ": " << cached << " vs "
          << fresh;
    }
    for (int v = 0; v < g.num_via_layers(); ++v) {
      for (std::size_t c = 0; c < g.num_cells(); ++c) {
        const double fresh = via_route_cost(g, v, c);
        const double cached = g.via_cost(v, c);
        ASSERT_EQ(0, std::memcmp(&fresh, &cached, sizeof(double)))
            << "step " << step << " via " << v << "/" << c << ": " << cached
            << " vs " << fresh;
      }
    }
  };
  expect_coherent(-1);

  Rng rng(0xc057);
  std::vector<RoutePath> committed;
  long over_capacity_steps = 0;
  for (int step = 0; step < 1500; ++step) {
    const double pick = rng.uniform();
    if (pick < 0.45 || committed.empty()) {
      RoutePath path;
      const std::size_t n_edges = 1 + rng.index(6);
      for (std::size_t i = 0; i < n_edges; ++i) {
        path.edges.push_back(static_cast<EdgeId>(rng.index(g.num_edges())));
      }
      const std::size_t n_vias = rng.index(4);
      for (std::size_t i = 0; i < n_vias; ++i) {
        path.vias.emplace_back(
            static_cast<int>(rng.index(
                static_cast<std::size_t>(g.num_via_layers()))),
            rng.index(g.num_cells()));
      }
      commit(g, path);
      committed.push_back(std::move(path));
    } else if (pick < 0.8) {
      const std::size_t i = rng.index(committed.size());
      uncommit(g, committed[i]);
      committed.erase(committed.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (pick < 0.995) {
      g.add_edge_history(static_cast<EdgeId>(rng.index(g.num_edges())),
                         0.5 * static_cast<double>(1 + rng.index(4)));
    } else {
      g.reset_loads();
      committed.clear();
    }
    if (g.total_edge_overflow() > 0 && g.total_via_overflow() > 0) {
      ++over_capacity_steps;
    }
    expect_coherent(step);
    if (HasFatalFailure()) return;
  }
  // The walk must actually have exercised the overflow branch of the
  // cost model on both resource kinds.
  EXPECT_GT(over_capacity_steps, 100);
}

}  // namespace
}  // namespace drcshap
