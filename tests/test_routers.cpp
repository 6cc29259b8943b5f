#include <gtest/gtest.h>

#include <map>

#include "route/global_router.hpp"
#include "route/maze_router.hpp"
#include "route/pattern_router.hpp"

namespace drcshap {
namespace {

Design empty_design(std::size_t nx = 6, std::size_t ny = 6) {
  return Design("route_toy", {0, 0, 10.0 * nx, 10.0 * ny}, nx, ny);
}

/// Verifies a path forms a connected M1-to-M1 walk from cell a to cell b:
/// replays edges/vias as node-degree increments and checks Euler-path
/// endpoints. (Sufficient for the straight/L/maze paths produced here.)
void expect_path_connects(const GridGraph& g, const RoutePath& path,
                          std::size_t a, std::size_t b) {
  std::map<std::pair<int, std::size_t>, int> degree;  // (metal, cell) -> deg
  for (const EdgeId e : path.edges) {
    const int m = g.edge_metal(e);
    const auto [lo, hi] = g.edge_cells(e);
    ++degree[{m, lo}];
    ++degree[{m, hi}];
  }
  for (const auto& [via, cell] : path.vias) {
    ++degree[{via, cell}];
    ++degree[{via + 1, cell}];
  }
  ++degree[{0, a}];
  ++degree[{0, b}];
  for (const auto& [node, deg] : degree) {
    EXPECT_EQ(deg % 2, 0) << "odd degree at metal " << node.first << " cell "
                          << node.second;
  }
}

// -------------------------------------------------------------- pattern

TEST(PatternRouter, SameCellIsEmpty) {
  const GridGraph g(empty_design());
  EXPECT_TRUE(pattern_route(g, 3, 3).empty());
}

TEST(PatternRouter, StraightHorizontal) {
  const GridGraph g(empty_design());
  const RoutePath p = pattern_route(g, 0, 3);
  EXPECT_EQ(p.edges.size(), 3u);
  for (const EdgeId e : p.edges) {
    EXPECT_TRUE(Technology::is_horizontal(g.edge_metal(e)));
  }
  expect_path_connects(g, p, 0, 3);
}

TEST(PatternRouter, StraightVerticalUsesVerticalLayer) {
  const GridGraph g(empty_design());
  const RoutePath p = pattern_route(g, 0, 12);  // two rows up
  EXPECT_EQ(p.edges.size(), 2u);
  for (const EdgeId e : p.edges) {
    EXPECT_FALSE(Technology::is_horizontal(g.edge_metal(e)));
  }
  expect_path_connects(g, p, 0, 12);
}

TEST(PatternRouter, LShapeLengthAndConnectivity) {
  const GridGraph g(empty_design());
  const std::size_t a = 0, b = 3 + 4 * 6;  // (0,0) -> (3,4)
  const RoutePath p = pattern_route(g, a, b);
  EXPECT_EQ(p.edges.size(), 7u);  // manhattan distance
  expect_path_connects(g, p, a, b);
  EXPECT_FALSE(p.vias.empty());  // layer changes require vias
}

TEST(PatternRouter, AvoidsCongestedLayer) {
  Design d = empty_design();
  GridGraph g(d);
  // Saturate M1 along row 0 so the router should prefer M3/M5.
  for (std::size_t c = 0; c + 1 < 6; ++c) {
    const auto e = g.edge(0, c, Dir::kEast);
    g.add_edge_load(*e, g.edge_capacity(*e) + 5);
  }
  const RoutePath p = pattern_route(g, 0, 5);
  for (const EdgeId e : p.edges) {
    EXPECT_NE(g.edge_metal(e), 0) << "went through saturated M1";
  }
}

TEST(PatternRouter, CostMatchesPathCost) {
  const GridGraph g(empty_design());
  const RoutePath p = pattern_route(g, 0, 8);
  EXPECT_GT(path_cost(g, p), 0.0);
}

TEST(PatternRouter, ViaStackHelper) {
  RoutePath p;
  append_via_stack(p, 0, 3, 7);
  ASSERT_EQ(p.vias.size(), 3u);
  EXPECT_EQ(p.vias[0], (std::pair<int, std::size_t>{0, 7}));
  EXPECT_EQ(p.vias[2], (std::pair<int, std::size_t>{2, 7}));
  // Descending order covers the same cut layers.
  RoutePath q;
  append_via_stack(q, 3, 0, 7);
  EXPECT_EQ(q.vias.size(), 3u);
}

// ----------------------------------------------------------------- maze

TEST(MazeRouter, FindsPathSameAsManhattanWhenUncongested) {
  const Design d = empty_design();
  GridGraph g(d);
  MazeRouter maze(g);
  const MazeResult r = maze.route(0, 3 + 4 * 6);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.path.edges.size(), 7u);
  expect_path_connects(g, r.path, 0, 3 + 4 * 6);
}

TEST(MazeRouter, SameCellTrivial) {
  const Design d = empty_design();
  GridGraph g(d);
  MazeRouter maze(g);
  const MazeResult r = maze.route(4, 4);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.path.empty());
}

TEST(MazeRouter, DetoursAroundOverflow) {
  const Design d = empty_design();
  GridGraph g(d);
  // Block the direct horizontal corridors on row 0 in all H layers between
  // cells 2 and 3, overloaded far enough that one more wire costs more than
  // any detour.
  for (const int m : {0, 2, 4}) {
    const auto e = g.edge(m, 2, Dir::kEast);
    g.add_edge_load(*e, g.edge_capacity(*e) + 100);
  }
  MazeRouter maze(g);
  const MazeResult r = maze.route(0, 5);
  ASSERT_TRUE(r.found);
  // The detour must be longer than the straight 5-edge path.
  EXPECT_GT(r.path.edges.size(), 5u);
  for (const EdgeId e : r.path.edges) {
    EXPECT_EQ(g.edge_overflow(e), 0) << "maze used an overflowed edge";
  }
  expect_path_connects(g, r.path, 0, 5);
}

TEST(MazeRouter, CostIsSumOfStepCosts) {
  const Design d = empty_design();
  GridGraph g(d);
  MazeRouter maze(g);
  const MazeResult r = maze.route(0, 2);
  ASSERT_TRUE(r.found);
  EXPECT_NEAR(r.cost, path_cost(g, r.path), 1e-9);
}

TEST(MazeRouter, ReusableAcrossCalls) {
  const Design d = empty_design();
  GridGraph g(d);
  MazeRouter maze(g);
  for (std::size_t target = 1; target < 30; ++target) {
    const MazeResult r = maze.route(0, target);
    EXPECT_TRUE(r.found) << target;
    expect_path_connects(g, r.path, 0, target);
  }
}

// ----------------------------------------------------------- decomposition

TEST(Decompose, TwoPinNet) {
  Design d = empty_design();
  const NetId n = d.add_net({"n", {}, false, false});
  d.add_pin({kInvalidId, n, {5, 5}, false, false});
  d.add_pin({kInvalidId, n, {55, 55}, false, false});
  const auto segments = decompose_net(d, n);
  ASSERT_EQ(segments.size(), 1u);
}

TEST(Decompose, LocalNetHasNoSegments) {
  Design d = empty_design();
  const NetId n = d.add_net({"n", {}, false, false});
  d.add_pin({kInvalidId, n, {5, 5}, false, false});
  d.add_pin({kInvalidId, n, {6, 7}, false, false});
  EXPECT_TRUE(decompose_net(d, n).empty());
}

TEST(Decompose, MstIsSpanning) {
  Design d = empty_design();
  const NetId n = d.add_net({"n", {}, false, false});
  // Pins in 4 distinct g-cells.
  for (const auto& [x, y] : std::vector<std::pair<double, double>>{
           {5, 5}, {55, 5}, {5, 55}, {55, 55}}) {
    d.add_pin({kInvalidId, n, {x, y}, false, false});
  }
  const auto segments = decompose_net(d, n);
  EXPECT_EQ(segments.size(), 3u);  // spanning tree over 4 terminals
}

// -------------------------------------------------------------- global

TEST(GlobalRouter, RoutesEverySegmentAndAccountsLoads) {
  Design d = empty_design();
  // A few nets crossing the die.
  for (int i = 0; i < 10; ++i) {
    const NetId n = d.add_net({"n" + std::to_string(i), {}, false, false});
    d.add_pin({kInvalidId, n, {5.0 + i, 5.0}, false, false});
    d.add_pin({kInvalidId, n, {55.0 - i, 55.0}, false, false});
  }
  const GlobalRouteResult result = global_route(d);
  EXPECT_EQ(result.routes.size(), d.num_nets());
  EXPECT_EQ(result.segments_total, 10u);

  // Replaying all committed paths onto a fresh graph must reproduce the
  // final loads exactly (conservation property).
  GridGraph replay(d);
  for (NetId n = 0; n < d.num_nets(); ++n) {
    std::set<std::size_t> cells;
    for (const PinId p : d.net(n).pins) {
      cells.insert(d.grid().locate(d.pin(p).position));
    }
    for (const std::size_t cell : cells) replay.add_via_load(0, cell, 1);
  }
  for (const NetRoute& route : result.routes) {
    for (const RoutePath& seg : route.segments) commit(replay, seg);
  }
  for (std::size_t e = 0; e < replay.num_edges(); ++e) {
    EXPECT_EQ(replay.edge_load(static_cast<EdgeId>(e)),
              result.graph.edge_load(static_cast<EdgeId>(e)));
  }
}

TEST(GlobalRouter, CongestionSnapshotMatchesGraph) {
  Design d = empty_design();
  const NetId n = d.add_net({"n", {}, false, false});
  d.add_pin({kInvalidId, n, {5, 5}, false, false});
  d.add_pin({kInvalidId, n, {55, 25}, false, false});
  const GlobalRouteResult result = global_route(d);
  long snapshot_load = 0, graph_load = 0;
  for (int m = 0; m < 5; ++m) {
    for (std::size_t cell = 0; cell < result.graph.num_cells(); ++cell) {
      const auto e = result.graph.edge_low(m, cell);
      if (!e) continue;
      graph_load += result.graph.edge_load(*e);
      const auto [a, b] = result.graph.edge_cells(*e);
      snapshot_load += result.congestion.edge_load(m, a, b);
    }
  }
  EXPECT_EQ(snapshot_load, graph_load);
  EXPECT_GT(graph_load, 0);
}

TEST(GlobalRouter, RipUpReducesOverflowOnHotInstance) {
  // Funnel many nets through one column to force overflow, then check the
  // negotiated rerouting monotonically improves it.
  Design d("hot", {0, 0, 80, 80}, 8, 8);
  for (int i = 0; i < 120; ++i) {
    const NetId n = d.add_net({"n" + std::to_string(i), {}, false, false});
    const double y = 5.0 + (i % 8) * 10.0;
    d.add_pin({kInvalidId, n, {5, y}, false, false});
    d.add_pin({kInvalidId, n, {75, y}, false, false});
  }
  GlobalRouterOptions no_maze;
  no_maze.use_maze = false;
  const long before = global_route(d, no_maze).edge_overflow;

  const long after = global_route(d).edge_overflow;
  EXPECT_LE(after, before);
}

TEST(GlobalRouter, LocalNetsContributePinAccessVias) {
  Design d = empty_design();
  const NetId n = d.add_net({"n", {}, false, false});
  d.add_pin({kInvalidId, n, {5, 5}, false, false});
  d.add_pin({kInvalidId, n, {7, 7}, false, false});  // same g-cell
  const GlobalRouteResult result = global_route(d);
  EXPECT_EQ(result.congestion.via_load(0, d.grid().locate({5, 5})), 1);
}

TEST(GlobalRouter, DeterministicResult) {
  Design d = empty_design();
  for (int i = 0; i < 20; ++i) {
    const NetId n = d.add_net({"n" + std::to_string(i), {}, false, false});
    d.add_pin({kInvalidId, n, {3.0 + 2 * i, 8.0}, false, false});
    d.add_pin({kInvalidId, n, {50.0, 3.0 + 2 * i}, false, false});
  }
  const GlobalRouteResult a = global_route(d);
  const GlobalRouteResult b = global_route(d);
  EXPECT_EQ(a.edge_overflow, b.edge_overflow);
  for (std::size_t e = 0; e < a.graph.num_edges(); ++e) {
    EXPECT_EQ(a.graph.edge_load(static_cast<EdgeId>(e)),
              b.graph.edge_load(static_cast<EdgeId>(e)));
  }
}

}  // namespace
}  // namespace drcshap
