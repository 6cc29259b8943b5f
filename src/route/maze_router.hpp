#pragma once
// Congestion-aware A* maze router over the 3D grid graph.
//
// Used during negotiated-congestion rip-up-and-reroute: segments that ended
// up on overflowed resources are re-routed here with the full cost model
// (history + overflow penalties), which lets them detour in x, y, and layer.
// Paths start and terminate on M1 at the endpoint g-cells (pin access).
//
// Step costs are not evaluated here: each relaxation reads one double from
// the graph's cost table (GridGraph::edge_cost / via_cost), which the graph
// keeps current as loads and history change. Between two route() calls of
// a rip-up pass only the ~20 resources of the last commit change, so the
// cost model runs once per changed resource instead of once per
// relaxation.
//
// The search state (distance/parent stamps, the open list, the per-cell
// heuristic cache) is owned by the router and reused across calls, so a
// rip-up pass issuing tens of thousands of route() calls performs no
// per-call allocation. The open list is a hand-rolled 4-ary min-heap keyed
// on (f, node) — the same total order std::priority_queue over
// (double, size_t) pairs produces — so the expansion sequence, and
// therefore every routed path, is bit-identical to the previous
// binary-heap implementation.

#include <cstdint>
#include <vector>

#include "route/net_route.hpp"

namespace drcshap {

struct MazeResult {
  RoutePath path;
  double cost = 0.0;
  bool found = false;
  /// Inclusive column/row bounding box of every g-cell the search expanded
  /// (popped non-stale). The search only reads cost-table entries of edges
  /// and vias incident to expanded cells, and each entry depends only on
  /// its own resource, so the outcome is a pure function of the graph state
  /// restricted to this box — the locality fact the ECO replay's reuse
  /// check is built on.
  std::uint32_t col_lo = 0;
  std::uint32_t col_hi = 0;
  std::uint32_t row_lo = 0;
  std::uint32_t row_hi = 0;
};

class MazeRouter {
 public:
  explicit MazeRouter(const GridGraph& graph);

  /// Cheapest path between the two g-cells under the graph's cost table.
  /// The graph state is read, never written (commit separately). Returns
  /// found == false only if the grid is degenerate (should not happen on a
  /// connected grid).
  MazeResult route(std::size_t cell_a, std::size_t cell_b);

 private:
  /// Open-list entry, packed into one 128-bit integer that sorts exactly
  /// like the (f, node) pair: bits 127..64 hold the IEEE-754 pattern of the
  /// A* key f = g + h (always a non-negative finite double, whose bit
  /// pattern orders identically to its value), bits 63..32 the node id
  /// (the tie-breaker), bits 31..0 the node's g-cell. The cell is fully
  /// determined by the node, so carrying it below the tie-breaker cannot
  /// change the order; it lets the pop path skip a div/mod. A single
  /// integer compare replaces the branchy two-double comparator, which is
  /// what makes the heap cheap — pops were half of all route time before.
  using OpenKey = unsigned __int128;

  static OpenKey pack(double f, std::uint32_t node, std::uint32_t cell);

  std::size_t node_id(int metal, std::size_t cell) const {
    return static_cast<std::size_t>(metal) * g_.num_cells() + cell;
  }

  void heap_push(OpenKey key);
  OpenKey heap_pop();

  const GridGraph& g_;
  // Node -> coordinate lookup tables, built once per graph; they replace
  // the four integer div/mods the expansion loop would otherwise pay per
  // popped node.
  std::vector<std::uint32_t> cell_of_;
  std::vector<std::int32_t> metal_of_;
  std::vector<std::uint32_t> col_of_;
  std::vector<std::uint32_t> row_of_;
  // Per-node search state, stamped so buffers need no clearing per call.
  std::vector<double> dist_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> parent_;
  // Per-cell heuristic cache for the current target, same stamping scheme.
  std::vector<double> h_cache_;
  std::vector<std::uint32_t> h_stamp_;
  // 4-ary min-heap storage, cleared (capacity kept) per call.
  std::vector<OpenKey> open_;
  std::uint32_t current_stamp_ = 0;
};

}  // namespace drcshap
