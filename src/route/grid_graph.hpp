#pragma once
// 3D global-routing grid graph.
//
// Nodes are (metal layer, g-cell). Each metal layer routes only in its
// preferred direction (even layers horizontal, odd vertical), so a layer
// contributes edges only between g-cells adjacent along that direction.
// Adjacent layers are connected by via edges located at each g-cell.
//
// The graph tracks, per metal edge and per (via layer, g-cell):
//   capacity  C  - max wires/vias, derated by blockages and cell density,
//   load      L  - wires/vias currently routed through,
//   history   h  - PathFinder-style accumulated congestion cost (edges),
//   cost         - the route cost of one more wire/via under the kRoute*
//                  cost model, cached and refreshed by every mutator.
// The (C, L, C-L) triples are exactly what the paper's congestion-map
// features consume; the cost table is what the routers read.

#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/design.hpp"

namespace drcshap {

using EdgeId = std::uint32_t;

/// Direction of a step within a metal layer.
enum class Dir : std::uint8_t { kEast, kWest, kNorth, kSouth };

/// Routing state of one metal edge, interleaved so a cost-table refresh
/// touches a single cache line instead of three parallel arrays.
struct EdgeState {
  int capacity = 0;
  int load = 0;
  double history = 0.0;
};

/// Routing state of one (via layer, g-cell) pair.
struct ViaState {
  int capacity = 0;
  int load = 0;
};

/// Congestion-aware cost model used by both routers (PathFinder-flavored:
/// a base wire cost, a soft utilization slope, a hard overflow penalty
/// scaled by accumulated history).
inline constexpr double kRouteBaseCost = 1.0;    ///< cost per grid edge
inline constexpr double kRouteViaCost = 2.0;     ///< cost per via
/// Soft pressure as an edge fills up.
inline constexpr double kRouteUtilSlope = 0.5;
/// Per unit of (load+1) - capacity.
inline constexpr double kRouteOverflowPenalty = 16.0;
/// Multiplier on accumulated history.
inline constexpr double kRouteHistoryWeight = 2.0;

class GridGraph {
 public:
  /// Builds the graph for `design`, applies the capacity model (blockage +
  /// density deration) and fills the cost table. Loads start at zero.
  explicit GridGraph(const Design& design);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  int num_metal_layers() const { return num_metal_; }
  int num_via_layers() const { return num_metal_ - 1; }
  std::size_t num_cells() const { return nx_ * ny_; }
  std::size_t num_edges() const { return edges_.size(); }

  // --- metal edges ------------------------------------------------------
  /// Edge on layer `metal` between `cell` and its neighbor in direction
  /// `dir`; nullopt if the step leaves the grid or fights the layer's
  /// preferred direction.
  std::optional<EdgeId> edge(int metal, std::size_t cell, Dir dir) const;

  /// Edge on layer `metal` whose low-side cell (west / south) is `cell`.
  /// For a horizontal layer this is the edge to the east neighbor; for a
  /// vertical layer, to the north neighbor. nullopt at the grid border.
  std::optional<EdgeId> edge_low(int metal, std::size_t cell) const;

  const EdgeState& edge_state(EdgeId e) const { return edges_[e]; }
  int edge_capacity(EdgeId e) const { return edges_[e].capacity; }
  int edge_load(EdgeId e) const { return edges_[e].load; }
  double edge_history(EdgeId e) const { return edges_[e].history; }
  int edge_overflow(EdgeId e) const {
    return std::max(0, edges_[e].load - edges_[e].capacity);
  }

  /// First edge id of `metal`'s contiguous block. Within the block, edges of
  /// a horizontal layer are ordered row * (nx - 1) + col of their low (west)
  /// cell; vertical layers row * nx + col of their low (south) cell. Exposed
  /// so hot search loops (the maze router) can address neighbor edges
  /// directly instead of going through the checked `edge()` lookup.
  EdgeId layer_edge_begin(int metal) const {
    return static_cast<EdgeId>(edge_offset_[static_cast<std::size_t>(metal)]);
  }

  /// Route cost of one more wire through `e`: the table entry, equal to
  /// edge_route_cost(*this, e) at all times (every mutator below refreshes
  /// the entries it changes). This one load is what the maze router pays
  /// per relaxation.
  double edge_cost(EdgeId e) const { return edge_cost_[e]; }

  void add_edge_load(EdgeId e, int delta);
  /// Removes previously added demand: the rip-up direction of
  /// add_edge_load, spelled out so call sites read as what they are.
  /// `amount` is how much load to take away (must not exceed the current
  /// load; the shared underflow check throws otherwise). The O(1) overflow
  /// totals stay exact across any add/remove interleaving.
  void remove_edge_load(EdgeId e, int amount) { add_edge_load(e, -amount); }
  void add_edge_history(EdgeId e, double delta);

  /// Metal layer an edge belongs to.
  int edge_metal(EdgeId e) const;
  /// The two adjacent cells of an edge (low cell first).
  std::pair<std::size_t, std::size_t> edge_cells(EdgeId e) const;

  // --- vias ---------------------------------------------------------------
  const ViaState& via_state(int via_layer, std::size_t cell) const {
    return vias_[via_index(via_layer, cell)];
  }
  int via_capacity(int via_layer, std::size_t cell) const {
    return vias_[via_index(via_layer, cell)].capacity;
  }
  int via_load(int via_layer, std::size_t cell) const {
    return vias_[via_index(via_layer, cell)].load;
  }
  int via_overflow(int via_layer, std::size_t cell) const {
    const ViaState& s = vias_[via_index(via_layer, cell)];
    return std::max(0, s.load - s.capacity);
  }
  /// Via counterpart of edge_cost: equal to via_route_cost(*this,
  /// via_layer, cell). Unchecked, like edge_cost; callers pass a valid
  /// (via layer, cell) pair.
  double via_cost(int via_layer, std::size_t cell) const {
    return via_cost_[static_cast<std::size_t>(via_layer) * num_cells() + cell];
  }
  void add_via_load(int via_layer, std::size_t cell, int delta);
  /// Via counterpart of remove_edge_load.
  void remove_via_load(int via_layer, std::size_t cell, int amount) {
    add_via_load(via_layer, cell, -amount);
  }

  // --- aggregates ---------------------------------------------------------
  /// Total wire overflow over all metal edges. O(1): maintained
  /// incrementally by add_edge_load, so rip-up loops can poll it per
  /// reroute instead of rescanning every edge.
  long total_edge_overflow() const { return total_edge_overflow_; }
  /// Total via overflow over all (via layer, cell) pairs. O(1), see above.
  long total_via_overflow() const { return total_via_overflow_; }

  /// Clears every load (capacities and history are kept).
  void reset_loads();

  /// Neighbor cell of `cell` in `dir`, or nullopt at the border.
  std::optional<std::size_t> neighbor(std::size_t cell, Dir dir) const;

 private:
  std::size_t via_index(int via_layer, std::size_t cell) const;
  void apply_capacity_model(const Design& design);
  /// Re-evaluates every cost table entry (construction, reset_loads).
  void refresh_costs();

  std::size_t nx_;
  std::size_t ny_;
  int num_metal_;
  GCellGrid grid_;
  std::vector<std::size_t> edge_offset_;  ///< per metal layer
  std::vector<EdgeState> edges_;
  std::vector<ViaState> vias_;
  // The cost table, parallel to edges_ / vias_.
  std::vector<double> edge_cost_;
  std::vector<double> via_cost_;
  // Running totals of positive (load - capacity); updated on every load
  // change (capacities are fixed after construction).
  long total_edge_overflow_ = 0;
  long total_via_overflow_ = 0;
};

/// Cost of one more wire or via on a resource with `load` of `capacity`
/// used, on top of its `fixed` part (base + weighted history for a wire,
/// the via cost for a via). The one implementation of the cost model.
inline double route_step_cost(double fixed, int load, int capacity) {
  const int next = load + 1;
  double cost = fixed;
  if (capacity <= 0) {
    cost += kRouteOverflowPenalty * next;
  } else if (next > capacity) {
    cost += kRouteOverflowPenalty * static_cast<double>(next - capacity);
  } else {
    cost += kRouteUtilSlope * static_cast<double>(next) /
            static_cast<double>(capacity);
  }
  return cost;
}

/// Cost of pushing one more wire through metal edge `e`, evaluated from its
/// current state (what GridGraph::edge_cost caches).
inline double edge_route_cost(const GridGraph& g, EdgeId e) {
  const EdgeState& s = g.edge_state(e);
  return route_step_cost(kRouteBaseCost + kRouteHistoryWeight * s.history,
                         s.load, s.capacity);
}

/// Cost of pushing one more via through (via layer, cell), evaluated from
/// its current state (what GridGraph::via_cost caches).
inline double via_route_cost(const GridGraph& g, int via_layer,
                             std::size_t cell) {
  const ViaState& s = g.via_state(via_layer, cell);
  return route_step_cost(kRouteViaCost, s.load, s.capacity);
}

}  // namespace drcshap
