#pragma once
// Route representation shared by the pattern and maze routers.

#include <cstdint>
#include <utility>
#include <vector>

#include "route/grid_graph.hpp"

namespace drcshap {

/// One routed 2-pin connection: the metal edges it occupies plus the
/// (via layer, g-cell) pairs it consumes (layer changes and pin access).
struct RoutePath {
  std::vector<EdgeId> edges;
  std::vector<std::pair<int, std::size_t>> vias;

  bool empty() const { return edges.empty() && vias.empty(); }

  bool operator==(const RoutePath&) const = default;
};

/// All 2-pin segment routes of one net.
struct NetRoute {
  NetId net = kInvalidId;
  std::vector<RoutePath> segments;
};

/// Add the path's demand to the graph.
inline void commit(GridGraph& g, const RoutePath& path) {
  for (const EdgeId e : path.edges) g.add_edge_load(e, 1);
  for (const auto& [layer, cell] : path.vias) g.add_via_load(layer, cell, 1);
}

/// Remove the path's demand from the graph.
inline void uncommit(GridGraph& g, const RoutePath& path) {
  for (const EdgeId e : path.edges) g.add_edge_load(e, -1);
  for (const auto& [layer, cell] : path.vias) g.add_via_load(layer, cell, -1);
}

}  // namespace drcshap
