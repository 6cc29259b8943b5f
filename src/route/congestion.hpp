#pragma once
// Immutable congestion-map snapshot extracted after global routing.
//
// This is the left-panel artifact of the paper's Fig. 1: per metal layer, the
// capacity/load of every g-cell boundary edge; per via layer, the
// capacity/load of every g-cell. Feature extraction (Section II-A) and the
// DRC oracle both read this snapshot rather than the live GridGraph.

#include <cstddef>
#include <string>
#include <vector>

#include "route/grid_graph.hpp"

namespace drcshap {

class CongestionMap {
 public:
  /// An empty map of no cells, until a snapshot is assigned over it.
  CongestionMap() = default;
  /// Snapshot the current loads/capacities of `graph`.
  static CongestionMap extract(const GridGraph& graph);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  int num_metal_layers() const { return num_metal_; }
  int num_via_layers() const { return num_metal_ - 1; }
  std::size_t num_cells() const { return nx_ * ny_; }

  /// True if layer `metal` has an edge between `cell_a` and `cell_b`
  /// (cells must be grid-adjacent; the layer direction must cross their
  /// shared boundary).
  bool has_edge(int metal, std::size_t cell_a, std::size_t cell_b) const;

  /// Capacity / load of the boundary edge between two adjacent cells on
  /// `metal`. Returns 0 for boundaries the layer does not cross.
  int edge_capacity(int metal, std::size_t cell_a, std::size_t cell_b) const;
  int edge_load(int metal, std::size_t cell_a, std::size_t cell_b) const;

  int via_capacity(int via_layer, std::size_t cell) const;
  int via_load(int via_layer, std::size_t cell) const;

  /// Max utilization (load/capacity; overflow counts as > 1) across metal
  /// edges incident to `cell` on `metal`. Used for reporting/heat maps.
  double cell_edge_utilization(int metal, std::size_t cell) const;

  /// Sum of positive (load - capacity) over all edges of `metal` incident
  /// to `cell`.
  int cell_edge_overflow(int metal, std::size_t cell) const;

  long total_edge_overflow() const;
  long total_via_overflow() const;

  /// ASCII heat map of a layer's edge utilization (one char per g-cell,
  /// '.' cold .. '#' overflowed); for the congestion_map example and debug.
  std::string ascii_heatmap(int metal) const;

 private:
  std::size_t edge_index(int metal, std::size_t low_cell) const;

  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  int num_metal_ = 0;
  // Per metal layer: edges indexed like GridGraph's "within" index.
  std::vector<std::vector<int>> edge_cap_;
  std::vector<std::vector<int>> edge_load_;
  // Per via layer: per g-cell.
  std::vector<std::vector<int>> via_cap_;
  std::vector<std::vector<int>> via_load_;
};

}  // namespace drcshap
