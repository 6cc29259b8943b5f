#include "route/grid_graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace drcshap {

GridGraph::GridGraph(const Design& design)
    : nx_(design.grid().nx()),
      ny_(design.grid().ny()),
      num_metal_(design.tech().num_metal_layers),
      grid_(design.grid()) {
  edge_offset_.resize(static_cast<std::size_t>(num_metal_) + 1, 0);
  for (int m = 0; m < num_metal_; ++m) {
    const std::size_t count = Technology::is_horizontal(m)
                                  ? (nx_ - 1) * ny_
                                  : nx_ * (ny_ - 1);
    edge_offset_[static_cast<std::size_t>(m) + 1] =
        edge_offset_[static_cast<std::size_t>(m)] + count;
  }
  edges_.assign(edge_offset_.back(), EdgeState{});

  const std::size_t n_vias =
      static_cast<std::size_t>(num_via_layers()) * num_cells();
  vias_.assign(n_vias, ViaState{});

  apply_capacity_model(design);
  edge_cost_.resize(edges_.size());
  via_cost_.resize(vias_.size());
  refresh_costs();
}

std::optional<std::size_t> GridGraph::neighbor(std::size_t cell, Dir dir) const {
  const std::size_t c = cell % nx_;
  const std::size_t r = cell / nx_;
  switch (dir) {
    case Dir::kEast:  return c + 1 < nx_ ? std::optional(cell + 1) : std::nullopt;
    case Dir::kWest:  return c > 0 ? std::optional(cell - 1) : std::nullopt;
    case Dir::kNorth: return r + 1 < ny_ ? std::optional(cell + nx_) : std::nullopt;
    case Dir::kSouth: return r > 0 ? std::optional(cell - nx_) : std::nullopt;
  }
  return std::nullopt;
}

std::optional<EdgeId> GridGraph::edge(int metal, std::size_t cell, Dir dir) const {
  const bool horizontal = Technology::is_horizontal(metal);
  if (horizontal && (dir == Dir::kNorth || dir == Dir::kSouth)) return std::nullopt;
  if (!horizontal && (dir == Dir::kEast || dir == Dir::kWest)) return std::nullopt;
  const auto nb = neighbor(cell, dir);
  if (!nb) return std::nullopt;
  const std::size_t low = std::min(cell, *nb);
  const std::size_t c = low % nx_;
  const std::size_t r = low / nx_;
  const std::size_t within = horizontal ? r * (nx_ - 1) + c : r * nx_ + c;
  return static_cast<EdgeId>(edge_offset_[static_cast<std::size_t>(metal)] + within);
}

std::optional<EdgeId> GridGraph::edge_low(int metal, std::size_t cell) const {
  return edge(metal, cell,
              Technology::is_horizontal(metal) ? Dir::kEast : Dir::kNorth);
}

void GridGraph::add_edge_load(EdgeId e, int delta) {
  EdgeState& s = edges_.at(e);
  const int cap = s.capacity;
  const int before = s.load > cap ? s.load - cap : 0;
  s.load += delta;
  if (s.load < 0) throw std::logic_error("GridGraph: negative edge load");
  total_edge_overflow_ += (s.load > cap ? s.load - cap : 0) - before;
  edge_cost_[e] = edge_route_cost(*this, e);
}

void GridGraph::add_edge_history(EdgeId e, double delta) {
  edges_.at(e).history += delta;
  edge_cost_[e] = edge_route_cost(*this, e);
}

int GridGraph::edge_metal(EdgeId e) const {
  for (int m = 0; m < num_metal_; ++m) {
    if (e < edge_offset_[static_cast<std::size_t>(m) + 1]) return m;
  }
  throw std::out_of_range("GridGraph::edge_metal");
}

std::pair<std::size_t, std::size_t> GridGraph::edge_cells(EdgeId e) const {
  const int m = edge_metal(e);
  const std::size_t within = e - edge_offset_[static_cast<std::size_t>(m)];
  if (Technology::is_horizontal(m)) {
    const std::size_t r = within / (nx_ - 1);
    const std::size_t c = within % (nx_ - 1);
    const std::size_t low = r * nx_ + c;
    return {low, low + 1};
  }
  const std::size_t r = within / nx_;
  const std::size_t c = within % nx_;
  const std::size_t low = r * nx_ + c;
  return {low, low + nx_};
}

void GridGraph::add_via_load(int via_layer, std::size_t cell, int delta) {
  const std::size_t i = via_index(via_layer, cell);
  ViaState& s = vias_[i];
  const int cap = s.capacity;
  const int before = s.load > cap ? s.load - cap : 0;
  s.load += delta;
  if (s.load < 0) throw std::logic_error("GridGraph: negative via load");
  total_via_overflow_ += (s.load > cap ? s.load - cap : 0) - before;
  via_cost_[i] = via_route_cost(*this, via_layer, cell);
}

void GridGraph::reset_loads() {
  for (EdgeState& s : edges_) s.load = 0;
  for (ViaState& s : vias_) s.load = 0;
  total_edge_overflow_ = 0;
  total_via_overflow_ = 0;
  refresh_costs();
}

void GridGraph::refresh_costs() {
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    edge_cost_[e] = edge_route_cost(*this, static_cast<EdgeId>(e));
  }
  for (int v = 0; v < num_via_layers(); ++v) {
    for (std::size_t cell = 0; cell < num_cells(); ++cell) {
      via_cost_[via_index(v, cell)] = via_route_cost(*this, v, cell);
    }
  }
}

std::size_t GridGraph::via_index(int via_layer, std::size_t cell) const {
  if (via_layer < 0 || via_layer >= num_via_layers() || cell >= num_cells()) {
    throw std::out_of_range("GridGraph::via_index");
  }
  return static_cast<std::size_t>(via_layer) * num_cells() + cell;
}

void GridGraph::apply_capacity_model(const Design& design) {
  const Technology& tech = design.tech();
  const GCellGrid& grid = design.grid();

  // Per-cell, per-metal blocked-area fraction, and per-cell std-cell density.
  std::vector<double> blocked(
      static_cast<std::size_t>(num_metal_) * num_cells(), 0.0);
  for (const Blockage& b : design.blockages()) {
    for (const std::size_t cell : grid.cells_overlapping(b.box)) {
      const double frac =
          b.box.intersection_area(grid.cell_rect(cell)) / grid.cell_rect(cell).area();
      for (int m = std::max(0, b.metal_lo);
           m <= std::min(num_metal_ - 1, b.metal_hi); ++m) {
        auto& v = blocked[static_cast<std::size_t>(m) * num_cells() + cell];
        v = std::min(1.0, v + frac);
      }
    }
  }
  std::vector<double> cell_density(num_cells(), 0.0);
  for (const Cell& c : design.cells()) {
    for (const std::size_t cell : grid.cells_overlapping(c.box)) {
      cell_density[cell] +=
          c.box.intersection_area(grid.cell_rect(cell)) / grid.cell_rect(cell).area();
    }
  }
  for (auto& d : cell_density) d = std::min(1.0, d);

  // Metal edge capacities: tracks derated by the mean blocked fraction of the
  // two adjacent cells; M1/M2 additionally derated by std-cell density
  // (pin shapes and cell-internal routing consume lower-layer tracks).
  for (int m = 0; m < num_metal_; ++m) {
    const int tracks = tech.tracks_per_gcell[static_cast<std::size_t>(m)];
    for (std::size_t cell = 0; cell < num_cells(); ++cell) {
      const auto e = edge_low(m, cell);
      if (!e) continue;
      const auto [a, b] = edge_cells(*e);
      const double blk =
          0.5 * (blocked[static_cast<std::size_t>(m) * num_cells() + a] +
                 blocked[static_cast<std::size_t>(m) * num_cells() + b]);
      double cap = tracks * (1.0 - blk);
      if (m <= 1) {
        const double dens = 0.5 * (cell_density[a] + cell_density[b]);
        cap *= 1.0 - 0.5 * dens;
      }
      edges_[*e].capacity =
          std::max(0, static_cast<int>(std::floor(cap + 0.5)));
    }
  }

  // Via capacities: derated when either adjacent metal layer is blocked.
  for (int v = 0; v < num_via_layers(); ++v) {
    const int base = tech.vias_per_gcell[static_cast<std::size_t>(v)];
    for (std::size_t cell = 0; cell < num_cells(); ++cell) {
      const double blk = std::max(
          blocked[static_cast<std::size_t>(v) * num_cells() + cell],
          blocked[static_cast<std::size_t>(v + 1) * num_cells() + cell]);
      vias_[via_index(v, cell)].capacity =
          std::max(0, static_cast<int>(std::floor(base * (1.0 - blk) + 0.5)));
    }
  }
}

}  // namespace drcshap
