#include "drc/track_model.hpp"

#include <algorithm>
#include <cmath>

namespace drcshap {

std::vector<GCellAggregate> compute_gcell_aggregates(const Design& design) {
  const GCellGrid& grid = design.grid();
  std::vector<GCellAggregate> agg(grid.size());

  // Cells: counted where fully contained; area apportioned by overlap.
  for (const Cell& c : design.cells()) {
    const std::size_t home = grid.locate(c.box.center());
    if (grid.cell_rect(home).contains(c.box)) {
      ++agg[home].n_cells;
    }
    for (const std::size_t cell : grid.cells_overlapping(c.box)) {
      agg[cell].cell_area_frac +=
          c.box.intersection_area(grid.cell_rect(cell)) / grid.cell_rect(cell).area();
    }
  }

  // Blockage area fraction (clipped at 1, overlapping blockages saturate).
  for (const Blockage& b : design.blockages()) {
    for (const std::size_t cell : grid.cells_overlapping(b.box)) {
      agg[cell].blockage_frac +=
          b.box.intersection_area(grid.cell_rect(cell)) / grid.cell_rect(cell).area();
    }
  }
  for (auto& a : agg) {
    a.cell_area_frac = std::min(1.0, a.cell_area_frac);
    a.blockage_frac = std::min(1.0, a.blockage_frac);
  }

  // Pins, clock pins, NDR pins; collect per-cell pin positions for spacing.
  std::vector<std::vector<Point>> pin_points(grid.size());
  for (const Pin& p : design.pins()) {
    const std::size_t cell = grid.locate(p.position);
    ++agg[cell].n_pins;
    if (p.is_clock) ++agg[cell].n_clock_pins;
    if (p.has_ndr) ++agg[cell].n_ndr_pins;
    pin_points[cell].push_back(p.position);
  }

  // Local nets: all pins land in the same g-cell.
  for (NetId n = 0; n < design.num_nets(); ++n) {
    if (!design.is_local_net(n)) continue;
    const Net& net = design.net(n);
    const std::size_t cell = grid.locate(design.pin(net.pins.front()).position);
    ++agg[cell].n_local_nets;
    agg[cell].n_local_net_pins += static_cast<int>(net.pins.size());
  }

  // Mean pairwise Manhattan pin spacing.
  for (std::size_t cell = 0; cell < grid.size(); ++cell) {
    const auto& pts = pin_points[cell];
    if (pts.size() < 2) continue;
    double total = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      for (std::size_t j = i + 1; j < pts.size(); ++j) {
        total += manhattan(pts[i], pts[j]);
      }
    }
    const double pairs = static_cast<double>(pts.size()) *
                         static_cast<double>(pts.size() - 1) / 2.0;
    agg[cell].pin_spacing = total / pairs;
  }

  // Macro adjacency: the g-cell rect (slightly inflated) touches a macro.
  for (const Macro& m : design.macros()) {
    const Rect zone = m.box.inflated(
        std::max(grid.cell_width(), grid.cell_height()) * 0.51);
    for (const std::size_t cell : grid.cells_overlapping(zone)) {
      agg[cell].macro_adjacent = true;
    }
  }

  return agg;
}

TrackModel::TrackModel(const Design& design, const CongestionMap& cong)
    : num_cells_(cong.num_cells()),
      num_metal_(cong.num_metal_layers()),
      num_vias_(cong.num_via_layers()) {
  (void)design;
  demand_.assign(static_cast<std::size_t>(num_metal_) * num_cells_, 0.0);
  supply_.assign(demand_.size(), 0.0);
  edge_overflow_.assign(demand_.size(), 0);
  via_pressure_.assign(static_cast<std::size_t>(num_vias_) * num_cells_, 0.0);

  const std::size_t nx = cong.nx();
  const std::size_t ny = cong.ny();
  for (int m = 0; m < num_metal_; ++m) {
    for (std::size_t cell = 0; cell < num_cells_; ++cell) {
      const std::size_t c = cell % nx;
      const std::size_t r = cell / nx;
      double load = 0.0, cap = 0.0;
      int n_edges = 0, overflow = 0;
      auto consider = [&](std::size_t a, std::size_t b) {
        load += cong.edge_load(m, a, b);
        cap += cong.edge_capacity(m, a, b);
        overflow += std::max(0, cong.edge_load(m, a, b) -
                                    cong.edge_capacity(m, a, b));
        ++n_edges;
      };
      if (Technology::is_horizontal(m)) {
        if (c > 0) consider(cell - 1, cell);
        if (c + 1 < nx) consider(cell, cell + 1);
      } else {
        if (r > 0) consider(cell - nx, cell);
        if (r + 1 < ny) consider(cell, cell + nx);
      }
      if (n_edges > 0) {
        demand_[index(cell, m)] = load / n_edges;
        supply_[index(cell, m)] = cap / n_edges;
      }
      edge_overflow_[index(cell, m)] = overflow;
    }
  }
  for (int v = 0; v < num_vias_; ++v) {
    for (std::size_t cell = 0; cell < num_cells_; ++cell) {
      const int cap = cong.via_capacity(v, cell);
      const int load = cong.via_load(v, cell);
      via_pressure_[static_cast<std::size_t>(v) * num_cells_ + cell] =
          static_cast<double>(load) / std::max(1, cap);
    }
  }
}

double TrackModel::wire_demand(std::size_t cell, int metal) const {
  return demand_.at(index(cell, metal));
}

double TrackModel::wire_supply(std::size_t cell, int metal) const {
  return supply_.at(index(cell, metal));
}

double TrackModel::overflow(std::size_t cell, int metal) const {
  return std::max(0.0, wire_demand(cell, metal) - wire_supply(cell, metal));
}

int TrackModel::edge_overflow(std::size_t cell, int metal) const {
  return edge_overflow_.at(index(cell, metal));
}

double TrackModel::via_pressure(std::size_t cell, int via_layer) const {
  return via_pressure_.at(static_cast<std::size_t>(via_layer) * num_cells_ + cell);
}

}  // namespace drcshap
