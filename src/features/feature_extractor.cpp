#include "features/feature_extractor.hpp"

#include <stdexcept>

#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {

FeatureExtractor::FeatureExtractor(const Design& design,
                                   const CongestionMap& congestion,
                                   std::vector<GCellAggregate> aggregates)
    : design_(design), cong_(congestion), agg_(std::move(aggregates)) {
  if (congestion.nx() != design.grid().nx() ||
      congestion.ny() != design.grid().ny()) {
    throw std::invalid_argument("FeatureExtractor: grid mismatch");
  }
  if (congestion.num_metal_layers() != FeatureSchema::kMetalLayers) {
    throw std::invalid_argument(
        "FeatureExtractor: schema expects 5 metal layers");
  }
  if (agg_.size() != design.grid().size()) {
    throw std::invalid_argument("FeatureExtractor: aggregate count mismatch");
  }
}

void FeatureExtractor::extract_into(std::size_t cell,
                                    std::span<float> out) const {
  if (out.size() != FeatureSchema::kNumFeatures) {
    throw std::invalid_argument("FeatureExtractor: bad output span size");
  }
  const GCellGrid& grid = design_.grid();
  if (cell >= grid.size()) {
    throw std::out_of_range("FeatureExtractor: bad g-cell index");
  }
  std::fill(out.begin(), out.end(), 0.0f);  // blank padding default

  const auto col = static_cast<std::ptrdiff_t>(grid.col_of(cell));
  const auto row = static_cast<std::ptrdiff_t>(grid.row_of(cell));

  // Resolve window positions to absolute g-cell indices (-1 = off layout).
  std::array<std::ptrdiff_t, FeatureSchema::kNumWindowPositions> window{};
  const auto& offsets = FeatureSchema::position_offsets();
  for (std::size_t p = 0; p < offsets.size(); ++p) {
    const std::ptrdiff_t c = col + offsets[p].first;
    const std::ptrdiff_t r = row + offsets[p].second;
    window[p] = grid.in_bounds(c, r)
                    ? static_cast<std::ptrdiff_t>(
                          grid.index(static_cast<std::size_t>(c),
                                     static_cast<std::size_t>(r)))
                    : -1;
  }

  // Block 1: per-position placement scalars.
  for (std::size_t p = 0; p < window.size(); ++p) {
    if (window[p] < 0) continue;
    const auto idx = static_cast<std::size_t>(window[p]);
    const GCellAggregate& a = agg_[idx];
    const Point center = grid.cell_rect(idx).center();
    const Rect& die = design_.die();
    auto put = [&](std::size_t scalar, double v) {
      out[FeatureSchema::scalar_index(p, scalar)] = static_cast<float>(v);
    };
    put(0, (center.x - die.x_lo) / die.width());
    put(1, (center.y - die.y_lo) / die.height());
    put(2, a.n_cells);
    put(3, a.n_pins);
    put(4, a.n_clock_pins);
    put(5, a.n_local_nets);
    put(6, a.n_local_net_pins);
    put(7, a.n_ndr_pins);
    put(8, a.pin_spacing);
    put(9, a.blockage_frac);
    put(10, a.cell_area_frac);
  }

  // Block 2: window border edge congestion per metal layer.
  const auto& edges = FeatureSchema::window_edges();
  for (int m = 0; m < FeatureSchema::kMetalLayers; ++m) {
    const bool horizontal_layer = Technology::is_horizontal(m);
    for (std::size_t e = 0; e < edges.size(); ++e) {
      // A border is crossed only by wires running perpendicular to it; the
      // suffix H marks borders crossed by horizontal wires (odd layers get 0).
      if (edges[e].crossed_by_horizontal_wires != horizontal_layer) continue;
      const std::ptrdiff_t a = window[edges[e].pos_a];
      const std::ptrdiff_t b = window[edges[e].pos_b];
      if (a < 0 || b < 0) continue;
      const int cap = cong_.edge_capacity(m, static_cast<std::size_t>(a),
                                          static_cast<std::size_t>(b));
      const int load = cong_.edge_load(m, static_cast<std::size_t>(a),
                                       static_cast<std::size_t>(b));
      out[FeatureSchema::edge_index(m, e, 0)] = static_cast<float>(cap);
      out[FeatureSchema::edge_index(m, e, 1)] = static_cast<float>(load);
      out[FeatureSchema::edge_index(m, e, 2)] = static_cast<float>(cap - load);
    }
  }

  // Block 3: via congestion per window cell and via layer.
  for (int v = 0; v < FeatureSchema::kViaLayers; ++v) {
    for (std::size_t p = 0; p < window.size(); ++p) {
      if (window[p] < 0) continue;
      const auto idx = static_cast<std::size_t>(window[p]);
      const int cap = cong_.via_capacity(v, idx);
      const int load = cong_.via_load(v, idx);
      out[FeatureSchema::via_index(v, p, 0)] = static_cast<float>(cap);
      out[FeatureSchema::via_index(v, p, 1)] = static_cast<float>(load);
      out[FeatureSchema::via_index(v, p, 2)] = static_cast<float>(cap - load);
    }
  }
}

std::vector<float> FeatureExtractor::extract(std::size_t cell) const {
  std::vector<float> out(FeatureSchema::kNumFeatures);
  extract_into(cell, out);
  return out;
}

std::vector<float> FeatureExtractor::extract_all(std::size_t n_threads) const {
  DRCSHAP_OBS_TIMER("features/extract");
  const std::size_t n = design_.grid().size();
  obs::counter_add("features/rows", n);
  std::vector<float> matrix(n * FeatureSchema::kNumFeatures);
  // Read-only over the design/congestion/aggregates; every cell writes only
  // its own row slot, so the parallel fill is byte-identical to serial.
  parallel_for_shared(
      n,
      [&](std::size_t cell) {
        extract_into(cell,
                     std::span<float>(
                         matrix.data() + cell * FeatureSchema::kNumFeatures,
                         FeatureSchema::kNumFeatures));
      },
      n_threads);
  return matrix;
}

}  // namespace drcshap
