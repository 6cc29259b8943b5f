#include "route/maze_router.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/registry.hpp"

namespace drcshap {

namespace {
constexpr std::uint32_t kNoParent = 0xffffffffu;
}

MazeRouter::MazeRouter(const GridGraph& graph) : g_(graph) {
  const std::size_t num_cells = g_.num_cells();
  const std::size_t n =
      static_cast<std::size_t>(g_.num_metal_layers()) * num_cells;
  cell_of_.resize(n);
  metal_of_.resize(n);
  for (std::size_t node = 0; node < n; ++node) {
    cell_of_[node] = static_cast<std::uint32_t>(node % num_cells);
    metal_of_[node] = static_cast<std::int32_t>(node / num_cells);
  }
  col_of_.resize(num_cells);
  row_of_.resize(num_cells);
  for (std::size_t cell = 0; cell < num_cells; ++cell) {
    col_of_[cell] = static_cast<std::uint32_t>(cell % g_.nx());
    row_of_[cell] = static_cast<std::uint32_t>(cell / g_.nx());
  }
  dist_.assign(n, 0.0);
  stamp_.assign(n, 0);
  parent_.assign(n, kNoParent);
  h_cache_.assign(num_cells, 0.0);
  h_stamp_.assign(num_cells, 0);
  open_.reserve(256);
}

MazeRouter::OpenKey MazeRouter::pack(double f, std::uint32_t node,
                                     std::uint32_t cell) {
  std::uint64_t f_bits;
  static_assert(sizeof(f_bits) == sizeof(f));
  std::memcpy(&f_bits, &f, sizeof(f));
  return (static_cast<OpenKey>(f_bits) << 64) |
         (static_cast<std::uint64_t>(node) << 32) | cell;
}

void MazeRouter::heap_push(OpenKey key) {
  std::size_t i = open_.size();
  open_.push_back(key);
  while (i > 0) {
    const std::size_t up = (i - 1) / 4;
    if (open_[up] <= key) break;
    open_[i] = open_[up];
    i = up;
  }
  open_[i] = key;
}

MazeRouter::OpenKey MazeRouter::heap_pop() {
  const OpenKey top = open_.front();
  const OpenKey last = open_.back();
  open_.pop_back();
  const std::size_t n = open_.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      OpenKey best_key = open_[first];
      const std::size_t stop = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < stop; ++c) {
        const OpenKey k = open_[c];
        best = k < best_key ? c : best;
        best_key = k < best_key ? k : best_key;
      }
      if (last <= best_key) break;
      open_[i] = best_key;
      i = best;
    }
    open_[i] = last;
  }
  return top;
}

MazeResult MazeRouter::route(std::size_t cell_a, std::size_t cell_b) {
  MazeResult result;
  result.col_lo = col_of_[cell_a];
  result.col_hi = col_of_[cell_a];
  result.row_lo = row_of_[cell_a];
  result.row_hi = row_of_[cell_a];
  if (cell_a == cell_b) {
    result.found = true;
    return result;
  }
  ++current_stamp_;
  const std::size_t nx = g_.nx();
  const std::size_t ny = g_.ny();
  const std::size_t num_cells = g_.num_cells();
  const int num_metal = g_.num_metal_layers();
  open_.clear();

  // Admissible heuristic: remaining Manhattan distance in cells times the
  // minimum per-edge cost (base), ignoring vias. It only depends on the
  // cell, so it is computed once per cell per call and cached.
  const std::size_t cb = col_of_[cell_b], rb = row_of_[cell_b];
  auto heuristic = [&](std::size_t cell) {
    if (h_stamp_[cell] == current_stamp_) return h_cache_[cell];
    const std::size_t c = col_of_[cell], r = row_of_[cell];
    const double dx = c > cb ? static_cast<double>(c - cb)
                             : static_cast<double>(cb - c);
    const double dy = r > rb ? static_cast<double>(r - rb)
                             : static_cast<double>(rb - r);
    const double h = kRouteBaseCost * (dx + dy);
    h_stamp_[cell] = current_stamp_;
    h_cache_[cell] = h;
    return h;
  };

  auto relax = [&](std::size_t node, std::size_t cell, double g_cost,
                   std::size_t parent, double h) {
    if (stamp_[node] == current_stamp_ && dist_[node] <= g_cost) return;
    stamp_[node] = current_stamp_;
    dist_[node] = g_cost;
    parent_[node] = static_cast<std::uint32_t>(parent);
    heap_push(pack(g_cost + h, static_cast<std::uint32_t>(node),
                   static_cast<std::uint32_t>(cell)));
  };

  const std::size_t start = node_id(0, cell_a);
  const std::size_t goal = node_id(0, cell_b);
  std::uint64_t expansions = 0;
  relax(start, cell_a, 0.0, kNoParent, heuristic(cell_a));

  while (!open_.empty()) {
    const OpenKey top = heap_pop();
    const std::size_t node = static_cast<std::uint32_t>(top >> 32);
    const std::size_t cell = static_cast<std::uint32_t>(top);
    const std::uint64_t f_bits = static_cast<std::uint64_t>(top >> 64);
    double f;
    std::memcpy(&f, &f_bits, sizeof(f));
    const double g_cost = dist_[node];
    // Stale-entry check: h_cache_[cell] still holds the exact heuristic the
    // entry was pushed with (it is stamped per search and written once).
    if (stamp_[node] != current_stamp_ || f > g_cost + h_cache_[cell] + 1e-12) {
      continue;  // stale queue entry
    }
    ++expansions;
    {
      const std::uint32_t pc = col_of_[cell], pr = row_of_[cell];
      result.col_lo = std::min(result.col_lo, pc);
      result.col_hi = std::max(result.col_hi, pc);
      result.row_lo = std::min(result.row_lo, pr);
      result.row_hi = std::max(result.row_hi, pr);
    }
    if (node == goal) break;
    const int metal = metal_of_[node];
    const std::size_t c = col_of_[cell], r = row_of_[cell];

    // In-layer moves along the preferred direction. Edge ids are addressed
    // directly inside the layer's contiguous block (see layer_edge_begin)
    // rather than through the checked GridGraph::edge lookup.
    const EdgeId base = g_.layer_edge_begin(metal);
    if (Technology::is_horizontal(metal)) {
      const EdgeId row = base + static_cast<EdgeId>(r * (nx - 1));
      if (c + 1 < nx) {
        relax(node + 1, cell + 1,
              g_cost + g_.edge_cost(row + static_cast<EdgeId>(c)), node,
              heuristic(cell + 1));
      }
      if (c > 0) {
        relax(node - 1, cell - 1,
              g_cost + g_.edge_cost(row + static_cast<EdgeId>(c - 1)), node,
              heuristic(cell - 1));
      }
    } else {
      if (r + 1 < ny) {
        relax(node + nx, cell + nx,
              g_cost + g_.edge_cost(base + static_cast<EdgeId>(r * nx + c)),
              node, heuristic(cell + nx));
      }
      if (r > 0) {
        relax(node - nx, cell - nx,
              g_cost +
                  g_.edge_cost(base + static_cast<EdgeId>((r - 1) * nx + c)),
              node, heuristic(cell - nx));
      }
    }
    // Layer changes (the heuristic ignores layers, so h is the cell's).
    const double h_cell = heuristic(cell);
    if (metal + 1 < num_metal) {
      relax(node + num_cells, cell, g_cost + g_.via_cost(metal, cell), node,
            h_cell);
    }
    if (metal > 0) {
      relax(node - num_cells, cell, g_cost + g_.via_cost(metal - 1, cell),
            node, h_cell);
    }
  }
  obs::counter_add("route/maze_expansions", expansions);

  if (stamp_[goal] != current_stamp_) return result;  // unreachable

  // Reconstruct path from the parent chain.
  result.found = true;
  result.cost = dist_[goal];
  std::size_t node = goal;
  while (parent_[node] != kNoParent) {
    const std::size_t prev = parent_[node];
    const int m_now = metal_of_[node];
    const int m_prev = metal_of_[prev];
    const std::size_t c_now = cell_of_[node];
    const std::size_t c_prev = cell_of_[prev];
    if (m_now == m_prev) {
      // In-layer step: find the shared edge.
      const std::size_t lo = std::min(c_now, c_prev);
      const bool horizontal = (std::max(c_now, c_prev) == lo + 1);
      const auto e = g_.edge(m_now, lo, horizontal ? Dir::kEast : Dir::kNorth);
      if (!e) throw std::logic_error("MazeRouter: broken parent chain");
      result.path.edges.push_back(*e);
    } else {
      result.path.vias.emplace_back(std::min(m_now, m_prev), c_now);
    }
    node = prev;
  }
  return result;
}

}  // namespace drcshap
