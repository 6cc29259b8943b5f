#include "route/pattern_router.hpp"

#include <limits>
#include <stdexcept>

namespace drcshap {

namespace {

/// Appends the metal edges of a straight run on `metal` from (c0,r0) to
/// (c1,r1); exactly one coordinate may differ.
void append_run(RoutePath& path, const GridGraph& g, int metal,
                std::size_t col0, std::size_t row0, std::size_t col1,
                std::size_t row1) {
  const std::size_t nx = g.nx();
  if (row0 == row1) {
    const std::size_t lo = std::min(col0, col1);
    const std::size_t hi = std::max(col0, col1);
    for (std::size_t c = lo; c < hi; ++c) {
      const auto e = g.edge(metal, row0 * nx + c, Dir::kEast);
      if (!e) throw std::logic_error("append_run: missing horizontal edge");
      path.edges.push_back(*e);
    }
  } else if (col0 == col1) {
    const std::size_t lo = std::min(row0, row1);
    const std::size_t hi = std::max(row0, row1);
    for (std::size_t r = lo; r < hi; ++r) {
      const auto e = g.edge(metal, r * nx + col0, Dir::kNorth);
      if (!e) throw std::logic_error("append_run: missing vertical edge");
      path.edges.push_back(*e);
    }
  } else {
    throw std::logic_error("append_run: diagonal run");
  }
}

}  // namespace

void append_via_stack(RoutePath& path, int metal_lo, int metal_hi,
                      std::size_t cell) {
  for (int v = std::min(metal_lo, metal_hi); v < std::max(metal_lo, metal_hi);
       ++v) {
    path.vias.emplace_back(v, cell);
  }
}

double path_cost(const GridGraph& graph, const RoutePath& path) {
  double cost = 0.0;
  for (const EdgeId e : path.edges) cost += graph.edge_cost(e);
  for (const auto& [layer, cell] : path.vias) {
    cost += graph.via_cost(layer, cell);
  }
  return cost;
}

RoutePath pattern_route(const GridGraph& graph, std::size_t cell_a,
                        std::size_t cell_b) {
  if (cell_a == cell_b) return {};
  const std::size_t nx = graph.nx();
  const std::size_t ca = cell_a % nx, ra = cell_a / nx;
  const std::size_t cb = cell_b % nx, rb = cell_b / nx;
  const int top = graph.num_metal_layers();

  std::vector<int> h_layers, v_layers;
  for (int m = 0; m < top; ++m) {
    (Technology::is_horizontal(m) ? h_layers : v_layers).push_back(m);
  }

  RoutePath best;
  double best_cost = std::numeric_limits<double>::infinity();
  auto consider = [&](RoutePath&& candidate) {
    const double c = path_cost(graph, candidate);
    if (c < best_cost) {
      best_cost = c;
      best = std::move(candidate);
    }
  };

  if (ra == rb) {
    // Pure horizontal connection: try each horizontal layer.
    for (const int mh : h_layers) {
      RoutePath p;
      append_via_stack(p, 0, mh, cell_a);
      append_run(p, graph, mh, ca, ra, cb, rb);
      append_via_stack(p, mh, 0, cell_b);
      consider(std::move(p));
    }
    return best;
  }
  if (ca == cb) {
    for (const int mv : v_layers) {
      RoutePath p;
      append_via_stack(p, 0, mv, cell_a);
      append_run(p, graph, mv, ca, ra, cb, rb);
      append_via_stack(p, mv, 0, cell_b);
      consider(std::move(p));
    }
    return best;
  }

  // Two L corners x horizontal-layer x vertical-layer combinations.
  for (const int mh : h_layers) {
    for (const int mv : v_layers) {
      {
        // Horizontal first: a -> (cb, ra) on mh, then vertical to b on mv.
        RoutePath p;
        const std::size_t corner = ra * nx + cb;
        append_via_stack(p, 0, mh, cell_a);
        append_run(p, graph, mh, ca, ra, cb, ra);
        append_via_stack(p, mh, mv, corner);
        append_run(p, graph, mv, cb, ra, cb, rb);
        append_via_stack(p, mv, 0, cell_b);
        consider(std::move(p));
      }
      {
        // Vertical first: a -> (ca, rb) on mv, then horizontal to b on mh.
        RoutePath p;
        const std::size_t corner = rb * nx + ca;
        append_via_stack(p, 0, mv, cell_a);
        append_run(p, graph, mv, ca, ra, ca, rb);
        append_via_stack(p, mv, mh, corner);
        append_run(p, graph, mh, ca, rb, cb, rb);
        append_via_stack(p, mh, 0, cell_b);
        consider(std::move(p));
      }
    }
  }
  return best;
}

}  // namespace drcshap
