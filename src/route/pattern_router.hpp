#pragma once
// Pattern (L-shape) router for 2-pin connections.
//
// Initial global routing uses cheap L-patterns: a horizontal run on one of
// the horizontal layers (M1/M3/M5) plus a vertical run on one of the vertical
// layers (M2/M4), joined at one of the two possible corners. Both runs start
// and end with via stacks down to M1, where pins live. The cheapest pattern
// under the congestion-aware cost model wins. Overflows left behind are
// cleaned up by the maze rerouter.

#include "route/net_route.hpp"

namespace drcshap {

/// Builds the via stack (via layers lo..hi-1) at `cell`.
void append_via_stack(RoutePath& path, int metal_lo, int metal_hi,
                      std::size_t cell);

/// Cost of a candidate path in the current graph state (loads NOT
/// committed), summed from the graph's cost table.
double path_cost(const GridGraph& graph, const RoutePath& path);

/// Cheapest L/straight pattern between two g-cells under the graph's cost
/// table. For cell_a == cell_b returns an empty path. Never fails: some
/// pattern always exists on a grid with >= 1 row and column, though it may
/// be overflowed.
RoutePath pattern_route(const GridGraph& graph, std::size_t cell_a,
                        std::size_t cell_b);

}  // namespace drcshap
