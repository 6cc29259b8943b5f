#pragma once
// Global-routing orchestrator: net decomposition, initial pattern routing,
// and PathFinder-style negotiated-congestion rip-up-and-reroute with the
// maze router. Produces the congestion map consumed by feature extraction
// and the DRC oracle (the role Olympus-SoC's signal GR plays in the paper).

#include <cstdint>
#include <vector>

#include "netlist/design.hpp"
#include "route/congestion.hpp"
#include "route/net_route.hpp"
#include "route/route_trace.hpp"

namespace drcshap {

struct GlobalRouterOptions {
  /// False skips rip-up-and-reroute: the result is the pattern routes.
  bool use_maze = true;
};

struct GlobalRouteResult {
  GridGraph graph;            ///< final loads/capacities
  CongestionMap congestion;   ///< snapshot of `graph`
  std::vector<NetRoute> routes;
  long edge_overflow = 0;
  long via_overflow = 0;
  int iterations_run = 0;
  std::size_t segments_total = 0;
  std::size_t segments_rerouted = 0;
  // Replay accounting (zero on a plain full run): how many expensive calls
  // were answered from the base trace vs recomputed, and how many cells the
  // conservative divergence set ended up covering.
  std::size_t pattern_reused = 0;
  std::size_t maze_reused = 0;
  std::size_t maze_recomputed = 0;
  std::size_t replay_dirty_cells = 0;
};

/// Routes all signal/clock nets of the placed design. `trace_out`, if
/// non-null, receives the run's recorded trajectory (see route_trace.hpp;
/// the base for a future replay; must be empty on entry). `replay`, if
/// non-null with a base trace, substitutes recorded pattern/maze results
/// whose read sets are provably unchanged. The result is byte-identical
/// with or without either.
GlobalRouteResult global_route(const Design& design,
                               const GlobalRouterOptions& options = {},
                               RouteTrace* trace_out = nullptr,
                               const RouteReplayInput* replay = nullptr);

/// True if any resource used by `path` is overflowed in `graph`: the
/// predicate that picks the segments rip-up reroutes.
bool touches_overflow(const GridGraph& graph, const RoutePath& path);

/// Decomposes a net's pin g-cells into MST 2-pin segments (pairs of distinct
/// g-cell indices). Exposed for tests.
std::vector<std::pair<std::size_t, std::size_t>> decompose_net(
    const Design& design, NetId net);

}  // namespace drcshap
