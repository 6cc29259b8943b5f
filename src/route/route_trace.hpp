#pragma once
// Recorded routing trajectory for the incremental ECO loop.
//
// `global_route` is a sequential negotiated-congestion algorithm whose
// result depends on the order and outcome of every pattern-route and maze
// call, so "re-route only the nets near the edit" cannot by itself match a
// from-scratch rebuild byte for byte. What can: re-running the exact same
// control flow on a live graph while *memoizing* the expensive sub-calls —
// a recorded sub-result is substituted only when a conservative dirty-cell
// check proves its entire read set is unchanged since the base run, and
// every divergence (an edit's capacity delta, a path that came out
// different, a reroute one run performed and the other did not) marks the
// affected cells dirty before any later reuse decision looks at them. The
// replay therefore IS the full algorithm, with some calls answered from the
// trace; byte-identity with a from-scratch rebuild is structural, not
// statistical, and holds for arbitrary edits at any thread count.
//
// A trace is recorded by passing `trace_out` to `global_route` (both on a
// full run and on a replay, so each ECO apply produces the base trace for
// the next one).

#include <cstdint>
#include <vector>

#include "route/net_route.hpp"

namespace drcshap {

/// One 2-pin segment in the exact order the router processes them
/// (stable-sorted by length). A replay recomputes this array from the
/// edited design and falls back to a full recompute if it no longer
/// matches the trace — record alignment is by position in this array.
struct TraceSegment {
  NetId net = kInvalidId;
  std::size_t seg_index = 0;
  std::size_t a = 0;
  std::size_t b = 0;
  long length = 0;

  bool operator==(const TraceSegment&) const = default;
};

/// One rip-up-and-reroute the base run performed: which segment (by
/// position in `segments`), what it uncommitted, what the maze returned,
/// and the popped-cell bounding box the maze result is a pure function of.
struct TraceMazeRecord {
  std::size_t ordinal = 0;
  bool found = false;
  RoutePath removed;    ///< the path uncommitted before the maze call
  RoutePath committed;  ///< the path committed after (== removed if !found)
  std::uint32_t col_lo = 0;
  std::uint32_t col_hi = 0;
  std::uint32_t row_lo = 0;
  std::uint32_t row_hi = 0;
};

struct RouteTrace {
  std::vector<TraceSegment> segments;
  /// Pattern-stage result per segment ordinal. A pattern candidate only
  /// ever touches the perimeter of bbox(a, b), so reuse is gated on those
  /// four grid lines being clean.
  std::vector<RoutePath> pattern;
  /// Maze records per rip-up iteration, in increasing ordinal.
  std::vector<std::vector<TraceMazeRecord>> ripup;
  /// Post-construction resource capacities and post-pin-access V1 loads of
  /// the base graph: diffing them against the edited design's fresh graph
  /// yields the initial dirty-cell set of a replay.
  std::vector<int> edge_capacity;
  std::vector<int> via_capacity;  ///< via_layer * num_cells + cell
  std::vector<int> pin_access_load;  ///< V1 load per cell
};

/// Replay input: the base trace plus per-net force-recompute flags (the
/// reroute-named-nets ECO verb). Forced segments skip reuse and re-run
/// their pattern/maze calls on the live graph — on an otherwise clean
/// graph that reproduces the base paths exactly, which is what
/// byte-identity demands of an edit that does not change the design.
struct RouteReplayInput {
  const RouteTrace* base = nullptr;
  std::vector<std::uint8_t> force_net;  ///< indexed by NetId; empty = none
};

}  // namespace drcshap
