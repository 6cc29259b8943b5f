#include "route/global_router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/registry.hpp"
#include "route/maze_router.hpp"
#include "route/pattern_router.hpp"
#include "util/log.hpp"

namespace drcshap {

std::vector<std::pair<std::size_t, std::size_t>> decompose_net(
    const Design& design, NetId net_id) {
  const GCellGrid& grid = design.grid();
  // Distinct g-cells touched by the net's pins, in first-seen order. A
  // sorted flat set carries the membership test so high-fanout nets pay
  // O(log k) lookups instead of the former O(k) linear find per pin.
  std::vector<std::size_t> cells;
  std::vector<std::size_t> seen;  // sorted
  for (const PinId p : design.net(net_id).pins) {
    const std::size_t cell = grid.locate(design.pin(p).position);
    const auto it = std::lower_bound(seen.begin(), seen.end(), cell);
    if (it != seen.end() && *it == cell) continue;
    seen.insert(it, cell);
    cells.push_back(cell);
  }
  std::vector<std::pair<std::size_t, std::size_t>> segments;
  if (cells.size() < 2) return segments;

  // Prim MST over Manhattan g-cell distance (nets are small: O(k^2) is fine).
  const std::size_t nx = grid.nx();
  auto dist = [&](std::size_t a, std::size_t b) {
    const auto ca = static_cast<long>(a % nx), ra = static_cast<long>(a / nx);
    const auto cb = static_cast<long>(b % nx), rb = static_cast<long>(b / nx);
    return std::labs(ca - cb) + std::labs(ra - rb);
  };
  std::vector<bool> in_tree(cells.size(), false);
  std::vector<long> best_dist(cells.size(), std::numeric_limits<long>::max());
  std::vector<std::size_t> best_parent(cells.size(), 0);
  in_tree[0] = true;
  for (std::size_t i = 1; i < cells.size(); ++i) {
    best_dist[i] = dist(cells[0], cells[i]);
    best_parent[i] = 0;
  }
  for (std::size_t added = 1; added < cells.size(); ++added) {
    std::size_t pick = 0;
    long pick_dist = std::numeric_limits<long>::max();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!in_tree[i] && best_dist[i] < pick_dist) {
        pick = i;
        pick_dist = best_dist[i];
      }
    }
    in_tree[pick] = true;
    segments.emplace_back(cells[best_parent[pick]], cells[pick]);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!in_tree[i]) {
        const long d = dist(cells[pick], cells[i]);
        if (d < best_dist[i]) {
          best_dist[i] = d;
          best_parent[i] = pick;
        }
      }
    }
  }
  return segments;
}

bool touches_overflow(const GridGraph& graph, const RoutePath& path) {
  for (const EdgeId e : path.edges) {
    if (graph.edge_overflow(e) > 0) return true;
  }
  for (const auto& [layer, cell] : path.vias) {
    if (graph.via_overflow(layer, cell) > 0) return true;
  }
  return false;
}

namespace {

// Negotiated-congestion schedule of rip-up-and-reroute.
constexpr int kMaxRipupIterations = 3;
/// History added to each overflowed edge per iteration, scaled by its
/// overflow amount.
constexpr double kHistoryIncrement = 0.5;
/// Cap on segments re-routed per iteration (keeps worst-case time bounded).
constexpr std::size_t kMaxReroutesPerIteration = 50000;

/// Conservative cell-granularity divergence set of a replay run vs its base
/// trace. Invariant the reuse checks rely on: if a cell is clean, every
/// resource incident to it has had an identical (capacity, load, history)
/// trajectory in both runs up to the current control point — so any
/// recorded sub-result whose entire read set lies on clean cells would come
/// out identical if recomputed. Marks are monotone; every divergence marks
/// the cells of all resources involved before any later reuse decision.
class ReplayDirty {
 public:
  void init(const GridGraph& g, const RouteTrace& base) {
    nx_ = g.nx();
    cells_.assign(g.num_cells(), 0);
    const std::size_t num_cells = g.num_cells();
    if (base.edge_capacity.size() != g.num_edges() ||
        base.via_capacity.size() !=
            static_cast<std::size_t>(g.num_via_layers()) * num_cells) {
      mark_all();
      return;
    }
    for (std::size_t e = 0; e < g.num_edges(); ++e) {
      if (g.edge_capacity(static_cast<EdgeId>(e)) != base.edge_capacity[e]) {
        const auto [a, b] = g.edge_cells(static_cast<EdgeId>(e));
        mark_cell(a);
        mark_cell(b);
      }
    }
    for (int v = 0; v < g.num_via_layers(); ++v) {
      const std::size_t off = static_cast<std::size_t>(v) * num_cells;
      for (std::size_t c = 0; c < num_cells; ++c) {
        if (g.via_capacity(v, c) != base.via_capacity[off + c]) mark_cell(c);
      }
    }
  }

  void diff_pin_access(const GridGraph& g, const RouteTrace& base) {
    if (all_dirty_) return;
    if (base.pin_access_load.size() != g.num_cells()) {
      mark_all();
      return;
    }
    for (std::size_t c = 0; c < g.num_cells(); ++c) {
      if (g.via_load(0, c) != base.pin_access_load[c]) mark_cell(c);
    }
  }

  void mark_all() {
    std::fill(cells_.begin(), cells_.end(), std::uint8_t{1});
    marked_ = cells_.size();
    all_dirty_ = true;
  }

  void mark_cell(std::size_t cell) {
    if (cells_[cell] == 0) {
      cells_[cell] = 1;
      ++marked_;
    }
  }

  void mark_path(const GridGraph& g, const RoutePath& path) {
    for (const EdgeId e : path.edges) {
      const auto [a, b] = g.edge_cells(e);
      mark_cell(a);
      mark_cell(b);
    }
    for (const auto& [layer, cell] : path.vias) {
      (void)layer;
      mark_cell(cell);
    }
  }

  bool box_clean(std::size_t col_lo, std::size_t col_hi, std::size_t row_lo,
                 std::size_t row_hi) const {
    for (std::size_t r = row_lo; r <= row_hi; ++r) {
      const std::uint8_t* row = cells_.data() + r * nx_;
      for (std::size_t c = col_lo; c <= col_hi; ++c) {
        if (row[c] != 0) return false;
      }
    }
    return true;
  }

  /// A pattern candidate only reads resources on the perimeter of
  /// bbox(a, b): the runs along the two endpoint rows and columns, plus via
  /// stacks at the endpoints and corners. Every read edge has both cells on
  /// those four grid lines, and a diverged resource marks all its cells, so
  /// clean lines prove the whole pattern read set unchanged.
  bool pattern_clean(std::size_t a, std::size_t b) const {
    const std::size_t ca = a % nx_, ra = a / nx_;
    const std::size_t cb = b % nx_, rb = b / nx_;
    const std::size_t clo = std::min(ca, cb), chi = std::max(ca, cb);
    const std::size_t rlo = std::min(ra, rb), rhi = std::max(ra, rb);
    for (std::size_t c = clo; c <= chi; ++c) {
      if (cells_[rlo * nx_ + c] != 0 || cells_[rhi * nx_ + c] != 0) {
        return false;
      }
    }
    for (std::size_t r = rlo; r <= rhi; ++r) {
      if (cells_[r * nx_ + clo] != 0 || cells_[r * nx_ + chi] != 0) {
        return false;
      }
    }
    return true;
  }

  std::size_t marked() const { return marked_; }

 private:
  std::vector<std::uint8_t> cells_;
  std::size_t nx_ = 0;
  std::size_t marked_ = 0;
  bool all_dirty_ = false;
};

}  // namespace

GlobalRouteResult global_route(const Design& design,
                               const GlobalRouterOptions& options,
                               RouteTrace* trace_out,
                               const RouteReplayInput* replay) {
  DRCSHAP_OBS_TIMER("route/global_route");
  GridGraph graph(design);
  const GCellGrid& grid = design.grid();

  const RouteTrace* base = (replay != nullptr) ? replay->base : nullptr;
  ReplayDirty dirty;
  if (base != nullptr) dirty.init(graph, *base);

  if (trace_out != nullptr) {
    const std::size_t num_cells = graph.num_cells();
    trace_out->edge_capacity.resize(graph.num_edges());
    for (std::size_t e = 0; e < graph.num_edges(); ++e) {
      trace_out->edge_capacity[e] =
          graph.edge_capacity(static_cast<EdgeId>(e));
    }
    trace_out->via_capacity.resize(
        static_cast<std::size_t>(graph.num_via_layers()) * num_cells);
    for (int v = 0; v < graph.num_via_layers(); ++v) {
      const std::size_t off = static_cast<std::size_t>(v) * num_cells;
      for (std::size_t c = 0; c < num_cells; ++c) {
        trace_out->via_capacity[off + c] = graph.via_capacity(v, c);
      }
    }
  }

  // Pin-access demand: each net adds one V1 via per distinct g-cell its pins
  // occupy (the connection from the pin level into the routing fabric).
  {
    std::vector<std::size_t> pin_cells;
    for (NetId n = 0; n < design.num_nets(); ++n) {
      pin_cells.clear();
      for (const PinId p : design.net(n).pins) {
        pin_cells.push_back(grid.locate(design.pin(p).position));
      }
      std::sort(pin_cells.begin(), pin_cells.end());
      pin_cells.erase(std::unique(pin_cells.begin(), pin_cells.end()),
                      pin_cells.end());
      for (const std::size_t cell : pin_cells) graph.add_via_load(0, cell, 1);
    }
  }
  if (base != nullptr) dirty.diff_pin_access(graph, *base);
  if (trace_out != nullptr) {
    trace_out->pin_access_load.resize(graph.num_cells());
    for (std::size_t c = 0; c < graph.num_cells(); ++c) {
      trace_out->pin_access_load[c] = graph.via_load(0, c);
    }
  }

  // Flatten all nets into 2-pin segments, track which net owns each.
  std::vector<TraceSegment> segments;
  GlobalRouteResult result{std::move(graph), {}, {}, 0, 0, 0, 0, 0};
  result.routes.resize(design.num_nets());
  const std::size_t nx = grid.nx();
  for (NetId n = 0; n < design.num_nets(); ++n) {
    result.routes[n].net = n;
    auto pairs = decompose_net(design, n);
    result.routes[n].segments.resize(pairs.size());
    for (std::size_t s = 0; s < pairs.size(); ++s) {
      const auto [a, b] = pairs[s];
      const long len = std::labs(static_cast<long>(a % nx) -
                                 static_cast<long>(b % nx)) +
                       std::labs(static_cast<long>(a / nx) -
                                 static_cast<long>(b / nx));
      segments.push_back({n, s, a, b, len});
    }
  }
  result.segments_total = segments.size();

  // Route short segments first: they have the fewest detour options.
  std::stable_sort(segments.begin(), segments.end(),
                   [](const TraceSegment& x, const TraceSegment& y) {
                     return x.length < y.length;
                   });

  obs::counter_add("route/segments", segments.size());

  // Record alignment is positional, so a base trace whose segment order no
  // longer matches the design's (an edit changed pins — nothing the current
  // EcoEdit kinds can do) is dropped: everything recomputes, which is still
  // exactly the full algorithm.
  if (base != nullptr &&
      (base->segments != segments || base->pattern.size() != segments.size())) {
    base = nullptr;
  }
  if (trace_out != nullptr) trace_out->segments = segments;

  GridGraph& g = result.graph;
  {
    DRCSHAP_OBS_TIMER("route/pattern_route");
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const TraceSegment& s = segments[i];
      const bool forced = replay != nullptr && !replay->force_net.empty() &&
                          replay->force_net[s.net] != 0;
      RoutePath path;
      if (base != nullptr && !forced && dirty.pattern_clean(s.a, s.b)) {
        path = base->pattern[i];
        ++result.pattern_reused;
      } else {
        path = pattern_route(g, s.a, s.b);
        if (base != nullptr && path != base->pattern[i]) {
          // This run and the base committed different demand here: both
          // versions' resources diverge from now on.
          dirty.mark_path(g, base->pattern[i]);
          dirty.mark_path(g, path);
        }
      }
      commit(g, path);
      if (trace_out != nullptr) trace_out->pattern.push_back(path);
      result.routes[s.net].segments[s.seg_index] = std::move(path);
    }
  }

  // Negotiated-congestion rip-up-and-reroute.
  MazeRouter maze(g);
  if (options.use_maze) {
    DRCSHAP_OBS_TIMER("route/ripup_reroute");
    for (int iter = 0; iter < kMaxRipupIterations; ++iter) {
      if (g.total_edge_overflow() == 0 && g.total_via_overflow() == 0) break;
      ++result.iterations_run;
      obs::counter_add("route/ripup_iterations");

      // Accumulate history on currently overflowed edges.
      for (std::size_t e = 0; e < g.num_edges(); ++e) {
        const int over = g.edge_overflow(static_cast<EdgeId>(e));
        if (over > 0) {
          g.add_edge_history(static_cast<EdgeId>(e),
                             kHistoryIncrement * over);
        }
      }

      const std::vector<TraceMazeRecord>* base_iter =
          (base != nullptr &&
           static_cast<std::size_t>(iter) < base->ripup.size())
              ? &base->ripup[static_cast<std::size_t>(iter)]
              : nullptr;
      std::size_t base_ptr = 0;
      // Base records with ordinals this run passes without rerouting are
      // reroutes the base performed and this run will not: everything those
      // calls touched diverges, and must be marked before any reuse
      // decision at a later ordinal.
      const auto consume_skipped_records = [&](std::size_t up_to_ordinal) {
        if (base_iter == nullptr) return;
        while (base_ptr < base_iter->size() &&
               (*base_iter)[base_ptr].ordinal < up_to_ordinal) {
          dirty.mark_path(g, (*base_iter)[base_ptr].removed);
          dirty.mark_path(g, (*base_iter)[base_ptr].committed);
          ++base_ptr;
        }
      };
      if (trace_out != nullptr) trace_out->ripup.emplace_back();

      std::size_t rerouted = 0;
      for (std::size_t i = 0; i < segments.size(); ++i) {
        const TraceSegment& s = segments[i];
        if (rerouted >= kMaxReroutesPerIteration) break;
        RoutePath& path = result.routes[s.net].segments[s.seg_index];
        if (path.empty() || !touches_overflow(g, path)) continue;
        consume_skipped_records(i);
        const TraceMazeRecord* rec =
            (base_iter != nullptr && base_ptr < base_iter->size() &&
             (*base_iter)[base_ptr].ordinal == i)
                ? &(*base_iter)[base_ptr]
                : nullptr;
        if (rec != nullptr) ++base_ptr;
        const bool forced = replay != nullptr && !replay->force_net.empty() &&
                            replay->force_net[s.net] != 0;

        uncommit(g, path);
        MazeResult mr;
        if (rec != nullptr && !forced &&
            dirty.box_clean(rec->col_lo, rec->col_hi, rec->row_lo,
                            rec->row_hi)) {
          // The base maze call's entire read set (resources incident to its
          // popped cells) is unchanged, so re-running it would reproduce
          // the recorded outcome.
          mr.found = rec->found;
          if (rec->found) mr.path = rec->committed;
          mr.col_lo = rec->col_lo;
          mr.col_hi = rec->col_hi;
          mr.row_lo = rec->row_lo;
          mr.row_hi = rec->row_hi;
          ++result.maze_reused;
        } else {
          mr = maze.route(s.a, s.b);
          if (replay != nullptr) ++result.maze_recomputed;
          if (base != nullptr) {
            if (rec != nullptr) {
              const RoutePath& now_new = mr.found ? mr.path : path;
              if (rec->found != mr.found || rec->removed != path ||
                  rec->committed != now_new) {
                dirty.mark_path(g, rec->removed);
                dirty.mark_path(g, rec->committed);
                dirty.mark_path(g, path);
                dirty.mark_path(g, now_new);
              }
            } else {
              // This run reroutes where the base did not: the base's
              // version of this segment is `path` or an ancestor already
              // marked when it diverged, so marking the two paths this
              // call touches covers the difference.
              dirty.mark_path(g, path);
              if (mr.found) dirty.mark_path(g, mr.path);
            }
          }
        }

        TraceMazeRecord out_rec;
        if (trace_out != nullptr) {
          out_rec.ordinal = i;
          out_rec.found = mr.found;
          out_rec.removed = path;
          out_rec.col_lo = mr.col_lo;
          out_rec.col_hi = mr.col_hi;
          out_rec.row_lo = mr.row_lo;
          out_rec.row_hi = mr.row_hi;
        }
        if (mr.found) {
          path = std::move(mr.path);
        }
        // (if not found, recommit the old path)
        commit(g, path);
        if (trace_out != nullptr) {
          out_rec.committed = path;
          trace_out->ripup.back().push_back(std::move(out_rec));
        }
        ++rerouted;
        // Once nothing is overflowed (the totals are O(1)), every remaining
        // segment would fail touches_overflow anyway — stop scanning.
        if (g.total_edge_overflow() == 0 && g.total_via_overflow() == 0) {
          break;
        }
      }
      consume_skipped_records(segments.size());
      result.segments_rerouted += rerouted;
      log_debug("global_route iter ", iter, ": rerouted ", rerouted,
                ", edge_ovf ", g.total_edge_overflow(), ", via_ovf ",
                g.total_via_overflow());
      if (rerouted == 0) break;
    }
  }

  result.edge_overflow = g.total_edge_overflow();
  result.via_overflow = g.total_via_overflow();
  result.congestion = CongestionMap::extract(g);
  if (replay != nullptr) {
    result.replay_dirty_cells = (base != nullptr) ? dirty.marked() : 0;
    obs::counter_add("route/eco_pattern_reused", result.pattern_reused);
    obs::counter_add("route/eco_maze_reused", result.maze_reused);
    obs::counter_add("route/eco_maze_recomputed", result.maze_recomputed);
  }
  obs::counter_add("route/segments_rerouted", result.segments_rerouted);
  obs::gauge_set("route/edge_overflow",
                 static_cast<double>(result.edge_overflow));
  obs::gauge_set("route/via_overflow",
                 static_cast<double>(result.via_overflow));
  return result;
}

}  // namespace drcshap
