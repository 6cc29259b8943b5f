#include "eco/eco_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "features/feature_extractor.hpp"
#include "features/feature_names.hpp"
#include "obs/registry.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {

namespace {

/// Marks both cells of every metal edge and the cell of every via whose
/// (capacity, load) differs between the two snapshots. This is the *exact*
/// post-route divergence — unlike the replay's conservative set — so the
/// downstream dirty region is as small as the edit allows.
std::vector<std::uint8_t> congestion_diff_cells(const CongestionMap& before,
                                                const CongestionMap& after) {
  const std::size_t nx = after.nx();
  const std::size_t ny = after.ny();
  std::vector<std::uint8_t> dirty(nx * ny, 0);
  for (int m = 0; m < after.num_metal_layers(); ++m) {
    const bool horizontal = Technology::is_horizontal(m);
    for (std::size_t r = 0; r < ny; ++r) {
      for (std::size_t c = 0; c < nx; ++c) {
        const std::size_t cell = r * nx + c;
        std::size_t nbr;
        if (horizontal) {
          if (c + 1 >= nx) continue;
          nbr = cell + 1;
        } else {
          if (r + 1 >= ny) continue;
          nbr = cell + nx;
        }
        if (before.edge_capacity(m, cell, nbr) !=
                after.edge_capacity(m, cell, nbr) ||
            before.edge_load(m, cell, nbr) != after.edge_load(m, cell, nbr)) {
          dirty[cell] = 1;
          dirty[nbr] = 1;
        }
      }
    }
  }
  for (int v = 0; v < after.num_via_layers(); ++v) {
    for (std::size_t cell = 0; cell < nx * ny; ++cell) {
      if (before.via_capacity(v, cell) != after.via_capacity(v, cell) ||
          before.via_load(v, cell) != after.via_load(v, cell)) {
        dirty[cell] = 1;
      }
    }
  }
  return dirty;
}

/// Chebyshev-distance-1 dilation: the 3x3 feature window and the DRC
/// causes (own track state + 4-neighbor overflow) both read at most one
/// cell away, so a cell is recomputed iff anything within its window moved.
std::vector<std::uint8_t> dilate_chebyshev1(
    const std::vector<std::uint8_t>& dirty, std::size_t nx, std::size_t ny) {
  std::vector<std::uint8_t> out(dirty.size(), 0);
  for (std::size_t r = 0; r < ny; ++r) {
    for (std::size_t c = 0; c < nx; ++c) {
      if (dirty[r * nx + c] == 0) continue;
      const std::size_t r_lo = r > 0 ? r - 1 : 0;
      const std::size_t r_hi = std::min(r + 1, ny - 1);
      const std::size_t c_lo = c > 0 ? c - 1 : 0;
      const std::size_t c_hi = std::min(c + 1, nx - 1);
      for (std::size_t rr = r_lo; rr <= r_hi; ++rr) {
        for (std::size_t cc = c_lo; cc <= c_hi; ++cc) out[rr * nx + cc] = 1;
      }
    }
  }
  return out;
}

std::shared_ptr<const RandomForestClassifier> checked_forest(
    std::shared_ptr<const RandomForestClassifier> forest) {
  if (forest == nullptr || !forest->fitted()) {
    throw std::invalid_argument("EcoEngine: needs a fitted forest");
  }
  if (forest->flat().n_features() != FeatureSchema::kNumFeatures) {
    throw std::invalid_argument(
        "EcoEngine: forest feature count does not match the feature schema");
  }
  return forest;
}

}  // namespace

EcoEngine::EcoEngine(Design design,
                     std::shared_ptr<const RandomForestClassifier> forest,
                     TreeShapExplainer explainer, EcoOptions options)
    : design_(std::move(design)),
      options_(options),
      forest_(checked_forest(std::move(forest))),
      explainer_(std::move(explainer)),
      state_(build_design_state(design_, options_.router, options_.drc,
                                options_.n_threads, &trace_)) {
  const std::span<const float> rows(state_.features);
  probs_ = forest_->predict_proba_all(rows, num_cells(), ForestEngine::kAuto);
  phi_ = explainer_.shap_values_batch(rows, num_cells(), options_.n_threads)
             .values;
}

EcoResult EcoEngine::apply(const EcoEdit& edit) {
  DRCSHAP_OBS_TIMER("eco/apply");
  obs::counter_add("eco/edits");

  // Validate + stage the edit. Mutations go through Design's checked
  // mutators, which throw before touching anything on a bad edit.
  RouteReplayInput replay;
  replay.base = &trace_;
  switch (edit.kind) {
    case EcoEdit::Kind::kMoveMacro:
      design_.move_macro(edit.macro, edit.dx, edit.dy);
      break;
    case EcoEdit::Kind::kResizeMacro:
      design_.set_macro_box(edit.macro, edit.new_box);
      break;
    case EcoEdit::Kind::kRerouteNets: {
      replay.force_net.assign(design_.num_nets(), 0);
      for (const std::string& name : edit.nets) {
        bool found = false;
        for (NetId n = 0; n < design_.num_nets(); ++n) {
          if (design_.net(n).name == name) {
            replay.force_net[n] = 1;
            found = true;
            break;
          }
        }
        if (!found) {
          throw std::invalid_argument("EcoEngine: unknown net \"" + name +
                                      "\"");
        }
      }
      break;
    }
    default:
      throw std::invalid_argument("EcoEngine: unknown edit kind");
  }

  // Route: memoized replay of the full algorithm, recording the trace that
  // becomes the base of the next apply.
  RouteTrace new_trace;
  GlobalRouteResult route =
      global_route(design_, options_.router, &new_trace, &replay);
  EcoResult result;
  result.stats.route_dirty_cells = route.replay_dirty_cells;
  result.stats.pattern_reused = route.pattern_reused;
  result.stats.maze_reused = route.maze_reused;
  result.stats.maze_recomputed = route.maze_recomputed;

  // Exact post-route divergence: congestion values plus placement-derived
  // aggregates. The aggregate pass is a cheap O(design) scan recomputed
  // whole and diffed per cell — the dirty tracking propagates *through* it
  // into features and labels, which is where the real cost sits.
  std::vector<std::uint8_t> changed =
      congestion_diff_cells(state_.congestion, route.congestion);
  std::vector<GCellAggregate> new_agg = compute_gcell_aggregates(design_);
  for (std::size_t cell = 0; cell < new_agg.size(); ++cell) {
    if (!(new_agg[cell] == state_.aggregates[cell])) changed[cell] = 1;
  }
  state_.congestion = std::move(route.congestion);
  state_.edge_overflow = route.edge_overflow;
  state_.via_overflow = route.via_overflow;
  state_.aggregates = std::move(new_agg);
  trace_ = std::move(new_trace);

  const std::size_t nx = design_.grid().nx();
  const std::size_t ny = design_.grid().ny();
  const std::vector<std::uint8_t> dirty_map =
      dilate_chebyshev1(changed, nx, ny);
  std::vector<std::size_t> dirty;
  for (std::size_t cell = 0; cell < dirty_map.size(); ++cell) {
    if (dirty_map[cell] != 0) dirty.push_back(cell);
  }
  rescore_dirty(dirty, result);
  return result;
}

void EcoEngine::rescore_dirty(const std::vector<std::size_t>& dirty,
                              EcoResult& result) {
  constexpr std::size_t kF = FeatureSchema::kNumFeatures;
  result.stats.dirty_cells = dirty.size();
  result.stats.rows_rescored = dirty.size();
  obs::counter_add("eco/dirty_cells", dirty.size());
  if (dirty.empty()) return;

  // --- labels: rescore_drc, as a full oracle run, over the dirty cells --
  {
    DRCSHAP_OBS_TIMER("eco/drc_rescore");
    rescore_drc(state_.drc, design_, state_.congestion, state_.aggregates,
                dirty, options_.drc, options_.n_threads);
  }

  // --- features: per-cell recompute into the resident matrix ------------
  {
    DRCSHAP_OBS_TIMER("eco/feature_rescore");
    const FeatureExtractor extractor(design_, state_.congestion,
                                     state_.aggregates);
    std::vector<float>& features = state_.features;
    parallel_for_shared(
        dirty.size(),
        [&](std::size_t i) {
          extractor.extract_into(
              dirty[i], std::span<float>(features.data() + dirty[i] * kF, kF));
        },
        options_.n_threads);
  }

  // --- predict + explain: dirty rows only, batched ----------------------
  std::vector<float> rows(dirty.size() * kF);
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    std::copy_n(state_.features.data() + dirty[i] * kF, kF,
                rows.data() + i * kF);
  }
  std::vector<double> old_probs(dirty.size());
  std::vector<double> old_phi(dirty.size() * kF);
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    old_probs[i] = probs_[dirty[i]];
    std::copy_n(phi_.data() + dirty[i] * kF, kF, old_phi.data() + i * kF);
  }

  const std::vector<double> new_probs = forest_->predict_proba_all(
      std::span<const float>(rows.data(), rows.size()), dirty.size(),
      ForestEngine::kAuto);
  const ShapMatrix new_phi = explainer_.shap_values_batch(
      std::span<const float>(rows.data(), rows.size()), dirty.size(),
      options_.n_threads);
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    probs_[dirty[i]] = new_probs[i];
    std::copy_n(new_phi.values.data() + i * kF, kF,
                phi_.data() + dirty[i] * kF);
  }

  // --- diff: only dirty rows can have moved -----------------------------
  const double thr = kHotspotThreshold;
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const double before = old_probs[i];
    const double after = new_probs[i];
    HotspotDiffEntry entry;
    if (before < thr && after >= thr) {
      entry.change = HotspotDiffEntry::Change::kAppeared;
      ++result.diff.n_appeared;
    } else if (before >= thr && after < thr) {
      entry.change = HotspotDiffEntry::Change::kVanished;
      ++result.diff.n_vanished;
    } else if (std::abs(after - before) >= kMinProbDelta) {
      entry.change = HotspotDiffEntry::Change::kChanged;
      ++result.diff.n_changed;
    } else {
      continue;
    }
    entry.cell = dirty[i];
    entry.prob_before = before;
    entry.prob_after = after;

    // Top-k |phi delta| features, deterministic order.
    std::vector<std::pair<std::uint32_t, double>> deltas;
    deltas.reserve(kF);
    for (std::size_t f = 0; f < kF; ++f) {
      const double d = new_phi.values[i * kF + f] - old_phi[i * kF + f];
      if (d != 0.0) deltas.emplace_back(static_cast<std::uint32_t>(f), d);
    }
    const std::size_t k = std::min(kTopK, deltas.size());
    std::partial_sort(deltas.begin(), deltas.begin() + k, deltas.end(),
                      [](const auto& a, const auto& b) {
                        const double ma = std::abs(a.second);
                        const double mb = std::abs(b.second);
                        if (ma != mb) return ma > mb;
                        return a.first < b.first;
                      });
    deltas.resize(k);
    entry.shap_deltas = std::move(deltas);
    result.diff.entries.push_back(std::move(entry));
  }
  obs::counter_add("eco/diff_entries", result.diff.entries.size());
}

}  // namespace drcshap
