// eco_edit — why it exists: one designer in a closed loop with a resident
// EcoEngine, applying small edits one at a time and waiting for each
// hotspot diff. It exercises memoized route replay, dirty propagation,
// DRC/feature rescoring, predict and explain of the dirty rows, and
// explanation-cache hits on revisited states (immediate undos). The forest
// is bench_eco's (500 trees fitted on fft_2 rows): shallow enough that the
// loop stays interactive and route replay stays visible beside TreeSHAP. It
// bypasses fit, the serving batcher and full rip-up of a suite design.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "benchsuite/pipeline.hpp"
#include "core/explanation_cache.hpp"
#include "eco/eco_engine.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

/// bench/bench_eco.cpp's design: 60x60 g-cells, 8 macros, low enough
/// difficulty that routing converges with zero overflow, so an edit's
/// effect stays local.
drcshap::BenchmarkSpec eco_spec() {
  drcshap::BenchmarkSpec spec;
  spec.name = "eco_bench";
  spec.table_group = 0;
  spec.die_microns = 400.0;
  spec.gcells_x = 60;
  spec.gcells_y = 60;
  spec.cells_thousands = 2.0;
  spec.n_macros = 8;
  spec.difficulty = 0.02;
  spec.wiring_richness = 1.0;
  spec.seed = 7;
  return spec;
}

drcshap::Design make_design(const drcshap::BenchmarkSpec& spec) {
  const drcshap::PipelineOptions options;
  const drcshap::NetlistSpec netlist =
      drcshap::generate_netlist(spec, options.generator);
  drcshap::PlacerOptions placer = options.placer;
  placer.row_height = options.generator.row_height;
  placer.seed = spec.seed * 31 + 1;
  return drcshap::place_design(netlist, placer);
}

/// 500 trees fitted on the fft_2 rows at scale 16, as bench_eco does.
std::shared_ptr<const drcshap::RandomForestClassifier> eco_forest() {
  const drcshap::DesignRun run =
      drcshap::run_pipeline(drcshap::suite_spec("fft_2"),
                            suite_options(kDefaultSeed));
  auto forest = std::make_shared<drcshap::RandomForestClassifier>(
      forest_options());
  forest->fit(run.samples);
  return forest;
}

drcshap::TreeShapExplainer cached_explainer(
    const drcshap::RandomForestClassifier& forest) {
  drcshap::TreeShapExplainer explainer(forest);
  explainer.set_cache(std::make_shared<drcshap::ExplanationCache>());
  return explainer;
}

/// The designer: a seeded edit stream. Most edits are 0.25-1 um macro moves
/// along one axis; the rest are macro resizes (one edge in or out), reroutes
/// of a few nets, and immediate undos that restore the previous footprint
/// exactly (so the revisited state can hit the explanation cache). Every
/// macro edge stays within kMaxDrift of where the design placed it: the
/// designer fine-tunes one floorplan instead of random-walking it into
/// congestion, which keeps the per-edit cost stationary over a long run.
class Designer {
 public:
  /// Chance that an edit undoes the previous move or resize.
  static constexpr double kUndoChance = 0.3;
  static constexpr double kMaxDrift = 1.0;  ///< um, per macro edge

  Designer(std::uint64_t seed, const drcshap::Design& design) : rng_(seed) {
    for (const drcshap::Macro& macro : design.macros()) {
      origin_.push_back(macro.box);
    }
  }

  drcshap::EcoEdit next(const drcshap::Design& design, bool& is_undo) {
    using drcshap::EcoEdit;
    is_undo = false;
    if (last_box_ && rng_.bernoulli(kUndoChance)) {
      EcoEdit undo;
      undo.kind = EcoEdit::Kind::kResizeMacro;
      undo.macro = last_macro_;
      undo.new_box = *last_box_;
      last_box_.reset();  // never undo an undo
      is_undo = true;
      return undo;
    }
    const double kind = rng_.uniform();
    if (kind >= 0.9) return reroute(design);
    EcoEdit edit;
    edit.kind = kind < 0.8 ? EcoEdit::Kind::kMoveMacro
                           : EcoEdit::Kind::kResizeMacro;
    edit.macro = static_cast<drcshap::MacroId>(rng_.index(origin_.size()));
    const drcshap::Rect& box = design.macro(edit.macro).box;
    const drcshap::Rect& home = origin_[edit.macro];
    const bool along_x = rng_.bernoulli(0.5);
    const double step = 0.25 * static_cast<double>(1 + rng_.index(4));
    // Signed drift of the edge that moves, and a step away from or back
    // toward home that keeps it within kMaxDrift.
    const double drift = along_x ? box.x_hi - home.x_hi : box.y_hi - home.y_hi;
    double d = rng_.bernoulli(0.5) ? step : -step;
    if (std::abs(drift + d) > kMaxDrift) d = -d;
    const auto apply = [&](double delta) {
      drcshap::Rect moved = box;
      if (edit.kind == EcoEdit::Kind::kMoveMacro) {
        (along_x ? moved.x_lo : moved.y_lo) += delta;
      }
      (along_x ? moved.x_hi : moved.y_hi) += delta;
      return moved;
    };
    if (!inside(apply(d), design.die())) d = -d;
    if (!inside(apply(d), design.die())) return reroute(design);
    if (edit.kind == EcoEdit::Kind::kMoveMacro) {
      (along_x ? edit.dx : edit.dy) = d;
    } else {
      edit.new_box = apply(d);
    }
    last_macro_ = edit.macro;
    last_box_ = box;
    return edit;
  }

 private:
  static bool inside(const drcshap::Rect& box, const drcshap::Rect& die) {
    return box.x_lo >= die.x_lo && box.y_lo >= die.y_lo &&
           box.x_hi <= die.x_hi && box.y_hi <= die.y_hi;
  }

  drcshap::EcoEdit reroute(const drcshap::Design& design) {
    drcshap::EcoEdit edit;
    edit.kind = drcshap::EcoEdit::Kind::kRerouteNets;
    const std::size_t n = 1 + rng_.index(3);
    for (std::size_t i = 0; i < n; ++i) {
      edit.nets.push_back(
          design.net(static_cast<drcshap::NetId>(
                         rng_.index(design.num_nets())))
              .name);
    }
    last_box_.reset();
    return edit;
  }

  drcshap::Rng rng_;
  std::vector<drcshap::Rect> origin_;
  drcshap::MacroId last_macro_ = 0;
  std::optional<drcshap::Rect> last_box_;
};

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

}  // namespace

RunResult run_eco_edit(const Config& config) {
  using namespace drcshap;
  RunResult result;

  // Inputs, built untimed: the design the designer starts from and the
  // forest. Both are fixed, as in bench_eco; the workload seed varies the
  // edit sequence.
  const Design design = make_design(eco_spec());
  const std::shared_ptr<const RandomForestClassifier> forest = eco_forest();

  // Set-up: EcoEngine construction — full route, labels, features, predict
  // and explain of all 3600 cells, timed in five bursts: before the edits
  // (its last engine is the resident one the designer edits), after each
  // quarter of the edit time but the last, and after the edits, the later
  // ones on probe engines that are dropped at once.
  std::vector<double> setup_s;
  const auto construct = [&](std::optional<EcoEngine>& engine) {
    engine.reset();
    trace::Span span("eco.construct");
    const Clock::time_point start = Clock::now();
    engine.emplace(Design(design), forest, cached_explainer(*forest));
    setup_s.push_back(ms_since(start) * 1e-3);
  };
  std::optional<EcoEngine> engine;
  const auto burst = [&](std::optional<EcoEngine>& kept) {
    for (std::size_t i = 0; i < kSetupBurst; ++i) construct(kept);
  };
  const auto probe_burst = [&] {
    std::optional<EcoEngine> dropped;
    burst(dropped);
  };
  burst(engine);

  Designer designer(derive_seed(config.seed, 0xec0), design);
  std::vector<double> apply_ms, undo_ms;
  trace::ObsDelta total;
  double sum_apply_ms = 0.0, other_ms = 0.0, slowest_route_ms = 0.0;
  double route_dirty_cells = 0.0, rows_rescored = 0.0;
  const double quarter_ms = config.seconds * 1e3 / 4.0;
  int probes = 0;
  const Clock::time_point run_start = Clock::now();
  // At least 50 edits are attempted, so a run whose every apply fails still
  // ends and reports them.
  while (result.attempted < 50 || ms_since(run_start) < config.seconds * 1e3) {
    if (probes < 3 && ms_since(run_start) >= (probes + 1) * quarter_ms) {
      probe_burst();
      ++probes;
    }
    bool is_undo = false;
    const EcoEdit edit = designer.next(engine->design(), is_undo);
    const obs::Snapshot before =
        config.trace ? obs::snapshot() : obs::Snapshot{};
    const Clock::time_point start = Clock::now();
    EcoResult edit_result;
    ++result.attempted;
    try {
      trace::Span span("eco.apply");
      edit_result = engine->apply(edit);
    } catch (const std::exception& e) {
      result.fail(std::string("apply threw: ") + e.what());
      continue;
    }
    const double ms = ms_since(start);
    apply_ms.push_back(ms);
    sum_apply_ms += ms;
    if (is_undo) undo_ms.push_back(ms);
    if (config.trace) {
      const trace::ObsDelta delta = trace::obs_delta(before, obs::snapshot());
      total += delta;
      const double route_ms = delta.timer_ms("route/global_route");
      slowest_route_ms = std::max(slowest_route_ms, route_ms);
      // Apply time no child timer covers: aggregates, congestion diff,
      // dilation and the hotspot diff itself.
      other_ms += ms - route_ms - delta.timer_ms("eco/drc_rescore") -
                  delta.timer_ms("eco/feature_rescore") -
                  delta.timer_ms("forest/predict_all") -
                  delta.timer_ms("shap/values_batch");
      route_dirty_cells +=
          static_cast<double>(edit_result.stats.route_dirty_cells);
      rows_rescored += static_cast<double>(edit_result.stats.rows_rescored);
    }
  }
  for (; probes < 4; ++probes) probe_burst();

  // Output check (untimed): the resident state after the whole sequence is
  // byte-identical to a fresh engine built on the final edited design.
  ++result.attempted;
  const EcoEngine fresh(Design(engine->design()), forest,
                        TreeShapExplainer(*forest));
  if (!same_bytes(engine->features(), fresh.features()) ||
      !same_bytes(engine->labels(), fresh.labels()) ||
      !same_bytes(engine->probabilities(), fresh.probabilities()) ||
      !same_bytes(engine->shap_values(), fresh.shap_values()) ||
      engine->edge_overflow() != fresh.edge_overflow() ||
      engine->via_overflow() != fresh.via_overflow()) {
    result.fail("resident ECO state differs from a fresh rebuild");
  }

  const double edits =
      static_cast<double>(std::max<std::size_t>(apply_ms.size(), 1));
  const double undo_share = static_cast<double>(undo_ms.size()) / edits;
  result.inputs["edits"] = static_cast<std::uint64_t>(apply_ms.size());
  result.inputs["undo_share"] = undo_share;
  result.inputs["edge_overflow"] =
      static_cast<std::int64_t>(engine->edge_overflow());
  result.inputs["via_overflow"] =
      static_cast<std::int64_t>(engine->via_overflow());
  result.inputs["cells"] = static_cast<std::uint64_t>(engine->num_cells());

  // Latencies are the lowest over the three consecutive thirds of the edits.
  const double apply_p50 = min_of_parts(apply_ms, 3, 50.0);
  const double setup = setup_of(setup_s, kSetupBurst);
  result.note("setup_s", setup, "s");
  result.note("edits", edits, "count");
  result.note("undo_share", undo_share, "ratio");
  if (config.trace) {
    add_obs_layers(total, edits, forest->options().n_trees, result.metrics);
    add_forest_shape(*forest, result.metrics);
    result.metrics["trace.op_p50_ms"] = apply_p50;
    result.metrics["route.critical_design_ms"] = slowest_route_ms;
    result.metrics["eco.apply_ms"] = sum_apply_ms / edits;
    result.metrics["eco.other_ms"] = other_ms / edits;
    result.metrics["eco.route_dirty_cells"] = route_dirty_cells / edits;
    result.metrics["eco.rows_rescored"] = rows_rescored / edits;
    result.metrics["eco.undo_share"] = undo_share;
    result.metrics["route.edge_overflow"] =
        static_cast<double>(engine->edge_overflow());
    result.metrics["route.via_overflow"] =
        static_cast<double>(engine->via_overflow());
    double hotspots = 0.0;
    for (const std::uint8_t label : engine->labels()) hotspots += label;
    result.metrics["drc.hotspots"] = hotspots;
    result.note("eco_apply_p50_ms (traced)", apply_p50, "ms");
    return result;
  }
  const double undo_p50 = min_of_parts(undo_ms, 3, 50.0);
  result.metrics["setup_s"] = setup;
  result.metrics["op_p50_ms"] = apply_p50;
  result.metrics["side_p50_ms"] = undo_p50;
  result.note("edits_per_s", edits / (sum_apply_ms * 1e-3), "1/s");
  result.note("eco_apply_p50_ms", apply_p50, "ms");
  result.note("eco_apply_p95_ms", percentile(apply_ms, 95.0), "ms");
  result.note("eco_undo_p50_ms", undo_p50, "ms");
  return result;
}

}  // namespace perfbench
