#pragma once
// Incremental ECO (engineering change order) loop: apply a small design
// edit and recompute routes, congestion features, DRC labels, hotspot
// probabilities and SHAP explanations only where they can have changed,
// then report a before/after hotspot diff.
//
// The engine holds one design resident together with its route trace, the
// DesignState from build_design_state — the one-shot pipeline's own stage
// function (congestion snapshot, per-g-cell aggregates, per-cell DRC
// report, feature matrix) — and the probabilities and full phi matrix. An
// apply() then flows an edit through the stages with dirty tracking:
//
//   route     memoized replay of the exact global-routing algorithm
//             (route/route_trace.hpp) — byte-identical by construction;
//   features  cells within Chebyshev distance 1 of any cell whose
//             aggregates or incident congestion changed (the 3x3 feature
//             window and the DRC causes both read exactly that far);
//   labels    the same dirty set re-scored by rescore_drc, which a full
//             oracle run also goes through;
//   predict / explain
//             only dirty rows, batched through the compiled forest engine
//             and the TreeSHAP fast path (+ explanation cache). Per-row
//             results are independent of batch composition, so subset
//             batches are byte-identical to full ones.
//
// Invariant (enforced by golden-digest tests at 1 and 8 threads, cache on
// and off): after any apply() sequence, every piece of resident state is
// byte-identical to a from-scratch rebuild of the edited design.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "benchsuite/pipeline.hpp"
#include "core/random_forest.hpp"
#include "core/tree_shap.hpp"

namespace drcshap {

/// One design edit. kMoveMacro / kResizeMacro change a macro footprint and
/// its routing blockage; kRerouteNets forces the named nets' segments to
/// re-run their routing calls (a no-op on an unchanged design — which is
/// exactly what byte-identity demands — but it invalidates any reuse for
/// those nets when combined with congestion drift).
struct EcoEdit {
  enum class Kind : std::uint8_t {
    kMoveMacro = 0,
    kResizeMacro = 1,
    kRerouteNets = 2,
  };
  Kind kind = Kind::kMoveMacro;
  MacroId macro = kInvalidId;      ///< kMoveMacro / kResizeMacro
  double dx = 0.0, dy = 0.0;       ///< kMoveMacro
  Rect new_box;                    ///< kResizeMacro
  std::vector<std::string> nets;   ///< kRerouteNets (net names)
};

/// One changed cell in a before/after hotspot diff.
struct HotspotDiffEntry {
  enum class Change : std::uint8_t {
    kAppeared = 0,   ///< prob crossed the hotspot threshold upward
    kVanished = 1,   ///< prob crossed it downward
    kChanged = 2,    ///< still on the same side, |delta| >= kMinProbDelta
  };
  std::size_t cell = 0;
  Change change = Change::kChanged;
  double prob_before = 0.0;
  double prob_after = 0.0;
  /// Top-k features by |phi_after - phi_before|, largest first (ties break
  /// on feature index, so the order is deterministic).
  std::vector<std::pair<std::uint32_t, double>> shap_deltas;
};

struct HotspotDiff {
  std::vector<HotspotDiffEntry> entries;  ///< ascending cell index
  std::size_t n_appeared = 0;
  std::size_t n_vanished = 0;
  std::size_t n_changed = 0;
};

/// Per-apply accounting, for serve stats and the bench.
struct EcoStats {
  std::size_t dirty_cells = 0;        ///< feature/label/predict/explain set
  std::size_t route_dirty_cells = 0;  ///< route replay's divergence set
  std::size_t pattern_reused = 0;
  std::size_t maze_reused = 0;
  std::size_t maze_recomputed = 0;
  std::size_t rows_rescored = 0;      ///< rows re-predicted + re-explained
};

struct EcoResult {
  HotspotDiff diff;
  EcoStats stats;
};

struct EcoOptions {
  GlobalRouterOptions router;
  DrcOracleOptions drc;
  /// Worker cap for the parallel stages of a rebuild/apply; results are
  /// byte-identical at any value (0 = whole shared pool, 1 = serial).
  std::size_t n_threads = 0;
};

class EcoEngine {
 public:
  /// The diff's rules: a cell is a predicted hotspot at probability >=
  /// kHotspotThreshold; a cell that stays on its side enters the diff when
  /// its probability moves by at least kMinProbDelta; each entry keeps its
  /// kTopK largest |phi| deltas.
  static constexpr double kHotspotThreshold = 0.5;
  static constexpr double kMinProbDelta = 0.05;
  static constexpr std::size_t kTopK = 5;

  /// Builds the full resident state (build_design_state, then predict +
  /// explain over every g-cell) — the same work a one-shot pipeline run
  /// does, which is also the baseline apply() is benchmarked against.
  /// The explainer must wrap `forest`; attach a cache to it before handing
  /// it in.
  EcoEngine(Design design, std::shared_ptr<const RandomForestClassifier> forest,
            TreeShapExplainer explainer, EcoOptions options = {});

  /// Applies one edit and incrementally recomputes everything downstream.
  /// Throws std::invalid_argument on a malformed edit (unknown macro id or
  /// net name, box outside the die); the resident state is unchanged then.
  EcoResult apply(const EcoEdit& edit);

  // --- resident state (post-edit), for tests, serving, and diff digests --
  const Design& design() const { return design_; }
  /// Congestion, overflow counts, aggregates, DRC report and features.
  const DesignState& state() const { return state_; }
  /// Row-major g-cells x FeatureSchema::kNumFeatures.
  const std::vector<float>& features() const { return state_.features; }
  /// Per-cell hotspot label (the oracle's ground truth).
  const std::vector<std::uint8_t>& labels() const { return state_.drc.hotspot; }
  const std::vector<double>& probabilities() const { return probs_; }
  /// Row-major g-cells x kNumFeatures SHAP matrix.
  const std::vector<double>& shap_values() const { return phi_; }
  long edge_overflow() const { return state_.edge_overflow; }
  long via_overflow() const { return state_.via_overflow; }
  std::size_t num_cells() const { return design_.grid().size(); }

 private:
  /// Re-scores labels/features/probs/phi for `dirty` cells against the
  /// current state_, and fills result.diff from the saved old rows.
  void rescore_dirty(const std::vector<std::size_t>& dirty, EcoResult& result);

  Design design_;
  EcoOptions options_;
  std::shared_ptr<const RandomForestClassifier> forest_;
  TreeShapExplainer explainer_;
  RouteTrace trace_;  // declared before state_: the build records into it
  DesignState state_;
  std::vector<double> probs_;
  std::vector<double> phi_;
};

}  // namespace drcshap
