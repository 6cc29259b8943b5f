#pragma once
// DRC oracle: the detailed-routing + design-rule-check stage of the flow.
//
// The paper obtains ground-truth labels by detail-routing each design with
// Olympus-SoC and collecting the reported DRC error bounding boxes. We do
// not have that tool, so this oracle plays its role with a mechanistic
// generative model: per g-cell it combines the *causes* detailed routing
// actually fails on — GR edge overflow (own and neighboring cells, upper
// layers weighted more), via crowding, pin count/spacing pressure, local-net
// and NDR crowding, macro adjacency, placement density — into a latent
// difficulty, adds unobservable detailed-router variance (the reason
// predictive models cannot reach AUPRC 1), and emits typed, layer-annotated
// violation boxes whose type matches the dominant cause:
//   * metal short / different-net spacing  <- wire overflow on that layer,
//   * end-of-line spacing                  <- via clusters on adjacent cuts,
//   * via-enclosure                        <- via pressure with tight pins.
// This mirrors the three archetypes the paper validates in Fig. 3/4.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "drc/track_model.hpp"

namespace drcshap {

enum class DrcErrorType : std::uint8_t {
  kShort,
  kEndOfLineSpacing,
  kDifferentNetSpacing,
  kViaEnclosure,
};

std::string to_string(DrcErrorType type);

struct DrcViolation {
  DrcErrorType type = DrcErrorType::kShort;
  int metal_layer = 0;  ///< 0-based metal layer the error sits on
  Rect box;             ///< error bounding box (layout coordinates)
};

/// The cause weights, thresholds and noise terms are fixed calibration
/// constants in drc_oracle.cpp (tabled in DESIGN.md §1).
struct DrcOracleOptions {
  std::uint64_t seed = 99;
  double bias = -6.6;  ///< controls the overall hotspot rate (rare positives)
};

/// The oracle's output, kept per cell: violations stay bucketed by the
/// g-cell that emitted them so any subset of cells can be re-scored in
/// place, and `coverage` counts how many violation boxes overlap each
/// g-cell (a box can straddle into a neighbor), so retiring one cell's old
/// boxes and adding its new ones keeps the hotspot flags exact without a
/// global rescan.
struct DrcReport {
  std::vector<std::vector<DrcViolation>> per_cell;
  std::vector<std::uint32_t> coverage;
  /// Per g-cell hotspot flag: 1 iff the g-cell overlaps any violation box
  /// (coverage > 0).
  std::vector<std::uint8_t> hotspot;
  std::size_t n_hotspots = 0;

  /// All violations flattened in cell order.
  std::vector<DrcViolation> violations() const;
};

/// Runs the oracle over every g-cell: rescore_drc on an empty report with
/// all cells. Deterministic for fixed (design, congestion, aggregates,
/// options) — the per-design stream is seeded by options.seed combined with
/// the design name — and bit-identical at any `n_threads`. `aggregates`
/// must be compute_gcell_aggregates(design).
DrcReport run_drc_oracle(const Design& design, const CongestionMap& congestion,
                         const std::vector<GCellAggregate>& aggregates,
                         const DrcOracleOptions& options = {},
                         std::size_t n_threads = 0);

/// Re-scores `cells` (distinct g-cell indices) of `report` against the
/// current congestion and aggregates: retires their old violation boxes
/// from the coverage counts, re-emits them, adds the new boxes back and
/// recounts the hotspot flags. An empty report is first sized to the grid.
/// Each cell draws only from its own rng stream, re-derived exactly as a
/// full run forks it (one serial fork per cell, in cell order), so the
/// result equals a full run whenever `cells` covers every cell whose
/// inputs changed — the cell's own track state and aggregates and its
/// 4-neighbors' overflow. Cells are scored on the shared pool (`n_threads`
/// caps the workers; 0 = whole pool, 1 = serial). Throws
/// std::invalid_argument, leaving the report unchanged, on a repeated or
/// out-of-grid cell or a report sized for another grid.
void rescore_drc(DrcReport& report, const Design& design,
                 const CongestionMap& congestion,
                 const std::vector<GCellAggregate>& aggregates,
                 std::span<const std::size_t> cells,
                 const DrcOracleOptions& options = {},
                 std::size_t n_threads = 0);

/// The latent difficulty score of one g-cell *excluding* bias and noise
/// terms; exposed for calibration tools and tests (monotonicity
/// properties).
double drc_difficulty(const Design& design, const TrackModel& track,
                      const std::vector<GCellAggregate>& agg, std::size_t cell);

}  // namespace drcshap
