#include "drc/drc_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/registry.hpp"
#include "util/artifact.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {

std::string to_string(DrcErrorType type) {
  switch (type) {
    case DrcErrorType::kShort:               return "short";
    case DrcErrorType::kEndOfLineSpacing:    return "end-of-line-spacing";
    case DrcErrorType::kDifferentNetSpacing: return "different-net-spacing";
    case DrcErrorType::kViaEnclosure:        return "via-enclosure";
  }
  return "?";
}

namespace {

// The oracle's calibration (tabled in DESIGN.md §1).

/// Unobservable detailed-router variance; raising it lowers the achievable
/// predictive ceiling (calibrated so strong models land at AUPRC ~0.4-0.8
/// like the paper's Table II).
constexpr double kNoiseSigma = 1.0;
/// Per-design random offset (designs differ in how forgiving their detailed
/// routing is), creating the cross-design generalization gap of Table II.
constexpr double kDesignEffectSigma = 0.35;

// Cause weights.
constexpr double kWOverflow = 1.3;        ///< per log1p(own-cell overflow)
constexpr double kWOverflowUpper = 0.6;   ///< extra for M4/M5 overflow
constexpr double kWNeighbor = 0.20;       ///< per log1p(4-nbhd overflow)
constexpr double kWVia = 1.5;             ///< per via pressure above thresh
constexpr double kViaThreshold = 0.85;
constexpr double kWPin = 0.05;            ///< per pin above kPinThreshold
constexpr double kPinThreshold = 24.0;
constexpr double kPinCap = 1.2;           ///< cap on pin + local-net terms
constexpr double kWLocal = 0.05;          ///< per local net
constexpr double kWNdr = 0.30;            ///< per NDR pin
constexpr double kWClock = 0.12;          ///< per clock pin
constexpr double kWMacro = 0.9;           ///< macro adjacency x congestion
constexpr double kWDensity = 1.5;         ///< cell-area fraction above 0.8
constexpr double kWSpacing = 0.8;         ///< tight mean pin spacing

double logistic(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Per-cause score breakdown; the dominant cause drives the violation type.
struct CauseScores {
  double wire = 0.0;    ///< own + neighbor edge overflow
  double via = 0.0;     ///< via crowding
  double pin = 0.0;     ///< pin/local-net/NDR/clock/spacing/density pressure
  double macro = 0.0;   ///< macro-adjacency coupling
  int worst_wire_metal = 0;
  int worst_via_layer = 0;

  double total() const { return wire + via + pin + macro; }
};

CauseScores cause_scores(const Design& design, const TrackModel& track,
                         const std::vector<GCellAggregate>& agg,
                         std::size_t cell) {
  const std::size_t nx = design.grid().nx();
  const std::size_t ny = design.grid().ny();
  const int metals = track.num_metal_layers();
  CauseScores s;

  double worst_wire = -1.0;
  double own_overflow_total = 0.0;
  for (int m = 0; m < metals; ++m) {
    const double over = track.edge_overflow(cell, m);
    own_overflow_total += over;
    double w = kWOverflow;
    if (m >= 3) w += kWOverflowUpper;  // M4/M5 detour layers
    // Log compression: the first overflowed track matters far more than the
    // fortieth (a totally blown region is already hopeless).
    s.wire += w * std::log1p(over);
    if (over > worst_wire) {
      worst_wire = over;
      s.worst_wire_metal = m;
    }
  }
  // 4-neighborhood spillover (detours push errors into adjacent cells).
  const std::size_t c = cell % nx, r = cell / nx;
  double nbr_overflow = 0.0;
  auto add_nbr = [&](std::size_t n) {
    for (int m = 0; m < metals; ++m) nbr_overflow += track.edge_overflow(n, m);
  };
  if (c > 0) add_nbr(cell - 1);
  if (c + 1 < nx) add_nbr(cell + 1);
  if (r > 0) add_nbr(cell - nx);
  if (r + 1 < ny) add_nbr(cell + nx);
  s.wire += kWNeighbor * std::log1p(nbr_overflow);

  double worst_via = -1.0;
  for (int v = 0; v < metals - 1; ++v) {
    const double pressure = track.via_pressure(cell, v);
    const double above = std::max(0.0, pressure - kViaThreshold);
    s.via += kWVia * above;
    if (pressure > worst_via) {
      worst_via = pressure;
      s.worst_via_layer = v;
    }
  }

  const GCellAggregate& a = agg[cell];
  s.pin += kWPin * std::max(0.0, static_cast<double>(a.n_pins) - kPinThreshold);
  s.pin += kWLocal * a.n_local_nets;
  s.pin = std::min(s.pin, kPinCap);  // crowding saturates
  s.pin += kWNdr * a.n_ndr_pins;
  s.pin += kWClock * a.n_clock_pins;
  s.pin += kWDensity * std::max(0.0, a.cell_area_frac - 0.8);
  // Tight mean pin spacing (below 20% of the g-cell pitch) with several pins.
  const double pitch = design.grid().cell_width();
  if (a.n_pins >= 4 && a.pin_spacing > 0.0 && a.pin_spacing < 0.2 * pitch) {
    s.pin += kWSpacing * (0.2 * pitch - a.pin_spacing) / (0.2 * pitch);
  }

  if (a.macro_adjacent) {
    // Blocked lower layers force traffic upward; couple with local pressure.
    const double coupling =
        std::min(2.0, own_overflow_total + 0.25 * nbr_overflow +
                          std::max(0.0, worst_via - kViaThreshold) * 2.0);
    s.macro += kWMacro * (0.15 + coupling);
  }
  return s;
}

/// Scores one cell and appends its violations to `out`, drawing only from
/// `cell_rng` (the cell's stream from drc_cell_streams).
void emit_cell_violations(const Design& design, const TrackModel& track,
                          const std::vector<GCellAggregate>& agg,
                          std::size_t cell, const DrcOracleOptions& options,
                          double design_effect, Rng& cell_rng,
                          std::vector<DrcViolation>& out) {
  const GCellGrid& grid = design.grid();
  const CauseScores s = cause_scores(design, track, agg, cell);
  const double latent = options.bias + s.total() + design_effect +
                        cell_rng.normal(0.0, kNoiseSigma);
  if (!cell_rng.bernoulli(logistic(latent))) return;

  // Violation count grows with how far past the threshold the cell is.
  const double intensity = std::log1p(std::exp(latent));  // softplus
  const auto n_violations =
      1 + cell_rng.poisson(std::min(4.0, 0.5 * intensity));

  const Rect cr = grid.cell_rect(cell);
  for (std::uint64_t k = 0; k < n_violations; ++k) {
    // Pick the cause proportional to its score share.
    const double total = std::max(1e-9, s.total());
    const double pick = cell_rng.uniform() * total;
    DrcViolation v;
    if (pick < s.wire) {
      v.type = cell_rng.bernoulli(0.7) ? DrcErrorType::kShort
                                       : DrcErrorType::kDifferentNetSpacing;
      v.metal_layer = s.worst_wire_metal;
    } else if (pick < s.wire + s.via) {
      // Via clusters squeeze the metal layer between the crowded cuts.
      v.type = cell_rng.bernoulli(0.75) ? DrcErrorType::kEndOfLineSpacing
                                        : DrcErrorType::kViaEnclosure;
      v.metal_layer = s.worst_via_layer + 1;
    } else if (pick < s.wire + s.via + s.pin) {
      v.type = cell_rng.bernoulli(0.5) ? DrcErrorType::kDifferentNetSpacing
                                       : DrcErrorType::kShort;
      v.metal_layer = static_cast<int>(cell_rng.index(2));  // M1/M2 pin level
    } else {
      // Macro-driven: error on the first routable layer above the macro.
      v.type = DrcErrorType::kShort;
      v.metal_layer =
          std::min(design.tech().num_metal_layers - 1, s.worst_wire_metal);
    }

    // Small box inside the cell; ~12% straddle into a neighbor, which makes
    // multi-g-cell hotspots like the paper's bounding boxes.
    const double w = cr.width() * cell_rng.uniform(0.05, 0.35);
    const double h = cr.height() * cell_rng.uniform(0.05, 0.35);
    double x = cr.x_lo + cell_rng.uniform() * (cr.width() - w);
    double y = cr.y_lo + cell_rng.uniform() * (cr.height() - h);
    if (cell_rng.bernoulli(0.12)) {
      // Shift the box onto the cell border so it spills over.
      if (cell_rng.bernoulli(0.5)) {
        x = cell_rng.bernoulli(0.5) ? cr.x_lo - w / 2.0 : cr.x_hi - w / 2.0;
      } else {
        y = cell_rng.bernoulli(0.5) ? cr.y_lo - h / 2.0 : cr.y_hi - h / 2.0;
      }
    }
    v.box = Rect{x, y, x + w, y + h}.intersect(design.die());
    if (v.box.empty()) continue;
    out.push_back(v);
  }
}

/// Derives the per-design effect and the per-cell rng streams: the effect
/// is drawn first, then one serial fork per cell in cell order.
std::vector<Rng> drc_cell_streams(const Design& design,
                                  const DrcOracleOptions& options,
                                  double& design_effect) {
  Rng rng(options.seed ^ fnv1a(design.name()));
  design_effect = rng.normal(0.0, kDesignEffectSigma);

  // One fork per cell keeps the stream independent of how many draws each
  // cell makes (stable labels under parameter tweaks elsewhere). The forks
  // are drawn serially in cell order — the only order-dependent draws — so
  // parallel (or incremental, subset-only) scoring consumes exactly the
  // serial streams.
  const std::size_t n = design.grid().size();
  std::vector<Rng> cell_rngs;
  cell_rngs.reserve(n);
  for (std::size_t cell = 0; cell < n; ++cell) {
    cell_rngs.push_back(rng.fork());
  }
  return cell_rngs;
}

}  // namespace

double drc_difficulty(const Design& design, const TrackModel& track,
                      const std::vector<GCellAggregate>& agg,
                      std::size_t cell) {
  return cause_scores(design, track, agg, cell).total();
}

DrcReport run_drc_oracle(const Design& design, const CongestionMap& congestion,
                         const std::vector<GCellAggregate>& aggregates,
                         const DrcOracleOptions& options,
                         std::size_t n_threads) {
  DRCSHAP_OBS_TIMER("drc/oracle");
  std::vector<std::size_t> all(design.grid().size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  DrcReport report;
  rescore_drc(report, design, congestion, aggregates, all, options,
              n_threads);
  return report;
}

void rescore_drc(DrcReport& report, const Design& design,
                 const CongestionMap& congestion,
                 const std::vector<GCellAggregate>& aggregates,
                 std::span<const std::size_t> cells,
                 const DrcOracleOptions& options, std::size_t n_threads) {
  const GCellGrid& grid = design.grid();
  std::vector<std::uint8_t> seen(grid.size(), 0);
  for (const std::size_t cell : cells) {
    if (cell >= grid.size() || seen[cell]++ != 0) {
      throw std::invalid_argument(
          "rescore_drc: cells must be distinct grid indices");
    }
  }
  if (report.per_cell.empty()) {
    report.per_cell.resize(grid.size());
    report.coverage.assign(grid.size(), 0);
    report.hotspot.assign(grid.size(), 0);
  } else if (report.per_cell.size() != grid.size()) {
    throw std::invalid_argument("rescore_drc: report does not match the grid");
  }
  const TrackModel track(design, congestion);
  double design_effect = 0.0;
  std::vector<Rng> streams = drc_cell_streams(design, options, design_effect);
  obs::counter_add("drc/cells_scored", cells.size());

  // Retire the cells' old boxes, re-emit each cell into its own bucket
  // (cells are distinct, so the parallel writes never share a slot), then
  // count the new boxes back in.
  for (const std::size_t cell : cells) {
    for (const DrcViolation& v : report.per_cell[cell]) {
      for (const std::size_t covered : grid.cells_overlapping(v.box)) {
        --report.coverage[covered];
      }
    }
    report.per_cell[cell].clear();
  }
  parallel_for_shared(
      cells.size(),
      [&](std::size_t i) {
        emit_cell_violations(design, track, aggregates, cells[i], options,
                             design_effect, streams[cells[i]],
                             report.per_cell[cells[i]]);
      },
      n_threads);
  for (const std::size_t cell : cells) {
    for (const DrcViolation& v : report.per_cell[cell]) {
      for (const std::size_t covered : grid.cells_overlapping(v.box)) {
        ++report.coverage[covered];
      }
    }
  }
  report.n_hotspots = 0;
  for (std::size_t cell = 0; cell < grid.size(); ++cell) {
    report.hotspot[cell] = report.coverage[cell] > 0 ? 1 : 0;
    report.n_hotspots += report.hotspot[cell];
  }
}

std::vector<DrcViolation> DrcReport::violations() const {
  std::vector<DrcViolation> out;
  for (const std::vector<DrcViolation>& bucket : per_cell) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  return out;
}

}  // namespace drcshap
