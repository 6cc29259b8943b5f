#include "benchsuite/design_generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace drcshap {

namespace {

// Netlist statistics, fixed for every suite design.
constexpr double kAvgPinsPerNet = 3.4;
constexpr double kClockNetFraction = 0.01;
constexpr double kNdrNetFraction = 0.02;
constexpr double kMultiHeightFraction = 0.02;

/// Places `count` square-ish macros inside the die without mutual overlap
/// (deterministic rejection sampling with a relaxation fallback).
std::vector<Macro> make_macros(int count, double die, Rng& rng) {
  std::vector<Macro> macros;
  // Shrink individual macros as the count grows so the requested number
  // always fits (total macro area stays roughly constant).
  const double size_scale = std::sqrt(4.0 / std::max(4, count));
  for (int m = 0; m < count; ++m) {
    const double w = die * rng.uniform(0.16, 0.30) * size_scale;
    const double h = die * rng.uniform(0.16, 0.30) * size_scale;
    bool placed = false;
    for (int attempt = 0; attempt < 200 && !placed; ++attempt) {
      const double x = rng.uniform(0.03 * die, 0.97 * die - w);
      const double y = rng.uniform(0.03 * die, 0.97 * die - h);
      const Rect box{x, y, x + w, y + h};
      const Rect keepout = box.inflated(0.02 * die);
      placed = std::none_of(macros.begin(), macros.end(),
                            [&](const Macro& other) {
                              return other.box.overlaps(keepout);
                            });
      if (placed) {
        macros.push_back({"macro" + std::to_string(m), box, 4});
      }
    }
    // If the die is too crowded, skip the macro rather than overlap.
  }
  return macros;
}

bool inside_any_macro(const Point& p, const std::vector<Macro>& macros) {
  return std::any_of(macros.begin(), macros.end(), [&](const Macro& m) {
    return m.box.contains(p);
  });
}

}  // namespace

NetlistSpec generate_netlist(const BenchmarkSpec& spec,
                             const GeneratorOptions& options) {
  if (options.scale < 1.0) {
    throw std::invalid_argument("generate_netlist: scale must be >= 1");
  }
  const double shrink = std::sqrt(options.scale);
  Rng rng(spec.seed * 0x9e3779b97f4a7c15ULL + 7);

  NetlistSpec netlist;
  netlist.name = spec.name;
  const double die = spec.die_microns / shrink;
  netlist.die = {0.0, 0.0, die, die};
  netlist.gcells_x = std::max<std::size_t>(
      8, static_cast<std::size_t>(std::lround(spec.gcells_x / shrink)));
  netlist.gcells_y = std::max<std::size_t>(
      8, static_cast<std::size_t>(std::lround(spec.gcells_y / shrink)));

  // Routing capacities scale with the g-cell pitch (track pitch is a
  // property of the 65 nm technology, so a larger g-cell holds more
  // tracks). Densities per micron rise with layer (wider upper layers are
  // modeled at GR granularity as more usable tracks after via landing).
  {
    const double pitch_x = die / static_cast<double>(netlist.gcells_x);
    const double pitch_y = die / static_cast<double>(netlist.gcells_y);
    static constexpr double kTrackPerUm[5] = {5.0, 5.6, 5.6, 6.2, 6.2};
    static constexpr double kViaPerUm2[4] = {4.5, 4.2, 3.9, 3.5};
    for (int m = 0; m < 5; ++m) {
      const double pitch = Technology::is_horizontal(m) ? pitch_y : pitch_x;
      netlist.tech.tracks_per_gcell[static_cast<std::size_t>(m)] =
          std::max(6, static_cast<int>(std::lround(pitch * kTrackPerUm[m])));
    }
    for (int v = 0; v < 4; ++v) {
      netlist.tech.vias_per_gcell[static_cast<std::size_t>(v)] = std::max(
          24, static_cast<int>(std::lround(pitch_x * pitch_y * kViaPerUm2[v])));
    }
  }

  // --- macros (fixed before placement) -----------------------------------
  netlist.macros = make_macros(spec.n_macros, die, rng);
  double macro_area = 0.0;
  for (const Macro& m : netlist.macros) macro_area += m.box.area();

  // --- cells ---------------------------------------------------------------
  const std::size_t n_cells = std::max<std::size_t>(
      200, static_cast<std::size_t>(spec.cells_thousands * 1000.0 /
                                    options.scale));
  // Target placement utilization grows with difficulty; cap the mean cell
  // area so everything fits with headroom for legalization.
  const double util = 0.40 + 0.30 * spec.difficulty;
  const double placeable = std::max(die * die * 0.25, die * die - macro_area);
  // Cell sizes are a property of the 65 nm library, not of the die: cap the
  // mean area so sparse designs stay sparse (their congestion, if any, must
  // come from wiring structure, not from artificially inflated cells).
  const double mean_area = std::min(
      3.0, placeable * util / static_cast<double>(n_cells));
  const double height = options.row_height;
  const double mean_width = std::max(0.25, mean_area / height);

  // --- clusters ------------------------------------------------------------
  // Many small clusters approximate the locality a real netlist + placer
  // produce: most nets stay within a couple of g-cells. Cluster spreads are
  // sized *after* assignment so each cluster's population actually fits near
  // its center at a legal density (otherwise legalization scatters the cells
  // and every "local" net stretches across the die).
  const double gcell_pitch = die / static_cast<double>(netlist.gcells_x);
  const std::size_t n_clusters =
      std::clamp<std::size_t>(n_cells / 50, 16, 2000);
  // With macros present, a difficulty-scaled share of the clusters crowds
  // the channels alongside macro edges -- blocked lower layers plus local
  // density is what makes macro-heavy designs (like fft_b) DRC-prone.
  const double p_channel_cluster =
      netlist.macros.empty() ? 0.0 : std::min(0.70, 0.9 * spec.difficulty);
  auto draw_channel_center = [&]() -> Point {
    const Macro& m = netlist.macros[rng.index(netlist.macros.size())];
    const double band = gcell_pitch * rng.uniform(0.5, 2.0);
    const int side = static_cast<int>(rng.index(4));
    Point p;
    switch (side) {
      case 0: p = {m.box.x_lo - band, rng.uniform(m.box.y_lo, m.box.y_hi)}; break;
      case 1: p = {m.box.x_hi + band, rng.uniform(m.box.y_lo, m.box.y_hi)}; break;
      case 2: p = {rng.uniform(m.box.x_lo, m.box.x_hi), m.box.y_lo - band}; break;
      default: p = {rng.uniform(m.box.x_lo, m.box.x_hi), m.box.y_hi + band}; break;
    }
    p.x = std::clamp(p.x, 0.03 * die, 0.97 * die);
    p.y = std::clamp(p.y, 0.03 * die, 0.97 * die);
    return p;
  };
  for (std::size_t k = 0; k < n_clusters; ++k) {
    Point center;
    for (int attempt = 0; attempt < 100; ++attempt) {
      center = rng.bernoulli(p_channel_cluster)
                   ? draw_channel_center()
                   : Point{rng.uniform(0.05 * die, 0.95 * die),
                           rng.uniform(0.05 * die, 0.95 * die)};
      if (!inside_any_macro(center, netlist.macros)) break;
    }
    netlist.clusters.push_back({center, gcell_pitch});  // spread set below
  }

  // Nearest-neighbor lists for cross-cluster nets (cross wiring is mostly
  // regional, not die-spanning).
  std::vector<std::vector<std::uint32_t>> near_clusters(n_clusters);
  for (std::size_t a = 0; a < n_clusters; ++a) {
    std::vector<std::pair<double, std::uint32_t>> by_dist;
    for (std::size_t b = 0; b < n_clusters; ++b) {
      if (a == b) continue;
      by_dist.emplace_back(
          manhattan(netlist.clusters[a].center, netlist.clusters[b].center),
          static_cast<std::uint32_t>(b));
    }
    std::sort(by_dist.begin(), by_dist.end());
    const std::size_t keep = std::min<std::size_t>(6, by_dist.size());
    for (std::size_t k = 0; k < keep; ++k) {
      near_clusters[a].push_back(by_dist[k].second);
    }
  }

  // Cluster weights (some clusters are hubs).
  std::vector<double> cluster_weight(n_clusters);
  double weight_total = 0.0;
  for (auto& w : cluster_weight) {
    w = rng.uniform(0.4, 1.6);
    weight_total += w;
  }
  auto draw_cluster = [&]() -> std::uint32_t {
    double pick = rng.uniform() * weight_total;
    for (std::size_t k = 0; k < n_clusters; ++k) {
      pick -= cluster_weight[k];
      if (pick <= 0.0) return static_cast<std::uint32_t>(k);
    }
    return static_cast<std::uint32_t>(n_clusters - 1);
  };

  netlist.cells.reserve(n_cells);
  std::vector<std::vector<std::uint32_t>> cluster_cells(n_clusters);
  for (std::size_t c = 0; c < n_cells; ++c) {
    CellSpec cell;
    cell.width = mean_width * rng.uniform(0.6, 1.5);
    cell.multi_height = rng.bernoulli(kMultiHeightFraction);
    cell.height = cell.multi_height ? 2.0 * height : height;
    cell.cluster = draw_cluster();
    cluster_cells[cell.cluster].push_back(static_cast<std::uint32_t>(c));
    netlist.cells.push_back(cell);
  }

  // Size cluster spreads so the assigned population fits within ~2 sigma at
  // the cluster-local density (difficulty packs clusters tighter, which is
  // what generates congested neighborhoods).
  {
    const double local_util = 0.50 + 0.45 * spec.difficulty;
    for (std::size_t k = 0; k < n_clusters; ++k) {
      double pop_area = 0.0;
      for (const std::uint32_t c : cluster_cells[k]) {
        pop_area += netlist.cells[c].width * netlist.cells[c].height;
      }
      // Area within a 2-sigma disc: pi * (2 sigma)^2 = 12.57 sigma^2.
      const double sigma = std::sqrt(pop_area / (local_util * 12.57));
      netlist.clusters[k].spread = std::max(sigma, 0.4 * gcell_pitch);
    }
  }

  // --- nets ----------------------------------------------------------------
  const std::size_t n_nets = static_cast<std::size_t>(
      static_cast<double>(n_cells) * 1.05 * spec.wiring_richness);

  // Cross-cluster wiring share: solved so that the expected global wire
  // demand hits a difficulty-driven utilization target of the routing
  // capacity. This keeps every design on the intended side of the
  // congestion knife edge regardless of its cell density (a dense multiplier
  // and a sparse macro-heavy FFT get comparable *relative* pressure).
  const double long_share = 0.15 + 0.25 * spec.difficulty;
  double p_cross = 0.02;
  {
    const double util_target = 0.36 + 0.26 * spec.difficulty;
    // Expected segment spans, in g-cell border crossings (Manhattan).
    double sigma_mean = 0.0;
    for (const ClusterSpec& cl : netlist.clusters) sigma_mean += cl.spread;
    sigma_mean /= static_cast<double>(n_clusters);
    const double span_local = 2.26 * sigma_mean / gcell_pitch;
    double nn_dist = 0.0;
    std::size_t nn_count = 0;
    for (std::size_t a = 0; a < n_clusters; ++a) {
      if (near_clusters[a].empty()) continue;
      nn_dist += manhattan(netlist.clusters[a].center,
                           netlist.clusters[near_clusters[a][0]].center);
      ++nn_count;
    }
    nn_dist = nn_count ? nn_dist / static_cast<double>(nn_count) : die * 0.1;
    const double span_regional = span_local + nn_dist / gcell_pitch;
    const double span_long = span_local + 0.66 * die / gcell_pitch;
    const double span_cross =
        (1.0 - long_share) * span_regional + long_share * span_long;

    // Total capacity in border crossings (both directions, all layers).
    double capacity = 0.0;
    for (int m = 0; m < 5; ++m) {
      const double borders =
          Technology::is_horizontal(m)
              ? static_cast<double>((netlist.gcells_x - 1) * netlist.gcells_y)
              : static_cast<double>(netlist.gcells_x * (netlist.gcells_y - 1));
      capacity +=
          borders * netlist.tech.tracks_per_gcell[static_cast<std::size_t>(m)];
    }
    // ~1.5 routed 2-pin segments per net after same-g-cell pin collapsing.
    const double segments = static_cast<double>(n_nets) * 1.5;
    const double budget = util_target * capacity - segments * span_local;
    if (budget > 0.0 && span_cross > span_local + 1e-9) {
      p_cross = budget / (segments * (span_cross - span_local));
    }
    p_cross = std::clamp(p_cross, 0.02, 0.60);
  }
  netlist.nets.reserve(n_nets);

  auto draw_cell_in_cluster = [&](std::uint32_t k) -> std::uint32_t {
    const auto& pool = cluster_cells[k];
    if (pool.empty()) return static_cast<std::uint32_t>(rng.index(n_cells));
    return pool[rng.index(pool.size())];
  };

  for (std::size_t net_i = 0; net_i < n_nets; ++net_i) {
    NetSpec net;
    // Fanout: 2 + geometric-ish tail, capped.
    std::size_t fanout = 2;
    while (fanout < 11 && rng.bernoulli(1.0 / kAvgPinsPerNet)) {
      ++fanout;
    }
    const bool cross = rng.bernoulli(p_cross) && n_clusters > 1;
    const std::uint32_t home = draw_cluster();
    std::uint32_t away = home;
    if (cross) {
      if (rng.bernoulli(long_share) || near_clusters[home].empty()) {
        while (away == home) away = draw_cluster();  // long-haul net
      } else {
        const auto& near = near_clusters[home];
        away = near[rng.index(near.size())];  // regional net
      }
    }
    for (std::size_t p = 0; p < fanout; ++p) {
      const bool remote = cross && p + 1 == fanout;  // tail pin goes far
      net.cells.push_back(draw_cell_in_cluster(remote ? away : home));
    }
    net.has_ndr = rng.bernoulli(kNdrNetFraction);
    netlist.nets.push_back(std::move(net));
  }

  // Clock nets: a few high-fanout nets spanning many clusters.
  const std::size_t n_clock = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n_nets) *
                                  kClockNetFraction));
  for (std::size_t c = 0; c < n_clock; ++c) {
    NetSpec net;
    net.is_clock = true;
    const std::size_t fanout = 8 + rng.index(9);
    for (std::size_t p = 0; p < fanout; ++p) {
      net.cells.push_back(draw_cell_in_cluster(draw_cluster()));
    }
    netlist.nets.push_back(std::move(net));
  }

  // --- extra routing blockages ---------------------------------------------
  const int n_blockages = 1 + spec.n_macros / 2;
  for (int b = 0; b < n_blockages; ++b) {
    const double w = die * rng.uniform(0.04, 0.10);
    const double h = die * rng.uniform(0.04, 0.10);
    const double x = rng.uniform(0.0, die - w);
    const double y = rng.uniform(0.0, die - h);
    const int metal_lo = 1 + static_cast<int>(rng.index(2));  // M2 or M3
    netlist.blockages.push_back({{x, y, x + w, y + h}, metal_lo, metal_lo + 1});
  }

  return netlist;
}

}  // namespace drcshap
