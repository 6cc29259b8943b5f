#include "benchsuite/pipeline.hpp"

#include <algorithm>
#include <optional>

#include "obs/registry.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {

namespace {

/// Checkpoint unit name for one design's sample shard. The spec index is
/// part of the name because the group id is the index — the same spec at a
/// different position is a different unit.
std::string design_unit(std::size_t index, const BenchmarkSpec& spec) {
  return "design" + std::to_string(index) + "-" + spec.name;
}

}  // namespace

Design place_spec(const BenchmarkSpec& spec, const PipelineOptions& options) {
  NetlistSpec netlist = generate_netlist(spec, options.generator);
  PlacerOptions placer_options = options.placer;
  placer_options.row_height = options.generator.row_height;
  placer_options.seed = spec.seed * 31 + 1;
  return place_design(netlist, placer_options);
}

DesignState build_design_state(const Design& design,
                               const GlobalRouterOptions& router,
                               const DrcOracleOptions& drc,
                               std::size_t n_threads, RouteTrace* record) {
  GlobalRouteResult route = global_route(design, router, record);
  DesignState state{.congestion = std::move(route.congestion),
                    .edge_overflow = route.edge_overflow,
                    .via_overflow = route.via_overflow};
  // The per-g-cell aggregates feed both the DRC oracle and feature
  // extraction; compute them once and share.
  {
    DRCSHAP_OBS_TIMER("features/aggregates");
    state.aggregates = compute_gcell_aggregates(design);
  }
  state.drc = run_drc_oracle(design, state.congestion, state.aggregates, drc,
                             n_threads);
  const FeatureExtractor extractor(design, state.congestion, state.aggregates);
  state.features = extractor.extract_all(n_threads);
  return state;
}

namespace {

/// One design through the whole pipeline. `placed`, if set, is the design
/// place_spec already produced (the suite's schedule probe places every
/// design once and hands it on here).
DesignRun run_design(const BenchmarkSpec& spec, const PipelineOptions& options,
                     int group, std::optional<Design> placed) {
  DRCSHAP_FAILPOINT_KEYED("pipeline.design", spec.name);
  DRCSHAP_OBS_TIMER("pipeline/run");
  obs::counter_add("pipeline/designs");
  Stopwatch timer;
  Design design = placed ? std::move(*placed) : place_spec(spec, options);

  DesignState state = build_design_state(design, options.router, options.drc,
                                         options.n_threads);
  constexpr std::size_t kF = FeatureSchema::kNumFeatures;
  Dataset samples(kF, FeatureSchema::names());
  for (std::size_t cell = 0; cell < design.grid().size(); ++cell) {
    samples.append_row(
        std::span<const float>(state.features.data() + cell * kF, kF),
        state.drc.hotspot[cell], group);
  }

  log_info("pipeline ", spec.name, ": ", design.num_cells(), " cells, ",
           design.grid().size(), " g-cells, ", state.drc.n_hotspots,
           " hotspots, edge_ovf ", state.edge_overflow, ", via_ovf ",
           state.via_overflow, " (", fmt_fixed(timer.seconds(), 1), "s)");

  return DesignRun{spec,
                   std::move(design),
                   std::move(state.congestion),
                   state.edge_overflow,
                   state.via_overflow,
                   std::move(state.drc),
                   std::move(samples)};
}

/// Rip-up work estimate of a placed design: how many 2-pin segments touch
/// overflow after the pattern stage, i.e. how many the first rip-up
/// iteration would reroute. It ranks the suite's heavy designs first where
/// a pre-route wirelength/capacity score does not.
std::size_t rip_up_score(const Design& design,
                         const GlobalRouterOptions& router) {
  GlobalRouterOptions pattern_only = router;
  pattern_only.use_maze = false;
  const GlobalRouteResult pattern = global_route(design, pattern_only);
  std::size_t score = 0;
  for (const NetRoute& net : pattern.routes) {
    for (const RoutePath& path : net.segments) {
      if (!path.empty() && touches_overflow(pattern.graph, path)) ++score;
    }
  }
  return score;
}

}  // namespace

DesignRun run_pipeline(const BenchmarkSpec& spec,
                       const PipelineOptions& options, int group_id) {
  return run_design(spec, options,
                    group_id >= 0 ? group_id : spec.table_group,
                    std::nullopt);
}

Dataset build_suite_dataset(
    const std::vector<BenchmarkSpec>& specs, const PipelineOptions& options,
    const SuiteBuildControl& control,
    const std::function<void(const DesignRun&)>& on_design,
    std::size_t n_threads) {
  DRCSHAP_OBS_TIMER("pipeline/build_suite");
  const CheckpointStore* ckpt =
      control.checkpoint && control.checkpoint->enabled() ? control.checkpoint
                                                          : nullptr;

  // Resume: pull every committed shard before fanning out, so only the
  // missing designs are recomputed. A torn, corrupt or stale shard is
  // indistinguishable from a missing one — it costs a recompute, never
  // correctness.
  std::vector<std::optional<Dataset>> cached(specs.size());
  if (ckpt) {
    for (std::size_t d = 0; d < specs.size(); ++d) {
      StatusOr<std::string> payload = ckpt->load(design_unit(d, specs[d]));
      if (!payload.ok()) continue;
      StatusOr<Dataset> shard =
          decode_dataset_shard(std::move(payload).value());
      if (shard.ok() &&
          shard.value().n_features() == FeatureSchema::kNumFeatures) {
        cached[d].emplace(std::move(shard).value());
        obs::counter_add("ckpt/design_shards_reused");
      }
    }
  }

  std::vector<std::size_t> order;  // uncached designs, in claim order
  for (std::size_t d = 0; d < specs.size(); ++d) {
    if (!cached[d]) order.push_back(d);
  }
  std::vector<std::optional<DesignRun>> runs(specs.size());
  std::vector<std::string> quarantined(specs.size());
  const auto guarded = [&](std::size_t d, const auto& work) {
    try {
      work();
    } catch (const std::exception& e) {
      if (!control.quarantine_failures) throw;
      quarantined[d] = e.what();
    }
  };

  // Schedule probe. A suite build lasts as long as its slowest worker, and
  // per-design rip-up time ranges from milliseconds to over a second across
  // the suite, so designs are claimed heaviest first: pass 1 places every design and scores it by its
  // pattern-stage overflow (rip_up_score), and pass 2 claims designs in
  // descending score order. In spec order the heaviest design could start
  // last and run alone at the end. The placed designs are handed on, so
  // nothing is generated or placed twice. With one worker the order cannot
  // matter and the probe is skipped.
  std::vector<std::optional<Design>> placed(specs.size());
  if (shared_width(n_threads) > 1 && order.size() >= 2) {
    DRCSHAP_OBS_TIMER("pipeline/schedule_probe");
    std::vector<std::size_t> score(specs.size(), 0);
    parallel_for_shared(
        order.size(),
        [&](std::size_t i) {
          const std::size_t d = order[i];
          guarded(d, [&] {
            DRCSHAP_FAILPOINT_KEYED("pipeline.design", specs[d].name);
            placed[d].emplace(place_spec(specs[d], options));
            score[d] = rip_up_score(*placed[d], options.router);
          });
        },
        n_threads, /*grain=*/1);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return score[a] > score[b];
                     });
    std::string claims;
    for (const std::size_t d : order) {
      if (!claims.empty()) claims += ' ';
      claims += specs[d].name + ":" + std::to_string(score[d]);
    }
    obs::note_set("pipeline/claim_order", claims);
  } else {
    obs::counter_add("pipeline/schedule_probe_skipped");
  }

  // Designs fan out across the shared pool in claim order (each run is
  // seeded per spec, so runs are order-independent); the results are
  // appended — and on_design observed — in spec order on this thread, so
  // the Dataset is bit-identical to the serial build and the callback needs
  // no locking. Shards are committed from the workers as designs finish: a
  // build killed mid-suite keeps everything already finished.
  parallel_for_shared(
      order.size(),
      [&](std::size_t i) {
        const std::size_t d = order[i];
        if (!quarantined[d].empty()) return;  // failed in the probe
        guarded(d, [&] {
          DesignRun run = run_design(specs[d], options, static_cast<int>(d),
                                     std::move(placed[d]));
          if (ckpt) {
            throw_if_error(ckpt->store(design_unit(d, specs[d]),
                                       encode_dataset_shard(run.samples)));
          }
          runs[d].emplace(std::move(run));
        });
      },
      n_threads, /*grain=*/1);

  Dataset all(FeatureSchema::kNumFeatures, FeatureSchema::names());
  for (std::size_t d = 0; d < specs.size(); ++d) {
    if (!quarantined[d].empty()) {
      obs::counter_add("pipeline/designs_quarantined");
      obs::note_set("quarantine/" + specs[d].name, quarantined[d]);
      log_warn("pipeline ", specs[d].name, " quarantined: ", quarantined[d]);
      continue;
    }
    if (cached[d]) {
      all.append(*cached[d]);
      cached[d].reset();
      continue;
    }
    all.append(runs[d]->samples);
    if (on_design) on_design(*runs[d]);
    runs[d].reset();  // free the heavy Design/congestion state eagerly
  }
  return all;
}

Dataset build_suite_dataset(
    const std::vector<BenchmarkSpec>& specs, const PipelineOptions& options,
    const std::function<void(const DesignRun&)>& on_design,
    std::size_t n_threads) {
  return build_suite_dataset(specs, options, SuiteBuildControl{}, on_design,
                             n_threads);
}

}  // namespace drcshap
