#pragma once
// End-to-end data-acquisition pipeline (the middle panel of the paper's
// Fig. 1): benchmark spec -> synthetic netlist -> placement -> global route
// -> congestion map -> DRC oracle -> 387-feature samples with hotspot
// labels. One DesignRun per design; build_suite_dataset stitches the whole
// Table I suite into a single grouped dataset for the Table II protocol.

#include <functional>
#include <optional>

#include "benchsuite/design_generator.hpp"
#include "drc/drc_oracle.hpp"
#include "features/feature_extractor.hpp"
#include "ml/dataset.hpp"
#include "ml/experiment_state.hpp"
#include "route/global_router.hpp"

namespace drcshap {

struct PipelineOptions {
  GeneratorOptions generator;
  PlacerOptions placer;
  GlobalRouterOptions router;
  DrcOracleOptions drc;
  /// Worker cap for the intra-design parallel stages (DRC cell scoring and
  /// feature extraction) of one run_pipeline call: 0 = whole shared pool,
  /// 1 = serial. Results are bit-identical at any value. Under
  /// build_suite_dataset the outer per-design loop already owns the pool
  /// workers and these stages degrade to serial on them, so this knob
  /// matters for single-design workflows (explaining one hotspot map).
  std::size_t n_threads = 0;
};

/// The design-side stages' outputs for one placed design, in the order of
/// the paper's Fig. 1: global route -> per-g-cell aggregates -> DRC labels
/// -> 387-feature matrix. run_pipeline exports it as a Dataset; EcoEngine
/// keeps it resident and rescores it in place after each edit.
struct DesignState {
  CongestionMap congestion;
  long edge_overflow = 0;
  long via_overflow = 0;
  std::vector<GCellAggregate> aggregates{};
  DrcReport drc{};
  /// Row-major g-cells x FeatureSchema::kNumFeatures.
  std::vector<float> features{};
};

/// The spec's synthetic netlist, placed: the front half of a pipeline run.
/// The placer seed is derived from spec.seed and the row height from the
/// generator, so every caller that starts from a spec places the same
/// design run_pipeline does.
Design place_spec(const BenchmarkSpec& spec, const PipelineOptions& options);

/// Runs the design-side stages over every g-cell of `design` — the one
/// place they are wired together. `n_threads` caps the workers of DRC
/// scoring and feature extraction (0 = whole shared pool, 1 = serial); the
/// state is bit-identical at any value. `record`, if non-null, receives the
/// route trace (empty on entry) for a later ECO replay.
DesignState build_design_state(const Design& design,
                               const GlobalRouterOptions& router,
                               const DrcOracleOptions& drc,
                               std::size_t n_threads,
                               RouteTrace* record = nullptr);

/// Everything produced for one design.
struct DesignRun {
  BenchmarkSpec spec;
  Design design;
  CongestionMap congestion;
  long edge_overflow = 0;
  long via_overflow = 0;
  DrcReport drc;
  /// One row per g-cell; labels from drc.hotspot; group = `group_id` given
  /// to run_pipeline (defaults to the spec's Table I group).
  Dataset samples;
};

/// Runs the full pipeline for one design. `group_id` labels the dataset
/// rows (pass the design's index when per-design test splits are needed);
/// -1 uses spec.table_group.
DesignRun run_pipeline(const BenchmarkSpec& spec,
                       const PipelineOptions& options = {}, int group_id = -1);

/// Robustness knobs for build_suite_dataset.
struct SuiteBuildControl {
  /// When set (and enabled), each finished design's sample shard is
  /// committed atomically to the store as it completes, and a later run
  /// with the same config digest resumes by reusing committed shards —
  /// byte-identical to an uninterrupted build at any thread count. Torn,
  /// stale or corrupt shards are silently recomputed.
  const CheckpointStore* checkpoint = nullptr;
  /// When true, a design whose pipeline (or shard commit) throws is
  /// quarantined instead of aborting the build: its rows are dropped, the
  /// reason is recorded in the run report (note `quarantine/<design>`), and
  /// the `pipeline/designs_quarantined` counter is bumped. The result
  /// equals the full build with that design's group filtered out.
  bool quarantine_failures = false;
};

/// Runs the pipeline for every design in `specs` (group = design index into
/// `specs`) and concatenates the samples. Designs run in parallel on the
/// shared thread pool (`n_threads` caps the workers; 0 = whole pool, 1 =
/// serial) but samples are appended in spec order, so the result is
/// bit-identical to a serial build at any thread count. With more than one
/// worker, every uncached design is first placed and scored by its
/// pattern-stage overflow (timer `pipeline/schedule_probe`, note
/// `pipeline/claim_order`), and the rest of the pipeline claims designs
/// heaviest first so the slowest one does not start last; with one worker
/// the probe is skipped (counter `pipeline/schedule_probe_skipped`). A
/// quarantined design is dropped whichever pass it fails in. `on_design`
/// (optional) observes each DesignRun, always from the calling thread and
/// in spec order, e.g. to collect Table I statistics; on a resumed build it
/// fires only for freshly computed designs (checkpointed shards carry the
/// samples, not the full DesignRun).
Dataset build_suite_dataset(
    const std::vector<BenchmarkSpec>& specs, const PipelineOptions& options,
    const SuiteBuildControl& control,
    const std::function<void(const DesignRun&)>& on_design = nullptr,
    std::size_t n_threads = 0);

/// Convenience overload: no checkpointing, failures propagate.
Dataset build_suite_dataset(
    const std::vector<BenchmarkSpec>& specs, const PipelineOptions& options,
    const std::function<void(const DesignRun&)>& on_design = nullptr,
    std::size_t n_threads = 0);

}  // namespace drcshap
