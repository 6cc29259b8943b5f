// Incremental ECO engine: golden byte-identity against from-scratch
// rebuilds, explanation-cache behavior under edits, and diff semantics.
//
// The load-bearing property is exactness: after any apply() sequence the
// engine's resident state — features, labels, probabilities, SHAP matrix,
// congestion, violations — must equal a fresh EcoEngine built on an
// independently edited design, bit for bit, at any thread count, with the
// explanation cache on or off.

#include "eco/eco_engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "benchsuite/pipeline.hpp"
#include "core/explanation_cache.hpp"
#include "obs/registry.hpp"

namespace drcshap {
namespace {

PipelineOptions tiny_options() {
  PipelineOptions options;
  options.generator.scale = 16.0;
  return options;
}

/// The design exactly as run_pipeline would construct it (same generator,
/// placer seed and row height), so the engine's initial state can be
/// compared against the one-shot pipeline.
Design make_design(const char* name) {
  const PipelineOptions options = tiny_options();
  const BenchmarkSpec& spec = suite_spec(name);
  const NetlistSpec netlist = generate_netlist(spec, options.generator);
  PlacerOptions placer = options.placer;
  placer.row_height = options.generator.row_height;
  placer.seed = spec.seed * 31 + 1;
  return place_design(netlist, placer);
}

/// A low-density design whose routing converges without rip-up: total
/// overflow is zero, so a small edit provably stays local instead of being
/// amplified by PathFinder's congestion feedback.
Design make_uncongested_design() {
  BenchmarkSpec spec;
  spec.name = "eco_local";
  spec.table_group = 0;
  spec.die_microns = 200.0;
  spec.gcells_x = 30;
  spec.gcells_y = 30;
  spec.cells_thousands = 0.5;
  spec.n_macros = 2;
  spec.difficulty = 0.02;
  spec.wiring_richness = 1.0;
  spec.seed = 7;
  const PipelineOptions options;  // full scale: the spec is already small
  const NetlistSpec netlist = generate_netlist(spec, options.generator);
  PlacerOptions placer = options.placer;
  placer.row_height = options.generator.row_height;
  placer.seed = spec.seed * 31 + 1;
  return place_design(netlist, placer);
}

void expect_congestion_equal(const CongestionMap& a, const CongestionMap& b) {
  ASSERT_EQ(a.nx(), b.nx());
  ASSERT_EQ(a.ny(), b.ny());
  ASSERT_EQ(a.num_metal_layers(), b.num_metal_layers());
  for (int m = 0; m < a.num_metal_layers(); ++m) {
    const bool horizontal = Technology::is_horizontal(m);
    for (std::size_t cell = 0; cell < a.num_cells(); ++cell) {
      const std::size_t nbr = horizontal ? cell + 1 : cell + a.nx();
      if (!a.has_edge(m, cell, nbr)) continue;
      ASSERT_EQ(a.edge_capacity(m, cell, nbr), b.edge_capacity(m, cell, nbr))
          << "metal " << m << " cell " << cell;
      ASSERT_EQ(a.edge_load(m, cell, nbr), b.edge_load(m, cell, nbr))
          << "metal " << m << " cell " << cell;
    }
  }
  for (int v = 0; v < a.num_via_layers(); ++v) {
    for (std::size_t cell = 0; cell < a.num_cells(); ++cell) {
      ASSERT_EQ(a.via_capacity(v, cell), b.via_capacity(v, cell));
      ASSERT_EQ(a.via_load(v, cell), b.via_load(v, cell));
    }
  }
}

void expect_violations_equal(const std::vector<DrcViolation>& a,
                             const std::vector<DrcViolation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << "violation " << i;
    EXPECT_EQ(a[i].metal_layer, b[i].metal_layer) << "violation " << i;
    EXPECT_EQ(a[i].box, b[i].box) << "violation " << i;
  }
}

/// Full bit-exact comparison of two engines' resident state. Vector ==
/// compares floats/doubles exactly — that is the point.
void expect_engines_equal(const EcoEngine& got, const EcoEngine& want) {
  EXPECT_EQ(got.edge_overflow(), want.edge_overflow());
  EXPECT_EQ(got.via_overflow(), want.via_overflow());
  expect_congestion_equal(got.state().congestion, want.state().congestion);
  EXPECT_TRUE(got.state().aggregates == want.state().aggregates);
  EXPECT_TRUE(got.features() == want.features()) << "feature matrix differs";
  EXPECT_EQ(got.labels(), want.labels());
  EXPECT_EQ(got.state().drc.coverage, want.state().drc.coverage);
  EXPECT_EQ(got.state().drc.n_hotspots, want.state().drc.n_hotspots);
  expect_violations_equal(got.state().drc.violations(),
                          want.state().drc.violations());
  EXPECT_TRUE(got.probabilities() == want.probabilities())
      << "probabilities differ";
  EXPECT_TRUE(got.shap_values() == want.shap_values()) << "phi matrix differs";
}

/// A macro translation that stays inside the die: one die-tenth east if it
/// fits, else west.
std::pair<double, double> safe_macro_shift(const Design& design, MacroId id) {
  const Rect& box = design.macro(id).box;
  const double dx = (design.die().x_hi - design.die().x_lo) / 10.0;
  if (box.x_hi + dx <= design.die().x_hi) return {dx, 0.0};
  return {-dx, 0.0};
}

class EcoFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Dataset train(FeatureSchema::kNumFeatures, FeatureSchema::names());
    train.append(run_pipeline(suite_spec("fft_2"), tiny_options()).samples);
    RandomForestOptions options;
    options.n_trees = 25;
    auto forest = std::make_shared<RandomForestClassifier>(options);
    forest->fit(train);
    forest_ = new std::shared_ptr<const RandomForestClassifier>(
        std::move(forest));
  }
  static void TearDownTestSuite() {
    delete forest_;
    forest_ = nullptr;
  }

  static std::shared_ptr<const RandomForestClassifier> forest() {
    return *forest_;
  }
  static EcoEngine make_engine(const char* name = "bridge32_a",
                               EcoOptions options = {}) {
    options.router = tiny_options().router;
    options.drc = tiny_options().drc;
    return EcoEngine(make_design(name), forest(),
                     TreeShapExplainer(*forest()), options);
  }

 private:
  static std::shared_ptr<const RandomForestClassifier>* forest_;
};

std::shared_ptr<const RandomForestClassifier>* EcoFixture::forest_ = nullptr;

// ---------------------------------------------------------------------------
// Golden digests: ECO == from-scratch rebuild, bit for bit.
// ---------------------------------------------------------------------------

using EcoDigest = EcoFixture;

TEST_F(EcoDigest, InitialStateMatchesOneShotPipeline) {
  const EcoEngine engine = make_engine();
  const DesignRun run = run_pipeline(suite_spec("bridge32_a"), tiny_options());
  ASSERT_EQ(engine.num_cells(), run.samples.n_rows());
  expect_congestion_equal(engine.state().congestion, run.congestion);
  EXPECT_EQ(engine.edge_overflow(), run.edge_overflow);
  EXPECT_EQ(engine.via_overflow(), run.via_overflow);
  EXPECT_EQ(engine.labels(), run.drc.hotspot);
  expect_violations_equal(engine.state().drc.violations(),
                          run.drc.violations());
  for (std::size_t cell = 0; cell < engine.num_cells(); ++cell) {
    const std::span<const float> row = run.samples.row(cell);
    for (std::size_t f = 0; f < FeatureSchema::kNumFeatures; ++f) {
      ASSERT_EQ(engine.features()[cell * FeatureSchema::kNumFeatures + f],
                row[f])
          << "cell " << cell << " feature " << f;
    }
  }
}

TEST_F(EcoDigest, MoveMacroMatchesFullRebuild) {
  EcoEngine engine = make_engine();
  const auto [dx, dy] = safe_macro_shift(engine.design(), 0);

  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kMoveMacro;
  edit.macro = 0;
  edit.dx = dx;
  edit.dy = dy;
  const EcoResult result = engine.apply(edit);
  EXPECT_GT(result.stats.dirty_cells, 0u);
  // bridge32_a is congested; PathFinder rip-up can legitimately shuffle
  // routes far from the edit, so no locality bound is asserted here — see
  // SmallEditOnUncongestedDesignStaysLocal for the locality guarantee.

  Design edited = make_design("bridge32_a");
  edited.move_macro(0, dx, dy);
  EcoOptions options;
  options.router = tiny_options().router;
  options.drc = tiny_options().drc;
  const EcoEngine fresh(std::move(edited), forest(),
                        TreeShapExplainer(*forest()), options);
  expect_engines_equal(engine, fresh);
}

// The locality guarantee behind the ECO speedup: when routing converges
// with zero overflow (no rip-up feedback), a sub-micron macro nudge dirties
// only a small neighborhood — and the incremental state still matches a
// from-scratch rebuild bit for bit.
TEST_F(EcoDigest, SmallEditOnUncongestedDesignStaysLocal) {
  EcoOptions options;
  EcoEngine engine(make_uncongested_design(), forest(),
                   TreeShapExplainer(*forest()), options);
  ASSERT_EQ(engine.edge_overflow(), 0);
  ASSERT_EQ(engine.via_overflow(), 0);

  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kMoveMacro;
  edit.macro = 1;
  edit.dx = 0.25;
  edit.dy = 0.0;
  const EcoResult result = engine.apply(edit);
  EXPECT_GT(result.stats.dirty_cells, 0u);
  EXPECT_LT(result.stats.dirty_cells, engine.num_cells() / 4);
  EXPECT_EQ(result.stats.rows_rescored, result.stats.dirty_cells);

  Design edited = make_uncongested_design();
  edited.move_macro(1, edit.dx, edit.dy);
  const EcoEngine fresh(std::move(edited), forest(),
                        TreeShapExplainer(*forest()), options);
  expect_engines_equal(engine, fresh);
}

TEST_F(EcoDigest, ResizeMacroMatchesFullRebuild) {
  EcoEngine engine = make_engine();
  const Rect old_box = engine.design().macro(1).box;
  const Rect new_box{old_box.x_lo, old_box.y_lo,
                     old_box.x_lo + 0.5 * (old_box.x_hi - old_box.x_lo),
                     old_box.y_hi};

  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kResizeMacro;
  edit.macro = 1;
  edit.new_box = new_box;
  engine.apply(edit);

  Design edited = make_design("bridge32_a");
  edited.set_macro_box(1, new_box);
  EcoOptions options;
  options.router = tiny_options().router;
  options.drc = tiny_options().drc;
  const EcoEngine fresh(std::move(edited), forest(),
                        TreeShapExplainer(*forest()), options);
  expect_engines_equal(engine, fresh);
}

TEST_F(EcoDigest, EditSequenceMatchesFullRebuild) {
  EcoEngine engine = make_engine();
  const auto [dx, dy] = safe_macro_shift(engine.design(), 0);
  const Rect box1 = engine.design().macro(1).box;
  const Rect shrunk{box1.x_lo, box1.y_lo, box1.x_hi,
                    box1.y_lo + 0.75 * (box1.y_hi - box1.y_lo)};

  EcoEdit move;
  move.kind = EcoEdit::Kind::kMoveMacro;
  move.macro = 0;
  move.dx = dx;
  move.dy = dy;
  engine.apply(move);

  EcoEdit resize;
  resize.kind = EcoEdit::Kind::kResizeMacro;
  resize.macro = 1;
  resize.new_box = shrunk;
  engine.apply(resize);

  EcoEdit reroute;
  reroute.kind = EcoEdit::Kind::kRerouteNets;
  reroute.nets = {engine.design().net(0).name,
                  engine.design().net(engine.design().num_nets() / 2).name};
  engine.apply(reroute);

  Design edited = make_design("bridge32_a");
  edited.move_macro(0, dx, dy);
  edited.set_macro_box(1, shrunk);
  EcoOptions options;
  options.router = tiny_options().router;
  options.drc = tiny_options().drc;
  const EcoEngine fresh(std::move(edited), forest(),
                        TreeShapExplainer(*forest()), options);
  expect_engines_equal(engine, fresh);
}

TEST_F(EcoDigest, RerouteNetsOnUnchangedDesignIsByteStableNoOp) {
  EcoEngine engine = make_engine();
  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kRerouteNets;
  edit.nets = {engine.design().net(1).name, engine.design().net(3).name};
  const EcoResult result = engine.apply(edit);
  // Forcing nets through live routing on an unchanged design must
  // reproduce their routes exactly: nothing downstream may move.
  EXPECT_EQ(result.diff.entries.size(), 0u);
  EXPECT_EQ(result.diff.n_appeared, 0u);
  EXPECT_EQ(result.diff.n_vanished, 0u);
  EXPECT_EQ(result.diff.n_changed, 0u);
  const EcoEngine fresh = make_engine();
  expect_engines_equal(engine, fresh);
}

TEST_F(EcoDigest, ThreadCountInvariance) {
  EcoOptions serial;
  serial.n_threads = 1;
  EcoOptions parallel;
  parallel.n_threads = 8;
  EcoEngine a = make_engine("bridge32_a", serial);
  EcoEngine b = make_engine("bridge32_a", parallel);
  const auto [dx, dy] = safe_macro_shift(a.design(), 0);
  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kMoveMacro;
  edit.macro = 0;
  edit.dx = dx;
  edit.dy = dy;
  const EcoResult ra = a.apply(edit);
  const EcoResult rb = b.apply(edit);
  expect_engines_equal(a, b);
  ASSERT_EQ(ra.diff.entries.size(), rb.diff.entries.size());
  for (std::size_t i = 0; i < ra.diff.entries.size(); ++i) {
    EXPECT_EQ(ra.diff.entries[i].cell, rb.diff.entries[i].cell);
    EXPECT_EQ(ra.diff.entries[i].change, rb.diff.entries[i].change);
    EXPECT_EQ(ra.diff.entries[i].prob_before, rb.diff.entries[i].prob_before);
    EXPECT_EQ(ra.diff.entries[i].prob_after, rb.diff.entries[i].prob_after);
    EXPECT_EQ(ra.diff.entries[i].shap_deltas, rb.diff.entries[i].shap_deltas);
  }
}

TEST_F(EcoDigest, DiffEntriesAreConsistentWithProbabilities) {
  EcoEngine engine = make_engine();
  const std::vector<double> before = engine.probabilities();
  const auto [dx, dy] = safe_macro_shift(engine.design(), 0);
  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kMoveMacro;
  edit.macro = 0;
  edit.dx = dx;
  edit.dy = dy;
  const EcoResult result = engine.apply(edit);
  const std::vector<double>& after = engine.probabilities();

  EcoOptions options;  // defaults the engine ran with
  std::size_t prev_cell = 0;
  bool first = true;
  std::vector<std::uint8_t> in_diff(engine.num_cells(), 0);
  for (const HotspotDiffEntry& e : result.diff.entries) {
    if (!first) {
      EXPECT_GT(e.cell, prev_cell) << "entries not ascending";
    }
    first = false;
    prev_cell = e.cell;
    in_diff[e.cell] = 1;
    EXPECT_EQ(e.prob_before, before[e.cell]);
    EXPECT_EQ(e.prob_after, after[e.cell]);
    switch (e.change) {
      case HotspotDiffEntry::Change::kAppeared:
        EXPECT_LT(e.prob_before, options.hotspot_threshold);
        EXPECT_GE(e.prob_after, options.hotspot_threshold);
        break;
      case HotspotDiffEntry::Change::kVanished:
        EXPECT_GE(e.prob_before, options.hotspot_threshold);
        EXPECT_LT(e.prob_after, options.hotspot_threshold);
        break;
      case HotspotDiffEntry::Change::kChanged:
        EXPECT_GE(std::abs(e.prob_after - e.prob_before),
                  options.min_prob_delta);
        break;
    }
    EXPECT_LE(e.shap_deltas.size(), options.top_k);
    for (std::size_t i = 1; i < e.shap_deltas.size(); ++i) {
      EXPECT_GE(std::abs(e.shap_deltas[i - 1].second),
                std::abs(e.shap_deltas[i].second));
    }
  }
  EXPECT_EQ(result.diff.n_appeared + result.diff.n_vanished +
                result.diff.n_changed,
            result.diff.entries.size());
  // Every cell outside the diff either kept its probability side and moved
  // less than min_prob_delta, or did not move at all.
  for (std::size_t cell = 0; cell < engine.num_cells(); ++cell) {
    if (in_diff[cell]) continue;
    const bool was = before[cell] >= options.hotspot_threshold;
    const bool is = after[cell] >= options.hotspot_threshold;
    EXPECT_EQ(was, is) << "cell " << cell << " crossed outside the diff";
    EXPECT_LT(std::abs(after[cell] - before[cell]), options.min_prob_delta)
        << "cell " << cell;
  }
}

TEST_F(EcoDigest, MalformedEditsThrowAndLeaveStateIntact) {
  EcoEngine engine = make_engine();
  const std::vector<float> features_before = engine.features();
  const std::vector<double> probs_before = engine.probabilities();

  EcoEdit bad_macro;
  bad_macro.kind = EcoEdit::Kind::kMoveMacro;
  bad_macro.macro = 1000;
  EXPECT_THROW(engine.apply(bad_macro), std::invalid_argument);

  EcoEdit bad_box;
  bad_box.kind = EcoEdit::Kind::kResizeMacro;
  bad_box.macro = 0;
  bad_box.new_box = Rect{-1e9, -1e9, -1e8, -1e8};
  EXPECT_THROW(engine.apply(bad_box), std::invalid_argument);

  EcoEdit bad_net;
  bad_net.kind = EcoEdit::Kind::kRerouteNets;
  bad_net.nets = {"no_such_net_name"};
  EXPECT_THROW(engine.apply(bad_net), std::invalid_argument);

  EXPECT_TRUE(engine.features() == features_before);
  EXPECT_TRUE(engine.probabilities() == probs_before);

  // And the engine still works: a valid edit after the failures matches a
  // fresh rebuild.
  const auto [dx, dy] = safe_macro_shift(engine.design(), 0);
  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kMoveMacro;
  edit.macro = 0;
  edit.dx = dx;
  edit.dy = dy;
  engine.apply(edit);
  Design edited = make_design("bridge32_a");
  edited.move_macro(0, dx, dy);
  EcoOptions options;
  options.router = tiny_options().router;
  options.drc = tiny_options().drc;
  const EcoEngine fresh(std::move(edited), forest(),
                        TreeShapExplainer(*forest()), options);
  expect_engines_equal(engine, fresh);
}

// ---------------------------------------------------------------------------
// Explanation cache under ECO edits.
// ---------------------------------------------------------------------------

using EcoCache = EcoFixture;

TEST_F(EcoCache, CachedApplyIsByteIdenticalToUncached) {
  EcoOptions options;
  options.router = tiny_options().router;
  options.drc = tiny_options().drc;

  TreeShapExplainer cached_explainer(*forest());
  cached_explainer.set_cache(std::make_shared<ExplanationCache>());
  EcoEngine cached(make_design("bridge32_a"), forest(),
                   std::move(cached_explainer), options);
  EcoEngine uncached(make_design("bridge32_a"), forest(),
                     TreeShapExplainer(*forest()), options);

  const auto [dx, dy] = safe_macro_shift(cached.design(), 0);
  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kMoveMacro;
  edit.macro = 0;
  edit.dx = dx;
  edit.dy = dy;
  cached.apply(edit);
  uncached.apply(edit);
  expect_engines_equal(cached, uncached);
}

TEST_F(EcoCache, EditedCellsMissUntouchedCellsNeverLookUp) {
  EcoOptions options;
  options.router = tiny_options().router;
  options.drc = tiny_options().drc;

  auto cache = std::make_shared<ExplanationCache>();
  TreeShapExplainer explainer(*forest());
  explainer.set_cache(cache);
  EcoEngine engine(make_design("bridge32_a"), forest(), std::move(explainer),
                   options);
  const ExplanationCacheStats after_build = cache->stats();
  // The full build consulted the cache once per unique row, all misses.
  EXPECT_GT(after_build.misses, 0u);
  EXPECT_EQ(after_build.hits, 0u);

  const auto [dx, dy] = safe_macro_shift(engine.design(), 0);
  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kMoveMacro;
  edit.macro = 0;
  edit.dx = dx;
  edit.dy = dy;
  const EcoResult result = engine.apply(edit);
  const ExplanationCacheStats after_edit = cache->stats();

  const std::uint64_t lookups_delta = (after_edit.hits + after_edit.misses) -
                                      (after_build.hits + after_build.misses);
  // Only dirty rows reach the explainer at all: untouched cells cause no
  // cache traffic (stronger than hitting). Dedupe can only shrink the count.
  EXPECT_LE(lookups_delta, result.stats.rows_rescored);
  EXPECT_GT(lookups_delta, 0u);
  // The edit genuinely changed feature rows, so fresh phi was computed:
  // some lookups missed.
  EXPECT_GT(after_edit.misses, after_build.misses);
}

TEST_F(EcoCache, RevertedEditHitsCacheAndRestoresOriginalState) {
  EcoOptions options;
  options.router = tiny_options().router;
  options.drc = tiny_options().drc;

  auto cache = std::make_shared<ExplanationCache>();
  TreeShapExplainer explainer(*forest());
  explainer.set_cache(cache);
  EcoEngine engine(make_design("bridge32_a"), forest(), std::move(explainer),
                   options);
  const Rect original_box = engine.design().macro(0).box;
  const auto [dx, dy] = safe_macro_shift(engine.design(), 0);

  EcoEdit move;
  move.kind = EcoEdit::Kind::kMoveMacro;
  move.macro = 0;
  move.dx = dx;
  move.dy = dy;
  engine.apply(move);

  const ExplanationCacheStats before_revert = cache->stats();
  // Restore the exact original box (an explicit resize, not a float
  // round-trip through -dx), so the design returns to its pristine bytes.
  EcoEdit revert;
  revert.kind = EcoEdit::Kind::kResizeMacro;
  revert.macro = 0;
  revert.new_box = original_box;
  engine.apply(revert);
  const ExplanationCacheStats after_revert = cache->stats();

  // Reverted cells re-ask about feature rows explained during the initial
  // build — those lookups hit.
  EXPECT_GT(after_revert.hits, before_revert.hits);

  // Round trip: the engine is byte-identical to a never-edited rebuild.
  const EcoEngine fresh = make_engine();
  expect_engines_equal(engine, fresh);
}

// The cache's off switch is detaching it: set_cache(nullptr) on an explainer
// that had one attached.
TEST_F(EcoCache, KillSwitchEnvRunsByteIdenticalToCachedRuns) {
  EcoOptions options;
  options.router = tiny_options().router;
  options.drc = tiny_options().drc;

  TreeShapExplainer cached_explainer(*forest());
  cached_explainer.set_cache(std::make_shared<ExplanationCache>());
  EcoEngine cached(make_design("bridge32_a"), forest(),
                   std::move(cached_explainer), options);

  auto dead_cache = std::make_shared<ExplanationCache>();
  TreeShapExplainer bypassed_explainer(*forest());
  bypassed_explainer.set_cache(dead_cache);
  bypassed_explainer.set_cache(nullptr);
  EcoEngine bypassed(make_design("bridge32_a"), forest(),
                     std::move(bypassed_explainer), options);

  const auto [dx, dy] = safe_macro_shift(cached.design(), 0);
  EcoEdit edit;
  edit.kind = EcoEdit::Kind::kMoveMacro;
  edit.macro = 0;
  edit.dx = dx;
  edit.dy = dy;
  cached.apply(edit);
  bypassed.apply(edit);

  // Detaching really bypassed the cache...
  const ExplanationCacheStats stats = dead_cache->stats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  // ...and changed nothing about the results.
  expect_engines_equal(cached, bypassed);
}

// ---------------------------------------------------------------------------
// Instrumentation: the ECO full build is the one-shot pipeline's stages.
// ---------------------------------------------------------------------------

using EcoObs = EcoFixture;

TEST_F(EcoObs, ConstructionRecordsPipelineStageTimers) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::vector<std::string> stages = {
      "route/global_route", "features/aggregates", "drc/oracle",
      "features/extract"};
  // Completed scopes per stage timer since `before`.
  const auto stage_counts = [&](const obs::Snapshot& before) {
    const obs::Snapshot after = obs::snapshot();
    std::vector<std::uint64_t> counts;
    for (const std::string& stage : stages) {
      const auto count = [&](const obs::Snapshot& snap) -> std::uint64_t {
        const auto it = snap.timers.find(stage);
        return it == snap.timers.end() ? 0 : it->second.count;
      };
      counts.push_back(count(after) - count(before));
    }
    return counts;
  };

  const obs::Snapshot before_pipeline = obs::snapshot();
  run_pipeline(suite_spec("bridge32_a"), tiny_options());
  const std::vector<std::uint64_t> pipeline = stage_counts(before_pipeline);

  const obs::Snapshot before_engine = obs::snapshot();
  make_engine();
  const std::vector<std::uint64_t> engine = stage_counts(before_engine);

  EXPECT_EQ(pipeline, std::vector<std::uint64_t>(stages.size(), 1));
  EXPECT_EQ(engine, pipeline);
}

}  // namespace
}  // namespace drcshap
