#include "drc/drc_oracle.hpp"

#include <gtest/gtest.h>

#include "features/labeler.hpp"

namespace drcshap {
namespace {

Design calm_design(std::size_t nx = 8, std::size_t ny = 8) {
  return Design("calm", {0, 0, 10.0 * nx, 10.0 * ny}, nx, ny);
}

/// A design + congestion snapshot with heavy overflow around one cell.
struct HotInstance {
  Design design;
  CongestionMap congestion;
  std::vector<GCellAggregate> agg;
};

HotInstance hot_instance(int overflow_amount) {
  Design d = calm_design();
  GridGraph g(d);
  const std::size_t hot_cell = d.grid().index(4, 4);
  for (const int m : {3, 4}) {
    for (const Dir dir : {Dir::kEast, Dir::kWest, Dir::kNorth, Dir::kSouth}) {
      const auto e = g.edge(m, hot_cell, dir);
      if (e) g.add_edge_load(*e, g.edge_capacity(*e) + overflow_amount);
    }
  }
  std::vector<GCellAggregate> agg = compute_gcell_aggregates(d);
  return {std::move(d), CongestionMap::extract(g), std::move(agg)};
}

TEST(DrcOracle, DeterministicForFixedSeed) {
  const HotInstance hot = hot_instance(6);
  const DrcReport a = run_drc_oracle(hot.design, hot.congestion, hot.agg);
  const DrcReport b = run_drc_oracle(hot.design, hot.congestion, hot.agg);
  const std::vector<DrcViolation> va = a.violations();
  const std::vector<DrcViolation> vb = b.violations();
  ASSERT_EQ(va.size(), vb.size());
  EXPECT_EQ(a.hotspot, b.hotspot);
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].box, vb[i].box);
    EXPECT_EQ(va[i].type, vb[i].type);
  }
}

TEST(DrcOracle, SeedChangesOutcome) {
  const HotInstance hot = hot_instance(6);
  DrcOracleOptions o1, o2;
  o2.seed = o1.seed + 1;
  const DrcReport a =
      run_drc_oracle(hot.design, hot.congestion, hot.agg, o1);
  const DrcReport b =
      run_drc_oracle(hot.design, hot.congestion, hot.agg, o2);
  EXPECT_TRUE(a.violations().size() != b.violations().size() ||
              a.hotspot != b.hotspot);
}

TEST(DrcOracle, CalmDesignHasFewViolations) {
  const Design d = calm_design();
  const CongestionMap cong = CongestionMap::extract(GridGraph(d));
  const DrcReport report =
      run_drc_oracle(d, cong, compute_gcell_aggregates(d));
  // bias -5.2 with zero difficulty: expected rate well under 2%.
  EXPECT_LT(report.n_hotspots, d.grid().size() / 20);
}

TEST(DrcOracle, OverflowRaisesViolationDensity) {
  const HotInstance hot = hot_instance(8);
  const DrcReport hot_report =
      run_drc_oracle(hot.design, hot.congestion, hot.agg);
  const Design calm = calm_design();
  const DrcReport calm_report =
      run_drc_oracle(calm, CongestionMap::extract(GridGraph(calm)),
                     compute_gcell_aggregates(calm));
  // The overflowed neighborhood must light up more than the calm design
  // overall (probability of failure would be astronomically small).
  EXPECT_GT(hot_report.violations().size(),
            calm_report.violations().size());
  const std::size_t hot_cell = hot.design.grid().index(4, 4);
  EXPECT_TRUE(hot_report.hotspot[hot_cell]);
}

TEST(DrcOracle, DifficultyScoreMonotoneInOverflow) {
  const HotInstance a = hot_instance(2);
  const HotInstance b = hot_instance(10);
  const TrackModel track_a(a.design, a.congestion);
  const TrackModel track_b(b.design, b.congestion);
  const auto agg_a = compute_gcell_aggregates(a.design);
  const auto agg_b = compute_gcell_aggregates(b.design);
  const std::size_t hot_cell = a.design.grid().index(4, 4);
  EXPECT_LT(drc_difficulty(a.design, track_a, agg_a, hot_cell),
            drc_difficulty(b.design, track_b, agg_b, hot_cell));
}

TEST(DrcOracle, ViolationBoxesInsideDie) {
  const HotInstance hot = hot_instance(10);
  const DrcReport report = run_drc_oracle(hot.design, hot.congestion, hot.agg);
  for (const DrcViolation& v : report.violations()) {
    EXPECT_TRUE(hot.design.die().contains(v.box)) << v.box;
    EXPECT_FALSE(v.box.empty());
    EXPECT_GE(v.metal_layer, 0);
    EXPECT_LT(v.metal_layer, 5);
  }
}

TEST(DrcOracle, HotspotFlagsMatchBoxOverlap) {
  const HotInstance hot = hot_instance(10);
  const DrcReport report = run_drc_oracle(hot.design, hot.congestion, hot.agg);
  const auto labels =
      hotspot_labels(hot.design.grid(), report.violations());
  EXPECT_EQ(labels, report.hotspot);
  EXPECT_EQ(report.n_hotspots,
            static_cast<std::size_t>(
                std::count(labels.begin(), labels.end(), 1)));
}

TEST(DrcOracle, BiasControlsRate) {
  const HotInstance hot = hot_instance(4);
  DrcOracleOptions lenient, strict;
  lenient.bias = -9.0;
  strict.bias = -2.0;
  const DrcReport few =
      run_drc_oracle(hot.design, hot.congestion, hot.agg, lenient);
  const DrcReport many =
      run_drc_oracle(hot.design, hot.congestion, hot.agg, strict);
  EXPECT_LT(few.n_hotspots, many.n_hotspots);
}

TEST(DrcOracle, ViaPressureProducesEolErrors) {
  Design d = calm_design();
  GridGraph g(d);
  // Swamp V2 in a whole block of g-cells so at least one fires.
  for (std::size_t col = 2; col <= 5; ++col) {
    for (std::size_t row = 2; row <= 5; ++row) {
      const std::size_t cell = d.grid().index(col, row);
      g.add_via_load(1, cell, g.via_capacity(1, cell) * 2);
    }
  }
  DrcOracleOptions options;
  options.bias = -1.0;
  const DrcReport report =
      run_drc_oracle(d, CongestionMap::extract(g), compute_gcell_aggregates(d),
                     options);
  bool eol_on_m2 = false;
  for (const DrcViolation& v : report.violations()) {
    if (v.type == DrcErrorType::kEndOfLineSpacing && v.metal_layer == 2) {
      eol_on_m2 = true;
    }
  }
  EXPECT_TRUE(eol_on_m2)
      << "V2 crowding should produce end-of-line errors on the metal above";
}

/// Field-by-field equality of two per-cell reports (DrcViolation has no
/// operator==; Rect compares exactly).
void expect_reports_equal(const DrcReport& got, const DrcReport& want) {
  ASSERT_EQ(got.per_cell.size(), want.per_cell.size());
  for (std::size_t cell = 0; cell < want.per_cell.size(); ++cell) {
    ASSERT_EQ(got.per_cell[cell].size(), want.per_cell[cell].size()) << cell;
    for (std::size_t i = 0; i < want.per_cell[cell].size(); ++i) {
      const DrcViolation& a = got.per_cell[cell][i];
      const DrcViolation& b = want.per_cell[cell][i];
      EXPECT_EQ(a.type, b.type) << cell;
      EXPECT_EQ(a.metal_layer, b.metal_layer) << cell;
      EXPECT_EQ(a.box, b.box) << cell;
    }
  }
  EXPECT_EQ(got.coverage, want.coverage);
  EXPECT_EQ(got.hotspot, want.hotspot);
  EXPECT_EQ(got.n_hotspots, want.n_hotspots);
}

TEST(DrcOracle, RescoreMatchesFullRun) {
  const HotInstance before = hot_instance(0);
  const HotInstance after = hot_instance(10);
  const GCellGrid& grid = after.design.grid();
  // The oracle reads a cell's own track state and its 4-neighbors'
  // overflow; raising the hot cell's edge loads changes the overflow of the
  // hot cell and its 4-neighbors, so the 5x5 block around it covers every
  // cell whose inputs changed.
  std::vector<std::size_t> block;
  for (std::size_t row = 2; row <= 6; ++row) {
    for (std::size_t col = 2; col <= 6; ++col) {
      block.push_back(grid.index(col, row));
    }
  }
  const DrcOracleOptions options;
  for (const std::size_t n_threads : {1, 8}) {
    SCOPED_TRACE(n_threads);
    const DrcReport want = run_drc_oracle(after.design, after.congestion,
                                          after.agg, options, n_threads);
    DrcReport report = run_drc_oracle(before.design, before.congestion,
                                      before.agg, options, n_threads);
    ASSERT_NE(report.coverage, want.coverage) << "edit changed no label";
    rescore_drc(report, after.design, after.congestion, after.agg, block,
                options, n_threads);
    expect_reports_equal(report, want);

    // Unchanged inputs: re-scoring any subset is a byte-identical no-op.
    const std::vector<std::size_t> subset = {0, 9, grid.index(4, 4), 45, 63};
    DrcReport again = want;
    rescore_drc(again, after.design, after.congestion, after.agg, subset,
                options, n_threads);
    expect_reports_equal(again, want);
  }
  // A repeated or out-of-grid cell is rejected before anything changes.
  const DrcReport full =
      run_drc_oracle(after.design, after.congestion, after.agg);
  DrcReport report = full;
  for (const std::vector<std::size_t>& bad :
       {std::vector<std::size_t>{3, 3}, std::vector<std::size_t>{64}}) {
    EXPECT_THROW(rescore_drc(report, after.design, after.congestion,
                             after.agg, bad),
                 std::invalid_argument);
  }
  expect_reports_equal(report, full);
}

TEST(DrcOracle, ErrorTypeNames) {
  EXPECT_EQ(to_string(DrcErrorType::kShort), "short");
  EXPECT_EQ(to_string(DrcErrorType::kEndOfLineSpacing), "end-of-line-spacing");
  EXPECT_EQ(to_string(DrcErrorType::kDifferentNetSpacing),
            "different-net-spacing");
  EXPECT_EQ(to_string(DrcErrorType::kViaEnclosure), "via-enclosure");
}

TEST(Labeler, ViolationsInGCell) {
  const Design d = calm_design();
  std::vector<DrcViolation> violations{
      {DrcErrorType::kShort, 2, {12, 12, 14, 14}},
      {DrcErrorType::kShort, 3, {55, 55, 57, 57}},
  };
  const auto in_cell =
      violations_in_gcell(d.grid(), d.grid().locate({15, 15}), violations);
  ASSERT_EQ(in_cell.size(), 1u);
  EXPECT_EQ(in_cell.front().metal_layer, 2);
}

TEST(Labeler, StraddlingBoxMarksAllTouchedCells) {
  const Design d = calm_design();
  std::vector<DrcViolation> violations{
      {DrcErrorType::kShort, 1, {8, 8, 12, 12}}};  // straddles 4 g-cells
  const auto labels = hotspot_labels(d.grid(), violations);
  EXPECT_EQ(std::count(labels.begin(), labels.end(), 1), 4);
}

}  // namespace
}  // namespace drcshap
