#include "place/placer.hpp"

#include <gtest/gtest.h>

namespace drcshap {
namespace {

// True when both designs place every cell and every pin at the same spot.
bool same_placement(const Design& a, const Design& b) {
  if (a.num_cells() != b.num_cells() || a.num_pins() != b.num_pins()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_cells(); ++i) {
    const auto id = static_cast<CellId>(i);
    if (a.cell(id).box != b.cell(id).box) return false;
  }
  for (std::size_t i = 0; i < a.num_pins(); ++i) {
    if (a.pins()[i].position != b.pins()[i].position) return false;
  }
  return true;
}

NetlistSpec small_spec() {
  NetlistSpec spec;
  spec.name = "placer_toy";
  spec.die = {0, 0, 100, 100};
  spec.gcells_x = 10;
  spec.gcells_y = 10;
  spec.clusters = {{{25, 25}, 10.0}, {{75, 75}, 10.0}};
  for (int i = 0; i < 400; ++i) {
    CellSpec c;
    c.width = 1.0 + (i % 5) * 0.3;
    c.height = 2.0;
    c.cluster = static_cast<std::uint32_t>(i % 2);
    spec.cells.push_back(c);
  }
  for (std::uint32_t i = 0; i + 1 < 400; i += 2) {
    spec.nets.push_back({{i, i + 1}, false, false});
  }
  return spec;
}

TEST(Placer, AllCellsInsideDie) {
  const Design d = place_design(small_spec());
  for (const Cell& c : d.cells()) {
    EXPECT_TRUE(d.die().contains(c.box)) << c.name;
  }
}

TEST(Placer, NoCellOverlaps) {
  const Design d = place_design(small_spec());
  // O(n^2) is fine at this size.
  for (std::size_t i = 0; i < d.num_cells(); ++i) {
    for (std::size_t j = i + 1; j < d.num_cells(); ++j) {
      EXPECT_FALSE(d.cell(static_cast<CellId>(i))
                       .box.overlaps(d.cell(static_cast<CellId>(j)).box))
          << i << " vs " << j;
    }
  }
}

TEST(Placer, MacroKeepOutRespected) {
  NetlistSpec spec = small_spec();
  spec.macros.push_back({"m", {40, 40, 60, 60}, 4});
  const Design d = place_design(spec);
  for (const Cell& c : d.cells()) {
    EXPECT_FALSE(c.box.overlaps(d.macro(0).box)) << c.name;
  }
}

TEST(Placer, MacroBecomesRoutingBlockage) {
  NetlistSpec spec = small_spec();
  spec.macros.push_back({"m", {40, 40, 60, 60}, 4});
  const Design d = place_design(spec);
  bool found = false;
  for (const Blockage& b : d.blockages()) {
    if (b.box == d.macro(0).box) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Placer, EveryNetGetsOnePinPerListedCell) {
  const NetlistSpec spec = small_spec();
  const Design d = place_design(spec);
  ASSERT_EQ(d.num_nets(), spec.nets.size());
  for (std::size_t n = 0; n < spec.nets.size(); ++n) {
    EXPECT_EQ(d.net(static_cast<NetId>(n)).pins.size(), spec.nets[n].cells.size());
  }
}

TEST(Placer, PinsInsideOwningCell) {
  const Design d = place_design(small_spec());
  for (const Pin& p : d.pins()) {
    ASSERT_NE(p.cell, kInvalidId);
    EXPECT_TRUE(d.cell(p.cell).box.contains(p.position));
  }
}

TEST(Placer, DeterministicForFixedSeed) {
  const Design a = place_design(small_spec());
  const Design b = place_design(small_spec());
  EXPECT_TRUE(same_placement(a, b));
}

TEST(Placer, SeedChangesPlacement) {
  PlacerOptions o1, o2;
  o2.seed = 999;
  const Design a = place_design(small_spec(), o1);
  const Design b = place_design(small_spec(), o2);
  EXPECT_FALSE(same_placement(a, b));
}

TEST(Placer, ClusteringBiasesLocation) {
  // Cells of cluster 0 should land nearer (25,25) than cells of cluster 1.
  const Design d = place_design(small_spec());
  double d0 = 0.0, d1 = 0.0;
  int n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < d.num_cells(); ++i) {
    const Point c = d.cell(static_cast<CellId>(i)).box.center();
    if (i % 2 == 0) {
      d0 += manhattan(c, {25, 25});
      ++n0;
    } else {
      d1 += manhattan(c, {25, 25});
      ++n1;
    }
  }
  EXPECT_LT(d0 / n0, d1 / n1);
}

TEST(Placer, MultiHeightCellsSpanTwoRows) {
  NetlistSpec spec = small_spec();
  spec.cells[0].multi_height = true;
  spec.cells[0].height = 4.0;
  const Design d = place_design(spec);
  EXPECT_DOUBLE_EQ(d.cell(0).box.height(), 4.0);
  EXPECT_TRUE(d.cell(0).is_multi_height);
}

TEST(Placer, ThrowsWhenDieTooFull) {
  NetlistSpec spec = small_spec();
  for (auto& c : spec.cells) c.width = 40.0;  // 400 cells x 40um in 100um die
  EXPECT_THROW(place_design(spec), std::runtime_error);
}

TEST(Placer, ValidatesOptions) {
  PlacerOptions bad;
  bad.row_height = 0.0;
  EXPECT_THROW(place_design(small_spec(), bad), std::invalid_argument);
}

}  // namespace
}  // namespace drcshap
