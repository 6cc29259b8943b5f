#include "netlist/design.hpp"

#include <gtest/gtest.h>

namespace drcshap {
namespace {

Design make_design() {
  return Design("toy", {0, 0, 100, 100}, 10, 10);
}

TEST(Technology, LayerNamesAndDirections) {
  EXPECT_EQ(Technology::metal_name(0), "M1");
  EXPECT_EQ(Technology::metal_name(4), "M5");
  EXPECT_EQ(Technology::via_name(0), "V1");
  EXPECT_EQ(Technology::via_name(3), "V4");
  EXPECT_TRUE(Technology::is_horizontal(0));
  EXPECT_FALSE(Technology::is_horizontal(1));
  EXPECT_TRUE(Technology::is_horizontal(2));
  EXPECT_FALSE(Technology::is_horizontal(3));
  EXPECT_TRUE(Technology::is_horizontal(4));
}

TEST(Technology, DefaultShape) {
  const Technology tech;
  EXPECT_EQ(tech.num_metal_layers, 5);
  EXPECT_EQ(tech.num_via_layers(), 4);
  EXPECT_EQ(tech.tracks_per_gcell.size(), 5u);
  EXPECT_EQ(tech.vias_per_gcell.size(), 4u);
}

TEST(Design, RejectsMismatchedTechnology) {
  Technology bad;
  bad.tracks_per_gcell = {8, 8};  // wrong size for 5 layers
  EXPECT_THROW(Design("x", {0, 0, 10, 10}, 2, 2, bad), std::invalid_argument);
}

TEST(Design, AddAndAccessEntities) {
  Design d = make_design();
  const CellId c = d.add_cell({"c0", {1, 1, 3, 3}, false});
  const NetId n = d.add_net({"n0", {}, false, false});
  const PinId p = d.add_pin({c, n, {2, 2}, false, false});
  EXPECT_EQ(d.num_cells(), 1u);
  EXPECT_EQ(d.num_nets(), 1u);
  EXPECT_EQ(d.num_pins(), 1u);
  EXPECT_EQ(d.net(n).pins.size(), 1u);
  EXPECT_EQ(d.net(n).pins.front(), p);
  EXPECT_EQ(d.pin(p).cell, c);
}

TEST(Design, AddPinRequiresExistingNet) {
  Design d = make_design();
  EXPECT_THROW(d.add_pin({kInvalidId, 5, {1, 1}, false, false}),
               std::out_of_range);
}

TEST(Design, PinInheritsNetFlags) {
  Design d = make_design();
  const NetId clock = d.add_net({"clk", {}, true, false});
  const NetId ndr = d.add_net({"ndr", {}, false, true});
  const PinId p1 = d.add_pin({kInvalidId, clock, {1, 1}, false, false});
  const PinId p2 = d.add_pin({kInvalidId, ndr, {2, 2}, false, false});
  EXPECT_TRUE(d.pin(p1).is_clock);
  EXPECT_TRUE(d.pin(p2).has_ndr);
}

TEST(Design, LocalNetDetection) {
  Design d = make_design();  // 10x10 grid over 100x100: cells are 10x10
  const NetId local = d.add_net({"local", {}, false, false});
  d.add_pin({kInvalidId, local, {1, 1}, false, false});
  d.add_pin({kInvalidId, local, {8, 8}, false, false});  // same g-cell
  const NetId global = d.add_net({"global", {}, false, false});
  d.add_pin({kInvalidId, global, {1, 1}, false, false});
  d.add_pin({kInvalidId, global, {55, 55}, false, false});
  EXPECT_TRUE(d.is_local_net(local));
  EXPECT_FALSE(d.is_local_net(global));
}

TEST(Design, ValidatePassesOnConsistentDesign) {
  Design d = make_design();
  const CellId c = d.add_cell({"c", {5, 5, 7, 7}, false});
  const NetId n = d.add_net({"n", {}, false, false});
  d.add_pin({c, n, {6, 6}, false, false});
  EXPECT_NO_THROW(d.validate());
}

TEST(Design, ValidateCatchesOutOfDiePin) {
  Design d = make_design();
  const NetId n = d.add_net({"n", {}, false, false});
  d.add_pin({kInvalidId, n, {50, 50}, false, false});
  // Forge an invalid pin position by adding a pin beyond the die.
  EXPECT_THROW(
      {
        d.add_pin({kInvalidId, n, {200, 200}, false, false});
        d.validate();
      },
      std::logic_error);
}

TEST(Design, BlockagesStored) {
  Design d = make_design();
  d.add_blockage({{0, 0, 10, 10}, 1, 2});
  ASSERT_EQ(d.blockages().size(), 1u);
  EXPECT_EQ(d.blockages().front().metal_lo, 1);
}

}  // namespace
}  // namespace drcshap
