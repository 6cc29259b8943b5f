#include "features/feature_extractor.hpp"

#include <gtest/gtest.h>

#include <set>

#include "features/feature_names.hpp"

namespace drcshap {
namespace {

// ------------------------------------------------------------- schema

TEST(FeatureSchema, Exactly387Features) {
  EXPECT_EQ(FeatureSchema::kNumFeatures, 387u);
  EXPECT_EQ(FeatureSchema::names().size(), 387u);
  // 9 x 11 + 5 x 12 x 3 + 4 x 9 x 3 = 99 + 180 + 108.
  EXPECT_EQ(9u * 11u + 5u * 12u * 3u + 4u * 9u * 3u, 387u);
}

TEST(FeatureSchema, NamesUnique) {
  const auto& names = FeatureSchema::names();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST(FeatureSchema, IndexOfRoundTrip) {
  const auto& names = FeatureSchema::names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(FeatureSchema::index_of(names[i]), i);
  }
  EXPECT_THROW(FeatureSchema::index_of("bogus"), std::out_of_range);
}

TEST(FeatureSchema, PaperNamingConvention) {
  // Names used in the paper's Fig. 3/4 narration must exist.
  EXPECT_NO_THROW(FeatureSchema::index_of("edM5_7H"));
  EXPECT_NO_THROW(FeatureSchema::index_of("edM4_4V"));
  EXPECT_NO_THROW(FeatureSchema::index_of("vlV2_E"));
  EXPECT_NO_THROW(FeatureSchema::index_of("vlV2_N"));
  EXPECT_NO_THROW(FeatureSchema::index_of("vlV3_NE"));
  EXPECT_NO_THROW(FeatureSchema::index_of("pins_o"));
  EXPECT_NO_THROW(FeatureSchema::index_of("x_SW"));
}

TEST(FeatureSchema, BlockIndexHelpers) {
  EXPECT_EQ(FeatureSchema::scalar_index(0, 0), 0u);
  EXPECT_EQ(FeatureSchema::scalar_index(8, 10), 98u);
  EXPECT_EQ(FeatureSchema::edge_index(0, 0, 0), 99u);
  EXPECT_EQ(FeatureSchema::edge_index(4, 11, 2), 99u + 180u - 1u);
  EXPECT_EQ(FeatureSchema::via_index(0, 0, 0), 279u);
  EXPECT_EQ(FeatureSchema::via_index(3, 8, 2), 386u);
  EXPECT_THROW(FeatureSchema::scalar_index(9, 0), std::out_of_range);
  EXPECT_THROW(FeatureSchema::edge_index(5, 0, 0), std::out_of_range);
  EXPECT_THROW(FeatureSchema::via_index(0, 9, 0), std::out_of_range);
}

TEST(FeatureSchema, WindowEdgesSeparateAdjacentPositions) {
  const auto& offsets = FeatureSchema::position_offsets();
  for (const auto& edge : FeatureSchema::window_edges()) {
    const auto [ca, ra] = offsets[edge.pos_a];
    const auto [cb, rb] = offsets[edge.pos_b];
    const int dc = std::abs(ca - cb), dr = std::abs(ra - rb);
    EXPECT_EQ(dc + dr, 1) << edge.label;
    // H-labelled edges separate horizontal neighbors (vertical border).
    EXPECT_EQ(edge.crossed_by_horizontal_wires, dc == 1) << edge.label;
  }
}

// ----------------------------------------------------------- extraction

struct Fixture {
  Design design;
  GridGraph graph;
  Fixture() : design(make_design()), graph(design) {}

  static Design make_design() {
    Design d("fx", {0, 0, 50, 50}, 5, 5);
    d.add_cell({"c0", {21, 21, 23, 23}, false});       // inside center cell
    const NetId local = d.add_net({"local", {}, false, false});
    d.add_pin({0, local, {21.5, 21.5}, false, false});
    d.add_pin({0, local, {22.5, 22.5}, false, false});
    const NetId clk = d.add_net({"clk", {}, true, false});
    d.add_pin({0, clk, {22, 21.5}, false, false});
    d.add_pin({kInvalidId, clk, {5, 5}, false, false});
    return d;
  }
};

TEST(FeatureExtractor, OutputSizeAndGridChecks) {
  Fixture fx;
  const CongestionMap cong = CongestionMap::extract(fx.graph);
  const FeatureExtractor extractor(fx.design, cong,
                                   compute_gcell_aggregates(fx.design));
  EXPECT_EQ(extractor.extract(0).size(), 387u);
  EXPECT_THROW(extractor.extract(25), std::out_of_range);
  std::vector<float> wrong(10);
  EXPECT_THROW(extractor.extract_into(0, wrong), std::invalid_argument);
}

TEST(FeatureExtractor, CenterScalarsOfMiddleCell) {
  Fixture fx;
  const CongestionMap cong = CongestionMap::extract(fx.graph);
  const FeatureExtractor extractor(fx.design, cong,
                                   compute_gcell_aggregates(fx.design));
  const std::size_t center = fx.design.grid().index(2, 2);
  const auto features = extractor.extract(center);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("x_o")], 0.5f);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("y_o")], 0.5f);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("cells_o")], 1.0f);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("pins_o")], 3.0f);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("clkpins_o")], 1.0f);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("localnets_o")], 1.0f);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("localpins_o")], 2.0f);
  // The SW neighbor (g-cell 1,1) is empty.
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("pins_SW")], 0.0f);
}

TEST(FeatureExtractor, NeighborViewIsShifted) {
  Fixture fx;
  const CongestionMap cong = CongestionMap::extract(fx.graph);
  const FeatureExtractor extractor(fx.design, cong,
                                   compute_gcell_aggregates(fx.design));
  // From the cell north of the center, the dense cell is its S neighbor.
  const std::size_t north = fx.design.grid().index(2, 3);
  const auto features = extractor.extract(north);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("pins_S")], 3.0f);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("pins_o")], 0.0f);
}

TEST(FeatureExtractor, BoundaryPaddingIsZero) {
  Fixture fx;
  const CongestionMap cong = CongestionMap::extract(fx.graph);
  const FeatureExtractor extractor(fx.design, cong,
                                   compute_gcell_aggregates(fx.design));
  // Bottom-left corner: W, S, SW, NW, SE neighbors are off-layout.
  const auto features = extractor.extract(0);
  for (const char* pos : {"W", "S", "SW", "NW", "SE"}) {
    EXPECT_FLOAT_EQ(
        features[FeatureSchema::index_of(std::string("x_") + pos)], 0.0f);
    EXPECT_FLOAT_EQ(
        features[FeatureSchema::index_of(std::string("vcV1_") + pos)], 0.0f);
  }
  // But the in-layout positions carry real capacities.
  EXPECT_GT(features[FeatureSchema::index_of("vcV1_o")], 0.0f);
  EXPECT_GT(features[FeatureSchema::index_of("vcV1_N")], 0.0f);
}

TEST(FeatureExtractor, EdgeCongestionTriples) {
  Fixture fx;
  // Load the M5 edge between center (2,2) and east neighbor (3,2) — that is
  // window edge "7H" seen from the center.
  const EdgeId e = *fx.graph.edge(4, fx.design.grid().index(2, 2), Dir::kEast);
  fx.graph.add_edge_load(e, 13);
  const CongestionMap cong = CongestionMap::extract(fx.graph);
  const FeatureExtractor extractor(fx.design, cong,
                                   compute_gcell_aggregates(fx.design));
  const auto features = extractor.extract(fx.design.grid().index(2, 2));
  const float cap = features[FeatureSchema::index_of("ecM5_7H")];
  const float load = features[FeatureSchema::index_of("elM5_7H")];
  const float margin = features[FeatureSchema::index_of("edM5_7H")];
  EXPECT_FLOAT_EQ(cap, static_cast<float>(fx.graph.edge_capacity(e)));
  EXPECT_FLOAT_EQ(load, 13.0f);
  EXPECT_FLOAT_EQ(margin, cap - load);
  // The same border on a vertical layer must be zero (wrong direction).
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("ecM4_7H")], 0.0f);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("elM4_7H")], 0.0f);
}

TEST(FeatureExtractor, ViaCongestionTriples) {
  Fixture fx;
  const std::size_t east = fx.design.grid().index(3, 2);
  fx.graph.add_via_load(1, east, 35);  // V2 in the east neighbor
  const CongestionMap cong = CongestionMap::extract(fx.graph);
  const FeatureExtractor extractor(fx.design, cong,
                                   compute_gcell_aggregates(fx.design));
  const auto features = extractor.extract(fx.design.grid().index(2, 2));
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("vlV2_E")], 35.0f);
  EXPECT_FLOAT_EQ(features[FeatureSchema::index_of("vdV2_E")],
                  features[FeatureSchema::index_of("vcV2_E")] - 35.0f);
}

TEST(FeatureExtractor, ExtractAllMatchesPerCell) {
  Fixture fx;
  const CongestionMap cong = CongestionMap::extract(fx.graph);
  const FeatureExtractor extractor(fx.design, cong,
                                   compute_gcell_aggregates(fx.design));
  const auto matrix = extractor.extract_all();
  ASSERT_EQ(matrix.size(), 25u * 387u);
  for (const std::size_t cell : {0u, 7u, 24u}) {
    const auto row = extractor.extract(cell);
    for (std::size_t f = 0; f < 387u; ++f) {
      EXPECT_FLOAT_EQ(matrix[cell * 387u + f], row[f]);
    }
  }
}

TEST(FeatureExtractor, RejectsMismatchedGrid) {
  Fixture fx;
  const Design other("other", {0, 0, 50, 50}, 4, 4);
  const CongestionMap cong = CongestionMap::extract(GridGraph(other));
  EXPECT_THROW(
      FeatureExtractor(fx.design, cong, compute_gcell_aggregates(fx.design)),
      std::invalid_argument);
}

}  // namespace
}  // namespace drcshap
