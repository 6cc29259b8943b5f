#include "geom/geometry.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace drcshap {
namespace {

TEST(Point, ManhattanDistance) {
  EXPECT_DOUBLE_EQ(manhattan({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(manhattan({-1, -1}, {1, 1}), 4.0);
  EXPECT_DOUBLE_EQ(manhattan({2, 2}, {2, 2}), 0.0);
}

TEST(Rect, BasicAccessors) {
  const Rect r{1, 2, 4, 6};
  EXPECT_DOUBLE_EQ(r.width(), 3.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_EQ(r.center(), (Point{2.5, 4.0}));
  EXPECT_FALSE(r.empty());
}

TEST(Rect, EmptyAndDegenerate) {
  EXPECT_TRUE((Rect{0, 0, 0, 5}).empty());
  EXPECT_TRUE((Rect{3, 0, 1, 5}).empty());
  EXPECT_DOUBLE_EQ((Rect{3, 0, 1, 5}).area(), 0.0);
}

TEST(Rect, ContainsPointHalfOpen) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.contains(Point{0, 0}));
  EXPECT_TRUE(r.contains(Point{9.999, 9.999}));
  EXPECT_FALSE(r.contains(Point{10, 5}));
  EXPECT_FALSE(r.contains(Point{5, 10}));
  EXPECT_FALSE(r.contains(Point{-0.001, 5}));
}

TEST(Rect, ContainsRect) {
  const Rect outer{0, 0, 10, 10};
  EXPECT_TRUE(outer.contains(Rect{1, 1, 9, 9}));
  EXPECT_TRUE(outer.contains(outer));
  EXPECT_FALSE(outer.contains(Rect{-1, 1, 5, 5}));
}

TEST(Rect, OverlapsOpenInterval) {
  const Rect a{0, 0, 5, 5};
  EXPECT_TRUE(a.overlaps(Rect{4, 4, 8, 8}));
  EXPECT_FALSE(a.overlaps(Rect{5, 0, 8, 5}));  // touching edge: no overlap
  EXPECT_FALSE(a.overlaps(Rect{6, 6, 8, 8}));
}

TEST(Rect, IntersectionArea) {
  const Rect a{0, 0, 4, 4};
  EXPECT_DOUBLE_EQ(a.intersection_area(Rect{2, 2, 6, 6}), 4.0);
  EXPECT_DOUBLE_EQ(a.intersection_area(Rect{4, 0, 6, 4}), 0.0);
  EXPECT_DOUBLE_EQ(a.intersection_area(a), 16.0);
}

TEST(Rect, Inflate) {
  const Rect a{0, 0, 1, 1};
  EXPECT_EQ(a.inflated(1.0), (Rect{-1, -1, 2, 2}));
}

// ----------------------------------------------------------------- GCellGrid

TEST(GCellGrid, BasicDimensions) {
  const GCellGrid grid({0, 0, 100, 50}, 10, 5);
  EXPECT_EQ(grid.size(), 50u);
  EXPECT_DOUBLE_EQ(grid.cell_width(), 10.0);
  EXPECT_DOUBLE_EQ(grid.cell_height(), 10.0);
}

TEST(GCellGrid, RejectsDegenerate) {
  EXPECT_THROW(GCellGrid({0, 0, 10, 10}, 0, 5), std::invalid_argument);
  EXPECT_THROW(GCellGrid({0, 0, 0, 10}, 5, 5), std::invalid_argument);
}

TEST(GCellGrid, IndexRowColRoundTrip) {
  const GCellGrid grid({0, 0, 100, 100}, 7, 9);
  for (std::size_t row = 0; row < 9; ++row) {
    for (std::size_t col = 0; col < 7; ++col) {
      const std::size_t idx = grid.index(col, row);
      EXPECT_EQ(grid.col_of(idx), col);
      EXPECT_EQ(grid.row_of(idx), row);
    }
  }
  EXPECT_THROW(grid.index(7, 0), std::out_of_range);
}

TEST(GCellGrid, LocateCenterOfEachCell) {
  const GCellGrid grid({0, 0, 60, 60}, 6, 6);
  for (std::size_t idx = 0; idx < grid.size(); ++idx) {
    EXPECT_EQ(grid.locate(grid.cell_rect(idx).center()), idx);
  }
}

TEST(GCellGrid, LocateClampsBoundary) {
  const GCellGrid grid({0, 0, 10, 10}, 2, 2);
  EXPECT_EQ(grid.locate({10.0, 10.0}), grid.index(1, 1));
  EXPECT_EQ(grid.locate({-5.0, -5.0}), grid.index(0, 0));
}

TEST(GCellGrid, CellRectTilesTheDie) {
  const GCellGrid grid({0, 0, 30, 20}, 3, 2);
  double total = 0.0;
  for (std::size_t idx = 0; idx < grid.size(); ++idx) {
    total += grid.cell_rect(idx).area();
  }
  EXPECT_DOUBLE_EQ(total, 600.0);
}

TEST(GCellGrid, CellsOverlappingSmallRect) {
  const GCellGrid grid({0, 0, 40, 40}, 4, 4);
  const auto cells = grid.cells_overlapping({5, 5, 6, 6});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], grid.index(0, 0));
}

TEST(GCellGrid, CellsOverlappingSpanningRect) {
  const GCellGrid grid({0, 0, 40, 40}, 4, 4);
  const auto cells = grid.cells_overlapping({5, 5, 25, 15});
  EXPECT_EQ(cells.size(), 6u);  // cols 0..2, rows 0..1
}

TEST(GCellGrid, CellsOverlappingBoundaryAlignedRect) {
  const GCellGrid grid({0, 0, 40, 40}, 4, 4);
  // Rect exactly covering one cell should claim only that cell.
  const auto cells = grid.cells_overlapping({10, 10, 20, 20});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0], grid.index(1, 1));
}

TEST(GCellGrid, CellsOverlappingOutsideDie) {
  const GCellGrid grid({0, 0, 40, 40}, 4, 4);
  EXPECT_TRUE(grid.cells_overlapping({50, 50, 60, 60}).empty());
}

TEST(GCellGrid, InBoundsSignedChecks) {
  const GCellGrid grid({0, 0, 40, 40}, 4, 4);
  EXPECT_TRUE(grid.in_bounds(0, 0));
  EXPECT_TRUE(grid.in_bounds(3, 3));
  EXPECT_FALSE(grid.in_bounds(-1, 0));
  EXPECT_FALSE(grid.in_bounds(0, 4));
}

// Property test: locate() agrees with cells_overlapping() for random points.
TEST(GCellGrid, LocateConsistentWithCellRects) {
  const GCellGrid grid({-10, -20, 35, 17}, 9, 6);
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const Point p{rng.uniform(-10, 35), rng.uniform(-20, 17)};
    const std::size_t idx = grid.locate(p);
    EXPECT_TRUE(grid.cell_rect(idx).contains(p) ||
                p.x >= grid.cell_rect(idx).x_hi - 1e-9 ||
                p.y >= grid.cell_rect(idx).y_hi - 1e-9);
  }
}

}  // namespace
}  // namespace drcshap
