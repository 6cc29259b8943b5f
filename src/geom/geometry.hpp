#pragma once
// Planar geometry primitives for layout data. Coordinates are in microns
// (double), matching the layout sizes quoted in the paper's Table I.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <vector>

namespace drcshap {

struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// L1 (Manhattan) distance; the pin-spacing feature uses this metric.
double manhattan(const Point& a, const Point& b);

/// Axis-aligned rectangle, [lo, hi) semantics on both axes.
struct Rect {
  double x_lo = 0.0;
  double y_lo = 0.0;
  double x_hi = 0.0;
  double y_hi = 0.0;

  double width() const { return x_hi - x_lo; }
  double height() const { return y_hi - y_lo; }
  double area() const { return std::max(0.0, width()) * std::max(0.0, height()); }
  Point center() const { return {(x_lo + x_hi) / 2.0, (y_lo + y_hi) / 2.0}; }
  bool empty() const { return x_hi <= x_lo || y_hi <= y_lo; }

  /// Closed containment on the low edge, open on the high edge.
  bool contains(const Point& p) const {
    return p.x >= x_lo && p.x < x_hi && p.y >= y_lo && p.y < y_hi;
  }
  /// True if `other` lies entirely within this rect (closed comparison).
  bool contains(const Rect& other) const {
    return other.x_lo >= x_lo && other.x_hi <= x_hi && other.y_lo >= y_lo &&
           other.y_hi <= y_hi;
  }
  /// Open-interval overlap: touching rectangles do not overlap.
  bool overlaps(const Rect& other) const {
    return x_lo < other.x_hi && other.x_lo < x_hi && y_lo < other.y_hi &&
           other.y_lo < y_hi;
  }

  /// Area of intersection (0 when disjoint).
  double intersection_area(const Rect& other) const;

  /// The intersection rect (possibly empty).
  Rect intersect(const Rect& other) const;

  /// Rect inflated by `margin` on each side (may be negative to shrink).
  Rect inflated(double margin) const;

  friend bool operator==(const Rect&, const Rect&) = default;
};

std::ostream& operator<<(std::ostream& os, const Point& p);
std::ostream& operator<<(std::ostream& os, const Rect& r);

/// Uniform grid over a layout area: maps points/rects to g-cell indices.
/// G-cells are the unit of DRC-hotspot prediction throughout the library.
class GCellGrid {
 public:
  /// Divides `die` into nx-by-ny equal g-cells. Throws on degenerate input.
  GCellGrid(Rect die, std::size_t nx, std::size_t ny);

  const Rect& die() const { return die_; }
  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t size() const { return nx_ * ny_; }
  double cell_width() const { return cell_w_; }
  double cell_height() const { return cell_h_; }

  /// Row-major flat index of the g-cell at (col, row).
  std::size_t index(std::size_t col, std::size_t row) const;
  std::size_t col_of(std::size_t idx) const { return idx % nx_; }
  std::size_t row_of(std::size_t idx) const { return idx / nx_; }

  /// The g-cell containing `p` (points on/above the top/right die edge clamp
  /// to the last cell so boundary pins still land in the layout).
  std::size_t locate(const Point& p) const;

  /// Bounding rect of g-cell `idx`.
  Rect cell_rect(std::size_t idx) const;

  /// All g-cell indices whose rects overlap `r`.
  std::vector<std::size_t> cells_overlapping(const Rect& r) const;

  /// True if (col, row) lies inside the grid (signed, for window walks).
  bool in_bounds(std::ptrdiff_t col, std::ptrdiff_t row) const {
    return col >= 0 && row >= 0 && col < static_cast<std::ptrdiff_t>(nx_) &&
           row < static_cast<std::ptrdiff_t>(ny_);
  }

 private:
  Rect die_;
  std::size_t nx_;
  std::size_t ny_;
  double cell_w_;
  double cell_h_;
};

}  // namespace drcshap
