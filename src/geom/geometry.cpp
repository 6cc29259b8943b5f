#include "geom/geometry.hpp"

#include <ostream>

namespace drcshap {

double manhattan(const Point& a, const Point& b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

double Rect::intersection_area(const Rect& other) const {
  return intersect(other).area();
}

Rect Rect::intersect(const Rect& other) const {
  Rect r{std::max(x_lo, other.x_lo), std::max(y_lo, other.y_lo),
         std::min(x_hi, other.x_hi), std::min(y_hi, other.y_hi)};
  if (r.empty()) return {0.0, 0.0, 0.0, 0.0};
  return r;
}

Rect Rect::inflated(double margin) const {
  return {x_lo - margin, y_lo - margin, x_hi + margin, y_hi + margin};
}

std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << "(" << p.x << ", " << p.y << ")";
}

std::ostream& operator<<(std::ostream& os, const Rect& r) {
  return os << "[" << r.x_lo << ", " << r.y_lo << " .. " << r.x_hi << ", "
            << r.y_hi << "]";
}

GCellGrid::GCellGrid(Rect die, std::size_t nx, std::size_t ny)
    : die_(die), nx_(nx), ny_(ny) {
  if (nx == 0 || ny == 0 || die.empty()) {
    throw std::invalid_argument("GCellGrid: degenerate grid");
  }
  cell_w_ = die.width() / static_cast<double>(nx);
  cell_h_ = die.height() / static_cast<double>(ny);
}

std::size_t GCellGrid::index(std::size_t col, std::size_t row) const {
  if (col >= nx_ || row >= ny_) throw std::out_of_range("GCellGrid::index");
  return row * nx_ + col;
}

std::size_t GCellGrid::locate(const Point& p) const {
  auto clamp_axis = [](double v, double lo, double step, std::size_t n) {
    const auto raw = static_cast<std::ptrdiff_t>((v - lo) / step);
    const auto hi = static_cast<std::ptrdiff_t>(n) - 1;
    return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(raw, 0, hi));
  };
  const std::size_t col = clamp_axis(p.x, die_.x_lo, cell_w_, nx_);
  const std::size_t row = clamp_axis(p.y, die_.y_lo, cell_h_, ny_);
  return index(col, row);
}

Rect GCellGrid::cell_rect(std::size_t idx) const {
  if (idx >= size()) throw std::out_of_range("GCellGrid::cell_rect");
  const std::size_t col = col_of(idx);
  const std::size_t row = row_of(idx);
  return {die_.x_lo + static_cast<double>(col) * cell_w_,
          die_.y_lo + static_cast<double>(row) * cell_h_,
          die_.x_lo + static_cast<double>(col + 1) * cell_w_,
          die_.y_lo + static_cast<double>(row + 1) * cell_h_};
}

std::vector<std::size_t> GCellGrid::cells_overlapping(const Rect& r) const {
  std::vector<std::size_t> out;
  const Rect clipped = r.intersect(die_);
  if (clipped.empty()) return out;
  const std::size_t c_lo = col_of(locate({clipped.x_lo, clipped.y_lo}));
  const std::size_t r_lo = row_of(locate({clipped.x_lo, clipped.y_lo}));
  // Nudge the high corner inward so a rect ending exactly on a boundary does
  // not claim the next cell.
  const double eps_x = cell_w_ * 1e-9;
  const double eps_y = cell_h_ * 1e-9;
  const std::size_t c_hi = col_of(locate({clipped.x_hi - eps_x, clipped.y_hi - eps_y}));
  const std::size_t r_hi = row_of(locate({clipped.x_hi - eps_x, clipped.y_hi - eps_y}));
  for (std::size_t row = r_lo; row <= r_hi; ++row) {
    for (std::size_t col = c_lo; col <= c_hi; ++col) {
      const std::size_t idx = index(col, row);
      if (cell_rect(idx).overlaps(r)) out.push_back(idx);
    }
  }
  return out;
}

}  // namespace drcshap
