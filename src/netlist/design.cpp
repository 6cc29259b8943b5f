#include "netlist/design.hpp"

#include <stdexcept>

namespace drcshap {

// The names are appended rather than built as `"M" + std::to_string(...)`,
// which sets off a GCC 12 -Wrestrict false positive in Release builds.
std::string Technology::metal_name(int metal) {
  std::string name = "M";
  name += std::to_string(metal + 1);
  return name;
}

std::string Technology::via_name(int via) {
  std::string name = "V";
  name += std::to_string(via + 1);
  return name;
}

Design::Design(std::string name, Rect die, std::size_t gcells_x,
               std::size_t gcells_y, Technology tech)
    : name_(std::move(name)),
      die_(die),
      tech_(std::move(tech)),
      grid_(die, gcells_x, gcells_y) {
  if (static_cast<int>(tech_.tracks_per_gcell.size()) !=
      tech_.num_metal_layers) {
    throw std::invalid_argument("Design: tracks_per_gcell size mismatch");
  }
  if (static_cast<int>(tech_.vias_per_gcell.size()) != tech_.num_via_layers()) {
    throw std::invalid_argument("Design: vias_per_gcell size mismatch");
  }
}

CellId Design::add_cell(Cell cell) {
  cells_.push_back(std::move(cell));
  return static_cast<CellId>(cells_.size() - 1);
}

MacroId Design::add_macro(Macro macro) {
  macros_.push_back(std::move(macro));
  return static_cast<MacroId>(macros_.size() - 1);
}

NetId Design::add_net(Net net) {
  nets_.push_back(std::move(net));
  return static_cast<NetId>(nets_.size() - 1);
}

PinId Design::add_pin(Pin pin) {
  if (pin.net >= nets_.size()) {
    throw std::out_of_range("Design::add_pin: pin references unknown net");
  }
  const PinId id = static_cast<PinId>(pins_.size());
  nets_[pin.net].pins.push_back(id);
  pin.is_clock = pin.is_clock || nets_[pin.net].is_clock;
  pin.has_ndr = pin.has_ndr || nets_[pin.net].has_ndr;
  pins_.push_back(pin);
  return id;
}

void Design::add_blockage(Blockage blockage) {
  blockages_.push_back(blockage);
}

void Design::set_macro_box(MacroId id, const Rect& box) {
  if (id >= macros_.size()) {
    throw std::invalid_argument("Design::set_macro_box: unknown macro id");
  }
  if (box.empty() || !die_.contains(box)) {
    throw std::invalid_argument(
        "Design::set_macro_box: box empty or outside the die");
  }
  Macro& m = macros_[id];
  // The placer registers one routing blockage per macro with exactly the
  // macro's box and blocked-layer span; coordinates were copied verbatim,
  // so exact comparison is the right match. Any blockage that matches moves
  // along (macros never legitimately share an identical footprint).
  for (Blockage& b : blockages_) {
    if (b.box == m.box && b.metal_lo == 0 &&
        b.metal_hi == m.blocked_metal_layers - 1) {
      b.box = box;
    }
  }
  m.box = box;
}

void Design::move_macro(MacroId id, double dx, double dy) {
  if (id >= macros_.size()) {
    throw std::invalid_argument("Design::move_macro: unknown macro id");
  }
  const Rect& old = macros_[id].box;
  set_macro_box(
      id, Rect{old.x_lo + dx, old.y_lo + dy, old.x_hi + dx, old.y_hi + dy});
}

bool Design::is_local_net(NetId id) const {
  const Net& n = net(id);
  if (n.pins.empty()) return false;
  const std::size_t first = grid_.locate(pin(n.pins.front()).position);
  for (const PinId p : n.pins) {
    if (grid_.locate(pin(p).position) != first) return false;
  }
  return true;
}

void Design::validate() const {
  for (std::size_t i = 0; i < pins_.size(); ++i) {
    const Pin& p = pins_[i];
    if (p.net >= nets_.size()) {
      throw std::logic_error("validate: pin " + std::to_string(i) +
                             " references unknown net");
    }
    if (p.cell != kInvalidId && p.cell >= cells_.size()) {
      throw std::logic_error("validate: pin " + std::to_string(i) +
                             " references unknown cell");
    }
    if (!die_.contains(p.position) &&
        !(p.position.x == die_.x_hi || p.position.y == die_.y_hi)) {
      throw std::logic_error("validate: pin " + std::to_string(i) +
                             " outside die");
    }
  }
  for (std::size_t n = 0; n < nets_.size(); ++n) {
    for (const PinId p : nets_[n].pins) {
      if (p >= pins_.size() || pins_[p].net != n) {
        throw std::logic_error("validate: net " + std::to_string(n) +
                               " pin list inconsistent");
      }
    }
  }
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    const Rect clipped = cells_[c].box.intersect(die_);
    if (clipped.area() <= 0.0 && cells_[c].box.area() > 0.0) {
      throw std::logic_error("validate: cell " + std::to_string(c) +
                             " entirely outside die");
    }
  }
}

}  // namespace drcshap
