#pragma once
// In-memory design database: technology, standard cells, macros, pins, nets,
// blockages. This is the artifact the (synthetic) placement stage produces and
// that global routing, DRC modeling, and feature extraction consume.
//
// Index-based references (CellId, PinId, NetId) are used instead of pointers:
// the database owns all records in flat vectors, which keeps traversal cache
// friendly for the large designs in Table I (up to ~155k cells).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geom/geometry.hpp"

namespace drcshap {

using CellId = std::uint32_t;
using PinId = std::uint32_t;
using NetId = std::uint32_t;
using MacroId = std::uint32_t;

inline constexpr std::uint32_t kInvalidId = 0xffffffffu;

/// Routing technology: metal layers with alternating preferred direction and
/// the via layers between them. The paper's designs use 5 routing layers
/// (M1..M5) and hence 4 via layers (V1..V4).
struct Technology {
  int num_metal_layers = 5;
  /// Tracks per g-cell per metal layer in the preferred direction; this sets
  /// the GR edge capacities. Index 0 is M1.
  std::vector<int> tracks_per_gcell = {8, 9, 9, 10, 10};
  /// Via capacity per g-cell per via layer. Index 0 is V1 (between M1 & M2).
  std::vector<int> vias_per_gcell = {40, 40, 36, 32};

  int num_via_layers() const { return num_metal_layers - 1; }

  /// Metal layer m (0-based) routes horizontally iff m is even (M1, M3, M5).
  static bool is_horizontal(int metal) { return metal % 2 == 0; }

  /// Human-readable layer names: metal_name(0) == "M1", via_name(0) == "V1".
  static std::string metal_name(int metal);
  static std::string via_name(int via);
};

/// A placed standard cell.
struct Cell {
  std::string name;
  Rect box;                 ///< placed footprint
  bool is_multi_height = false;
};

/// A placed macro block. Macros block placement under them and block routing
/// on the metal layers in [0, blocked_metal_layers).
struct Macro {
  std::string name;
  Rect box;
  int blocked_metal_layers = 4;  ///< M1..M4 blocked, M5 routable over macro
};

/// A cell or macro pin, belonging to exactly one net.
struct Pin {
  CellId cell = kInvalidId;   ///< owning cell; kInvalidId for I/O pads
  NetId net = kInvalidId;
  Point position;
  bool is_clock = false;      ///< pin of a clock net
  bool has_ndr = false;       ///< pin of a net with a non-default rule
};

/// A signal/clock net connecting >= 1 pins.
struct Net {
  std::string name;
  std::vector<PinId> pins;
  bool is_clock = false;
  bool has_ndr = false;
};

/// A routing/placement blockage rectangle on a span of metal layers.
struct Blockage {
  Rect box;
  int metal_lo = 0;  ///< first blocked metal layer (0-based, inclusive)
  int metal_hi = 3;  ///< last blocked metal layer (inclusive)
};

/// The complete placed design handed to global routing.
class Design {
 public:
  Design(std::string name, Rect die, std::size_t gcells_x, std::size_t gcells_y,
         Technology tech = {});

  const std::string& name() const { return name_; }
  const Rect& die() const { return die_; }
  const Technology& tech() const { return tech_; }
  const GCellGrid& grid() const { return grid_; }

  // --- construction ---------------------------------------------------
  CellId add_cell(Cell cell);
  MacroId add_macro(Macro macro);
  NetId add_net(Net net);
  /// Adds the pin and registers it on its net (net must already exist).
  PinId add_pin(Pin pin);
  void add_blockage(Blockage blockage);

  // --- ECO edits --------------------------------------------------------
  /// Replaces a macro's footprint (a move and/or resize), updating every
  /// routing blockage that matches the macro's old box over its blocked
  /// layer span (the blockage the placer registered alongside the macro).
  /// The new box must be non-empty and lie inside the die; placement
  /// legality against standard cells is NOT re-checked — the capacity
  /// model only derates, matching the synthetic role of the flow. Throws
  /// std::invalid_argument on a bad id or box.
  void set_macro_box(MacroId id, const Rect& box);
  /// set_macro_box with the footprint translated by (dx, dy).
  void move_macro(MacroId id, double dx, double dy);

  // --- access ---------------------------------------------------------
  const std::vector<Cell>& cells() const { return cells_; }
  const std::vector<Macro>& macros() const { return macros_; }
  const std::vector<Pin>& pins() const { return pins_; }
  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<Blockage>& blockages() const { return blockages_; }

  const Cell& cell(CellId id) const { return cells_.at(id); }
  const Macro& macro(MacroId id) const { return macros_.at(id); }
  const Pin& pin(PinId id) const { return pins_.at(id); }
  const Net& net(NetId id) const { return nets_.at(id); }

  std::size_t num_cells() const { return cells_.size(); }
  std::size_t num_macros() const { return macros_.size(); }
  std::size_t num_pins() const { return pins_.size(); }
  std::size_t num_nets() const { return nets_.size(); }

  /// True if the net's pins all fall inside one g-cell ("local net" feature).
  bool is_local_net(NetId id) const;

  /// Consistency check (every pin on a valid net, every net pin listed back,
  /// cells inside die, ...). Throws std::logic_error describing the first
  /// violation; used by tests and the generator.
  void validate() const;

 private:
  std::string name_;
  Rect die_;
  Technology tech_;
  GCellGrid grid_;
  std::vector<Cell> cells_;
  std::vector<Macro> macros_;
  std::vector<Pin> pins_;
  std::vector<Net> nets_;
  std::vector<Blockage> blockages_;
};

}  // namespace drcshap
