#pragma once
// Standard-cell placement stage.
//
// The paper's flow runs Eh?Placer on the ISPD-2015 netlists to obtain a placed
// .def before global routing. Our synthetic flow mirrors this: the benchmark
// generator emits an *unplaced* netlist specification (cell sizes, clustered
// net topology, fixed macros), and this placer turns it into a legal placed
// Design: cells snapped to rows, no overlaps, macro keep-outs respected, with
// the cluster structure preserved so that realistic density hot zones form.

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/design.hpp"
#include "util/rng.hpp"

namespace drcshap {

/// A cell to be placed. `cluster` indexes into NetlistSpec::clusters and
/// biases where the cell lands, emulating the netlist locality real placers
/// produce.
struct CellSpec {
  double width = 1.0;
  double height = 2.0;
  bool multi_height = false;
  std::uint32_t cluster = 0;
};

/// A net connecting pins on the listed cells (indices into NetlistSpec::cells).
struct NetSpec {
  std::vector<std::uint32_t> cells;
  bool is_clock = false;
  bool has_ndr = false;
};

/// Gaussian density attractor for a group of cells.
struct ClusterSpec {
  Point center;
  double spread = 50.0;  ///< stddev of placement around the center, microns
};

/// Complete unplaced design specification.
struct NetlistSpec {
  std::string name;
  Rect die;
  std::size_t gcells_x = 1;
  std::size_t gcells_y = 1;
  Technology tech;
  std::vector<CellSpec> cells;
  std::vector<NetSpec> nets;
  std::vector<ClusterSpec> clusters;
  std::vector<Macro> macros;       ///< pre-placed, fixed
  std::vector<Blockage> blockages; ///< extra routing blockages
};

struct PlacerOptions {
  double row_height = 2.0;       ///< placement row pitch, microns
  std::uint64_t seed = 1;
};

/// Places the specification into a legal Design.
///
/// Guarantees (checked by tests):
///  - every cell box lies inside the die,
///  - no two cell boxes overlap,
///  - no cell box overlaps a macro box,
///  - every net in the spec appears with one pin per listed cell,
///  - pins lie inside their owning cell's box,
///  - deterministic for a fixed (spec, options) pair.
Design place_design(const NetlistSpec& spec, const PlacerOptions& options = {});

}  // namespace drcshap
