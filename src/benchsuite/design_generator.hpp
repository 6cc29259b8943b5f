#pragma once
// Synthesizes an unplaced netlist specification from a BenchmarkSpec: cell
// population with realistic size mix, clustered connectivity (local nets
// within clusters, longer cross-cluster nets whose share grows with the
// difficulty knob), clock and NDR nets, fixed macros, and routing blockages.
// Deterministic for a fixed (spec, scale).

#include "benchsuite/suite.hpp"
#include "place/placer.hpp"

namespace drcshap {

struct GeneratorOptions {
  /// Linear down-scaling: cells and nets divide by scale, the die edge and
  /// g-cell grid divide by sqrt(scale), so density and congestion character
  /// are preserved. 1.0 = the paper's full Table I sizes.
  double scale = 1.0;
  double row_height = 2.0;
};

NetlistSpec generate_netlist(const BenchmarkSpec& spec,
                             const GeneratorOptions& options = {});

}  // namespace drcshap
