#pragma once
// Extracts the 387 features of Section II-A for each g-cell: placement
// aggregates over the 3x3 window plus the (C, L, C-L) congestion triples for
// window border edges (per metal layer) and window cells (per via layer).
// Window positions outside the layout are blank-padded (all-zero), as the
// paper specifies for boundary g-cells.

#include <span>
#include <vector>

#include "drc/track_model.hpp"
#include "features/feature_names.hpp"
#include "netlist/design.hpp"
#include "route/congestion.hpp"

namespace drcshap {

class FeatureExtractor {
 public:
  /// Takes ownership of the per-g-cell aggregates (must be
  /// compute_gcell_aggregates(design) of the same design), which the DRC
  /// oracle reads too — callers compute them once for both.
  FeatureExtractor(const Design& design, const CongestionMap& congestion,
                   std::vector<GCellAggregate> aggregates);

  /// Fills `out` (size must be FeatureSchema::kNumFeatures) with the feature
  /// vector of g-cell `cell`.
  void extract_into(std::size_t cell, std::span<float> out) const;

  /// Convenience allocating variant.
  std::vector<float> extract(std::size_t cell) const;

  /// Row-major matrix for all g-cells (size() x kNumFeatures). Cells are
  /// extracted in parallel on the shared pool (`n_threads` caps the
  /// workers; 0 = whole pool, 1 = serial inline); each cell writes only its
  /// own row, so the matrix is byte-identical at any thread count.
  std::vector<float> extract_all(std::size_t n_threads = 0) const;

  const Design& design() const { return design_; }

 private:
  const Design& design_;
  const CongestionMap& cong_;
  std::vector<GCellAggregate> agg_;
};

}  // namespace drcshap
