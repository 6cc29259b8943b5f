// Runs placement + global routing on one Table-I design and renders ASCII
// congestion heat maps per metal layer plus overflow statistics — the
// visual substrate behind the paper's Fig. 2 / Fig. 3 congestion views.
//
// Usage: congestion_map [design_name] [scale]
//   design_name  one of the Table I names (default fft_b)
//   scale        down-scaling factor >= 1 (default 8)

#include <cstdlib>
#include <iostream>

#include "benchsuite/pipeline.hpp"
#include "util/table.hpp"

using namespace drcshap;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "fft_b";
  const double scale = argc > 2 ? std::atof(argv[2]) : 8.0;

  PipelineOptions pipeline;
  pipeline.generator.scale = scale;
  const DesignRun run = run_pipeline(suite_spec(name), pipeline);

  std::cout << "design " << name << " (scale 1/" << scale << "): "
            << run.design.num_cells() << " cells, "
            << run.design.num_nets() << " nets, grid "
            << run.design.grid().nx() << "x" << run.design.grid().ny()
            << "\n";
  std::cout << "total edge overflow: " << run.edge_overflow
            << ", via overflow: " << run.via_overflow << "\n\n";

  // Per-layer aggregate load/capacity (mean utilization).
  const std::size_t nx = run.congestion.nx(), ny = run.congestion.ny();
  for (int m = 0; m < run.congestion.num_metal_layers(); ++m) {
    long load = 0, cap = 0;
    for (std::size_t r = 0; r < ny; ++r) {
      for (std::size_t c = 0; c < nx; ++c) {
        const std::size_t cell = r * nx + c;
        if (Technology::is_horizontal(m) && c + 1 < nx) {
          load += run.congestion.edge_load(m, cell, cell + 1);
          cap += run.congestion.edge_capacity(m, cell, cell + 1);
        } else if (!Technology::is_horizontal(m) && r + 1 < ny) {
          load += run.congestion.edge_load(m, cell, cell + nx);
          cap += run.congestion.edge_capacity(m, cell, cell + nx);
        }
      }
    }
    std::cout << Technology::metal_name(m) << ": load " << load << " / cap "
              << cap << " (util "
              << fmt_percent(cap > 0 ? static_cast<double>(load) / cap : 0.0)
              << ")\n";
  }
  for (int v = 0; v < run.congestion.num_via_layers(); ++v) {
    long load = 0, cap = 0;
    for (std::size_t cell = 0; cell < run.congestion.num_cells(); ++cell) {
      load += run.congestion.via_load(v, cell);
      cap += run.congestion.via_capacity(v, cell);
    }
    std::cout << Technology::via_name(v) << ": load " << load << " / cap "
              << cap << " (util "
              << fmt_percent(cap > 0 ? static_cast<double>(load) / cap : 0.0)
              << ")\n";
  }
  std::cout << "\n";
  for (int m = 0; m < run.congestion.num_metal_layers(); ++m) {
    std::cout << "--- " << Technology::metal_name(m)
              << " edge utilization ('.' cold .. '#' overflow) ---\n"
              << run.congestion.ascii_heatmap(m) << "\n";
  }

  const std::vector<DrcViolation> violations = run.drc.violations();
  std::cout << "DRC hotspots: " << run.drc.n_hotspots << " g-cells, "
            << violations.size() << " violations\n";
  // Violation type histogram.
  Table table({"violation type", "count"});
  for (const DrcErrorType type :
       {DrcErrorType::kShort, DrcErrorType::kEndOfLineSpacing,
        DrcErrorType::kDifferentNetSpacing, DrcErrorType::kViaEnclosure}) {
    std::size_t count = 0;
    for (const DrcViolation& v : violations) {
      if (v.type == type) ++count;
    }
    table.add_row({to_string(type), std::to_string(count)});
  }
  std::cout << table.to_string();
  return 0;
}
