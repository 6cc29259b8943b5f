#include "netlist/def_io.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "util/artifact.hpp"

namespace drcshap {

namespace {

constexpr std::string_view kDefKind = "def-lite";

// Structural caps so a corrupt header fails with a typed error instead of
// driving a giant allocation (the g-cell grid is sized nx*ny up front).
constexpr std::size_t kMaxGridDim = 1u << 16;
constexpr std::size_t kMaxGridCells = 1u << 26;
constexpr int kMaxMetalLayers = 64;

[[noreturn]] void fail_corrupt(const std::string& why) {
  throw ArtifactError({StatusCode::kCorrupt, "def-lite: " + why});
}

void check_finite(double v, const char* what) {
  if (!std::isfinite(v)) {
    fail_corrupt(std::string("non-finite ") + what);
  }
}

void check_finite_rect(const Rect& r, const char* what) {
  check_finite(r.x_lo, what);
  check_finite(r.y_lo, what);
  check_finite(r.x_hi, what);
  check_finite(r.y_hi, what);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string read_quoted(std::istream& is) {
  char c = 0;
  is >> c;
  if (c != '"') fail_corrupt("expected quoted string");
  std::string out;
  while (is.get(c)) {
    if (c == '\\') {
      if (!is.get(c)) break;
      out += c;
    } else if (c == '"') {
      return out;
    } else {
      out += c;
    }
  }
  fail_corrupt("unterminated string");
}

void expect(std::istream& is, const std::string& keyword) {
  std::string tok;
  is >> tok;
  if (tok != keyword) {
    fail_corrupt("expected '" + keyword + "', got '" + tok + "'");
  }
}

}  // namespace

void write_def_lite(const Design& d, std::ostream& os) {
  os << std::setprecision(17);
  os << "DESIGN " << quote(d.name()) << "\n";
  os << "DIE " << d.die().x_lo << " " << d.die().y_lo << " " << d.die().x_hi
     << " " << d.die().y_hi << "\n";
  os << "GRID " << d.grid().nx() << " " << d.grid().ny() << "\n";
  const Technology& t = d.tech();
  os << "TECH " << t.num_metal_layers;
  for (const int v : t.tracks_per_gcell) os << " " << v;
  for (const int v : t.vias_per_gcell) os << " " << v;
  os << "\n";
  os << "MACROS " << d.num_macros() << "\n";
  for (const Macro& m : d.macros()) {
    os << "  MACRO " << quote(m.name) << " " << m.box.x_lo << " " << m.box.y_lo
       << " " << m.box.x_hi << " " << m.box.y_hi << " "
       << m.blocked_metal_layers << "\n";
  }
  os << "CELLS " << d.num_cells() << "\n";
  for (const Cell& c : d.cells()) {
    os << "  CELL " << quote(c.name) << " " << c.box.x_lo << " " << c.box.y_lo
       << " " << c.box.x_hi << " " << c.box.y_hi << " "
       << (c.is_multi_height ? 1 : 0) << "\n";
  }
  os << "NETS " << d.num_nets() << "\n";
  for (const Net& n : d.nets()) {
    os << "  NET " << quote(n.name) << " " << (n.is_clock ? 1 : 0) << " "
       << (n.has_ndr ? 1 : 0) << "\n";
  }
  os << "PINS " << d.num_pins() << "\n";
  for (const Pin& p : d.pins()) {
    os << "  PIN " << (p.cell == kInvalidId ? -1 : static_cast<long long>(p.cell))
       << " " << p.net << " " << p.position.x << " " << p.position.y << " "
       << (p.is_clock ? 1 : 0) << " " << (p.has_ndr ? 1 : 0) << "\n";
  }
  os << "BLOCKAGES " << d.blockages().size() << "\n";
  for (const Blockage& b : d.blockages()) {
    os << "  BLOCKAGE " << b.box.x_lo << " " << b.box.y_lo << " " << b.box.x_hi
       << " " << b.box.y_hi << " " << b.metal_lo << " " << b.metal_hi << "\n";
  }
  os << "END\n";
}

void write_def_lite_file(const Design& design, const std::string& path) {
  std::ostringstream payload;
  write_def_lite(design, payload);
  throw_if_error(
      write_artifact_atomic(path, kDefKind, std::move(payload).str()));
}

Design read_def_lite(std::istream& is) {
  expect(is, "DESIGN");
  const std::string name = read_quoted(is);
  expect(is, "DIE");
  Rect die;
  is >> die.x_lo >> die.y_lo >> die.x_hi >> die.y_hi;
  if (!is) fail_corrupt("bad DIE line");
  check_finite_rect(die, "die coordinate");
  if (die.x_hi <= die.x_lo || die.y_hi <= die.y_lo) {
    fail_corrupt("empty/inverted die box");
  }
  expect(is, "GRID");
  std::size_t nx = 0, ny = 0;
  is >> nx >> ny;
  if (!is || nx == 0 || ny == 0 || nx > kMaxGridDim || ny > kMaxGridDim ||
      nx * ny > kMaxGridCells) {
    fail_corrupt("implausible g-cell grid " + std::to_string(nx) + "x" +
                 std::to_string(ny));
  }
  expect(is, "TECH");
  Technology tech;
  is >> tech.num_metal_layers;
  if (!is || tech.num_metal_layers < 1 ||
      tech.num_metal_layers > kMaxMetalLayers) {
    fail_corrupt("implausible metal layer count");
  }
  tech.tracks_per_gcell.assign(tech.num_metal_layers, 0);
  for (int& v : tech.tracks_per_gcell) is >> v;
  tech.vias_per_gcell.assign(tech.num_via_layers(), 0);
  for (int& v : tech.vias_per_gcell) is >> v;
  if (!is) fail_corrupt("bad header");
  for (const int v : tech.tracks_per_gcell) {
    if (v < 0) fail_corrupt("negative track capacity");
  }
  for (const int v : tech.vias_per_gcell) {
    if (v < 0) fail_corrupt("negative via capacity");
  }

  Design d(name, die, nx, ny, tech);

  expect(is, "MACROS");
  std::size_t count = 0;
  is >> count;
  for (std::size_t i = 0; i < count; ++i) {
    expect(is, "MACRO");
    Macro m;
    m.name = read_quoted(is);
    is >> m.box.x_lo >> m.box.y_lo >> m.box.x_hi >> m.box.y_hi >>
        m.blocked_metal_layers;
    if (!is) fail_corrupt("truncated MACRO record");
    check_finite_rect(m.box, "macro box");
    if (m.blocked_metal_layers < 0 ||
        m.blocked_metal_layers > tech.num_metal_layers) {
      fail_corrupt("macro blocked-layer count out of range");
    }
    d.add_macro(std::move(m));
  }
  expect(is, "CELLS");
  is >> count;
  for (std::size_t i = 0; i < count; ++i) {
    expect(is, "CELL");
    Cell c;
    c.name = read_quoted(is);
    int multi = 0;
    is >> c.box.x_lo >> c.box.y_lo >> c.box.x_hi >> c.box.y_hi >> multi;
    if (!is) fail_corrupt("truncated CELL record");
    check_finite_rect(c.box, "cell box");
    c.is_multi_height = multi != 0;
    d.add_cell(std::move(c));
  }
  expect(is, "NETS");
  is >> count;
  for (std::size_t i = 0; i < count; ++i) {
    expect(is, "NET");
    Net n;
    n.name = read_quoted(is);
    int clk = 0, ndr = 0;
    is >> clk >> ndr;
    if (!is) fail_corrupt("truncated NET record");
    n.is_clock = clk != 0;
    n.has_ndr = ndr != 0;
    d.add_net(std::move(n));
  }
  expect(is, "PINS");
  is >> count;
  for (std::size_t i = 0; i < count; ++i) {
    expect(is, "PIN");
    Pin p;
    long long cell = -1;
    int clk = 0, ndr = 0;
    is >> cell >> p.net >> p.position.x >> p.position.y >> clk >> ndr;
    if (!is) fail_corrupt("truncated PIN record");
    check_finite(p.position.x, "pin position");
    check_finite(p.position.y, "pin position");
    if (p.net >= d.num_nets()) {
      fail_corrupt("pin references net " + std::to_string(p.net) +
                   " but only " + std::to_string(d.num_nets()) +
                   " nets declared");
    }
    if (cell >= static_cast<long long>(d.num_cells())) {
      fail_corrupt("pin references cell " + std::to_string(cell) +
                   " but only " + std::to_string(d.num_cells()) +
                   " cells declared");
    }
    p.cell = cell < 0 ? kInvalidId : static_cast<CellId>(cell);
    p.is_clock = clk != 0;
    p.has_ndr = ndr != 0;
    d.add_pin(p);
  }
  expect(is, "BLOCKAGES");
  is >> count;
  for (std::size_t i = 0; i < count; ++i) {
    expect(is, "BLOCKAGE");
    Blockage b;
    is >> b.box.x_lo >> b.box.y_lo >> b.box.x_hi >> b.box.y_hi >> b.metal_lo >>
        b.metal_hi;
    if (!is) fail_corrupt("truncated BLOCKAGE record");
    check_finite_rect(b.box, "blockage box");
    if (b.metal_lo < 0 || b.metal_hi < b.metal_lo ||
        b.metal_hi >= tech.num_metal_layers) {
      fail_corrupt("blockage layer range out of bounds");
    }
    d.add_blockage(b);
  }
  expect(is, "END");
  if (!is) fail_corrupt("truncated input");
  return d;
}

Design read_def_lite_file(const std::string& path) {
  std::istringstream payload(read_artifact(path, kDefKind).value());
  return read_def_lite(payload);
}

}  // namespace drcshap
