// drcshap_serve: long-lived DRC-hotspot inference daemon.
//
//   drcshap_serve --model MODEL.forest --socket /run/drcshap.sock
//   drcshap_serve --model MODEL.forest --stdio
//   drcshap_serve --make-fixture MODEL.forest [--features N --rows N
//                 --trees N --seed S]
//
// Serves score/explain/reload/stats/shutdown/global-explain/eco over the
// length-prefixed binary protocol of src/serve/protocol.hpp. With
// --eco-design the daemon additionally holds a fully scored suite design
// resident and serves edit -> hotspot-diff round trips against it.
// SIGHUP hot-swaps the model
// (re-reads the artifact in place); SIGINT/SIGTERM drain and exit. A run
// report is written at exit to $DRCSHAP_RUNREPORT (default
// runreport.json); give a co-located load generator a different path.
//
// --make-fixture trains a small synthetic forest and saves it through the
// artifact envelope — the fixture model the CI serve-smoke job (and local
// experiments) run the daemon against.

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "core/model_io.hpp"
#include "core/random_forest.hpp"
#include "obs/run_report.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace {

drcshap::serve::Server* g_server = nullptr;

extern "C" void handle_sighup(int) {
  if (g_server != nullptr) g_server->notify_sighup();
}

extern "C" void handle_shutdown_signal(int) {
  if (g_server != nullptr) g_server->notify_shutdown_signal();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --model PATH (--socket PATH | --stdio)\n"
      "          [--threads N] [--eco-design NAME] [--eco-scale S]\n"
      "       %s --make-fixture PATH [--features N] [--rows N] [--trees N]\n"
      "          [--seed S]\n"
      "\n"
      "verbs (length-prefixed binary protocol, src/serve/protocol.hpp):\n"
      "  score           probabilities for a float32 feature matrix\n"
      "  explain         per-row SHAP values + base value\n"
      "  reload          hot-swap the model artifact (also: SIGHUP)\n"
      "  stats           JSON snapshot: model/queue/batch/cache/latency/eco\n"
      "  shutdown        drain in-flight work, then exit\n"
      "  global-explain  streaming per-feature SHAP aggregates (O(features)\n"
      "                  reply regardless of row count)\n"
      "  eco             apply one edit (move/resize/reroute) to the\n"
      "                  resident --eco-design and reply with the re-route\n"
      "                  stats and before/after hotspot diff as JSON\n"
      "\n"
      "flags:\n"
      "  --model PATH        forest artifact to serve\n"
      "  --socket PATH       Unix stream socket (daemon mode)\n"
      "  --stdio             serve one connection on stdin/stdout\n"
      "  --threads N         worker threads per batch (0 = whole pool)\n"
      "  --eco-design NAME   benchmark-suite design to hold resident for\n"
      "                      the eco verb (requires a pipeline-schema model)\n"
      "  --eco-scale S       generator scale for the resident design\n"
      "                      (default 16; 1 = full size)\n"
      "\n"
      "Numeric values must be non-negative decimals; anything else prints\n"
      "this text and exits 2. Batches score on the compiled forest, explain\n"
      "goes through the model's explanation cache, and TreeSHAP's AVX2\n"
      "kernels run when the CPU has them; none of this is configurable.\n"
      "\n"
      "environment:\n"
      "  DRCSHAP_THREADS=N         cap the shared thread pool (at startup)\n"
      "  DRCSHAP_RUNREPORT=PATH    write the exit run report here\n",
      argv0, argv0);
  return 2;
}

/// Parses the whole of `text` as a non-negative decimal of type T into
/// `out`. Empty input, a sign, trailing characters, overflow of T and
/// non-finite floats all fail, leaving `out` untouched.
template <class T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  if (text == end || *text < '0' || *text > '9') return false;
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

struct FixtureOptions {
  std::string path;
  std::size_t n_features = 32;
  std::size_t n_rows = 2000;
  int n_trees = 50;
  std::uint64_t seed = 7;
};

/// Trains a small forest on a synthetic hotspot-like rule and commits it
/// through the artifact envelope, printing the path for scripts.
int make_fixture(const FixtureOptions& options) {
  drcshap::Dataset data(options.n_features);
  drcshap::Rng rng(options.seed);
  std::vector<float> row(options.n_features);
  for (std::size_t i = 0; i < options.n_rows; ++i) {
    for (float& value : row) value = static_cast<float>(rng.uniform());
    // Hotspot when local congestion is high and pin slack is low, with a
    // sprinkle of noise — separable enough that the fixture predicts
    // non-trivial probabilities.
    const bool hot =
        row[0] > 0.6f && row[1] < 0.5f && (row[2] + row[3]) > 0.7f;
    const bool flip = rng.uniform() < 0.05;
    data.append_row(row, (hot != flip) ? 1 : 0, 0);
  }
  drcshap::RandomForestOptions forest_options;
  forest_options.n_trees = options.n_trees;
  forest_options.seed = options.seed;
  drcshap::RandomForestClassifier forest(forest_options);
  forest.fit(data);
  drcshap::save_forest_file(forest, options.path);
  std::printf("%s\n", options.path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  drcshap::serve::ServerOptions options;
  FixtureOptions fixture;
  bool stdio = false;
  bool fixture_mode = false;

  const auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv[0], argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model") {
      options.model_path = next_arg(i);
    } else if (arg == "--socket") {
      options.socket_path = next_arg(i);
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg == "--threads") {
      if (!parse_number(next_arg(i), options.batch.n_threads)) {
        return usage(argv[0]);
      }
    } else if (arg == "--eco-design") {
      options.eco_design = next_arg(i);
    } else if (arg == "--eco-scale") {
      if (!parse_number(next_arg(i), options.eco_scale)) {
        return usage(argv[0]);
      }
    } else if (arg == "--make-fixture") {
      fixture_mode = true;
      fixture.path = next_arg(i);
    } else if (arg == "--features") {
      if (!parse_number(next_arg(i), fixture.n_features)) {
        return usage(argv[0]);
      }
    } else if (arg == "--rows") {
      if (!parse_number(next_arg(i), fixture.n_rows)) return usage(argv[0]);
    } else if (arg == "--trees") {
      if (!parse_number(next_arg(i), fixture.n_trees)) return usage(argv[0]);
    } else if (arg == "--seed") {
      if (!parse_number(next_arg(i), fixture.seed)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }

  if (fixture_mode) {
    try {
      return make_fixture(fixture);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: make-fixture failed: %s\n", argv[0], e.what());
      return 1;
    }
  }

  if (options.model_path.empty() || (options.socket_path.empty() && !stdio)) {
    return usage(argv[0]);
  }

  drcshap::serve::Server server(options);
  const drcshap::Status started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "%s: start failed: %s\n", argv[0],
                 started.to_string().c_str());
    return 1;
  }
  g_server = &server;
  if (!options.socket_path.empty()) {
    // Socket mode runs unattended: wire up hot swap and graceful drain.
    // (stdio mode keeps default signal dispositions so a terminal ^C
    // behaves normally.)
    std::signal(SIGHUP, handle_sighup);
    std::signal(SIGINT, handle_shutdown_signal);
    std::signal(SIGTERM, handle_shutdown_signal);
    std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us
    std::fprintf(stderr, "drcshap_serve: listening on %s (model %s)\n",
                 options.socket_path.c_str(), options.model_path.c_str());
  }
  server.run();
  g_server = nullptr;

  drcshap::obs::RunReportOptions report;
  report.tool = "drcshap_serve";
  report.extra["model"] = options.model_path;
  const std::string written = drcshap::obs::write_default_run_report(report);
  if (!written.empty()) {
    std::fprintf(stderr, "drcshap_serve: run report written to %s\n",
                 written.c_str());
  }
  return 0;
}
