// serve_mix — why it exists: this is the serving traffic. An in-process
// serve::Server on a Unix socket serves a 500-tree forest fitted on the
// Table I group 1-4 rows, so the traffic (group-5 g-cells) is
// design-held-out as in Table II. One generator thread drives an open loop
// of seeded Poisson arrivals over the connections at three frozen rates —
// below, near and above this host's capacity. Requests are a fixed mix of
// score requests for a 64-g-cell region and explain requests for one
// g-cell (a designer clicking a hotspot); half the explain rows come from a
// small hot set of high-probability cells, the rest are first-time rows.
// Each rate step starts with a reload, so every step starts with an empty
// explanation cache. It is the only workload that exercises the protocol,
// the batcher and its queue, TreeSHAP on a forest of Table II shape and a
// controlled repeat share; score requests wait behind explain batches on
// the single batch runner, so TreeSHAP cost shows in score latency too. It
// bypasses route, DRC, features and fit.

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "bench.hpp"
#include "core/model_io.hpp"
#include "core/tree_shap.hpp"
#include "features/feature_names.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using drcshap::serve::Request;
using drcshap::serve::Response;
using drcshap::serve::Verb;

constexpr std::uint32_t kFeatures = drcshap::FeatureSchema::kNumFeatures;
constexpr std::uint32_t kRegionRows = 64;  ///< g-cells per score request
constexpr double kScoreShare = 0.5;        ///< share of requests that score
constexpr double kHotShare = 0.5;          ///< explain rows from the hot set
constexpr std::size_t kHotSetSize = 32;
/// The frozen rate steps, in run order, each a fifth of --seconds: three at
/// the reference rate, then near and above the capacity of a 4-core host
/// (~200-290 req/s). At the reference rate (~20 % load) a median request did
/// not queue; nearer capacity the median sits on the edge between waiting
/// and not waiting and jumps from run to run. The reference rate runs as
/// three separate steps and each gated latency is the lowest of the three
/// steps' values, so a stall of the shared host during a step does not
/// move it.
struct StepSpec {
  double rate;  ///< requests per second
  bool reference;
};
constexpr StepSpec kSteps[] = {
    {50.0, true}, {50.0, true}, {50.0, true}, {200.0, false}, {400.0, false}};
constexpr std::size_t kNumSteps = std::size(kSteps);
/// Latency limits a step must meet (p95, from the scheduled send time).
constexpr double kScoreLimitMs = 50.0;
constexpr double kExplainLimitMs = 100.0;
/// One reply in this many is checked byte-for-byte against direct calls.
constexpr std::uint64_t kVerifyEvery = 16;

/// The served rows: group-5 g-cells, grouped by design for regions.
struct Traffic {
  std::vector<float> rows;                    ///< row-major, kFeatures wide
  std::vector<std::pair<std::size_t, std::size_t>> designs;  ///< begin, end
  std::vector<std::size_t> hot;   ///< highest-probability distinct rows
  std::vector<std::size_t> cold;  ///< every other distinct row
};

struct Planned {
  std::uint64_t due_ns = 0;  ///< offset from the step start
  Verb verb = Verb::kScore;
  std::size_t first_row = 0;
  std::uint32_t n_rows = 0;
  bool repeat = false;  ///< explain row already sent earlier in the step
};

struct Outcome {
  std::uint64_t sent_ns = 0;
  std::uint64_t done_ns = 0;
  bool ok = false;
  std::vector<double> values;  ///< kept only for replies checked later
  double base_value = 0.0;
};

/// Seeded Poisson arrivals at `rate` for `seconds`, with the request mix.
std::vector<Planned> plan_step(const Traffic& traffic, double rate,
                               double seconds, drcshap::Rng& rng) {
  std::vector<Planned> plan;
  std::vector<std::size_t> cold = traffic.cold;
  rng.shuffle(cold);
  std::size_t next_cold = 0;
  std::unordered_set<std::size_t> seen;
  std::size_t total_rows = 0;
  for (const auto& [begin, end] : traffic.designs) total_rows += end - begin;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    Planned p;
    p.due_ns = static_cast<std::uint64_t>(t * 1e9);
    if (rng.bernoulli(kScoreShare)) {
      // A region: 64 contiguous g-cells of one design, designs weighted by
      // their row count.
      std::size_t pick = rng.index(total_rows);
      for (const auto& [begin, end] : traffic.designs) {
        if (pick < end - begin) {
          const std::size_t span = end - begin - kRegionRows + 1;
          p.first_row = begin + rng.index(span);
          break;
        }
        pick -= end - begin;
      }
      p.verb = Verb::kScore;
      p.n_rows = kRegionRows;
    } else {
      p.verb = Verb::kExplain;
      p.n_rows = 1;
      p.first_row = rng.bernoulli(kHotShare)
                        ? traffic.hot[rng.index(traffic.hot.size())]
                        : cold[next_cold++ % cold.size()];
      p.repeat = !seen.insert(p.first_row).second;
    }
    plan.push_back(p);
  }
  return plan;
}

Request make_request(const Traffic& traffic, const Planned& p,
                     std::uint64_t id) {
  Request request;
  request.id = id;
  request.verb = p.verb;
  request.n_rows = p.n_rows;
  request.n_features = kFeatures;
  const float* begin = traffic.rows.data() + p.first_row * kFeatures;
  request.features.assign(begin, begin + std::size_t{p.n_rows} * kFeatures);
  return request;
}

int connect_to(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
  }
  // A wedged server must fail the run, not hang it.
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  return fd;
}

/// One synchronous request on a fresh connection (reload).
Response call(const std::string& path, const Request& request) {
  const int fd = connect_to(path);
  drcshap::Status status =
      drcshap::serve::write_frame(fd, encode_request(request));
  drcshap::StatusOr<std::string> frame =
      status.ok() ? drcshap::serve::read_frame(fd)
                  : drcshap::StatusOr<std::string>(status);
  ::close(fd);
  drcshap::throw_if_error(frame.status());
  auto response = drcshap::serve::decode_response(frame.value());
  drcshap::throw_if_error(response.status());
  return std::move(response).value();
}

/// A connection of the load generator: the generator thread writes, a
/// reader thread matches replies (served in order per connection) to the
/// requests in flight on it.
struct Connection {
  int fd = -1;
  std::mutex mu;  // guards in_flight
  std::deque<std::size_t> in_flight;
  std::atomic<std::size_t> depth{0};
  std::thread reader;
};

struct StepResult {
  double rate = 0.0;
  std::vector<Planned> plan;
  std::vector<Outcome> outcomes;
  std::uint64_t start_ns = 0;
  std::uint64_t span_id = 0;
};

bool wants_check(std::uint64_t seed, std::size_t step, std::size_t index) {
  return derive_seed(seed, step * 1000003 + index) % kVerifyEvery == 0;
}

/// Runs one rate step against the server at `path` over `n_conn`
/// connections and waits until every reply arrived or failed.
StepResult run_step(const std::string& path, const Traffic& traffic,
                    std::size_t step, double rate, double seconds,
                    std::size_t n_conn, std::uint64_t seed) {
  StepResult out;
  out.rate = rate;
  drcshap::Rng rng(derive_seed(seed, 0x5e7e + step));
  out.plan = plan_step(traffic, rate, seconds, rng);
  out.outcomes.resize(out.plan.size());
  const std::uint64_t id_base = (step + 1) * 1'000'000;

  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < n_conn; ++c) {
    conns.push_back(std::make_unique<Connection>());
    conns.back()->fd = connect_to(path);
  }
  for (auto& conn_ptr : conns) {
    Connection* conn = conn_ptr.get();
    conn->reader = std::thread([&, conn] {
      for (;;) {
        drcshap::StatusOr<std::string> frame =
            drcshap::serve::read_frame(conn->fd);
        if (!frame.ok()) break;  // EOF after the last reply, or a failure
        const std::uint64_t done = drcshap::obs::now_ns();
        std::size_t index = 0;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          if (conn->in_flight.empty()) break;
          index = conn->in_flight.front();
          conn->in_flight.pop_front();
        }
        conn->depth.fetch_sub(1);
        Outcome& outcome = out.outcomes[index];
        outcome.done_ns = done;
        auto response = drcshap::serve::decode_response(frame.value());
        if (!response.ok()) continue;
        const Response& r = response.value();
        const Planned& p = out.plan[index];
        const std::size_t expect =
            p.verb == Verb::kScore ? p.n_rows
                                   : std::size_t{p.n_rows} * kFeatures;
        bool ok = r.id == id_base + index && r.verb == p.verb &&
                  r.status == drcshap::StatusCode::kOk &&
                  r.n_rows == p.n_rows && r.values.size() == expect;
        if (ok && p.verb == Verb::kScore) {
          for (const double prob : r.values) ok = ok && prob >= 0.0 && prob <= 1.0;
        }
        if (ok && p.verb == Verb::kExplain) ok = r.n_features == kFeatures;
        outcome.ok = ok;
        if (ok && wants_check(seed, step, index)) {
          outcome.values = r.values;
          outcome.base_value = r.base_value;
        }
      }
    });
  }

  trace::Span step_span("serve.step");
  out.span_id = step_span.id();
  out.start_ns = drcshap::obs::now_ns() + 2'000'000;  // first send in 2 ms
  for (std::size_t i = 0; i < out.plan.size(); ++i) {
    const Planned& p = out.plan[i];
    const std::string body =
        encode_request(make_request(traffic, p, id_base + i));
    const std::uint64_t due = out.start_ns + p.due_ns;
    const std::uint64_t now = drcshap::obs::now_ns();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    // The connection with the fewest requests in flight takes it.
    Connection* conn = conns.front().get();
    for (auto& c : conns) {
      if (c->depth.load() < conn->depth.load()) conn = c.get();
    }
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->in_flight.push_back(i);
    }
    conn->depth.fetch_add(1);
    out.outcomes[i].sent_ns = drcshap::obs::now_ns();
    if (!drcshap::serve::write_frame(conn->fd, body).ok()) break;
  }
  // Half-close: the server answers what it has, then closes, so each reader
  // ends at EOF right after its last reply.
  for (auto& conn : conns) ::shutdown(conn->fd, SHUT_WR);
  for (auto& conn : conns) {
    conn->reader.join();
    ::close(conn->fd);
  }
  for (std::size_t i = 0; i < out.plan.size(); ++i) {
    const Outcome& o = out.outcomes[i];
    if (o.done_ns != 0) {
      trace::record(out.plan[i].verb == Verb::kScore ? "serve.score"
                                                     : "serve.explain",
                    out.span_id, out.start_ns + out.plan[i].due_ns, o.done_ns);
    }
  }
  return out;
}

struct StepFigures {
  std::vector<double> score_ms, explain_ms, lag_ms;
  std::size_t failed = 0;
  double drain_ms = 0.0;
  double served_per_s = 0.0;
  double repeat_share = 0.0;
  bool meets = false;
};

StepFigures figures(const StepResult& step) {
  StepFigures f;
  std::uint64_t last_done = step.start_ns;
  std::size_t explains = 0, repeats = 0, served = 0;
  for (std::size_t i = 0; i < step.plan.size(); ++i) {
    const Planned& p = step.plan[i];
    const Outcome& o = step.outcomes[i];
    if (p.verb == Verb::kExplain) {
      ++explains;
      repeats += p.repeat ? 1 : 0;
    }
    if (!o.ok) {
      ++f.failed;
      continue;
    }
    ++served;
    const double ms = static_cast<double>(o.done_ns - (step.start_ns + p.due_ns)) * 1e-6;
    (p.verb == Verb::kScore ? f.score_ms : f.explain_ms).push_back(ms);
    f.lag_ms.push_back(
        static_cast<double>(o.sent_ns - std::min(o.sent_ns, step.start_ns + p.due_ns)) *
        1e-6);
    last_done = std::max(last_done, o.done_ns);
  }
  const std::uint64_t last_due =
      step.plan.empty() ? step.start_ns : step.start_ns + step.plan.back().due_ns;
  f.drain_ms = static_cast<double>(last_done - std::min(last_done, last_due)) * 1e-6;
  f.served_per_s = static_cast<double>(served) /
                   (static_cast<double>(last_done - step.start_ns) * 1e-9);
  f.repeat_share = explains == 0 ? 0.0
                                 : static_cast<double>(repeats) /
                                       static_cast<double>(explains);
  // A failed request misses the limits; so does a backlog that outlives the
  // step by more than an explain's latency limit.
  f.meets = f.failed == 0 && percentile(f.score_ms, 95.0) <= kScoreLimitMs &&
            percentile(f.explain_ms, 95.0) <= kExplainLimitMs &&
            f.drain_ms <= kExplainLimitMs;
  return f;
}

}  // namespace

RunResult run_serve_mix(const Config& config) {
  using namespace drcshap;
  RunResult result;

  // Inputs, built untimed: the suite rows, the served forest (groups 1-4)
  // and the group-5 traffic rows. The served model is a fixed artifact, as
  // a deployed one is: it is built from the suite's own spec seeds, and the
  // workload seed varies the traffic — arrivals and row picks.
  const std::vector<BenchmarkSpec>& specs = ispd2015_suite();
  const Dataset data = build_suite_dataset(specs, suite_options(kDefaultSeed),
                                           nullptr, workers());
  std::vector<int> train_groups;
  Traffic traffic;
  std::size_t row = 0;
  for (std::size_t d = 0; d < specs.size(); ++d) {
    const std::size_t begin = row;
    while (row < data.n_rows() && data.group(row) == static_cast<int>(d)) ++row;
    if (specs[d].table_group == 5) {
      traffic.designs.emplace_back(traffic.rows.size() / kFeatures,
                                   traffic.rows.size() / kFeatures + row - begin);
      for (std::size_t r = begin; r < row; ++r) {
        const auto x = data.row(r);
        traffic.rows.insert(traffic.rows.end(), x.begin(), x.end());
      }
    } else {
      train_groups.push_back(static_cast<int>(d));
    }
  }
  RandomForestClassifier forest(forest_options());
  {
    const std::vector<std::size_t> train_rows = data.rows_in_groups(train_groups);
    forest.fit(data.subset(train_rows));
  }
  const std::size_t n_traffic = traffic.rows.size() / kFeatures;
  {
    // Distinct rows only, so a "first-time" row is never a byte-equal twin
    // of another; the hot set is the highest-probability distinct rows.
    const std::vector<double> probs = forest.predict_proba_all(
        std::span<const float>(traffic.rows), n_traffic, ForestEngine::kAuto);
    std::unordered_set<std::uint64_t> digests;
    std::vector<std::size_t> distinct;
    for (std::size_t r = 0; r < n_traffic; ++r) {
      if (digests.insert(fnv1a(traffic.rows.data() + r * kFeatures,
                               kFeatures * sizeof(float)))
              .second) {
        distinct.push_back(r);
      }
    }
    std::stable_sort(distinct.begin(), distinct.end(),
                     [&](std::size_t a, std::size_t b) { return probs[a] > probs[b]; });
    traffic.hot.assign(distinct.begin(), distinct.begin() + kHotSetSize);
    traffic.cold.assign(distinct.begin() + kHotSetSize, distinct.end());
  }
  const std::string model_path = config.out_dir + "/serve_model.forest";
  save_forest_file(forest, model_path);
  const std::string socket_path =
      config.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  // Set-up: Server::start — artifact load, compiled lowering, bind, timed
  // in bursts: before the traffic (its last server is the one measured) and
  // after each rate step, the later ones on probe servers with their own
  // socket that are stopped at once.
  serve::ServerOptions server_options;
  server_options.model_path = model_path;
  server_options.socket_path = socket_path;
  server_options.batch.n_threads = workers();
  std::vector<double> setup_s;
  const auto start_server = [&](const serve::ServerOptions& options) {
    auto started = std::make_unique<serve::Server>(options);
    trace::Span span("serve.start");
    const Clock::time_point start = Clock::now();
    throw_if_error(started->start());
    setup_s.push_back(ms_since(start) * 1e-3);
    return started;
  };
  std::unique_ptr<serve::Server> server;
  for (std::size_t i = 0; i < kSetupBurst; ++i) {
    server.reset();
    server = start_server(server_options);
  }
  serve::ServerOptions probe_options = server_options;
  probe_options.socket_path = socket_path + ".probe";
  const auto probe_burst = [&] {
    for (std::size_t i = 0; i < kSetupBurst; ++i) start_server(probe_options).reset();
  };
  std::thread server_thread([&] { server->run(); });

  const std::size_t n_conn = std::min<std::size_t>(4, workers());
  std::vector<StepResult> steps;
  trace::ObsDelta reference_delta;
  double reference_batches = 0.0, reference_rows = 0.0, max_queue_depth = 0.0;
  try {
    for (std::size_t s = 0; s < kNumSteps; ++s) {
      Request reload;
      reload.id = 1;
      reload.verb = Verb::kReload;
      {
        trace::Span span("serve.reload");
        const Response reply = call(socket_path, reload);
        ++result.attempted;
        if (reply.status != StatusCode::kOk) result.fail("reload failed");
      }
      const obs::Snapshot before = config.trace ? obs::snapshot() : obs::Snapshot{};
      const obs::JsonValue stats_before = obs::JsonValue::parse(server->stats_json());
      steps.push_back(run_step(socket_path, traffic, s, kSteps[s].rate,
                               config.seconds / kNumSteps, n_conn, config.seed));
      const obs::Snapshot after = config.trace ? obs::snapshot() : obs::Snapshot{};
      probe_burst();
      if (!kSteps[s].reference) continue;
      const obs::JsonValue stats_after = obs::JsonValue::parse(server->stats_json());
      const auto grew = [&](const char* section, const char* key) {
        return stats_after.at(section).at(key).as_number() -
               stats_before.at(section).at(key).as_number();
      };
      reference_batches += grew("batch", "batches");
      reference_rows += grew("requests", "score_rows") +
                        grew("requests", "explain_rows");
      max_queue_depth = stats_after.at("queue").at("max_depth").as_number();
      if (config.trace) reference_delta += trace::obs_delta(before, after);
    }
  } catch (...) {
    server->request_shutdown();
    server_thread.join();
    throw;
  }
  server->request_shutdown();
  server_thread.join();

  // Output checks: every reply's id, shape and range were checked as it
  // arrived; a seeded sample must also equal direct engine calls byte for
  // byte.
  const TreeShapExplainer explainer(forest);
  std::size_t verified = 0;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    for (std::size_t i = 0; i < steps[s].plan.size(); ++i) {
      const Outcome& o = steps[s].outcomes[i];
      const Planned& p = steps[s].plan[i];
      ++result.attempted;
      if (!o.ok) {
        result.fail("request " + std::to_string(i) + " of step " +
                    std::to_string(s) + " failed or got a malformed reply");
        continue;
      }
      if (o.values.empty()) continue;
      const std::span<const float> rows(traffic.rows.data() + p.first_row * kFeatures,
                                        std::size_t{p.n_rows} * kFeatures);
      std::vector<double> direct;
      double base = o.base_value;
      if (p.verb == Verb::kScore) {
        direct = forest.predict_proba_all(rows, p.n_rows, ForestEngine::kAuto);
      } else {
        direct = explainer.shap_values_batch(rows, p.n_rows).values;
        base = explainer.base_value();
      }
      ++verified;
      if (direct.size() != o.values.size() ||
          std::memcmp(direct.data(), o.values.data(),
                      direct.size() * sizeof(double)) != 0 ||
          base != o.base_value) {
        result.fail(std::string(verb_name(p.verb)) +
                    " reply differs from the direct engine call");
      }
    }
  }

  std::vector<StepFigures> f;
  double max_rate = 0.0;
  obs::JsonValue step_inputs = obs::JsonValue::make_array();
  std::vector<double> ref_explain_p50, ref_score_p50, ref_explain_ms,
      ref_score_ms, ref_lag_ms, ref_repeat_share;
  double reference_requests = 0.0;
  for (std::size_t s = 0; s < kNumSteps; ++s) {
    const StepFigures& fig = f.emplace_back(figures(steps[s]));
    if (fig.meets) max_rate = std::max(max_rate, steps[s].rate);
    if (kSteps[s].reference) {
      ref_explain_p50.push_back(median(fig.explain_ms));
      ref_score_p50.push_back(median(fig.score_ms));
      ref_explain_ms.insert(ref_explain_ms.end(), fig.explain_ms.begin(),
                            fig.explain_ms.end());
      ref_score_ms.insert(ref_score_ms.end(), fig.score_ms.begin(),
                          fig.score_ms.end());
      ref_lag_ms.insert(ref_lag_ms.end(), fig.lag_ms.begin(), fig.lag_ms.end());
      ref_repeat_share.push_back(fig.repeat_share);
      reference_requests += static_cast<double>(steps[s].plan.size());
    }
    obs::JsonValue entry = obs::JsonValue::make_object();
    entry["rate_rps"] = steps[s].rate;
    entry["requests"] = static_cast<std::uint64_t>(steps[s].plan.size());
    entry["explain_repeat_share"] = fig.repeat_share;
    entry["score_p95_ms"] = percentile(fig.score_ms, 95.0);
    entry["explain_p95_ms"] = percentile(fig.explain_ms, 95.0);
    entry["drain_ms"] = fig.drain_ms;
    entry["served_per_s"] = fig.served_per_s;
    entry["meets_limits"] = fig.meets;
    step_inputs.push_back(std::move(entry));
  }
  const double explain_p50 =
      *std::min_element(ref_explain_p50.begin(), ref_explain_p50.end());
  const double score_p50 =
      *std::min_element(ref_score_p50.begin(), ref_score_p50.end());
  const double capacity = f.back().served_per_s;
  result.inputs["steps"] = std::move(step_inputs);
  result.inputs["verified_replies"] = static_cast<std::uint64_t>(verified);
  result.inputs["connections"] = static_cast<std::uint64_t>(n_conn);
  result.inputs["score_limit_ms"] = kScoreLimitMs;
  result.inputs["explain_limit_ms"] = kExplainLimitMs;
  result.inputs["traffic_rows"] = static_cast<std::uint64_t>(n_traffic);

  const double setup = setup_of(setup_s, kSetupBurst);
  result.note("setup_s", setup, "s");
  result.note("score_p50_ms", score_p50, "ms");
  result.note("score_p95_ms", percentile(ref_score_ms, 95.0), "ms");
  result.note("explain_p50_ms", explain_p50, "ms");
  result.note("explain_p95_ms", percentile(ref_explain_ms, 95.0), "ms");
  result.note("max_rate_rps", max_rate, "req/s");
  result.note("capacity_rps", capacity, "req/s");
  result.note("failed_frac",
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted),
              "ratio");
  if (config.trace) {
    add_obs_layers(reference_delta, reference_requests,
                   forest.options().n_trees, result.metrics);
    add_forest_shape(forest, result.metrics);
    const auto mean_batch = [&](const char* timer) {
      const std::uint64_t n = reference_delta.timer_count(timer);
      return n == 0 ? 0.0 : reference_delta.timer_ms(timer) / n;
    };
    result.metrics["trace.op_p50_ms"] = explain_p50;
    result.metrics["serve.batches"] = reference_batches / reference_requests;
    result.metrics["serve.mean_batch_rows"] =
        reference_batches > 0.0 ? reference_rows / reference_batches : 0.0;
    result.metrics["serve.max_queue_depth"] = max_queue_depth;
    result.metrics["serve.batch_score_ms"] = mean_batch("serve/batch_score");
    result.metrics["serve.batch_explain_ms"] = mean_batch("serve/batch_explain");
    result.metrics["serve.generator_lag_p95_ms"] = percentile(ref_lag_ms, 95.0);
    result.metrics["serve.explain_repeat_share"] = median(ref_repeat_share);
    result.metrics["serve.max_rate_rps"] = max_rate;
    return result;
  }
  result.metrics["setup_s"] = setup;
  result.metrics["op_p50_ms"] = explain_p50;
  result.metrics["side_p50_ms"] = score_p50;
  return result;
}

}  // namespace perfbench
