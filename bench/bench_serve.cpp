// Closed-loop load generator for the drcshap_serve daemon — the serving
// analogue of the google-benchmark binaries: it drives a running daemon
// over its Unix socket, measures client-observed request latency, and
// publishes the percentiles as "bench/serve_<verb>_c<N>_<pXX>/real_time_ms"
// gauges so tools/check_bench.py can gate them against BENCH_serve.json
// exactly like the offline benches gate against BENCH_shap.json.
//
//   bench_serve --socket /tmp/serve.sock [--clients 1,8] [--requests 50]
//               [--rows 8] [--mix score|explain|both] [--warmup 5]
//               [--shutdown]
//
// Each client thread owns one connection and issues requests back-to-back
// (closed loop), so concurrency — and therefore daemon-side batching —
// scales with --clients. Replies are sanity-checked (ids route back,
// shapes match, probabilities are probabilities); byte-identity against
// the direct engines is tests/test_serve.cpp's job.
//
// Before exiting it checks through the stats verb that the daemon is
// drained, optionally sends --shutdown, and writes its own run report
// ($DRCSHAP_RUNREPORT). The daemon writes its queue/batch stats to a report
// of its own; point the two processes at different paths.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/run_report.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace {

using drcshap::serve::Request;
using drcshap::serve::Response;
using drcshap::serve::Verb;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string socket_path;
  std::vector<std::size_t> clients = {1, 8};
  std::size_t requests = 50;
  std::uint32_t rows = 8;
  std::string mix = "both";
  std::size_t warmup = 5;
  bool send_shutdown = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--clients N,N,...] [--requests N]\n"
               "          [--rows N] [--mix score|explain|both] [--warmup N]\n"
               "          [--shutdown]\n",
               argv0);
  return 2;
}

std::vector<std::size_t> parse_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string item = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!item.empty()) out.push_back(std::strtoull(item.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// One connected client. Fatal protocol errors throw — a load generator
/// whose daemon misbehaves should fail the run, not average it away.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + socket_path);
    }
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      throw std::runtime_error("connect " + socket_path + ": " +
                               std::strerror(errno));
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Response call(const Request& request) {
    drcshap::throw_if_error(
        drcshap::serve::write_frame(fd_, encode_request(request)));
    auto frame = drcshap::serve::read_frame(fd_);
    drcshap::throw_if_error(frame.status());
    auto response = drcshap::serve::decode_response(frame.value());
    drcshap::throw_if_error(response.status());
    if (response.value().id != request.id) {
      throw std::runtime_error("reply id " +
                               std::to_string(response.value().id) +
                               " for request " + std::to_string(request.id));
    }
    return std::move(response).value();
  }

  /// True on clean EOF — what a drained daemon does after a shutdown reply.
  bool at_eof() {
    const auto frame = drcshap::serve::read_frame(fd_);
    return !frame.ok() &&
           frame.status().code() == drcshap::StatusCode::kNotFound;
  }

 private:
  int fd_ = -1;
};

std::uint32_t fetch_n_features(const Options& options) {
  Client client(options.socket_path);
  Request request;
  request.id = 1;
  request.verb = Verb::kStats;
  const Response response = client.call(request);
  if (response.status != drcshap::StatusCode::kOk) {
    throw std::runtime_error("stats failed: " + response.message);
  }
  const auto doc = drcshap::obs::JsonValue::parse(response.text);
  return static_cast<std::uint32_t>(
      doc.at("model").at("n_features").as_number());
}

Request make_request(std::uint64_t id, Verb verb, std::uint32_t rows,
                     std::uint32_t n_features, drcshap::Rng& rng) {
  Request request;
  request.id = id;
  request.verb = verb;
  request.n_rows = rows;
  request.n_features = n_features;
  request.features.resize(std::size_t{rows} * n_features);
  for (float& value : request.features) {
    value = static_cast<float>(rng.uniform());
  }
  return request;
}

void check_reply(const Request& request, const Response& response) {
  if (response.status != drcshap::StatusCode::kOk) {
    throw std::runtime_error(std::string(verb_name(request.verb)) +
                             " reply: " + response.message);
  }
  const std::size_t expect =
      request.verb == Verb::kScore
          ? request.n_rows
          : std::size_t{request.n_rows} * request.n_features;
  if (response.n_rows != request.n_rows || response.values.size() != expect) {
    throw std::runtime_error("reply shape mismatch");
  }
  if (request.verb == Verb::kScore) {
    for (const double p : response.values) {
      if (!(p >= 0.0 && p <= 1.0)) {
        throw std::runtime_error("probability " + std::to_string(p) +
                                 " out of [0,1]");
      }
    }
  }
}

struct SweepResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rows_per_s = 0.0;
  std::size_t n_requests = 0;
};

/// Runs one (verb, client-count) combination: `n_clients` threads, each
/// with its own connection, issuing `requests` back-to-back requests.
SweepResult run_sweep(const Options& options, Verb verb,
                      std::size_t n_clients, std::uint32_t n_features) {
  // Sized to hold every sample, so percentile() sees the whole sweep.
  drcshap::serve::LatencyRecorder latencies(n_clients * options.requests);
  std::vector<std::string> errors(n_clients);
  std::vector<std::thread> threads;
  const Clock::time_point sweep_start = Clock::now();
  for (std::size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(options.socket_path);
        drcshap::Rng rng(1000 + c);
        std::uint64_t id = c * 1'000'000;
        for (std::size_t i = 0; i < options.warmup; ++i) {
          const Request request =
              make_request(++id, verb, options.rows, n_features, rng);
          check_reply(request, client.call(request));
        }
        for (std::size_t i = 0; i < options.requests; ++i) {
          const Request request =
              make_request(++id, verb, options.rows, n_features, rng);
          const Clock::time_point start = Clock::now();
          const Response response = client.call(request);
          latencies.record(
              std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count());
          check_reply(request, response);
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double sweep_s =
      std::chrono::duration<double>(Clock::now() - sweep_start).count();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error("client: " + error);
  }

  SweepResult result;
  result.n_requests = latencies.count();
  result.p50_ms = latencies.percentile(50.0);
  result.p99_ms = latencies.percentile(99.0);
  result.rows_per_s =
      sweep_s > 0.0
          ? static_cast<double>(result.n_requests) * options.rows / sweep_s
          : 0.0;
  return result;
}

/// Final stats fetch: the daemon must be drained — every request replied,
/// queue empty, and at least one real batch formed.
int check_drained(const Options& options) {
  Client client(options.socket_path);
  Request request;
  request.id = 2;
  request.verb = Verb::kStats;
  const Response response = client.call(request);
  const auto doc = drcshap::obs::JsonValue::parse(response.text);
  const double received = doc.at("requests").at("received").as_number();
  const double replied = doc.at("requests").at("replied").as_number();
  const double depth = doc.at("queue").at("depth").as_number();
  const double batches = doc.at("batch").at("batches").as_number();
  std::printf("drain check: received=%.0f replied=%.0f queue_depth=%.0f "
              "batches=%.0f\n",
              received, replied, depth, batches);
  if (received != replied || depth != 0.0 || batches <= 0.0) {
    std::fprintf(stderr, "bench_serve: daemon not drained\n");
    return 1;
  }
  return 0;
}

int send_shutdown(const Options& options) {
  Client client(options.socket_path);
  Request request;
  request.id = 3;
  request.verb = Verb::kShutdown;
  const Response response = client.call(request);
  if (response.status != drcshap::StatusCode::kOk || !client.at_eof()) {
    std::fprintf(stderr, "bench_serve: unclean shutdown\n");
    return 1;
  }
  std::printf("shutdown: clean reply + EOF\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", argv[0], argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      options.socket_path = next_arg(i);
    } else if (arg == "--clients") {
      options.clients = parse_list(next_arg(i));
    } else if (arg == "--requests") {
      options.requests = std::strtoull(next_arg(i), nullptr, 10);
    } else if (arg == "--rows") {
      options.rows =
          static_cast<std::uint32_t>(std::strtoul(next_arg(i), nullptr, 10));
    } else if (arg == "--mix") {
      options.mix = next_arg(i);
    } else if (arg == "--warmup") {
      options.warmup = std::strtoull(next_arg(i), nullptr, 10);
    } else if (arg == "--shutdown") {
      options.send_shutdown = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.socket_path.empty() || options.clients.empty() ||
      options.rows == 0 ||
      (options.mix != "score" && options.mix != "explain" &&
       options.mix != "both")) {
    return usage(argv[0]);
  }

  try {
    const std::uint32_t n_features = fetch_n_features(options);
    std::printf("bench_serve: %s, %u features, %u rows/request\n",
                options.socket_path.c_str(), n_features, options.rows);

    std::vector<Verb> verbs;
    if (options.mix != "explain") verbs.push_back(Verb::kScore);
    if (options.mix != "score") verbs.push_back(Verb::kExplain);

    for (const Verb verb : verbs) {
      for (const std::size_t n_clients : options.clients) {
        const SweepResult result =
            run_sweep(options, verb, n_clients, n_features);
        const std::string name = "serve_" + std::string(verb_name(verb)) +
                                 "_c" + std::to_string(n_clients);
        std::printf("%-22s requests=%-5zu p50=%8.3f ms  p99=%8.3f ms  "
                    "%10.0f rows/s\n",
                    name.c_str(), result.n_requests, result.p50_ms,
                    result.p99_ms, result.rows_per_s);
        drcshap::obs::gauge_set("bench/" + name + "_p50/real_time_ms",
                                result.p50_ms);
        drcshap::obs::gauge_set("bench/" + name + "_p99/real_time_ms",
                                result.p99_ms);
        drcshap::obs::gauge_set("bench/" + name + "/rows_per_second",
                                result.rows_per_s);
        if (verb == Verb::kExplain) {
          // Daemon-side cache traffic so a sweep's speedup is attributable:
          // cumulative across sweeps, like the daemon's own counters.
          Client stats_client(options.socket_path);
          Request stats_request;
          stats_request.id = 4;
          stats_request.verb = Verb::kStats;
          const Response stats = stats_client.call(stats_request);
          if (stats.status == drcshap::StatusCode::kOk) {
            const auto doc = drcshap::obs::JsonValue::parse(stats.text);
            const auto& cache = doc.at("explain_cache");
            std::printf("%-22s cache: hits=%.0f misses=%.0f hit_rate=%.3f\n",
                        name.c_str(), cache.at("hits").as_number(),
                        cache.at("misses").as_number(),
                        cache.at("hit_rate").as_number());
          }
        }
      }
    }

    int rc = check_drained(options);
    if (options.send_shutdown && rc == 0) rc = send_shutdown(options);
    if (rc != 0) return rc;

    drcshap::obs::RunReportOptions report;
    report.tool = "bench_serve";
    drcshap::obs::write_default_run_report(report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
