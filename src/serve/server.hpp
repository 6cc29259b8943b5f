#pragma once
// The drcshap_serve daemon core: a Unix-socket (or stdin/stdout) frame
// server that dispatches score/explain requests into the Batcher, serves
// reload/stats/shutdown inline, and owns the shutdown choreography — stop
// accepting, drain the batch queue, unblock every connection, join, and
// only then return from run(). Hot swaps arrive as SIGHUP (the daemon main
// forwards it via notify_sighup) or as a reload request on any connection.
//
// Concurrency model: one accept thread, one thread per live connection
// (requests on a single connection are served in order; concurrency — and
// therefore batching — comes from concurrent connections), plus the
// Batcher's runner thread, which fans each batch out on the shared pool.
//
// The server's own state is its one ledger: Batcher::Stats, the model
// registry's swap count, the per-verb LatencyRecorders and the eco edit
// count. stats_document() renders it once; the stats verb dumps that
// document live and publish_obs_gauges() copies its leaves into the run
// report at teardown, so the two views cannot disagree. Request paths
// record no obs metrics of their own.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "eco/eco_engine.hpp"
#include "obs/json.hpp"
#include "serve/batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/protocol.hpp"

namespace drcshap::serve {

struct ServerOptions {
  std::string model_path;   ///< forest artifact loaded at start()
  std::string socket_path;  ///< Unix socket; empty = stdin/stdout mode
  BatchOptions batch;
  /// Non-empty = host a resident EcoEngine for the eco verb: the named
  /// benchmark-suite design is generated, routed and fully scored at
  /// start(). Requires the startup model to be trained on the pipeline's
  /// feature schema. The engine stays pinned to the startup model — a hot
  /// swap changes score/explain traffic but never a resident diff baseline.
  std::string eco_design;
  double eco_scale = 16.0;  ///< generator scale for the resident design
};

/// Per-request latencies: a sliding window for the stats percentiles, plus
/// the lifetime count, maximum and sum behind max_ms and mean_ms.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t capacity = 8192);

  void record(double latency_ms);
  /// Percentile over the retained window (nearest-rank); 0 when empty.
  double percentile(double p) const;
  std::uint64_t count() const;
  /// Lifetime maximum and mean over every recorded latency; 0 when empty.
  double max_ms() const;
  double mean_ms() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> window_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  double max_ms_ = 0.0;
  double sum_ms_ = 0.0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Loads the model and binds/listens on the socket (no-op bind in stdio
  /// mode). On error nothing is left running.
  Status start();

  /// Serves until a shutdown request (or request_shutdown()) arrives, then
  /// drains and tears down. Call after start(). In stdio mode this serves
  /// one implicit connection on fds 0/1.
  void run();

  /// Asks run() to begin the drain+teardown sequence (thread-safe).
  void request_shutdown();

  /// SIGHUP entry point: schedules a reload of the current model path. The
  /// swap happens on the accept loop, not in signal context.
  void notify_sighup() { reload_pending_.store(true); }

  /// SIGINT/SIGTERM entry point: async-signal-safe (a plain atomic store,
  /// unlike request_shutdown's mutex+cv). The accept loop's poll tick
  /// promotes it to a real request_shutdown within ~200 ms.
  void notify_shutdown_signal() { shutdown_pending_.store(true); }

  const ModelRegistry& registry() const { return registry_; }
  ModelRegistry& registry() { return registry_; }

  /// The stats verb's reply: stats_document() dumped as JSON.
  std::string stats_json() const;

  /// Copies stats_document() into the obs registry so it lands in the run
  /// report: each number or bool leaf becomes the gauge
  /// serve/<section>/<key> (array elements end in /<index>, bools read
  /// 1 or 0), each string leaf the note of that name. Gauges are set, not
  /// added, so calling it twice is harmless. run() does this at teardown;
  /// tests call it directly.
  void publish_obs_gauges() const;

 private:
  /// The serving ledger as one document: model identity/engine/swaps,
  /// queue, request counts, explanation cache, batch sizes, per-verb
  /// latency (count, p50, p99, max, mean) and the resident eco state.
  obs::JsonValue stats_document() const;

  void accept_loop();
  void connection_loop(int fd);
  /// Applies a SIGHUP reload scheduled by notify_sighup(), if any.
  void apply_pending_reload();
  Response dispatch(Request request);
  Response serve_eco(const Request& request);
  void teardown();

  ServerOptions options_;
  ModelRegistry registry_;
  std::unique_ptr<Batcher> batcher_;

  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> reload_pending_{false};
  std::atomic<bool> shutdown_pending_{false};
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;

  struct Connection {
    std::thread thread;
    int fd = -1;
    std::atomic<bool> done{false};
  };
  std::mutex connections_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;

  // Resident ECO state (socket connections race on it; edits serialize).
  // Built once at start(), so the pointer itself is safe to read unlocked.
  std::unique_ptr<EcoEngine> eco_;
  std::mutex eco_mu_;
  std::atomic<std::uint64_t> eco_edits_{0};

  LatencyRecorder score_latency_;
  LatencyRecorder explain_latency_;
  LatencyRecorder eco_latency_;
};

}  // namespace drcshap::serve
