#pragma once
// Request coalescing for the serving daemon: concurrent score/explain
// requests enqueue here and a single runner thread flushes them in batches
// that ride the existing batch engines (predict_proba_all /
// shap_values_batch) on the shared thread pool.
//
// Batches form on their own: when the runner is free it takes every
// pending request as one batch and serves it at once, so a lone request
// waits for no window, and the requests that arrive while a batch runs
// form the next one. Each request keeps its slot (row offset) inside the
// concatenated batch matrix, and both batch engines compute every row
// independently in fixed tree order, so the slice a request gets back is
// byte-identical to running that request alone (proved by
// tests/test_serve.cpp against the direct engine calls).
//
// The runner snapshots the registry's current model once per batch, so a
// hot swap can never split one batch (or one request) across two model
// versions; the snapshot's shared_ptr keeps a retired model alive until
// its last in-flight batch drains.
//
// Stats is the batcher's half of the serving ledger (see server.hpp): its
// counts live only here; the batch path records nothing in obs but the
// serve/batch_score|explain stage timers.

#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/model_registry.hpp"
#include "serve/protocol.hpp"

namespace drcshap::serve {

struct BatchOptions {
  std::size_t n_threads = 0;  ///< worker cap for the batch engines
};

/// Powers-of-two batch-size histogram: bucket i counts batches with
/// rows in (2^(i-1), 2^i]; the last bucket is unbounded.
inline constexpr std::size_t kBatchHistogramBuckets = 10;

class Batcher {
 public:
  Batcher(const ModelRegistry& registry, BatchOptions options);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Blocks until the runner has served (or rejected) the request.
  /// After shutdown() every submit is rejected with kInvalid.
  Response submit(Request request);

  /// Stops accepting, flushes every pending request, joins the runner.
  /// Idempotent; the destructor calls it.
  void shutdown();

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t replies = 0;
    std::uint64_t batches = 0;
    std::uint64_t score_rows = 0;
    std::uint64_t explain_rows = 0;
    std::uint64_t global_explain_rows = 0;
    std::uint64_t rejected = 0;
    /// Explanation-cache lookups made by the explain/global-explain
    /// batches themselves (ShapMatrix::cache_hits|misses), accumulated
    /// across model versions. Lookups of other users of the same cache,
    /// such as the resident EcoEngine, are not counted.
    std::uint64_t explain_cache_hits = 0;
    std::uint64_t explain_cache_misses = 0;
    std::size_t queue_depth = 0;      ///< requests pending right now
    std::size_t max_queue_depth = 0;  ///< high-water mark
    std::array<std::uint64_t, kBatchHistogramBuckets> batch_rows_histogram{};

    double explain_cache_hit_rate() const {
      const std::uint64_t lookups = explain_cache_hits + explain_cache_misses;
      return lookups == 0 ? 0.0
                          : static_cast<double>(explain_cache_hits) /
                                static_cast<double>(lookups);
    }
  };
  Stats stats() const;

 private:
  struct Pending {
    Request request;
    Response response;
    bool done = false;
  };

  void runner_loop();
  /// Serves one flushed batch (score + explain sub-batches) and marks every
  /// pending entry done.
  void run_batch(std::vector<Pending*>& batch);
  void serve_verb(const std::shared_ptr<const ServedModel>& model,
                  std::vector<Pending*>& items, Verb verb);

  const ModelRegistry& registry_;
  const BatchOptions options_;

  mutable std::mutex mu_;
  std::condition_variable runner_cv_;
  std::condition_variable done_cv_;
  std::vector<Pending*> queue_;
  bool stopping_ = false;

  Stats stats_;
  std::thread runner_;
};

}  // namespace drcshap::serve
