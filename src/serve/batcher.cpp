#include "serve/batcher.hpp"

#include <span>
#include <string>
#include <utility>

#include "core/explanation.hpp"
#include "obs/registry.hpp"
#include "util/failpoint.hpp"

namespace drcshap::serve {

namespace {

std::size_t histogram_bucket(std::size_t rows) {
  std::size_t bucket = 0;
  while (bucket + 1 < kBatchHistogramBuckets &&
         rows > (std::size_t{1} << bucket)) {
    ++bucket;
  }
  return bucket;
}

}  // namespace

Batcher::Batcher(const ModelRegistry& registry, BatchOptions options)
    : registry_(registry), options_(options) {
  runner_ = std::thread([this] { runner_loop(); });
}

Batcher::~Batcher() { shutdown(); }

Response Batcher::submit(Request request) {
  Pending pending;
  pending.request = std::move(request);
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    ++stats_.rejected;
    return error_response(pending.request.id, pending.request.verb,
                          StatusCode::kInvalid, "server is shutting down");
  }
  queue_.push_back(&pending);
  ++stats_.requests;
  stats_.queue_depth = queue_.size();
  if (queue_.size() > stats_.max_queue_depth) {
    stats_.max_queue_depth = queue_.size();
  }
  runner_cv_.notify_one();
  done_cv_.wait(lock, [&] { return pending.done; });
  ++stats_.replies;
  return std::move(pending.response);
}

void Batcher::runner_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    runner_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and the queue is drained
    // Everything queued is one batch; what arrives while it runs waits
    // for the next.
    std::vector<Pending*> batch;
    batch.swap(queue_);
    stats_.queue_depth = 0;
    ++stats_.batches;
    std::size_t batch_rows = 0;
    for (const Pending* pending : batch) {
      batch_rows += pending->request.n_rows;
    }
    ++stats_.batch_rows_histogram[histogram_bucket(batch_rows)];

    lock.unlock();
    run_batch(batch);
    lock.lock();
    for (Pending* pending : batch) pending->done = true;
    done_cv_.notify_all();
  }
}

void Batcher::run_batch(std::vector<Pending*>& batch) {
  const std::shared_ptr<const ServedModel> model = registry_.current();
  std::vector<Pending*> score_items;
  std::vector<Pending*> explain_items;
  std::vector<Pending*> global_items;
  for (Pending* pending : batch) {
    const Request& request = pending->request;
    if (model == nullptr) {
      pending->response =
          error_response(request.id, request.verb, StatusCode::kNotFound,
                         "no model loaded");
      continue;
    }
    if (request.n_features != model->n_features) {
      pending->response = error_response(
          request.id, request.verb, StatusCode::kInvalid,
          "request has " + std::to_string(request.n_features) +
              " features, model " + model->version + " expects " +
              std::to_string(model->n_features));
      continue;
    }
    if (request.verb == Verb::kExplain &&
        explain_reply_bytes(request.n_rows, request.n_features) >
            kMaxFrameBytes) {
      pending->response = error_response(
          request.id, request.verb, StatusCode::kInvalid,
          "explain reply for " + std::to_string(request.n_rows) +
              " rows would exceed the frame cap; split the request");
      continue;
    }
    (request.verb == Verb::kScore
         ? score_items
         : request.verb == Verb::kExplain ? explain_items : global_items)
        .push_back(pending);
  }
  // An internal fault (an allocation failure, a pool task's exception)
  // fails only its own verb group with typed replies; the runner thread
  // survives to serve the next batch.
  const auto serve_group = [&](std::vector<Pending*>& items, Verb verb) {
    if (items.empty()) return;
    try {
      serve_verb(model, items, verb);
    } catch (const std::exception& e) {
      for (Pending* pending : items) {
        pending->response = error_response(pending->request.id, verb,
                                           StatusCode::kFault, e.what());
      }
    }
  };
  serve_group(score_items, Verb::kScore);
  serve_group(explain_items, Verb::kExplain);
  serve_group(global_items, Verb::kGlobalExplain);
}

void Batcher::serve_verb(const std::shared_ptr<const ServedModel>& model,
                         std::vector<Pending*>& items, Verb verb) {
  DRCSHAP_FAILPOINT("serve.batch");
  std::size_t total_rows = 0;
  for (const Pending* pending : items) total_rows += pending->request.n_rows;
  const std::size_t n_features = model->n_features;

  // Concatenate the request matrices; each request keeps its slot (row
  // offset), so its reply slice is independent of its batch neighbours.
  std::vector<float> matrix;
  matrix.reserve(total_rows * n_features);
  for (const Pending* pending : items) {
    matrix.insert(matrix.end(), pending->request.features.begin(),
                  pending->request.features.end());
  }

  if (verb == Verb::kScore) {
    DRCSHAP_OBS_TIMER("serve/batch_score");
    const std::vector<double> probs = model->forest.predict_proba_all(
        std::span<const float>(matrix), total_rows, ForestEngine::kAuto);
    {
      std::lock_guard<std::mutex> guard(mu_);
      stats_.score_rows += total_rows;
    }
    std::size_t offset = 0;
    for (Pending* pending : items) {
      Response& response = pending->response;
      response.id = pending->request.id;
      response.verb = verb;
      response.status = StatusCode::kOk;
      response.n_rows = pending->request.n_rows;
      response.values.assign(probs.begin() + offset,
                             probs.begin() + offset + response.n_rows);
      offset += response.n_rows;
    }
    return;
  }

  DRCSHAP_OBS_TIMER("serve/batch_explain");
  // The explainer snapshot inside ServedModel is immutable and shares the
  // model's explanation cache with the resident EcoEngine, so the lookup
  // counts come from this call's own result, not from the shared cache.
  const TreeShapExplainer& explainer = model->explainer;
  const ShapMatrix shap = explainer.shap_values_batch(
      std::span<const float>(matrix), total_rows, options_.n_threads);
  {
    std::lock_guard<std::mutex> guard(mu_);
    (verb == Verb::kExplain ? stats_.explain_rows
                            : stats_.global_explain_rows) += total_rows;
    stats_.explain_cache_hits += shap.cache_hits;
    stats_.explain_cache_misses += shap.cache_misses;
  }

  std::size_t offset = 0;
  for (Pending* pending : items) {
    Response& response = pending->response;
    response.id = pending->request.id;
    response.verb = verb;
    response.status = StatusCode::kOk;
    response.n_rows = pending->request.n_rows;
    response.n_features = static_cast<std::uint32_t>(n_features);
    response.base_value = explainer.base_value();
    const double* rows = shap.values.data() + offset * n_features;
    offset += response.n_rows;
    if (verb == Verb::kExplain) {
      response.values.assign(rows, rows + response.n_rows * n_features);
      continue;
    }
    // global-explain: fold the request's slice of the phi matrix through
    // the streaming accumulator and reply with the O(n_features) stat rows.
    GlobalShapSummary summary(n_features);
    for (std::uint32_t r = 0; r < response.n_rows; ++r) {
      summary.add(std::span<const double>(rows + r * n_features, n_features));
    }
    response.values.resize(std::size_t{kGlobalStatRows} * n_features);
    for (std::size_t f = 0; f < n_features; ++f) {
      response.values[f] = summary.mean_abs(f);
      response.values[n_features + f] = summary.mean_signed(f);
      response.values[2 * n_features + f] = summary.positive_fraction(f);
    }
  }
}

void Batcher::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    runner_cv_.notify_one();
  }
  if (runner_.joinable()) runner_.join();
}

Batcher::Stats Batcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace drcshap::serve
