#include "serve/batcher.hpp"

#include <chrono>
#include <span>
#include <string>
#include <utility>

#include "core/explanation.hpp"
#include "obs/registry.hpp"

namespace drcshap::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::size_t histogram_bucket(std::size_t rows) {
  std::size_t bucket = 0;
  while (bucket + 1 < kBatchHistogramBuckets &&
         rows > (std::size_t{1} << bucket)) {
    ++bucket;
  }
  return bucket;
}

/// "le_1", "le_2", ..., "le_256", "gt_256" — the run-report counter names.
std::string histogram_bucket_name(std::size_t bucket) {
  if (bucket + 1 == kBatchHistogramBuckets) {
    return "gt_" + std::to_string(std::size_t{1} << (bucket - 1));
  }
  return "le_" + std::to_string(std::size_t{1} << bucket);
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
  if (queue_.empty()) oldest_enqueue_ = Clock::now();
  queue_.push_back(&pending);
  queued_rows_ += pending.request.n_rows;
  ++stats_.requests;
  stats_.queue_depth = queue_.size();
  if (queue_.size() > stats_.max_queue_depth) {
    stats_.max_queue_depth = queue_.size();
  }
  obs::counter_add("serve/requests");
  obs::gauge_set("serve/queue_depth", static_cast<double>(queue_.size()));
  runner_cv_.notify_one();
  done_cv_.wait(lock, [&] { return pending.done; });
  ++stats_.replies;
  obs::counter_add("serve/replies");
  return std::move(pending.response);
}

void Batcher::runner_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    runner_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Deadline-or-batch-full coalescing window, skipped when draining.
    if (!stopping_ && queued_rows_ < options_.max_batch_rows) {
      const auto deadline =
          oldest_enqueue_ + std::chrono::microseconds(options_.flush_us);
      while (!stopping_ && queued_rows_ < options_.max_batch_rows &&
             Clock::now() < deadline) {
        runner_cv_.wait_until(lock, deadline);
      }
    }
    std::vector<Pending*> batch(queue_.begin(), queue_.end());
    queue_.clear();
    queued_rows_ = 0;
    stats_.queue_depth = 0;
    ++stats_.batches;
    std::size_t batch_rows = 0;
    for (const Pending* pending : batch) {
      batch_rows += pending->request.n_rows;
    }
    ++stats_.batch_rows_histogram[histogram_bucket(batch_rows)];
    obs::gauge_set("serve/queue_depth", 0.0);
    obs::counter_add("serve/batches");
    obs::counter_add("serve/batch_rows_" +
                     histogram_bucket_name(histogram_bucket(batch_rows)));

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
    (request.verb == Verb::kScore
         ? score_items
         : request.verb == Verb::kExplain ? explain_items : global_items)
        .push_back(pending);
  }
  if (!score_items.empty()) serve_verb(model, score_items, Verb::kScore);
  if (!explain_items.empty()) serve_verb(model, explain_items, Verb::kExplain);
  if (!global_items.empty()) {
    serve_verb(model, global_items, Verb::kGlobalExplain);
  }
}

void Batcher::serve_verb(const std::shared_ptr<const ServedModel>& model,
                         std::vector<Pending*>& items, Verb verb) {
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
    {
      std::lock_guard<std::mutex> guard(mu_);
      stats_.score_rows += total_rows;
    }
    obs::counter_add("serve/score_rows", total_rows);
    const std::vector<double> probs = model->forest.predict_proba_all(
        std::span<const float>(matrix), total_rows, ForestEngine::kAuto);
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
  {
    std::lock_guard<std::mutex> guard(mu_);
    (verb == Verb::kExplain ? stats_.explain_rows
                            : stats_.global_explain_rows) += total_rows;
  }
  obs::counter_add(verb == Verb::kExplain ? "serve/explain_rows"
                                          : "serve/global_explain_rows",
                   total_rows);
  // The explainer snapshot inside ServedModel is immutable and shares the
  // model's explanation cache.
  const TreeShapExplainer& explainer = model->explainer;
  const ExplanationCacheStats cache_before = model->explain_cache->stats();
  const ShapMatrix shap = explainer.shap_values_batch(
      std::span<const float>(matrix), total_rows, options_.n_threads);
  const ExplanationCacheStats cache_after = model->explain_cache->stats();
  const std::uint64_t hits = cache_after.hits - cache_before.hits;
  const std::uint64_t misses = cache_after.misses - cache_before.misses;
  double hit_rate = 0.0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    stats_.explain_cache_hits += hits;
    stats_.explain_cache_misses += misses;
    hit_rate = stats_.explain_cache_hit_rate();
  }
  if (hits > 0) obs::counter_add("serve/explain_cache_hits", hits);
  if (misses > 0) obs::counter_add("serve/explain_cache_misses", misses);
  obs::gauge_set("serve/explain_cache_hit_rate", hit_rate);

  if (verb == Verb::kGlobalExplain) {
    // Per request: fold its slice of the phi matrix through the streaming
    // accumulator and reply with the O(n_features) stat rows only.
    std::size_t offset = 0;
    for (Pending* pending : items) {
      Response& response = pending->response;
      response.id = pending->request.id;
      response.verb = verb;
      response.status = StatusCode::kOk;
      response.n_rows = pending->request.n_rows;
      response.n_features = static_cast<std::uint32_t>(n_features);
      response.base_value = explainer.base_value();
      GlobalShapSummary summary(n_features);
      for (std::uint32_t r = 0; r < pending->request.n_rows; ++r) {
        summary.add(std::span<const double>(
            shap.values.data() + (offset + r) * n_features, n_features));
      }
      response.values.resize(std::size_t{kGlobalStatRows} * n_features);
      for (std::size_t f = 0; f < n_features; ++f) {
        response.values[f] = summary.mean_abs(f);
        response.values[n_features + f] = summary.mean_signed(f);
        response.values[2 * n_features + f] = summary.positive_fraction(f);
      }
      offset += pending->request.n_rows;
    }
    return;
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
    const double* begin = shap.values.data() + offset * n_features;
    response.values.assign(begin,
                           begin + response.n_rows * std::size_t{n_features});
    offset += response.n_rows;
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
