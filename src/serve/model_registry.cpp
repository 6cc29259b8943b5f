#include "serve/model_registry.hpp"

#include <sstream>
#include <utility>

#include "core/model_io.hpp"

namespace drcshap::serve {

namespace {

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

ServedModel::ServedModel(RandomForestClassifier forest_in, std::string path_in,
                         std::uint64_t digest_in)
    : forest(std::move(forest_in)),
      explainer(forest),
      explain_cache(std::make_shared<ExplanationCache>()),
      path(std::move(path_in)),
      digest(digest_in),
      version(basename_of(path) + "#" + digest_hex(digest)),
      n_features(forest.flat().n_features()) {
  explainer.set_cache(explain_cache);
}

Status ModelRegistry::load(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  // The artifact envelope is verified (magic/kind/size/checksum) before the
  // payload is parsed; the payload digest doubles as the served version id.
  StatusOr<std::string> payload = read_artifact(path, "forest");
  if (!payload.ok()) return payload.status();
  const std::uint64_t digest = fnv1a(payload.value());

  std::shared_ptr<const ServedModel> fresh;
  try {
    std::istringstream stream(std::move(payload).value());
    fresh = std::make_shared<const ServedModel>(load_forest(stream), path,
                                                digest);
  } catch (const ArtifactError& err) {
    return err.status();
  } catch (const std::exception& err) {
    return {StatusCode::kCorrupt,
            std::string("model_registry: parse failed: ") + err.what()};
  }

  std::shared_ptr<const ServedModel> old;
  {
    std::lock_guard<std::mutex> slot(current_mu_);
    old = std::exchange(current_, fresh);
  }
  if (old != nullptr) {
    swaps_.fetch_add(1, std::memory_order_relaxed);
    retired_.push_back(old);
    // Compact entries whose drains already completed.
    std::erase_if(retired_,
                  [](const std::weak_ptr<const ServedModel>& retired) {
                    return retired.expired();
                  });
  }
  return Status::ok_status();
}

Status ModelRegistry::reload(const std::string& path) {
  std::string target = path;
  if (target.empty()) {
    const std::shared_ptr<const ServedModel> model = current();
    if (model == nullptr) {
      return {StatusCode::kNotFound,
              "model_registry: no model loaded, reload needs a path"};
    }
    target = model->path;
  }
  return load(target);
}

std::size_t ModelRegistry::retired_alive() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t alive = 0;
  for (const auto& retired : retired_) {
    if (!retired.expired()) ++alive;
  }
  return alive;
}

}  // namespace drcshap::serve
