#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "benchsuite/pipeline.hpp"
#include "features/feature_names.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"

namespace drcshap::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Parses one eco edit command line:
///   move MACRO DX DY
///   resize MACRO XLO YLO XHI YHI
///   reroute NET[,NET...]
StatusOr<EcoEdit> parse_eco_edit(const std::string& text) {
  const auto invalid = [&](const std::string& why) -> Status {
    return {StatusCode::kInvalid, "eco: " + why + " in edit '" + text + "'"};
  };
  std::istringstream in(text);
  std::string op;
  if (!(in >> op)) return invalid("empty edit");
  EcoEdit edit;
  if (op == "move") {
    edit.kind = EcoEdit::Kind::kMoveMacro;
    if (!(in >> edit.macro >> edit.dx >> edit.dy)) {
      return invalid("expected 'move MACRO DX DY'");
    }
  } else if (op == "resize") {
    edit.kind = EcoEdit::Kind::kResizeMacro;
    if (!(in >> edit.macro >> edit.new_box.x_lo >> edit.new_box.y_lo >>
          edit.new_box.x_hi >> edit.new_box.y_hi)) {
      return invalid("expected 'resize MACRO XLO YLO XHI YHI'");
    }
  } else if (op == "reroute") {
    edit.kind = EcoEdit::Kind::kRerouteNets;
    std::string nets;
    if (!(in >> nets)) return invalid("expected 'reroute NET[,NET...]'");
    std::size_t begin = 0;
    while (begin <= nets.size()) {
      const std::size_t comma = nets.find(',', begin);
      const std::size_t end = comma == std::string::npos ? nets.size() : comma;
      if (end > begin) edit.nets.push_back(nets.substr(begin, end - begin));
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
    if (edit.nets.empty()) return invalid("no net names");
  } else {
    return invalid("unknown edit op '" + op + "'");
  }
  std::string trailing;
  if (in >> trailing) return invalid("trailing token '" + trailing + "'");
  return edit;
}

std::string_view change_name(HotspotDiffEntry::Change change) {
  switch (change) {
    case HotspotDiffEntry::Change::kAppeared: return "appeared";
    case HotspotDiffEntry::Change::kVanished: return "vanished";
    case HotspotDiffEntry::Change::kChanged: return "changed";
  }
  return "unknown";
}

/// An ok reply whose payload is `text` (reload, stats, shutdown, eco).
Response text_response(std::uint64_t id, Verb verb, std::string text) {
  Response response;
  response.id = id;
  response.verb = verb;
  response.text = std::move(text);
  return response;
}

/// Diff entries beyond this land only in the counts, keeping an eco reply
/// bounded no matter how large the edit's blast radius is.
constexpr std::size_t kMaxDiffEntriesOnWire = 256;

/// Publishes every leaf under `value` as a gauge (numbers, bools as 1/0)
/// or a note (strings) named by its path from `name`.
void publish_leaves(const obs::JsonValue& value, const std::string& name) {
  switch (value.type()) {
    case obs::JsonValue::Type::kObject:
      for (const auto& [key, child] : value.as_object()) {
        publish_leaves(child, name + "/" + key);
      }
      break;
    case obs::JsonValue::Type::kArray: {
      const obs::JsonValue::Array& array = value.as_array();
      for (std::size_t i = 0; i < array.size(); ++i) {
        publish_leaves(array[i], name + "/" + std::to_string(i));
      }
      break;
    }
    case obs::JsonValue::Type::kNumber:
      obs::gauge_set(name, value.as_number());
      break;
    case obs::JsonValue::Type::kBool:
      obs::gauge_set(name, value.as_bool() ? 1.0 : 0.0);
      break;
    case obs::JsonValue::Type::kString:
      obs::note_set(name, value.as_string());
      break;
    case obs::JsonValue::Type::kNull:
      break;
  }
}

}  // namespace

// ------------------------------------------------------- LatencyRecorder

LatencyRecorder::LatencyRecorder(std::size_t capacity) {
  window_.reserve(capacity == 0 ? 1 : capacity);
}

void LatencyRecorder::record(double latency_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (window_.size() < window_.capacity()) {
    window_.push_back(latency_ms);
  } else {
    window_[next_] = latency_ms;
    next_ = (next_ + 1) % window_.capacity();
  }
  ++total_;
  max_ms_ = std::max(max_ms_, latency_ms);
  sum_ms_ += latency_ms;
}

double LatencyRecorder::percentile(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (window_.empty()) return 0.0;
  std::vector<double> sorted(window_);
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank percentile over the retained window.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(sorted.size() - 1)));
  return sorted[index];
}

std::uint64_t LatencyRecorder::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

double LatencyRecorder::max_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_ms_;
}

double LatencyRecorder::mean_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ == 0 ? 0.0 : sum_ms_ / static_cast<double>(total_);
}

// ----------------------------------------------------------------- Server

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() {
  // Idempotent: a normal run() already tore everything down.
  teardown();
}

Status Server::start() {
  const Status loaded = registry_.load(options_.model_path);
  if (!loaded.ok()) return loaded;
  batcher_ = std::make_unique<Batcher>(registry_, options_.batch);

  if (!options_.eco_design.empty()) {
    try {
      const std::shared_ptr<const ServedModel> model = registry_.current();
      PipelineOptions pipeline;
      pipeline.generator.scale = options_.eco_scale;
      EcoOptions eco_options;
      eco_options.router = pipeline.router;
      eco_options.drc = pipeline.drc;
      eco_options.n_threads = options_.batch.n_threads;
      // Aliasing shared_ptr: the engine pins the whole startup ServedModel,
      // so a later hot swap cannot retire the forest under the eco verb.
      std::shared_ptr<const RandomForestClassifier> forest(model,
                                                           &model->forest);
      TreeShapExplainer explainer(model->forest);
      explainer.set_cache(model->explain_cache);
      eco_ = std::make_unique<EcoEngine>(
          place_spec(suite_spec(options_.eco_design), pipeline),
          std::move(forest), std::move(explainer), eco_options);
    } catch (const std::exception& e) {
      return {StatusCode::kInvalid,
              std::string("server: --eco-design failed: ") + e.what()};
    }
  }

  if (options_.socket_path.empty()) return Status::ok_status();  // stdio mode

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return {StatusCode::kInvalid,
            "server: socket path too long: " + options_.socket_path};
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return {StatusCode::kIoError,
            std::string("server: socket: ") + std::strerror(errno)};
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a dead run
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const Status status{StatusCode::kIoError,
                        "server: bind/listen on " + options_.socket_path +
                            ": " + std::strerror(errno)};
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  return Status::ok_status();
}

void Server::run() {
  if (options_.socket_path.empty()) {
    // stdio mode: one implicit connection on fds 0/1; connection_loop
    // returns on EOF or a shutdown request.
    connection_loop(-1);
  } else {
    accept_thread_ = std::thread([this] { accept_loop(); });
    std::unique_lock<std::mutex> lock(shutdown_mu_);
    shutdown_cv_.wait(lock, [this] { return stopping_.load(); });
  }
  teardown();
}

void Server::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    stopping_.store(true);
  }
  shutdown_cv_.notify_all();
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    // A signal-context shutdown (SIGINT/SIGTERM) is promoted to the real
    // mutex+cv request here, off signal context.
    if (shutdown_pending_.exchange(false)) {
      request_shutdown();
      break;
    }
    apply_pending_reload();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;

    std::lock_guard<std::mutex> lock(connections_mu_);
    // Reap connections whose loops already finished (client hung up).
    std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
      if (!c->done.load()) return false;
      if (c->thread.joinable()) c->thread.join();
      ::close(c->fd);
      return true;
    });
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    Connection* raw = connection.get();
    connection->thread = std::thread([this, raw] {
      connection_loop(raw->fd);
      // Deliver EOF to the client now (a poisoned stream must not dangle
      // until daemon exit); the fd itself is closed by the reaper/teardown
      // after join, so there is no double-close window.
      ::shutdown(raw->fd, SHUT_RDWR);
      raw->done.store(true);
    });
    connections_.push_back(std::move(connection));
  }
}

void Server::apply_pending_reload() {
  // Runs on the accept loop (or the stdio loop), off signal context; the
  // old model drains behind the in-flight batches that still hold it.
  if (!reload_pending_.exchange(false)) return;
  const Status status = registry_.reload();
  obs::counter_add("serve/sighup_reloads");
  if (!status.ok()) obs::note_set("serve/reload_error", status.to_string());
}

void Server::connection_loop(int fd) {
  // fd < 0 selects stdio mode: read fd 0, write fd 1.
  const int in_fd = fd < 0 ? 0 : fd;
  const int out_fd = fd < 0 ? 1 : fd;
  for (;;) {
    if (fd < 0) apply_pending_reload();
    StatusOr<std::string> frame = read_frame(in_fd);
    if (!frame.ok()) {
      // kNotFound = clean EOF. Framing damage gets a best-effort typed
      // reply; either way the stream can no longer be trusted, so close.
      if (frame.status().code() == StatusCode::kCorrupt) {
        write_frame(out_fd,
                    encode_response(error_response(
                        0, Verb::kScore, frame.status().code(),
                        frame.status().message())));
      }
      break;
    }
    StatusOr<Request> decoded = decode_request(frame.value());
    if (!decoded.ok()) {
      write_frame(out_fd,
                  encode_response(error_response(
                      peek_request_id(frame.value()), Verb::kScore,
                      decoded.status().code(), decoded.status().message())));
      break;
    }
    Request request = std::move(decoded).value();
    const bool is_shutdown = request.verb == Verb::kShutdown;
    const Response response = dispatch(std::move(request));
    const bool replied = write_frame(out_fd, encode_response(response)).ok();
    if (is_shutdown || !replied) {
      if (is_shutdown) request_shutdown();
      break;
    }
  }
}

Response Server::dispatch(Request request) {
  const std::uint64_t id = request.id;
  const Verb verb = request.verb;
  switch (verb) {
    case Verb::kScore:
    case Verb::kExplain:
    case Verb::kGlobalExplain: {
      const Clock::time_point start = Clock::now();
      Response response = batcher_->submit(std::move(request));
      // global-explain shares the explain window: same engine, same cost.
      (verb == Verb::kScore ? score_latency_ : explain_latency_)
          .record(ms_since(start));
      return response;
    }
    case Verb::kReload: {
      const Status status = registry_.reload(request.text);
      if (!status.ok()) {
        return error_response(id, verb, status.code(), status.message());
      }
      return text_response(id, verb, registry_.current()->version);
    }
    case Verb::kStats:
      return text_response(id, verb, stats_json());
    case Verb::kShutdown:
      return text_response(id, verb, {});
    case Verb::kEco: {
      const Clock::time_point start = Clock::now();
      Response response = serve_eco(request);
      eco_latency_.record(ms_since(start));
      return response;
    }
  }
  return error_response(id, verb, StatusCode::kInvalid, "unknown verb");
}

Response Server::serve_eco(const Request& request) {
  if (eco_ == nullptr) {
    return error_response(request.id, Verb::kEco, StatusCode::kNotFound,
                          "eco: daemon started without --eco-design");
  }
  StatusOr<EcoEdit> edit = parse_eco_edit(request.text);
  if (!edit.ok()) {
    return error_response(request.id, Verb::kEco, edit.status().code(),
                          edit.status().message());
  }

  EcoResult result;
  std::size_t n_cells = 0;
  std::string design_name;
  {
    std::lock_guard<std::mutex> lock(eco_mu_);
    try {
      result = eco_->apply(edit.value());
    } catch (const std::invalid_argument& e) {
      return error_response(request.id, Verb::kEco, StatusCode::kInvalid,
                            std::string("eco: ") + e.what());
    }
    n_cells = eco_->num_cells();
    design_name = eco_->design().name();
  }
  eco_edits_.fetch_add(1, std::memory_order_relaxed);

  obs::JsonValue doc = obs::JsonValue::make_object();
  doc["design"] = design_name;
  doc["cells"] = static_cast<std::uint64_t>(n_cells);
  doc["edit"] = request.text;

  obs::JsonValue stats = obs::JsonValue::make_object();
  stats["dirty_cells"] = static_cast<std::uint64_t>(result.stats.dirty_cells);
  stats["route_dirty_cells"] =
      static_cast<std::uint64_t>(result.stats.route_dirty_cells);
  stats["pattern_reused"] =
      static_cast<std::uint64_t>(result.stats.pattern_reused);
  stats["maze_reused"] = static_cast<std::uint64_t>(result.stats.maze_reused);
  stats["maze_recomputed"] =
      static_cast<std::uint64_t>(result.stats.maze_recomputed);
  stats["rows_rescored"] =
      static_cast<std::uint64_t>(result.stats.rows_rescored);
  doc["stats"] = std::move(stats);

  const auto& feature_names = FeatureSchema::names();
  obs::JsonValue diff = obs::JsonValue::make_object();
  diff["appeared"] = static_cast<std::uint64_t>(result.diff.n_appeared);
  diff["vanished"] = static_cast<std::uint64_t>(result.diff.n_vanished);
  diff["changed"] = static_cast<std::uint64_t>(result.diff.n_changed);
  obs::JsonValue entries = obs::JsonValue::make_array();
  const std::size_t n_on_wire =
      std::min(result.diff.entries.size(), kMaxDiffEntriesOnWire);
  for (std::size_t i = 0; i < n_on_wire; ++i) {
    const HotspotDiffEntry& entry = result.diff.entries[i];
    obs::JsonValue item = obs::JsonValue::make_object();
    item["cell"] = static_cast<std::uint64_t>(entry.cell);
    item["change"] = std::string(change_name(entry.change));
    item["prob_before"] = entry.prob_before;
    item["prob_after"] = entry.prob_after;
    obs::JsonValue deltas = obs::JsonValue::make_array();
    for (const auto& [feature, delta] : entry.shap_deltas) {
      obs::JsonValue pair = obs::JsonValue::make_object();
      pair["feature"] = std::string(feature_names[feature]);
      pair["delta"] = delta;
      deltas.push_back(std::move(pair));
    }
    item["shap_deltas"] = std::move(deltas);
    entries.push_back(std::move(item));
  }
  diff["entries"] = std::move(entries);
  diff["entries_truncated"] = result.diff.entries.size() > n_on_wire;
  doc["diff"] = std::move(diff);

  return text_response(request.id, Verb::kEco, doc.dump(2));
}

void Server::teardown() {
  request_shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  // Drain: every request already enqueued is served before the runner
  // stops; submits arriving after this point get a typed rejection.
  if (batcher_ != nullptr) batcher_->shutdown();
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    for (const auto& connection : connections_) {
      // SHUT_RD unblocks the reader without cutting a reply mid-write.
      ::shutdown(connection->fd, SHUT_RD);
    }
    for (const auto& connection : connections_) {
      if (connection->thread.joinable()) connection->thread.join();
      ::close(connection->fd);
    }
    connections_.clear();
  }
  publish_obs_gauges();
}

std::string Server::stats_json() const { return stats_document().dump(2); }

obs::JsonValue Server::stats_document() const {
  const std::shared_ptr<const ServedModel> model = registry_.current();
  const Batcher::Stats stats =
      batcher_ != nullptr ? batcher_->stats() : Batcher::Stats{};

  obs::JsonValue doc = obs::JsonValue::make_object();
  obs::JsonValue model_json = obs::JsonValue::make_object();
  if (model != nullptr) {
    model_json["version"] = model->version;
    model_json["path"] = model->path;
    model_json["n_features"] = static_cast<std::uint64_t>(model->n_features);
  }
  model_json["swaps"] = registry_.swap_count();
  model_json["retired_alive"] =
      static_cast<std::uint64_t>(registry_.retired_alive());
  doc["model"] = std::move(model_json);

  obs::JsonValue queue = obs::JsonValue::make_object();
  queue["depth"] = static_cast<std::uint64_t>(stats.queue_depth);
  queue["max_depth"] = static_cast<std::uint64_t>(stats.max_queue_depth);
  doc["queue"] = std::move(queue);

  obs::JsonValue requests = obs::JsonValue::make_object();
  requests["received"] = stats.requests;
  requests["replied"] = stats.replies;
  requests["rejected"] = stats.rejected;
  requests["score_rows"] = stats.score_rows;
  requests["explain_rows"] = stats.explain_rows;
  requests["global_explain_rows"] = stats.global_explain_rows;
  doc["requests"] = std::move(requests);

  // Explanation-cache traffic: lifetime counters across model versions from
  // the batcher, plus the occupancy of the *current* model's cache (a hot
  // swap starts a fresh cache, so entries reset while traffic does not).
  obs::JsonValue cache = obs::JsonValue::make_object();
  cache["hits"] = stats.explain_cache_hits;
  cache["misses"] = stats.explain_cache_misses;
  cache["hit_rate"] = stats.explain_cache_hit_rate();
  if (model != nullptr) {
    const ExplanationCacheStats model_cache = model->explain_cache->stats();
    cache["entries"] = static_cast<std::uint64_t>(model_cache.entries);
    cache["capacity"] = static_cast<std::uint64_t>(model_cache.capacity);
  }
  doc["explain_cache"] = std::move(cache);

  obs::JsonValue batch = obs::JsonValue::make_object();
  batch["batches"] = stats.batches;
  obs::JsonValue histogram = obs::JsonValue::make_array();
  for (const std::uint64_t count : stats.batch_rows_histogram) {
    histogram.push_back(count);
  }
  batch["rows_histogram"] = std::move(histogram);
  doc["batch"] = std::move(batch);

  obs::JsonValue latency = obs::JsonValue::make_object();
  const auto verb_latency = [](const LatencyRecorder& recorder) {
    obs::JsonValue entry = obs::JsonValue::make_object();
    entry["count"] = recorder.count();
    entry["p50_ms"] = recorder.percentile(50.0);
    entry["p99_ms"] = recorder.percentile(99.0);
    entry["max_ms"] = recorder.max_ms();
    entry["mean_ms"] = recorder.mean_ms();
    return entry;
  };
  latency["score"] = verb_latency(score_latency_);
  latency["explain"] = verb_latency(explain_latency_);
  latency["eco"] = verb_latency(eco_latency_);
  doc["latency_ms"] = std::move(latency);

  obs::JsonValue eco = obs::JsonValue::make_object();
  eco["resident"] = eco_ != nullptr;
  if (eco_ != nullptr) {
    eco["design"] = options_.eco_design;
    eco["cells"] = static_cast<std::uint64_t>(eco_->num_cells());
    eco["edits"] = eco_edits_.load(std::memory_order_relaxed);
  }
  doc["eco"] = std::move(eco);
  return doc;
}

void Server::publish_obs_gauges() const {
  publish_leaves(stats_document(), "serve");
}

}  // namespace drcshap::serve
