// Tests for the serving layer (src/serve): wire protocol codecs, model
// registry hot-swap semantics, the request batcher's byte-identity
// guarantee against the direct batch engines, the end-to-end socket
// server, and the multi-process run-report merge that serving adds to obs.
//
// The two load-bearing guarantees of ISSUE 7 live here:
//   * a batched reply is byte-identical to running the same request alone
//     through predict_proba_all / shap_values_batch (ScoreMatchesDirect*,
//     ConcurrentSubmitsByteIdentical), and
//   * a hot swap never tears a request across model versions and never
//     drops in-flight work (HotSwapUnderLoadNeverTears — run under TSan in
//     the sanitizers CI job).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "benchsuite/pipeline.hpp"
#include "core/explanation.hpp"
#include "core/model_io.hpp"
#include "features/feature_names.hpp"
#include "core/random_forest.hpp"
#include "core/tree_shap.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "serve/batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace drcshap::serve {
namespace {

/// Per-process scratch path under /tmp for the fixtures. ctest runs every
/// test in its own process, several at once, so tests of one fixture
/// sharing a fixed path would remove or overwrite each other's model files
/// and sockets.
std::string tmp_path(const std::string& name) {
  return "/tmp/drcshap_serve_" + std::to_string(::getpid()) + "_" + name;
}

RandomForestClassifier train_forest(std::uint64_t seed,
                                    std::size_t n_features = 6,
                                    int n_trees = 12) {
  Dataset data(n_features);
  Rng rng(seed);
  std::vector<float> row(n_features);
  for (int i = 0; i < 300; ++i) {
    for (float& value : row) value = static_cast<float>(rng.uniform());
    data.append_row(row, row[0] + row[1] > 1.0f ? 1 : 0);
  }
  RandomForestOptions options;
  options.n_trees = n_trees;
  options.seed = seed;
  options.n_threads = 1;
  RandomForestClassifier forest(options);
  forest.fit(data);
  return forest;
}

std::vector<float> random_rows(std::uint64_t seed, std::size_t n_rows,
                               std::size_t n_features) {
  Rng rng(seed);
  std::vector<float> features(n_rows * n_features);
  for (float& value : features) value = static_cast<float>(rng.uniform());
  return features;
}

Request matrix_request(std::uint64_t id, Verb verb, std::uint32_t n_rows,
                       std::uint32_t n_features, std::vector<float> features) {
  Request request;
  request.id = id;
  request.verb = verb;
  request.n_rows = n_rows;
  request.n_features = n_features;
  request.features = std::move(features);
  return request;
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ScoreRequestRoundTrip) {
  const Request request =
      matrix_request(42, Verb::kScore, 3, 2, {1.f, 2.f, 3.f, 4.f, 5.f, 6.f});
  const auto decoded = decode_request(encode_request(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().id, 42u);
  EXPECT_EQ(decoded.value().verb, Verb::kScore);
  EXPECT_EQ(decoded.value().n_rows, 3u);
  EXPECT_EQ(decoded.value().n_features, 2u);
  EXPECT_EQ(decoded.value().features, request.features);
}

TEST(ServeProtocol, ControlRequestRoundTrip) {
  for (const Verb verb : {Verb::kStats, Verb::kShutdown}) {
    Request request;
    request.id = 7;
    request.verb = verb;
    const auto decoded = decode_request(encode_request(request));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().verb, verb);
  }
  Request reload;
  reload.id = 8;
  reload.verb = Verb::kReload;
  reload.text = "/models/new.forest";
  const auto decoded = decode_request(encode_request(reload));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().text, "/models/new.forest");
}

TEST(ServeProtocol, ResponseRoundTrip) {
  Response response;
  response.id = 9;
  response.verb = Verb::kExplain;
  response.n_rows = 2;
  response.n_features = 3;
  response.base_value = 0.25;
  response.values = {1.0, -2.0, 3.0, 4.0, -5.0, 6.0};
  const auto decoded = decode_response(encode_response(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().base_value, 0.25);
  EXPECT_EQ(decoded.value().values, response.values);

  const Response error =
      error_response(10, Verb::kScore, StatusCode::kNotFound, "no model");
  const auto decoded_error = decode_response(encode_response(error));
  ASSERT_TRUE(decoded_error.ok());
  EXPECT_EQ(decoded_error.value().status, StatusCode::kNotFound);
  EXPECT_EQ(decoded_error.value().message, "no model");
}

TEST(ServeProtocol, GlobalExplainRoundTrip) {
  // Request side: same matrix payload as score/explain.
  const Request request = matrix_request(55, Verb::kGlobalExplain, 2, 3,
                                         {1.f, 2.f, 3.f, 4.f, 5.f, 6.f});
  const auto decoded_request = decode_request(encode_request(request));
  ASSERT_TRUE(decoded_request.ok()) << decoded_request.status().to_string();
  EXPECT_EQ(decoded_request.value().verb, Verb::kGlobalExplain);
  EXPECT_EQ(decoded_request.value().features, request.features);

  // Reply side: kGlobalStatRows stat rows of n_features doubles
  // (mean |phi|, signed mean, positive fraction), n_rows = rows aggregated.
  Response response;
  response.id = 55;
  response.verb = Verb::kGlobalExplain;
  response.n_rows = 2;
  response.n_features = 3;
  response.base_value = 0.125;
  response.values = {0.5, 0.25, 0.125, -0.5, 0.25, 0.0, 0.0, 1.0, 0.5};
  ASSERT_EQ(response.values.size(), kGlobalStatRows * response.n_features);
  const auto decoded = decode_response(encode_response(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().n_rows, 2u);
  EXPECT_EQ(decoded.value().base_value, 0.125);
  EXPECT_EQ(decoded.value().values, response.values);
}

TEST(ServeProtocol, EcoRoundTrip) {
  Request request;
  request.id = 77;
  request.verb = Verb::kEco;
  request.text = "move 2 1.5 -0.5";
  const auto decoded_request = decode_request(encode_request(request));
  ASSERT_TRUE(decoded_request.ok()) << decoded_request.status().to_string();
  EXPECT_EQ(decoded_request.value().verb, Verb::kEco);
  EXPECT_EQ(decoded_request.value().text, request.text);

  Response response;
  response.id = 77;
  response.verb = Verb::kEco;
  response.text = "{\"diff\": {\"appeared\": 1}}";
  const auto decoded = decode_response(encode_response(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().verb, Verb::kEco);
  EXPECT_EQ(decoded.value().text, response.text);

  const Response error = error_response(78, Verb::kEco, StatusCode::kInvalid,
                                        "eco: unknown edit op 'wiggle'");
  const auto decoded_error = decode_response(encode_response(error));
  ASSERT_TRUE(decoded_error.ok());
  EXPECT_EQ(decoded_error.value().status, StatusCode::kInvalid);
}

TEST(ServeProtocol, RejectsCorruption) {
  const Request request = matrix_request(1, Verb::kScore, 1, 2, {1.f, 2.f});
  const std::string body = encode_request(request);

  // Truncation anywhere inside the body.
  for (const std::size_t len : {std::size_t{0}, std::size_t{5},
                                std::size_t{12}, body.size() - 1}) {
    const auto decoded = decode_request(std::string_view(body).substr(0, len));
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorrupt);
  }
  // Trailing bytes after a well-formed payload.
  EXPECT_EQ(decode_request(body + "x").status().code(), StatusCode::kCorrupt);
  // Unknown verb, preserving the id for the error reply.
  std::string bad_verb = body;
  bad_verb[8] = 99;
  EXPECT_EQ(decode_request(bad_verb).status().code(), StatusCode::kCorrupt);
  EXPECT_EQ(peek_request_id(bad_verb), 1u);
  // A hostile row count must fail the range check, not allocate.
  Request huge = request;
  huge.n_rows = kMaxRowsPerRequest + 1;
  EXPECT_EQ(decode_request(encode_request(huge)).status().code(),
            StatusCode::kCorrupt);
}

TEST(ServeProtocol, FrameIoOverPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(write_frame(fds[1], "hello").ok());
  const auto frame = read_frame(fds[0]);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value(), "hello");

  // Clean close at a frame boundary is kNotFound (EOF), not an error...
  ::close(fds[1]);
  EXPECT_EQ(read_frame(fds[0]).status().code(), StatusCode::kNotFound);
  ::close(fds[0]);

  // ...but close mid-frame is kCorrupt.
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t claimed = 100;
  ASSERT_EQ(::write(fds[1], &claimed, sizeof(claimed)), 4);
  ASSERT_EQ(::write(fds[1], "abc", 3), 3);
  ::close(fds[1]);
  EXPECT_EQ(read_frame(fds[0]).status().code(), StatusCode::kCorrupt);
  ::close(fds[0]);
}

// ---------------------------------------------------------------- registry

TEST(ServeRegistry, LoadPublishesVersionedModel) {
  const std::string path = "/tmp/drcshap_serve_registry.forest";
  save_forest_file(train_forest(11), path);

  ModelRegistry registry;
  ASSERT_TRUE(registry.load(path).ok());
  const auto model = registry.current();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->n_features, 6u);
  EXPECT_EQ(model->path, path);
  // version = "<basename>#<16-hex-digit digest>"
  EXPECT_EQ(model->version.find("drcshap_serve_registry.forest#"), 0u);
  EXPECT_EQ(model->version.size(),
            std::string("drcshap_serve_registry.forest#").size() + 16);
  std::remove(path.c_str());
}

TEST(ServeRegistry, FailedLoadKeepsCurrentModel) {
  const std::string path = "/tmp/drcshap_serve_registry_keep.forest";
  save_forest_file(train_forest(12), path);

  ModelRegistry registry;
  EXPECT_FALSE(registry.load("/tmp/drcshap_serve_nonexistent").ok());
  EXPECT_EQ(registry.current(), nullptr);

  ASSERT_TRUE(registry.load(path).ok());
  const auto before = registry.current();
  EXPECT_FALSE(registry.reload("/tmp/drcshap_serve_nonexistent").ok());
  EXPECT_EQ(registry.current(), before);  // old model keeps serving
  std::remove(path.c_str());
}

TEST(ServeRegistry, ReloadRetiresAndDrains) {
  const std::string path = "/tmp/drcshap_serve_registry_swap.forest";
  save_forest_file(train_forest(13), path);

  ModelRegistry registry;
  ASSERT_TRUE(registry.load(path).ok());
  auto in_flight = registry.current();  // a batch holding a snapshot

  ASSERT_TRUE(registry.reload().ok());  // SIGHUP-style in-place re-read
  EXPECT_EQ(registry.swap_count(), 1u);
  EXPECT_NE(registry.current(), in_flight);
  // The retired model is pinned by the in-flight snapshot...
  EXPECT_EQ(registry.retired_alive(), 1u);
  // ...and drains the moment the last holder lets go.
  in_flight.reset();
  EXPECT_EQ(registry.retired_alive(), 0u);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- batcher

struct BatcherFixture : ::testing::Test {
  void SetUp() override {
    path = tmp_path("batcher.forest");
    save_forest_file(train_forest(21), path);
    ASSERT_TRUE(registry.load(path).ok());
  }
  void TearDown() override { std::remove(path.c_str()); }

  std::string path;
  ModelRegistry registry;
};

TEST_F(BatcherFixture, ScoreMatchesDirectEngineExactly) {
  Batcher batcher(registry, {});

  const std::vector<float> features = random_rows(31, 5, 6);
  const Response response =
      batcher.submit(matrix_request(1, Verb::kScore, 5, 6, features));
  ASSERT_EQ(response.status, StatusCode::kOk) << response.message;

  // The batcher scores on the production (kAuto) backend; the exact walk is
  // the oracle both must match.
  const auto model = registry.current();
  for (const ForestEngine engine :
       {ForestEngine::kAuto, ForestEngine::kExact}) {
    SCOPED_TRACE(forest_engine_name(engine));
    const std::vector<double> direct = model->forest.predict_proba_all(
        std::span<const float>(features), 5, engine);
    ASSERT_EQ(response.values.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(response.values[i], direct[i]) << "row " << i;  // bytes
    }
  }
}

TEST_F(BatcherFixture, ExplainMatchesDirectEngineExactly) {
  Batcher batcher(registry, {});

  const std::vector<float> features = random_rows(32, 4, 6);
  const Response response =
      batcher.submit(matrix_request(2, Verb::kExplain, 4, 6, features));
  ASSERT_EQ(response.status, StatusCode::kOk) << response.message;

  TreeShapExplainer explainer = registry.current()->explainer;
  const ShapMatrix direct =
      explainer.shap_values_batch(std::span<const float>(features), 4, 1);
  EXPECT_EQ(response.base_value, explainer.base_value());
  ASSERT_EQ(response.values.size(), direct.values.size());
  for (std::size_t i = 0; i < direct.values.size(); ++i) {
    EXPECT_EQ(response.values[i], direct.values[i]) << "phi " << i;
  }
}

TEST_F(BatcherFixture, GlobalExplainMatchesDirectSummary) {
  Batcher batcher(registry, {});

  constexpr std::uint32_t kRows = 6;
  const std::vector<float> features = random_rows(36, kRows, 6);
  const Response response = batcher.submit(
      matrix_request(5, Verb::kGlobalExplain, kRows, 6, features));
  ASSERT_EQ(response.status, StatusCode::kOk) << response.message;
  EXPECT_EQ(response.n_rows, kRows);
  EXPECT_EQ(response.n_features, 6u);
  ASSERT_EQ(response.values.size(), kGlobalStatRows * 6u);

  TreeShapExplainer explainer = registry.current()->explainer;
  GlobalShapSummary direct(6);
  direct.add(explainer.shap_values_batch(std::span<const float>(features),
                                         kRows, 1));
  EXPECT_EQ(response.base_value, explainer.base_value());
  for (std::size_t f = 0; f < 6; ++f) {
    EXPECT_EQ(response.values[f], direct.mean_abs(f)) << "mean_abs " << f;
    EXPECT_EQ(response.values[6 + f], direct.mean_signed(f)) << "signed " << f;
    EXPECT_EQ(response.values[12 + f], direct.positive_fraction(f))
        << "pos_frac " << f;
  }
  EXPECT_EQ(batcher.stats().global_explain_rows, kRows);
}

TEST_F(BatcherFixture, ExplainCacheCountersAccumulateInStats) {
  Batcher batcher(registry, {});

  const std::vector<float> features = random_rows(37, 4, 6);
  const Request request = matrix_request(6, Verb::kExplain, 4, 6, features);
  ASSERT_EQ(batcher.submit(request).status, StatusCode::kOk);
  const Batcher::Stats cold = batcher.stats();
  EXPECT_EQ(cold.explain_cache_hits, 0u);
  EXPECT_EQ(cold.explain_cache_misses, 4u);

  // Same rows again: every row hits the served model's cache.
  ASSERT_EQ(batcher.submit(request).status, StatusCode::kOk);
  const Batcher::Stats warm = batcher.stats();
  EXPECT_EQ(warm.explain_cache_hits, 4u);
  EXPECT_EQ(warm.explain_cache_misses, 4u);
  EXPECT_DOUBLE_EQ(warm.explain_cache_hit_rate(), 0.5);
}

TEST_F(BatcherFixture, HotSwapGetsFreshExplanationCache) {
  Batcher batcher(registry, {});

  const std::vector<float> features = random_rows(38, 3, 6);
  const Request request = matrix_request(7, Verb::kExplain, 3, 6, features);
  ASSERT_EQ(batcher.submit(request).status, StatusCode::kOk);
  const auto cache_before = registry.current()->explain_cache;
  ASSERT_NE(cache_before, nullptr);
  EXPECT_EQ(cache_before->stats().misses, 3u);

  // Reload: the new ServedModel owns a brand-new, empty cache — stale phi
  // rows retire with the old model instead of poisoning the new one.
  ASSERT_TRUE(registry.reload().ok());
  const auto cache_after = registry.current()->explain_cache;
  ASSERT_NE(cache_after, nullptr);
  EXPECT_NE(cache_after.get(), cache_before.get());
  EXPECT_EQ(cache_after->stats().entries, 0u);

  // Batcher-level counters are lifetime totals and survive the swap.
  ASSERT_EQ(batcher.submit(request).status, StatusCode::kOk);
  const Batcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.explain_cache_misses, 6u);
}

TEST_F(BatcherFixture, ConcurrentSubmitsAreByteIdenticalToSolo) {
  // A long flush window plus concurrent clients forces real coalescing:
  // requests land in shared batches at arbitrary row offsets, and each
  // reply must still equal the solo run bit for bit.
  BatchOptions options;
  options.max_batch_rows = 64;
  options.flush_us = 1000;
  Batcher batcher(registry, options);

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequests = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t r = 0; r < kRequests; ++r) {
        const std::uint32_t n_rows = 1 + (c + r) % 5;
        const std::vector<float> features =
            random_rows(100 * c + r, n_rows, 6);
        const Verb verb = (c + r) % 2 == 0 ? Verb::kScore : Verb::kExplain;
        const Response response = batcher.submit(
            matrix_request(c * 100 + r, verb, n_rows, 6, features));
        if (response.status != StatusCode::kOk) {
          ++mismatches;
          continue;
        }
        std::vector<double> expected;
        if (verb == Verb::kScore) {
          expected = registry.current()->forest.predict_proba_all(
              std::span<const float>(features), n_rows, ForestEngine::kAuto);
        } else {
          TreeShapExplainer explainer = registry.current()->explainer;
          expected = explainer
                         .shap_values_batch(std::span<const float>(features),
                                            n_rows, 1)
                         .values;
        }
        if (response.values != expected) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  const Batcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, kClients * kRequests);
  EXPECT_EQ(stats.replies, kClients * kRequests);
  // Coalescing actually happened: fewer batches than requests.
  EXPECT_LT(stats.batches, stats.requests);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(BatcherFixture, FeatureCountMismatchIsTypedInvalid) {
  Batcher batcher(registry, {});
  const Response response = batcher.submit(
      matrix_request(3, Verb::kScore, 2, 4, random_rows(33, 2, 4)));
  EXPECT_EQ(response.status, StatusCode::kInvalid);
  EXPECT_NE(response.message.find("4"), std::string::npos);
}

TEST_F(BatcherFixture, SubmitAfterShutdownIsRejected) {
  Batcher batcher(registry, {});
  batcher.shutdown();
  const Response response = batcher.submit(
      matrix_request(4, Verb::kScore, 1, 6, random_rows(34, 1, 6)));
  EXPECT_EQ(response.status, StatusCode::kInvalid);
  EXPECT_EQ(batcher.stats().rejected, 1u);
}

TEST_F(BatcherFixture, HotSwapUnderLoadNeverTears) {
  // Clients hammer the batcher while the main thread keeps swapping
  // between two models. Every reply must exactly equal one of the two
  // models' full answers — a mixed (torn) reply fails, as does a dropped
  // one. This is the TSan target for the swap/drain machinery.
  const std::string path_b = tmp_path("batcher_b.forest");
  save_forest_file(train_forest(22), path_b);

  BatchOptions options;
  options.max_batch_rows = 32;
  options.flush_us = 300;
  Batcher batcher(registry, options);

  constexpr std::uint32_t kRows = 3;
  const std::vector<float> features = random_rows(35, kRows, 6);
  const std::vector<double> expected_a =
      registry.current()->forest.predict_proba_all(
          std::span<const float>(features), kRows, ForestEngine::kAuto);
  const std::vector<double> expected_b =
      load_forest_file(path_b).predict_proba_all(
          std::span<const float>(features), kRows, ForestEngine::kAuto);
  ASSERT_NE(expected_a, expected_b);  // the swap must be observable

  std::atomic<bool> stop{false};
  std::atomic<int> bad_replies{0};
  std::atomic<std::uint64_t> replies{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < 4; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t id = c * 10'000;
      while (!stop.load()) {
        const Response response = batcher.submit(matrix_request(
            ++id, Verb::kScore, kRows, 6, features));
        if (response.status != StatusCode::kOk ||
            (response.values != expected_a &&
             response.values != expected_b)) {
          ++bad_replies;
        }
        ++replies;
      }
    });
  }
  for (int swap = 0; swap < 20; ++swap) {
    ASSERT_TRUE(registry.reload(swap % 2 == 0 ? path_b : path).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  batcher.shutdown();

  EXPECT_EQ(bad_replies.load(), 0);
  EXPECT_GT(replies.load(), 0u);
  EXPECT_EQ(registry.swap_count(), 20u);
  // With traffic drained and no snapshots held, every retired model is gone.
  EXPECT_EQ(registry.retired_alive(), 0u);
  std::remove(path_b.c_str());
}

// ------------------------------------------------------------------ server

struct ServeClient {
  explicit ServeClient(const std::string& socket_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
  }
  ~ServeClient() {
    if (fd >= 0) ::close(fd);
  }

  Response call(const Request& request) {
    EXPECT_TRUE(write_frame(fd, encode_request(request)).ok());
    auto frame = read_frame(fd);
    EXPECT_TRUE(frame.ok()) << frame.status().to_string();
    auto decoded = decode_response(frame.value());
    EXPECT_TRUE(decoded.ok()) << decoded.status().to_string();
    Response response = decoded.ok() ? std::move(decoded).value() : Response{};
    EXPECT_EQ(response.id, request.id);
    return response;
  }

  int fd = -1;
};

struct ServerFixture : ::testing::Test {
  void SetUp() override {
    model_path = tmp_path("server.forest");
    socket_path = tmp_path("server.sock");
    save_forest_file(train_forest(41), model_path);
    ServerOptions options;
    options.model_path = model_path;
    options.socket_path = socket_path;
    options.batch.flush_us = 100;
    server = std::make_unique<Server>(options);
    ASSERT_TRUE(server->start().ok());
    runner = std::thread([this] { server->run(); });
  }
  void TearDown() override {
    server->request_shutdown();
    if (runner.joinable()) runner.join();
    server.reset();
    std::remove(model_path.c_str());
  }

  std::string model_path;
  std::string socket_path;
  std::unique_ptr<Server> server;
  std::thread runner;
};

TEST_F(ServerFixture, ScoreAndExplainOverSocketMatchDirectCalls) {
  ServeClient client(socket_path);
  const std::vector<float> features = random_rows(51, 4, 6);

  const Response score =
      client.call(matrix_request(1, Verb::kScore, 4, 6, features));
  ASSERT_EQ(score.status, StatusCode::kOk) << score.message;
  const auto model = server->registry().current();
  const std::vector<double> direct = model->forest.predict_proba_all(
      std::span<const float>(features), 4, ForestEngine::kAuto);
  EXPECT_EQ(score.values, direct);  // byte-identical through the wire

  const Response explain =
      client.call(matrix_request(2, Verb::kExplain, 4, 6, features));
  ASSERT_EQ(explain.status, StatusCode::kOk) << explain.message;
  TreeShapExplainer explainer = model->explainer;
  const ShapMatrix shap =
      explainer.shap_values_batch(std::span<const float>(features), 4, 1);
  EXPECT_EQ(explain.values, shap.values);
  EXPECT_EQ(explain.base_value, explainer.base_value());
}

TEST_F(ServerFixture, StatsReloadAndShutdownVerbs) {
  ServeClient client(socket_path);

  Request stats_request;
  stats_request.id = 1;
  stats_request.verb = Verb::kStats;
  const Response stats = client.call(stats_request);
  ASSERT_EQ(stats.status, StatusCode::kOk);
  const auto doc = obs::JsonValue::parse(stats.text);
  EXPECT_EQ(doc.at("model").at("n_features").as_number(), 6.0);
  EXPECT_EQ(doc.at("model").at("swaps").as_number(), 0.0);
  // The fixture forest quantizes, so batches score on the compiled layout.
  ASSERT_NE(server->registry().current()->forest.compiled(), nullptr);
  EXPECT_EQ(doc.at("model").at("engine").as_string(), "compiled");
  EXPECT_TRUE(doc.at("latency_ms").at("score").contains("p99_ms"));

  // Reload from an explicit path (a retrained model) swaps the version.
  const std::string version_before =
      doc.at("model").at("version").as_string();
  const std::string new_path = tmp_path("server_v2.forest");
  save_forest_file(train_forest(42), new_path);
  Request reload_request;
  reload_request.id = 2;
  reload_request.verb = Verb::kReload;
  reload_request.text = new_path;
  const Response reload = client.call(reload_request);
  ASSERT_EQ(reload.status, StatusCode::kOk) << reload.message;
  EXPECT_NE(reload.text, version_before);
  EXPECT_EQ(server->registry().swap_count(), 1u);
  std::remove(new_path.c_str());

  // Reload from a bad path is a typed error and the daemon keeps serving.
  reload_request.id = 3;
  reload_request.text = "/tmp/drcshap_serve_no_such_model";
  EXPECT_NE(client.call(reload_request).status, StatusCode::kOk);
  const Response still_alive =
      client.call(matrix_request(4, Verb::kScore, 1, 6, random_rows(52, 1, 6)));
  EXPECT_EQ(still_alive.status, StatusCode::kOk);

  // Shutdown: ok reply, then EOF — the daemon drained and closed cleanly.
  Request shutdown_request;
  shutdown_request.id = 5;
  shutdown_request.verb = Verb::kShutdown;
  EXPECT_EQ(client.call(shutdown_request).status, StatusCode::kOk);
  EXPECT_EQ(read_frame(client.fd).status().code(), StatusCode::kNotFound);
  runner.join();  // run() returns once teardown finishes
}

TEST_F(ServerFixture, GlobalExplainAndCacheStatsOverSocket) {
  ServeClient client(socket_path);
  const std::vector<float> features = random_rows(55, 5, 6);

  // Two identical explain calls: the second is served from the model's
  // explanation cache, and the reply must not change a bit.
  const Response cold =
      client.call(matrix_request(1, Verb::kExplain, 5, 6, features));
  ASSERT_EQ(cold.status, StatusCode::kOk) << cold.message;
  const Response warm =
      client.call(matrix_request(2, Verb::kExplain, 5, 6, features));
  ASSERT_EQ(warm.status, StatusCode::kOk);
  EXPECT_EQ(warm.values, cold.values);

  // Global summary over the same rows equals folding the explain reply.
  const Response global =
      client.call(matrix_request(3, Verb::kGlobalExplain, 5, 6, features));
  ASSERT_EQ(global.status, StatusCode::kOk) << global.message;
  ASSERT_EQ(global.values.size(), kGlobalStatRows * 6u);
  GlobalShapSummary expected(6);
  for (std::size_t r = 0; r < 5; ++r) {
    expected.add(std::span<const double>(cold.values.data() + r * 6, 6));
  }
  for (std::size_t f = 0; f < 6; ++f) {
    EXPECT_EQ(global.values[f], expected.mean_abs(f));
    EXPECT_EQ(global.values[6 + f], expected.mean_signed(f));
    EXPECT_EQ(global.values[12 + f], expected.positive_fraction(f));
  }

  // The stats verb surfaces the cache counters.
  Request stats_request;
  stats_request.id = 4;
  stats_request.verb = Verb::kStats;
  const Response stats = client.call(stats_request);
  ASSERT_EQ(stats.status, StatusCode::kOk);
  const auto doc = obs::JsonValue::parse(stats.text);
  const auto& cache = doc.at("explain_cache");
  EXPECT_GE(cache.at("hits").as_number(), 5.0);
  EXPECT_GE(cache.at("misses").as_number(), 5.0);
  EXPECT_GT(cache.at("hit_rate").as_number(), 0.0);
  EXPECT_GE(cache.at("entries").as_number(), 5.0);
  EXPECT_GT(cache.at("capacity").as_number(), 0.0);
  EXPECT_EQ(doc.at("requests").at("global_explain_rows").as_number(), 5.0);
}

TEST_F(ServerFixture, SighupTriggersInPlaceReload) {
  server->notify_sighup();
  // The accept loop applies the reload on its next poll tick (≤200 ms).
  for (int i = 0; i < 50 && server->registry().swap_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server->registry().swap_count(), 1u);
  ServeClient client(socket_path);
  const Response response =
      client.call(matrix_request(1, Verb::kScore, 1, 6, random_rows(53, 1, 6)));
  EXPECT_EQ(response.status, StatusCode::kOk);
}

TEST_F(ServerFixture, CorruptFrameGetsTypedReplyThenClose) {
  ServeClient client(socket_path);
  // Valid frame, garbage body: decode fails, the reply carries the typed
  // status (and the id we sent), then the server closes the stream.
  std::string garbage(12, '\xff');
  const std::uint64_t id = 77;
  std::memcpy(garbage.data(), &id, sizeof(id));
  ASSERT_TRUE(write_frame(client.fd, garbage).ok());
  const auto frame = read_frame(client.fd);
  ASSERT_TRUE(frame.ok());
  const auto decoded = decode_response(frame.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status, StatusCode::kCorrupt);
  EXPECT_EQ(decoded.value().id, 77u);
  EXPECT_EQ(read_frame(client.fd).status().code(), StatusCode::kNotFound);
}

TEST_F(ServerFixture, OversizedRequestIsRejectedNotServed) {
  ServeClient client(socket_path);
  Request huge = matrix_request(6, Verb::kScore, 2, 6, random_rows(54, 2, 6));
  std::string body = encode_request(huge);
  // Lie about n_rows in the encoded body (offset 9: after id + verb).
  const std::uint32_t rows = kMaxRowsPerRequest + 1;
  std::memcpy(body.data() + 9, &rows, sizeof(rows));
  ASSERT_TRUE(write_frame(client.fd, body).ok());
  const auto frame = read_frame(client.fd);
  ASSERT_TRUE(frame.ok());
  const auto decoded = decode_response(frame.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().status, StatusCode::kCorrupt);
}

TEST_F(ServerFixture, EcoWithoutResidentDesignIsTypedNotFound) {
  ServeClient client(socket_path);
  Request request;
  request.id = 9;
  request.verb = Verb::kEco;
  request.text = "move 0 1.0 0.0";
  const Response response = client.call(request);
  EXPECT_EQ(response.status, StatusCode::kNotFound);
  // The daemon keeps serving after the typed rejection.
  const Response score = client.call(
      matrix_request(10, Verb::kScore, 1, 6, random_rows(56, 1, 6)));
  EXPECT_EQ(score.status, StatusCode::kOk);
}

// Socket server with a resident ECO design: a pipeline-schema model is
// trained once (fft_2, scaled), and every test serves edits against a
// resident scaled bridge32_a.
struct EcoServerFixture : ::testing::Test {
  static void SetUpTestSuite() {
    PipelineOptions options;
    options.generator.scale = 16.0;
    Dataset train(FeatureSchema::kNumFeatures, FeatureSchema::names());
    train.append(run_pipeline(suite_spec("fft_2"), options).samples);
    RandomForestOptions forest_options;
    forest_options.n_trees = 25;
    RandomForestClassifier forest(forest_options);
    forest.fit(train);
    save_forest_file(forest, model_path());
  }
  static void TearDownTestSuite() { std::remove(model_path().c_str()); }

  void SetUp() override {
    socket_path = tmp_path("eco.sock");
    ServerOptions options;
    options.model_path = model_path();
    options.socket_path = socket_path;
    options.batch.flush_us = 100;
    options.eco_design = "bridge32_a";
    options.eco_scale = 16.0;
    server = std::make_unique<Server>(options);
    ASSERT_TRUE(server->start().ok());
    runner = std::thread([this] { server->run(); });
  }
  void TearDown() override {
    server->request_shutdown();
    if (runner.joinable()) runner.join();
    server.reset();
  }

  static Request eco_request(std::uint64_t id, std::string text) {
    Request request;
    request.id = id;
    request.verb = Verb::kEco;
    request.text = std::move(text);
    return request;
  }

  static std::string model_path() { return tmp_path("eco.forest"); }
  std::string socket_path;
  std::unique_ptr<Server> server;
  std::thread runner;
};

TEST_F(EcoServerFixture, EditDiffRoundTripOverSocket) {
  ServeClient client(socket_path);
  const Response response = client.call(eco_request(1, "move 0 5.0 0.0"));
  ASSERT_EQ(response.status, StatusCode::kOk) << response.message;

  const auto doc = obs::JsonValue::parse(response.text);
  EXPECT_EQ(doc.at("design").as_string(), "bridge32_a");
  EXPECT_EQ(doc.at("edit").as_string(), "move 0 5.0 0.0");
  EXPECT_GT(doc.at("cells").as_number(), 0.0);
  EXPECT_GT(doc.at("stats").at("dirty_cells").as_number(), 0.0);
  EXPECT_EQ(doc.at("stats").at("rows_rescored").as_number(),
            doc.at("stats").at("dirty_cells").as_number());
  EXPECT_TRUE(doc.at("diff").contains("appeared"));
  EXPECT_TRUE(doc.at("diff").contains("entries"));

  // Second edit against the same resident state: the engine is stateful,
  // so moving the macro back also succeeds and counts as another edit.
  const Response undo = client.call(eco_request(2, "move 0 -5.0 0.0"));
  ASSERT_EQ(undo.status, StatusCode::kOk) << undo.message;

  Request stats_request;
  stats_request.id = 3;
  stats_request.verb = Verb::kStats;
  const Response stats = client.call(stats_request);
  ASSERT_EQ(stats.status, StatusCode::kOk);
  const auto stats_doc = obs::JsonValue::parse(stats.text);
  EXPECT_TRUE(stats_doc.at("eco").at("resident").as_bool());
  EXPECT_EQ(stats_doc.at("eco").at("design").as_string(), "bridge32_a");
  EXPECT_EQ(stats_doc.at("eco").at("edits").as_number(), 2.0);
  EXPECT_TRUE(stats_doc.at("latency_ms").at("eco").contains("p99_ms"));
}

TEST_F(EcoServerFixture, MalformedAndInvalidEditsAreTypedErrors) {
  ServeClient client(socket_path);
  // Parse errors: unknown op, missing operands, trailing garbage.
  for (const char* bad : {"wiggle 3", "move 0", "move 0 1.0 0.0 extra", ""}) {
    const Response response = client.call(eco_request(1, bad));
    EXPECT_EQ(response.status, StatusCode::kInvalid) << bad;
  }
  // Well-formed but semantically invalid: the engine rejects it and the
  // resident state survives.
  const Response unknown_macro =
      client.call(eco_request(2, "move 9999 1.0 0.0"));
  EXPECT_EQ(unknown_macro.status, StatusCode::kInvalid);
  const Response unknown_net = client.call(eco_request(3, "reroute no_such"));
  EXPECT_EQ(unknown_net.status, StatusCode::kInvalid);

  const Response ok = client.call(eco_request(4, "move 0 1.0 0.0"));
  EXPECT_EQ(ok.status, StatusCode::kOk) << ok.message;
}

// --------------------------------------------------- run-report merging

TEST(ServeReport, PerProcessPathEmbedsPid) {
  const std::string path =
      obs::per_process_report_path("/tmp/dir/runreport.json");
  const std::string expected = "/tmp/dir/runreport.pid" +
                               std::to_string(::getpid()) + ".json";
  EXPECT_EQ(path, expected);
  // Extension-less paths get the suffix appended at the end.
  EXPECT_EQ(obs::per_process_report_path("report"),
            "report.pid" + std::to_string(::getpid()));
}

TEST(ServeReport, SiblingScanFindsOnlyMatchingReports) {
  const std::string dir = "/tmp/drcshap_serve_reports";
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/runreport.json";
  const auto write = [](const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);
  };
  write(dir + "/runreport.pid100.json", "{}");
  write(dir + "/runreport.pid200.json", "{}");
  write(dir + "/runreport.json", "{}");       // the base itself: excluded
  write(dir + "/other.pid300.json", "{}");    // different stem: excluded

  const std::vector<std::string> siblings = obs::sibling_report_paths(base);
  ASSERT_EQ(siblings.size(), 2u);
  EXPECT_EQ(siblings[0], dir + "/runreport.pid100.json");
  EXPECT_EQ(siblings[1], dir + "/runreport.pid200.json");
  std::filesystem::remove_all(dir);
}

TEST(ServeReport, MergeSumsCountersAndCombinesTimers) {
  auto mine = obs::JsonValue::parse(R"({
    "tool": "bench_serve",
    "counters": {"serve/requests": 10, "bench/only": 1},
    "gauges": {"shared": 1.5},
    "timers": {"t": {"count": 2, "total_ms": 10.0, "mean_ms": 5.0,
                     "max_ms": 7.0}}
  })");
  const auto theirs = obs::JsonValue::parse(R"({
    "tool": "drcshap_serve",
    "counters": {"serve/requests": 32, "serve/batches": 4},
    "gauges": {"shared": 9.0, "daemon_only": 2.0},
    "notes": {"serve/model": "m#1"},
    "timers": {"t": {"count": 1, "total_ms": 20.0, "mean_ms": 20.0,
                     "max_ms": 20.0},
               "u": {"count": 1, "total_ms": 1.0, "mean_ms": 1.0,
                     "max_ms": 1.0}}
  })");
  obs::merge_run_report(mine, theirs);

  EXPECT_EQ(mine.at("counters").at("serve/requests").as_number(), 42.0);
  EXPECT_EQ(mine.at("counters").at("bench/only").as_number(), 1.0);
  EXPECT_EQ(mine.at("counters").at("serve/batches").as_number(), 4.0);
  // Gauges: the merging process keeps its own on collision, adopts the rest.
  EXPECT_EQ(mine.at("gauges").at("shared").as_number(), 1.5);
  EXPECT_EQ(mine.at("gauges").at("daemon_only").as_number(), 2.0);
  EXPECT_EQ(mine.at("notes").at("serve/model").as_string(), "m#1");
  // Timers: counts/totals sum, mean recomputed, max maxed.
  const auto& timer = mine.at("timers").at("t");
  EXPECT_EQ(timer.at("count").as_number(), 3.0);
  EXPECT_EQ(timer.at("total_ms").as_number(), 30.0);
  EXPECT_EQ(timer.at("mean_ms").as_number(), 10.0);
  EXPECT_EQ(timer.at("max_ms").as_number(), 20.0);
  EXPECT_EQ(mine.at("timers").at("u").at("count").as_number(), 1.0);
  ASSERT_TRUE(mine.at("merged_from").is_array());
  EXPECT_EQ(mine.at("merged_from").as_array()[0].as_string(),
            "drcshap_serve");
}

// The span overload the batcher rides must agree with the Dataset one the
// offline pipeline uses — same rows, same engine, same bytes.
TEST(ServeEngine, SpanOverloadMatchesDatasetOverload) {
  const RandomForestClassifier forest = train_forest(61);
  const std::vector<float> features = random_rows(62, 7, 6);
  Dataset data(6);
  for (std::size_t i = 0; i < 7; ++i) {
    data.append_row(std::span<const float>(features).subspan(i * 6, 6), 0);
  }
  for (const ForestEngine engine :
       {ForestEngine::kExact, ForestEngine::kCompiled}) {
    const std::vector<double> via_span = forest.predict_proba_all(
        std::span<const float>(features), 7, engine);
    const std::vector<double> via_dataset =
        forest.predict_proba_all(data, engine);
    EXPECT_EQ(via_span, via_dataset);
  }
}

}  // namespace
}  // namespace drcshap::serve
