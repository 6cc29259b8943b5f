// Tests for the serving layer (src/serve): wire protocol codecs, model
// registry hot-swap semantics, the request batcher's byte-identity
// guarantee against the direct batch engines, the end-to-end socket and
// stdio server, and the run report's rendering of the stats ledger.
//
// The two load-bearing guarantees of ISSUE 7 live here:
//   * a batched reply is byte-identical to running the same request alone
//     through predict_proba_all / shap_values_batch (ScoreMatchesDirect*,
//     ConcurrentSubmitsByteIdentical), and
//   * a hot swap never tears a request across model versions and never
//     drops in-flight work (HotSwapUnderLoadNeverTears — run under TSan in
//     the sanitizers CI job).

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <latch>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "benchsuite/pipeline.hpp"
#include "core/explanation.hpp"
#include "core/model_io.hpp"
#include "core/random_forest.hpp"
#include "core/tree_shap.hpp"
#include "features/feature_names.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "serve/batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

#include "decoder_fuzz.hpp"

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
  EXPECT_EQ(encode_response(response).size(), explain_reply_bytes(2, 3));

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

// ------------------------------------------------------------ protocol fuzz
//
// Seeded fuzzing of the two body decoders, starting from a valid encoding
// of every verb's request, ok response and error response.

std::vector<std::string> valid_request_bodies() {
  std::vector<std::string> bodies;
  for (const Verb verb : {Verb::kScore, Verb::kExplain, Verb::kGlobalExplain}) {
    bodies.push_back(encode_request(
        matrix_request(11, verb, 2, 3, {1.f, -2.f, 3.5f, 0.f, 5.f, 6.f})));
  }
  for (const Verb verb :
       {Verb::kReload, Verb::kStats, Verb::kShutdown, Verb::kEco}) {
    for (const char* text : {"", "move 2 1.5 -0.5"}) {
      Request request = matrix_request(12, verb, 0, 0, {});
      request.text = text;
      bodies.push_back(encode_request(request));
    }
  }
  return bodies;
}

std::vector<std::string> valid_response_bodies() {
  std::vector<std::string> bodies;
  for (std::uint8_t v = 1; v <= static_cast<std::uint8_t>(Verb::kEco); ++v) {
    Response response;
    response.id = 21;
    response.verb = static_cast<Verb>(v);
    // A score reply carries n_rows values, an explain reply n_rows x
    // n_features and a global-explain reply kGlobalStatRows x n_features.
    response.n_rows = kGlobalStatRows;
    response.n_features = 2;
    response.base_value = 0.125;
    response.values.assign(
        response.verb == Verb::kScore ? kGlobalStatRows : kGlobalStatRows * 2,
        -0.5);
    response.text = "{\"model\": \"a#01\"}";
    bodies.push_back(encode_response(response));
    bodies.push_back(encode_response(error_response(
        22, response.verb, StatusCode::kInvalid, "feature count mismatch")));
  }
  return bodies;
}

/// Fuzzes a body decoder: every input decodes to a known verb whose
/// encoding is the input again, or is kCorrupt (tests/decoder_fuzz.hpp).
template <typename Decode, typename Encode>
void fuzz_decoder(const std::vector<std::string>& bodies, Decode decode,
                  Encode encode) {
  const auto reencode = [&](std::string_view body) -> StatusOr<std::string> {
    const auto result = decode(body);
    if (!result.ok()) return result.status();
    EXPECT_NE(verb_name(result.value().verb), "unknown");
    return encode(result.value());
  };
  Rng rng(bodies.size());
  for (const std::string& body : bodies) {
    SCOPED_TRACE(::testing::PrintToString(body));
    fuzz::truncations_and_flips(body, rng, reencode);
    // A hostile value in every u32 slot reaches each length and count field.
    for (std::size_t at = 0; at + 4 <= body.size(); ++at) {
      for (const std::uint32_t value :
           {0u, 1u, 3u, 0xffffu, kMaxRowsPerRequest, kMaxRowsPerRequest + 1,
            0xffffffffu, static_cast<std::uint32_t>(rng())}) {
        std::string hostile = body;
        std::memcpy(hostile.data() + at, &value, sizeof(value));
        fuzz::reencodes_exactly(hostile, reencode);
      }
    }
  }
}

TEST(ServeProtocolFuzz, RequestDecoderIsTotalAndRoundTrips) {
  fuzz_decoder(
      valid_request_bodies(),
      [](std::string_view body) { return decode_request(body); },
      [](const Request& request) { return encode_request(request); });
  // A body too damaged to decode still names its request for the reply.
  std::string bad_verb =
      encode_request(matrix_request(7, Verb::kScore, 1, 1, {1.f}));
  bad_verb[8] = 99;
  EXPECT_EQ(peek_request_id(bad_verb), 7u);
}

TEST(ServeProtocolFuzz, ResponseDecoderIsTotalAndRoundTrips) {
  fuzz_decoder(
      valid_response_bodies(),
      [](std::string_view body) { return decode_response(body); },
      [](const Response& response) { return encode_response(response); });
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

  /// The direct engine call a score or explain request must equal.
  std::vector<double> solo(Verb verb, const std::vector<float>& features,
                           std::uint32_t n_rows) const {
    const auto model = registry.current();
    if (verb == Verb::kScore) {
      return model->forest.predict_proba_all(
          std::span<const float>(features), n_rows, ForestEngine::kAuto);
    }
    TreeShapExplainer explainer = model->explainer;
    return explainer
        .shap_values_batch(std::span<const float>(features), n_rows, 1)
        .values;
  }

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
    SCOPED_TRACE(engine == ForestEngine::kAuto ? "auto" : "exact");
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

// A throw inside a batch (here the serve.batch failpoint; in production an
// allocation failure or a pool task's exception) fails that batch's
// requests with typed kFault replies, and the runner keeps serving.
TEST_F(BatcherFixture, BatchFaultIsTypedAndRunnerKeepsServing) {
  Batcher batcher(registry, {});
  const std::vector<float> features = random_rows(35, 4, 6);
  {
    ScopedFailpoints armed("serve.batch=fail@1");
    const Response failed =
        batcher.submit(matrix_request(5, Verb::kExplain, 4, 6, features));
    EXPECT_EQ(failed.status, StatusCode::kFault);
    EXPECT_EQ(failed.id, 5u);
    EXPECT_NE(failed.message.find("serve.batch"), std::string::npos)
        << failed.message;
  }
  const Response response =
      batcher.submit(matrix_request(6, Verb::kExplain, 4, 6, features));
  ASSERT_EQ(response.status, StatusCode::kOk) << response.message;
  const std::vector<double> direct = solo(Verb::kExplain, features, 4);
  ASSERT_EQ(response.values.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(response.values[i], direct[i]) << "phi " << i;  // bytes
  }
  const Batcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.replies, stats.requests);
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
  // Concurrent clients coalesce on their own: whatever queues while the
  // runner serves one batch lands in the next at an arbitrary row offset,
  // and each reply must still equal the solo run bit for bit.
  Batcher batcher(registry, {});

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
        if (response.status != StatusCode::kOk ||
            response.values != solo(verb, features, n_rows)) {
          ++mismatches;
        }
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

TEST_F(BatcherFixture, RequestsQueuedDuringABatchRideTheNextOne) {
  // The runner takes everything queued the moment it is free. Hold it in
  // one large explain batch, release kClients submitters that are already
  // waiting, and every one of them must be served by the second batch,
  // with a reply byte-identical to its solo run.
  Batcher batcher(registry, {});
  constexpr std::uint32_t kBigRows = 4'000;
  std::thread holder([&] {
    const Response response = batcher.submit(matrix_request(
        1, Verb::kExplain, kBigRows, 6, random_rows(900, kBigRows, 6)));
    EXPECT_EQ(response.status, StatusCode::kOk);
  });

  constexpr std::size_t kClients = 8;
  std::latch go(1);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const std::uint32_t n_rows = 1 + c % 3;
      const std::vector<float> features = random_rows(910 + c, n_rows, 6);
      const Verb verb = c % 2 == 0 ? Verb::kScore : Verb::kExplain;
      go.wait();
      const Response response = batcher.submit(
          matrix_request(10 + c, verb, n_rows, 6, features));
      if (response.status != StatusCode::kOk ||
          response.values != solo(verb, features, n_rows)) {
        ++mismatches;
      }
    });
  }
  // The big request is running once it has left the queue.
  for (Batcher::Stats stats = batcher.stats();
       stats.requests == 0 || stats.queue_depth != 0;
       stats = batcher.stats()) {
    std::this_thread::yield();
  }
  go.count_down();
  for (std::thread& thread : threads) thread.join();
  holder.join();
  EXPECT_EQ(mismatches.load(), 0);

  const Batcher::Stats stats = batcher.stats();
  EXPECT_EQ(stats.requests, kClients + 1);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_queue_depth, kClients);
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

  Batcher batcher(registry, {});

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

// Seeded fuzz of the eco edit parser through the eco verb: every
// truncation and random byte flips of valid move, resize and reroute lines.
// Each reply is a typed kOk or kInvalid, only a kOk counts as an edit in
// the stats ledger, and the daemon still answers stats afterwards.
TEST_F(EcoServerFixture, FuzzedEditLinesAreTypedAndLeaveTheLedgerExact) {
  PipelineOptions pipeline;
  pipeline.generator.scale = 16.0;
  const Design design = place_spec(suite_spec("bridge32_a"), pipeline);
  const Rect box = design.macro(1).box;
  char resize[160];
  std::snprintf(resize, sizeof(resize), "resize 1 %.3f %.3f %.3f %.3f",
                box.x_lo, box.y_lo, box.x_hi,
                box.y_lo + 0.75 * (box.y_hi - box.y_lo));
  const std::vector<std::string> valid = {
      "move 0 5.0 0.0", resize,
      "reroute " + design.net(0).name + "," +
          design.net(design.num_nets() / 2).name};

  ServeClient client(socket_path);
  std::uint64_t id = 0;
  const auto edits = [&] {
    Request request;
    request.id = ++id;
    request.verb = Verb::kStats;
    const Response reply = client.call(request);
    EXPECT_EQ(reply.status, StatusCode::kOk);
    return obs::JsonValue::parse(reply.text).at("eco").at("edits").as_number();
  };
  double expected_edits = edits();
  std::size_t n_ok = 0;
  std::size_t n_invalid = 0;
  const auto send = [&](const std::string& text) {
    SCOPED_TRACE(::testing::PrintToString(text));
    const Response reply = client.call(eco_request(++id, text));
    if (reply.status == StatusCode::kOk) {
      ++n_ok;
      ++expected_edits;
    } else {
      EXPECT_EQ(reply.status, StatusCode::kInvalid) << reply.message;
      ++n_invalid;
    }
    EXPECT_EQ(edits(), expected_edits);
  };

  Rng rng(24);
  for (const std::string& line : valid) {
    for (std::size_t len = 0; len <= line.size(); ++len) {
      send(line.substr(0, len));
    }
    for (int trial = 0; trial < 40; ++trial) {
      std::string flipped = line;
      for (std::size_t flips = 1 + rng.index(3); flips > 0; --flips) {
        flipped[rng.index(flipped.size())] ^=
            static_cast<char>(1 + rng.index(255));
      }
      send(flipped);
    }
  }
  // Both outcomes were reached, and the daemon still serves.
  EXPECT_GT(n_ok, 0u);
  EXPECT_GT(n_invalid, 0u);
  EXPECT_EQ(edits(), expected_edits);
}

// The run report is the stats document, leaf for leaf: after score,
// explain, global-explain, reload and eco traffic, every number, bool and
// string of stats_json() reappears as the serve/... gauge or note of its
// path, with the same value, and nothing else does.
TEST_F(EcoServerFixture, RunReportGaugesRenderTheStatsLedger) {
  ServeClient client(socket_path);
  const std::uint32_t n_features = FeatureSchema::kNumFeatures;
  const std::vector<float> rows = random_rows(71, 3, n_features);
  for (const Verb verb : {Verb::kScore, Verb::kExplain, Verb::kGlobalExplain}) {
    const Response reply =
        client.call(matrix_request(1, verb, 3, n_features, rows));
    EXPECT_EQ(reply.status, StatusCode::kOk) << reply.message;
  }
  Request reload;
  reload.id = 2;
  reload.verb = Verb::kReload;
  EXPECT_EQ(client.call(reload).status, StatusCode::kOk);
  const Response edit = client.call(eco_request(3, "move 0 5.0 0.0"));
  EXPECT_EQ(edit.status, StatusCode::kOk) << edit.message;

  const auto doc = obs::JsonValue::parse(server->stats_json());
  EXPECT_EQ(doc.at("requests").at("received").as_number(), 3.0);
  EXPECT_EQ(doc.at("model").at("swaps").as_number(), 1.0);
  EXPECT_EQ(doc.at("eco").at("edits").as_number(), 1.0);
  EXPECT_EQ(doc.at("latency_ms").at("explain").at("count").as_number(), 2.0);
  EXPECT_GT(doc.at("latency_ms").at("eco").at("max_ms").as_number(), 0.0);

  obs::reset();
  server->publish_obs_gauges();
  const obs::Snapshot snap = obs::snapshot();
  std::size_t leaves = 0;
  const std::function<void(const obs::JsonValue&, const std::string&)> check =
      [&](const obs::JsonValue& value, const std::string& name) {
        if (value.is_object()) {
          for (const auto& [key, child] : value.as_object()) {
            check(child, name + "/" + key);
          }
        } else if (value.is_array()) {
          for (std::size_t i = 0; i < value.as_array().size(); ++i) {
            check(value.as_array()[i], name + "/" + std::to_string(i));
          }
        } else if (value.is_string()) {
          ++leaves;
          ASSERT_EQ(snap.notes.count(name), 1u) << name;
          EXPECT_EQ(snap.notes.at(name), value.as_string()) << name;
        } else {
          ++leaves;
          ASSERT_EQ(snap.gauges.count(name), 1u) << name;
          const double expected =
              value.is_bool() ? (value.as_bool() ? 1.0 : 0.0)
                              : value.as_number();
          EXPECT_EQ(snap.gauges.at(name), expected) << name;
        }
      };
  check(doc, "serve");
  EXPECT_EQ(snap.gauges.size() + snap.notes.size(), leaves);
}

// The explanation cache is shared with the resident EcoEngine, so the
// stats verb must count the explain batches' own lookups only: exactly one
// per one-row request, however eco edits on another connection overlap.
TEST_F(EcoServerFixture, ExplainCacheStatsCountOnlyExplainLookups) {
  std::atomic<bool> explaining{true};
  std::atomic<int> edits{0};
  std::thread editor([&] {
    ServeClient eco_client(socket_path);
    for (std::uint64_t id = 1; explaining.load(); ++id) {
      const Response reply = eco_client.call(
          eco_request(id, id % 2 == 1 ? "move 0 5.0 0.0" : "move 0 -5.0 0.0"));
      EXPECT_EQ(reply.status, StatusCode::kOk) << reply.message;
      edits.fetch_add(1);
    }
  });
  ServeClient client(socket_path);
  const std::uint32_t n_features = FeatureSchema::kNumFeatures;
  // Keep explaining distinct rows until several edits ran alongside.
  std::uint64_t n_requests = 0;
  while (n_requests < 2000 && (n_requests < 50 || edits.load() < 6)) {
    const Response reply = client.call(
        matrix_request(n_requests, Verb::kExplain, 1, n_features,
                       random_rows(1000 + n_requests, 1, n_features)));
    EXPECT_EQ(reply.status, StatusCode::kOk) << reply.message;
    ++n_requests;
  }
  explaining.store(false);
  editor.join();
  EXPECT_GT(edits.load(), 0);

  const auto doc = obs::JsonValue::parse(server->stats_json());
  const auto& cache = doc.at("explain_cache");
  EXPECT_EQ(cache.at("hits").as_number() + cache.at("misses").as_number(),
            static_cast<double>(n_requests));
}

/// `drcshap_serve --model <model_path> --stdio` on two pipes, writing its
/// run report to `report_path`.
struct StdioDaemon {
  StdioDaemon(const std::string& model_path, const std::string& report_path) {
    int to_child[2];
    int from_child[2];
    EXPECT_EQ(::pipe2(to_child, O_CLOEXEC), 0);
    EXPECT_EQ(::pipe2(from_child, O_CLOEXEC), 0);

    // Everything the child needs is built before fork: after it, the child
    // only calls dup2, execve and _exit.
    std::vector<std::string> args = {DRCSHAP_SERVE_BIN, "--model", model_path,
                                     "--stdio"};
    std::vector<std::string> env = {"DRCSHAP_RUNREPORT=" + report_path};
    for (char** entry = environ; *entry != nullptr; ++entry) {
      if (std::strncmp(*entry, "DRCSHAP_RUNREPORT=", 18) != 0) {
        env.emplace_back(*entry);
      }
    }
    std::vector<char*> argv;
    std::vector<char*> envp;
    for (std::string& arg : args) argv.push_back(arg.data());
    for (std::string& entry : env) envp.push_back(entry.data());
    argv.push_back(nullptr);
    envp.push_back(nullptr);

    pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      ::dup2(to_child[0], 0);
      ::dup2(from_child[1], 1);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    to_daemon = to_child[1];
    from_daemon = from_child[0];
  }

  /// Sends one request body and decodes its reply.
  Response call(std::string_view body) {
    EXPECT_TRUE(write_frame(to_daemon, body).ok());
    const auto frame = read_frame(from_daemon);
    EXPECT_TRUE(frame.ok()) << frame.status().to_string();
    auto decoded = frame.ok() ? decode_response(frame.value())
                              : StatusOr<Response>(frame.status());
    EXPECT_TRUE(decoded.ok()) << decoded.status().to_string();
    Response response = decoded.ok() ? std::move(decoded).value() : Response{};
    EXPECT_EQ(response.id, peek_request_id(body));
    return response;
  }

  /// Sends kShutdown, checks the reply and the end of the stream, and
  /// returns the daemon's wait status.
  int shut_down(std::uint64_t id) {
    Request request;
    request.id = id;
    request.verb = Verb::kShutdown;
    EXPECT_EQ(call(encode_request(request)).status, StatusCode::kOk);
    EXPECT_EQ(read_frame(from_daemon).status().code(), StatusCode::kNotFound);
    ::close(to_daemon);
    ::close(from_daemon);
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    return status;
  }

  pid_t pid = -1;
  int to_daemon = -1;
  int from_daemon = -1;
};

// --stdio serves one implicit connection on stdin/stdout: a stats frame
// and a shutdown frame each get their reply, the stream then ends, the
// daemon exits 0 and its run report carries the ledger.
TEST(ServeStdio, StatsAndShutdownOverPipes) {
  const std::string model_path = tmp_path("stdio.forest");
  const std::string report_path = tmp_path("stdio_report.json");
  save_forest_file(train_forest(81), model_path);
  StdioDaemon daemon(model_path, report_path);

  Request request;
  request.id = 1;
  request.verb = Verb::kStats;
  const Response stats = daemon.call(encode_request(request));
  EXPECT_EQ(stats.status, StatusCode::kOk) << stats.message;
  ASSERT_FALSE(stats.text.empty());
  EXPECT_EQ(obs::JsonValue::parse(stats.text)
                .at("model")
                .at("n_features")
                .as_number(),
            6.0);
  const int status = daemon.shut_down(2);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  const auto report = obs::JsonValue::parse_file(report_path);
  EXPECT_EQ(report.at("gauges").at("serve/model/n_features").as_number(), 6.0);
  EXPECT_EQ(report.at("notes").at("serve/model/path").as_string(),
            model_path);
  std::remove(report_path.c_str());
  std::remove(model_path.c_str());
}

// An explain whose phi reply could never fit in one frame gets a typed
// kInvalid before any compute, and the same connection then serves a
// 1 000-row explain. Its request (128 MiB of zeros) fits the frame cap;
// only the float64 reply would not. At 6 features no request row count
// (kMaxRowsPerRequest) can overflow the cap, so the model is wider.
TEST(ServeStdio, OversizedExplainReplyIsTypedInvalidAndConnectionSurvives) {
  constexpr std::uint32_t kWide = 64;
  const std::string model_path = tmp_path("wide.forest");
  const std::string report_path = tmp_path("wide_report.json");
  save_forest_file(train_forest(83, kWide, 2), model_path);
  StdioDaemon daemon(model_path, report_path);

  const auto big_rows = static_cast<std::uint32_t>(
      kMaxFrameBytes / (std::size_t{kWide} * sizeof(double)) + 1);
  ASSERT_LE(big_rows, kMaxRowsPerRequest);
  ASSERT_GT(explain_reply_bytes(big_rows, kWide), kMaxFrameBytes);
  {
    // Encode the header alone, then append the zero feature matrix in
    // place: one 128 MiB buffer instead of a vector plus its encoding.
    std::string body = encode_request(
        matrix_request(1, Verb::kExplain, big_rows, kWide, {}));
    body.resize(body.size() + std::size_t{big_rows} * kWide * sizeof(float));
    ASSERT_LE(body.size(), kMaxFrameBytes);
    const Response refused = daemon.call(body);
    EXPECT_EQ(refused.status, StatusCode::kInvalid);
    EXPECT_NE(refused.message.find("frame cap"), std::string::npos)
        << refused.message;
  }

  constexpr std::uint32_t kRows = 1000;
  const std::vector<float> features = random_rows(84, kRows, kWide);
  const Response served = daemon.call(encode_request(
      matrix_request(2, Verb::kExplain, kRows, kWide, features)));
  ASSERT_EQ(served.status, StatusCode::kOk) << served.message;
  const RandomForestClassifier served_forest = load_forest_file(model_path);
  TreeShapExplainer explainer(served_forest);
  const ShapMatrix direct =
      explainer.shap_values_batch(std::span<const float>(features), kRows, 1);
  EXPECT_EQ(served.values, direct.values);

  const int status = daemon.shut_down(3);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::remove(report_path.c_str());
  std::remove(model_path.c_str());
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
       {ForestEngine::kExact, ForestEngine::kAuto}) {
    const std::vector<double> via_span = forest.predict_proba_all(
        std::span<const float>(features), 7, engine);
    const std::vector<double> via_dataset =
        forest.predict_proba_all(data, engine);
    EXPECT_EQ(via_span, via_dataset);
  }
}

}  // namespace
}  // namespace drcshap::serve
