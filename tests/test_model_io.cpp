#include "core/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/tree_shap.hpp"
#include "util/artifact.hpp"
#include "util/rng.hpp"

namespace drcshap {
namespace {

RandomForestClassifier fitted_forest() {
  Dataset d(4);
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    std::vector<float> x(4);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    d.append_row(x, (x[0] > 0.5f && x[1] < 0.7f) ? 1 : 0, 0);
  }
  RandomForestOptions options;
  options.n_trees = 9;
  RandomForestClassifier forest(options);
  forest.fit(d);
  return forest;
}

TEST(ModelIo, RoundTripPredictionsIdentical) {
  const RandomForestClassifier original = fitted_forest();
  std::stringstream buffer;
  save_forest(original, buffer);
  const RandomForestClassifier loaded = load_forest(buffer);

  ASSERT_EQ(loaded.trees().size(), original.trees().size());
  Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> x(4);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    EXPECT_DOUBLE_EQ(loaded.predict_proba(x), original.predict_proba(x));
  }
  EXPECT_EQ(loaded.n_parameters(), original.n_parameters());
}

TEST(ModelIo, RoundTripPreservesShapValues) {
  const RandomForestClassifier original = fitted_forest();
  std::stringstream buffer;
  save_forest(original, buffer);
  const RandomForestClassifier loaded = load_forest(buffer);
  const TreeShapExplainer before(original), after(loaded);
  EXPECT_DOUBLE_EQ(before.base_value(), after.base_value());
  const std::vector<float> x{0.8f, 0.2f, 0.5f, 0.5f};
  const auto phi_a = before.shap_values(x);
  const auto phi_b = after.shap_values(x);
  for (std::size_t f = 0; f < 4; ++f) {
    EXPECT_DOUBLE_EQ(phi_a[f], phi_b[f]);
  }
}

TEST(ModelIo, RoundTripRebuildsIdenticalCompiledLayout) {
  // Loading a saved model must rebuild the compiled inference layout
  // deterministically: same quantization cuts, same breadth-first node
  // arrays, hence the same digest — and byte-identical batch predictions
  // from both engines.
  const RandomForestClassifier original = fitted_forest();
  std::stringstream buffer;
  save_forest(original, buffer);
  const RandomForestClassifier loaded = load_forest(buffer);

  ASSERT_NE(original.compiled(), nullptr);
  ASSERT_NE(loaded.compiled(), nullptr);
  EXPECT_EQ(original.compiled()->layout_digest(),
            loaded.compiled()->layout_digest());

  Dataset eval(4);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    std::vector<float> x(4);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    eval.append_row(x, 0, 0);
  }
  const auto exact = original.predict_proba_all(eval, ForestEngine::kExact);
  const auto compiled = loaded.predict_proba_all(eval, ForestEngine::kAuto);
  ASSERT_EQ(exact.size(), compiled.size());
  EXPECT_TRUE(std::memcmp(exact.data(), compiled.data(),
                          exact.size() * sizeof(double)) == 0);
}

TEST(ModelIo, FileRoundTrip) {
  const RandomForestClassifier original = fitted_forest();
  const std::string path = "/tmp/drcshap_model_test.rf";
  save_forest_file(original, path);
  const RandomForestClassifier loaded = load_forest_file(path);
  const std::vector<float> x{0.5f, 0.5f, 0.5f, 0.5f};
  EXPECT_DOUBLE_EQ(loaded.predict_proba(x), original.predict_proba(x));
  std::remove(path.c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ModelIo, EveryTruncationFailsCleanly) {
  const RandomForestClassifier original = fitted_forest();
  const std::string path = "/tmp/drcshap_model_trunc.rf";
  save_forest_file(original, path);
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 97u);
  for (std::size_t len = 0; len < bytes.size(); len += 97) {
    spit(path, bytes.substr(0, len));
    EXPECT_THROW(load_forest_file(path), ArtifactError)
        << "truncation to " << len << " bytes must not parse";
  }
  spit(path, bytes);  // intact copy still loads
  EXPECT_NO_THROW(load_forest_file(path));
  std::remove(path.c_str());
}

TEST(ModelIo, EveryBitFlipFailsCleanly) {
  const RandomForestClassifier original = fitted_forest();
  const std::string path = "/tmp/drcshap_model_flip.rf";
  save_forest_file(original, path);
  const std::string bytes = slurp(path);
  for (std::size_t i = 0; i < bytes.size(); i += 97) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x40);
    spit(path, flipped);
    // The checksum trailer catches payload damage; the header check catches
    // the rest. Either way: a typed error, never garbage trees or a crash.
    EXPECT_THROW(load_forest_file(path), ArtifactError)
        << "bit flip at byte " << i << " must not parse";
  }
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsUnfittedAndGarbage) {
  RandomForestClassifier unfitted;
  std::stringstream buffer;
  EXPECT_THROW(save_forest(unfitted, buffer), std::logic_error);
  std::stringstream garbage("HELLO WORLD");
  EXPECT_THROW(load_forest(garbage), std::runtime_error);
  std::stringstream truncated("FOREST 2 4\nTREE 3\n0 0.5 1 2 0.4 10\n");
  EXPECT_THROW(load_forest(truncated), std::runtime_error);
  EXPECT_THROW(load_forest_file("/no/such/file.rf"), std::runtime_error);
}

}  // namespace
}  // namespace drcshap
