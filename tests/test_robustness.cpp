// Robustness layer: crash-safe artifact I/O, checkpoint/resume for the
// experiment loops, and the deterministic fault-injection harness. The
// Failpoints.*, Recovery.* and Quarantine.* tests arm failpoints from code;
// every build compiles them in.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "core/random_forest.hpp"
#include "ml/cross_validation.hpp"
#include "ml/experiment_state.hpp"
#include "ml/grid_search.hpp"
#include "obs/registry.hpp"
#include "util/artifact.hpp"
#include "util/csv.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "decoder_fuzz.hpp"

namespace drcshap {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory, removed on destruction.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             ("drcshap_rob_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------------ Artifact

TEST(Artifact, FrameRoundTripBinaryPayload) {
  std::string payload = "line1\nline2\n";
  payload.push_back('\0');
  payload += "\nFNV1A decoy trailer\n";  // payload may contain trailer text
  const std::string framed = frame_artifact("demo", payload);
  const StatusOr<std::string> back = unframe_artifact(framed, "demo");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), payload);
}

TEST(Artifact, UnframeRejectsWrongKind) {
  const std::string framed = frame_artifact("forest", "payload");
  const auto back = unframe_artifact(framed, "checkpoint");
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kCorrupt);
  // The message names both kinds so the error is actionable.
  EXPECT_NE(back.status().message().find("forest"), std::string::npos);
  EXPECT_NE(back.status().message().find("checkpoint"), std::string::npos);
}

TEST(Artifact, UnframeRejectsEveryTruncationAndBitFlip) {
  std::string payload;
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    payload.push_back(static_cast<char>(rng.uniform_int(0, 255)));
  }
  const std::string framed = frame_artifact("blob", payload);
  for (std::size_t len = 0; len < framed.size(); len += 97) {
    const auto got = unframe_artifact(framed.substr(0, len), "blob");
    EXPECT_FALSE(got.ok()) << "truncation to " << len << " bytes";
    EXPECT_EQ(got.status().code(), StatusCode::kCorrupt);
  }
  for (std::size_t i = 0; i < framed.size(); i += 97) {
    std::string flipped = framed;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x04);
    const auto got = unframe_artifact(flipped, "blob");
    EXPECT_FALSE(got.ok()) << "bit flip at byte " << i;
  }
}

TEST(Artifact, WriteReadFileAtomicRoundTrip) {
  const TempDir dir("atomic");
  const std::string path = dir.path() + "/report.json";
  ASSERT_TRUE(write_file_atomic(path, "{\"v\":1}").ok());
  const auto first = read_file(path);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), "{\"v\":1}");
  // Overwrite is atomic too: afterwards only the new content exists and no
  // temp files are left behind.
  ASSERT_TRUE(write_file_atomic(path, "{\"v\":2}").ok());
  EXPECT_EQ(read_file(path).value(), "{\"v\":2}");
  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  const auto missing = read_file(dir.path() + "/nope.json");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(Artifact, StatusOrThrowsTypedErrorOnValue) {
  const StatusOr<std::string> err =
      Status(StatusCode::kStaleConfig, "old digest");
  ASSERT_FALSE(err.ok());
  try {
    (void)err.value();
    FAIL() << "value() on error must throw";
  } catch (const ArtifactError& e) {
    EXPECT_EQ(e.code(), StatusCode::kStaleConfig);
    EXPECT_NE(std::string(e.what()).find("old digest"), std::string::npos);
  }
  const StatusOr<std::string> fine = std::string("v");
  EXPECT_TRUE(fine.ok());
  EXPECT_EQ(fine.value(), "v");
}

TEST(Artifact, DigestBuilderSeparatesFields) {
  const auto d1 = DigestBuilder().add("ab").add("c").value();
  const auto d2 = DigestBuilder().add("a").add("bc").value();
  EXPECT_NE(d1, d2);
  const auto d3 = DigestBuilder().add(std::uint64_t{7}).value();
  const auto d4 = DigestBuilder().add(std::int64_t{7}).value();
  EXPECT_NE(d3, d4);  // type tags keep same-bytes fields apart
  EXPECT_EQ(digest_hex(d1).size(), 16u);
  EXPECT_EQ(digest_hex(0), "0000000000000000");
}

// ---------------------------------------------------------------- Checkpoint

TEST(Checkpoint, DisabledStoreMissesAndNoOps) {
  const CheckpointStore off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.load("unit").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(off.store("unit", "payload").ok());
  EXPECT_FALSE(off.with_salt("x").enabled());
}

TEST(Checkpoint, StoreLoadRoundTrip) {
  const TempDir dir("ckpt");
  const CheckpointStore store(dir.path(), 0xabcdefULL);
  EXPECT_EQ(store.load("design0").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(store.store("design0", "bytes\x01\x02").ok());
  const auto back = store.load("design0");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back.value(), "bytes\x01\x02");
  EXPECT_TRUE(fs::exists(store.unit_path("design0")));
}

TEST(Checkpoint, RejectsBadUnitNames) {
  const TempDir dir("ckpt_names");
  const CheckpointStore store(dir.path(), 1);
  for (const char* bad : {"", "../escape", "a/b", "sp ace"}) {
    EXPECT_EQ(store.load(bad).status().code(), StatusCode::kInvalid) << bad;
    EXPECT_EQ(store.store(bad, "x").code(), StatusCode::kInvalid) << bad;
  }
}

TEST(Checkpoint, StaleConfigDetected) {
  const TempDir dir("ckpt_stale");
  const CheckpointStore writer(dir.path(), 1);
  ASSERT_TRUE(writer.store("fold-0", "score").ok());
  const CheckpointStore reader(dir.path(), 2);  // different config/seed
  const auto got = reader.load("fold-0");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kStaleConfig);
  // The original writer still reads it back.
  EXPECT_TRUE(writer.load("fold-0").ok());
}

TEST(Checkpoint, CorruptUnitReported) {
  const TempDir dir("ckpt_corrupt");
  const CheckpointStore store(dir.path(), 3);
  ASSERT_TRUE(store.store("unit", "payload").ok());
  const std::string path = store.unit_path("unit");
  // Garbage replacing the artifact.
  spit(path, "not an artifact at all");
  EXPECT_EQ(store.load("unit").status().code(), StatusCode::kCorrupt);
  // A torn (truncated) artifact.
  ASSERT_TRUE(store.store("unit", "payload").ok());
  const std::string bytes = slurp(path);
  spit(path, bytes.substr(0, bytes.size() - 5));
  EXPECT_EQ(store.load("unit").status().code(), StatusCode::kCorrupt);
}

TEST(Checkpoint, WithSaltSeparatesDigests) {
  const TempDir dir("ckpt_salt");
  const CheckpointStore base(dir.path(), 9);
  const CheckpointStore salted = base.with_salt("{trees=100}");
  EXPECT_NE(salted.config_digest(), base.config_digest());
  ASSERT_TRUE(base.store("unit", "base payload").ok());
  // The salted store sees the base store's unit as stale, not as its own.
  EXPECT_EQ(salted.load("unit").status().code(), StatusCode::kStaleConfig);
}

TEST(Checkpoint, DatasetShardRoundTripIsBitExact) {
  Dataset d(3);
  Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    d.append_row(
        std::vector<float>{static_cast<float>(rng.normal(0.0, 1.0)),
                           std::numeric_limits<float>::denorm_min(),
                           -0.0f},
        i % 2, i % 5);
  }
  const auto back = decode_dataset_shard(encode_dataset_shard(d));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  const Dataset& out = back.value();
  ASSERT_EQ(out.n_rows(), d.n_rows());
  EXPECT_EQ(out.features_flat(), d.features_flat());
  EXPECT_EQ(out.labels(), d.labels());
  EXPECT_EQ(out.groups(), d.groups());
  EXPECT_EQ(dataset_digest(out), dataset_digest(d));
}

TEST(Checkpoint, DatasetShardRejectsDamage) {
  Dataset d(2);
  d.append_row(std::vector<float>{1.0f, 2.0f}, 1, 0);
  const std::string good = encode_dataset_shard(d);
  EXPECT_FALSE(decode_dataset_shard("no header").ok());
  EXPECT_FALSE(decode_dataset_shard("SHARD 2 9999\n").ok());  // size mismatch
  // Label byte out of range.
  std::string bad_label = good;
  bad_label[bad_label.size() - sizeof(std::int32_t) - 1] = 7;
  EXPECT_FALSE(decode_dataset_shard(bad_label).ok());
  // A feature smashed to NaN.
  std::string bad_float = good;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(bad_float.data() + good.find('\n') + 1, &nan, sizeof(nan));
  EXPECT_FALSE(decode_dataset_shard(bad_float).ok());
}

TEST(Checkpoint, ScoreRoundTripIsBitExact) {
  for (const double v : {0.3, -0.0, std::numeric_limits<double>::denorm_min(),
                         0.12345678901234567, 1.0}) {
    double score = 99.0;
    bool scored = false;
    ASSERT_TRUE(decode_score(encode_score(v, true), &score, &scored).ok());
    EXPECT_TRUE(scored);
    std::uint64_t in_bits = 0, out_bits = 0;
    std::memcpy(&in_bits, &v, sizeof(v));
    std::memcpy(&out_bits, &score, sizeof(score));
    EXPECT_EQ(in_bits, out_bits);
  }
  double score = 99.0;
  bool scored = true;
  ASSERT_TRUE(decode_score(encode_score(0.0, false), &score, &scored).ok());
  EXPECT_FALSE(scored);
  EXPECT_FALSE(decode_score("SCORE zz 1", &score, &scored).ok());
  EXPECT_FALSE(decode_score("bogus", &score, &scored).ok());
}

// --------------------------------------------------------- checkpoint fuzz
//
// Seeded fuzzing of the two checkpoint payload decoders
// (tests/decoder_fuzz.hpp), starting from valid encodings, plus hostile
// header fields.

StatusOr<std::string> reencode_shard(std::string_view payload) {
  const StatusOr<Dataset> shard = decode_dataset_shard(payload);
  if (!shard.ok()) return shard.status();
  return encode_dataset_shard(shard.value());
}

StatusOr<std::string> reencode_score(std::string_view payload) {
  double score = 0.0;
  bool scored = false;
  const Status status = decode_score(payload, &score, &scored);
  if (!status.ok()) return status;
  return encode_score(score, scored);
}

TEST(Checkpoint, DatasetShardDecoderIsTotalAndRoundTrips) {
  Dataset shard(3);
  Rng rng(23);
  for (int i = 0; i < 4; ++i) {
    shard.append_row(
        std::vector<float>{static_cast<float>(rng.normal(0.0, 1.0)),
                           std::numeric_limits<float>::denorm_min(), -0.0f},
        i % 2, i - 2);
  }
  const std::string good = encode_dataset_shard(shard);
  Rng fuzz_rng(2);
  for (const std::string& payload : {good, encode_dataset_shard(Dataset(2))}) {
    SCOPED_TRACE(::testing::PrintToString(payload));
    fuzz::truncations_and_flips(payload, fuzz_rng, reencode_shard);
  }

  // Hostile header fields in front of the valid 4-row, 3-feature body.
  const std::string body = good.substr(good.find('\n') + 1);
  const std::vector<std::string> counts = {
      "0", "1", "3", "4", "5", "1048576", "1048577", "4294967296",
      "18446744073709551615", "18446744073709551616", "-4", "+4", "04",
      "4 ", " 4", "\t4", "4x", ""};
  for (const std::string& n_features : counts) {
    for (const std::string& n_rows : counts) {
      const std::string header = "SHARD " + n_features + " " + n_rows;
      SCOPED_TRACE(header);
      const bool ok =
          fuzz::reencodes_exactly(header + "\n" + body, reencode_shard);
      EXPECT_EQ(ok, n_features == "3" && n_rows == "4");
    }
  }
  for (const std::string header :
       {"SHARD\t3 4", "SHARD 3\t4", "SHARD  3 4", " SHARD 3 4", "SHARD 3 4 x",
        "SHARD 3 4\r", "shard 3 4", "SHARD 3 4 5"}) {
    SCOPED_TRACE(header);
    EXPECT_FALSE(
        fuzz::reencodes_exactly(header + ("\n" + body), reencode_shard));
  }
}

TEST(Checkpoint, ScoreDecoderIsTotalAndRoundTrips) {
  const std::vector<std::string> payloads = {
      encode_score(0.3, true), encode_score(-0.0, false),
      encode_score(std::numeric_limits<double>::quiet_NaN(), false),
      encode_score(std::numeric_limits<double>::denorm_min(), true)};
  Rng rng(payloads.size());
  for (const std::string& payload : payloads) {
    SCOPED_TRACE(payload);
    fuzz::truncations_and_flips(payload, rng, reencode_score);
  }

  // The encoding has one spelling: "SCORE <16 lowercase hex> <0|1>\n".
  const std::string hex = payloads[0].substr(6, 16);
  std::string upper = hex;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  for (const std::string& bad :
       {"SCORE\t" + hex + " 1\n", "SCORE " + hex + "\t1\n",
        "SCORE  " + hex + " 1\n", " SCORE " + hex + " 1\n",
        "SCORE " + hex + " 1 \n", "SCORE " + hex + " 01\n",
        "SCORE " + hex + " +1\n", "SCORE " + hex + " 1x\n",
        "SCORE " + hex + " 1\r\n", "SCORE " + hex + " 1\nSCORE",
        "SCORE " + upper + " 1\n", "SCORE " + hex + "0 1\n",
        "SCORE " + hex + " 2\n"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(fuzz::reencodes_exactly(bad, reencode_score));
  }
}

// -------------------------------------------------------- checkpoint resume

PipelineOptions tiny_pipeline() {
  PipelineOptions options;
  options.generator.scale = 16.0;
  return options;
}

std::vector<BenchmarkSpec> three_designs() {
  return {suite_spec("fft_1"), suite_spec("fft_2"), suite_spec("des_perf_1")};
}

std::uint64_t suite_config_digest(const PipelineOptions& options) {
  // Enough of the config for these tests: scale + the spec list is fixed.
  return DigestBuilder()
      .add("suite-build")
      .add(options.generator.scale)
      .value();
}

TEST(Resume, SuiteBuildReusesCommittedShards) {
  const PipelineOptions options = tiny_pipeline();
  const auto specs = three_designs();
  const Dataset uninterrupted = build_suite_dataset(specs, options, nullptr, 1);

  const TempDir dir("suite_resume");
  const CheckpointStore store(dir.path(), suite_config_digest(options));
  SuiteBuildControl control;
  control.checkpoint = &store;

  std::size_t fresh = 0;
  const auto count_fresh = [&](const DesignRun&) { ++fresh; };
  const Dataset first =
      build_suite_dataset(specs, options, control, count_fresh, 1);
  EXPECT_EQ(fresh, specs.size());
  EXPECT_EQ(dataset_digest(first), dataset_digest(uninterrupted));

  // Second run: everything is resumed from shards, nothing recomputed.
  fresh = 0;
  const Dataset resumed =
      build_suite_dataset(specs, options, control, count_fresh, 1);
  EXPECT_EQ(fresh, 0u);
  EXPECT_EQ(resumed.features_flat(), uninterrupted.features_flat());
  EXPECT_EQ(resumed.labels(), uninterrupted.labels());
  EXPECT_EQ(resumed.groups(), uninterrupted.groups());

  // Corrupt one shard: only that design is recomputed, result unchanged.
  const std::string victim = store.unit_path("design1-fft_2");
  ASSERT_TRUE(fs::exists(victim));
  spit(victim, "garbage");
  fresh = 0;
  const Dataset healed =
      build_suite_dataset(specs, options, control, count_fresh, 1);
  EXPECT_EQ(fresh, 1u);
  EXPECT_EQ(dataset_digest(healed), dataset_digest(uninterrupted));

  // A store with a different config digest reuses nothing.
  const CheckpointStore other(dir.path(), 0xdeadULL);
  SuiteBuildControl other_control;
  other_control.checkpoint = &other;
  fresh = 0;
  build_suite_dataset(specs, options, other_control, count_fresh, 1);
  EXPECT_EQ(fresh, specs.size());
}

// --------------------------------------------------- heaviest-first schedule

/// Light designs first, the heaviest (by rip-up time) last: the order a
/// spec-order claim handles worst.
std::vector<BenchmarkSpec> heavy_last_designs() {
  return {suite_spec("bridge32_b"), suite_spec("fft_a"), suite_spec("fft_2"),
          suite_spec("des_perf_1")};
}

std::uint64_t obs_counter(const obs::Snapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// The claim order changes which worker builds which design and when, never
// what is built: the dataset is byte-identical at 1 and 4 threads, and
// on_design still fires in spec order.
TEST(SuiteSchedule, HeavyLastSpecListIsByteIdenticalAcrossWidths) {
  const PipelineOptions options = tiny_pipeline();
  const auto specs = heavy_last_designs();
  std::vector<std::string> seen_serial, seen_parallel;

  obs::reset();
  const Dataset serial = build_suite_dataset(
      specs, options,
      [&](const DesignRun& run) { seen_serial.push_back(run.spec.name); }, 1);
  const Dataset parallel = build_suite_dataset(
      specs, options,
      [&](const DesignRun& run) { seen_parallel.push_back(run.spec.name); },
      4);

  EXPECT_EQ(parallel.features_flat(), serial.features_flat());
  EXPECT_EQ(parallel.labels(), serial.labels());
  EXPECT_EQ(parallel.groups(), serial.groups());
  const std::vector<std::string> spec_order{"bridge32_b", "fft_a", "fft_2",
                                            "des_perf_1"};
  EXPECT_EQ(seen_serial, spec_order);
  EXPECT_EQ(seen_parallel, spec_order);

  if (shared_width(4) > 1) {
    // The probe ran for the 4-thread build and put the heavy design first.
    const obs::Snapshot snap = obs::snapshot();
    ASSERT_TRUE(snap.notes.count("pipeline/claim_order"));
    EXPECT_EQ(snap.notes.at("pipeline/claim_order").rfind("des_perf_1:", 0),
              0u)
        << snap.notes.at("pipeline/claim_order");
    ASSERT_TRUE(snap.timers.count("pipeline/schedule_probe"));
    EXPECT_EQ(snap.timers.at("pipeline/schedule_probe").count, 1u);
  }
}

// At width 1 the claim order cannot matter, so the probe must cost
// nothing: no probe timer, no claim-order note, and a skip counter.
TEST(SuiteSchedule, ProbeSkippedAtWidthOne) {
  const PipelineOptions options = tiny_pipeline();
  obs::reset();
  (void)build_suite_dataset(heavy_last_designs(), options, nullptr, 1);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(obs_counter(snap, "pipeline/schedule_probe_skipped"), 1u);
  EXPECT_FALSE(snap.timers.count("pipeline/schedule_probe"));
  EXPECT_FALSE(snap.notes.count("pipeline/claim_order"));
  EXPECT_EQ(obs_counter(snap, "pipeline/designs"), 4u);

  // A suite build nested inside a parallel region runs inline, so it is
  // width 1 too.
  obs::reset();
  parallel_for_shared(
      2,
      [&](std::size_t i) {
        if (i == 0) {
          (void)build_suite_dataset(heavy_last_designs(), options, nullptr, 4);
        }
      },
      2, 1);
  EXPECT_EQ(obs_counter(obs::snapshot(), "pipeline/schedule_probe_skipped"),
            1u);
}

// Checkpointed designs skip both passes: a full resume neither probes nor
// builds anything, one missing shard is built without a probe, and two
// missing shards are probed and built alone.
TEST(SuiteSchedule, CachedDesignsSkipBothPasses) {
  if (shared_width(4) < 2) GTEST_SKIP() << "shared pool has one worker";
  const PipelineOptions options = tiny_pipeline();
  const auto specs = three_designs();
  const TempDir dir("schedule_cache");
  const CheckpointStore store(dir.path(), suite_config_digest(options));
  SuiteBuildControl control;
  control.checkpoint = &store;
  const Dataset full = build_suite_dataset(specs, options, control, nullptr, 4);

  obs::reset();
  EXPECT_EQ(dataset_digest(
                build_suite_dataset(specs, options, control, nullptr, 4)),
            dataset_digest(full));
  obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(obs_counter(snap, "pipeline/designs"), 0u);
  EXPECT_EQ(obs_counter(snap, "pipeline/schedule_probe_skipped"), 1u);
  EXPECT_FALSE(snap.timers.count("route/global_route"));

  spit(store.unit_path("design1-fft_2"), "garbage");
  obs::reset();
  EXPECT_EQ(dataset_digest(
                build_suite_dataset(specs, options, control, nullptr, 4)),
            dataset_digest(full));
  snap = obs::snapshot();
  EXPECT_EQ(obs_counter(snap, "pipeline/designs"), 1u);
  EXPECT_EQ(obs_counter(snap, "pipeline/schedule_probe_skipped"), 1u);
  EXPECT_EQ(snap.timers.at("route/global_route").count, 1u);

  spit(store.unit_path("design0-fft_1"), "garbage");
  spit(store.unit_path("design1-fft_2"), "garbage");
  obs::reset();
  EXPECT_EQ(dataset_digest(
                build_suite_dataset(specs, options, control, nullptr, 4)),
            dataset_digest(full));
  snap = obs::snapshot();
  EXPECT_EQ(obs_counter(snap, "pipeline/designs"), 2u);
  EXPECT_EQ(obs_counter(snap, "pipeline/schedule_probe_skipped"), 0u);
  // One pattern-only probe route and one full route per rebuilt design.
  EXPECT_EQ(snap.timers.at("route/global_route").count, 4u);
  ASSERT_TRUE(snap.notes.count("pipeline/claim_order"));
  const std::string& claims = snap.notes.at("pipeline/claim_order");
  EXPECT_NE(claims.find("fft_1:"), std::string::npos) << claims;
  EXPECT_NE(claims.find("fft_2:"), std::string::npos) << claims;
  EXPECT_EQ(claims.find("des_perf_1"), std::string::npos) << claims;
}

/// x0 correlates with the label; `n_groups` groups of 120 rows.
Dataset grouped_data(int n_groups = 3, std::uint64_t seed = 4242) {
  Dataset d(3);
  Rng rng(seed);
  for (int g = 0; g < n_groups; ++g) {
    for (int i = 0; i < 120; ++i) {
      const int label = rng.bernoulli(0.25) ? 1 : 0;
      const float x0 = static_cast<float>(label * 2.0 + rng.normal(0.0, 0.8));
      const float x1 = static_cast<float>(rng.normal(0.0, 1.0));
      d.append_row(std::vector<float>{x0, x1, static_cast<float>(g)}, label,
                   g);
    }
  }
  return d;
}

ModelFactory small_forest_factory() {
  return [] {
    RandomForestOptions o;
    o.n_trees = 10;
    o.max_depth = 5;
    return std::make_unique<RandomForestClassifier>(o);
  };
}

TEST(Resume, CvResumesBitIdentical) {
  const Dataset data = grouped_data();
  const std::vector<int> groups{0, 1, 2};
  const auto uninterrupted =
      grouped_cross_validate(small_forest_factory(), data, groups, 1);

  const TempDir dir("cv_resume");
  const CheckpointStore store(dir.path(), dataset_digest(data));
  CvControl control;
  control.checkpoint = &store;
  const auto first = grouped_cross_validate(small_forest_factory(), data,
                                            groups, control, 1);
  EXPECT_EQ(first.fold_auprc, uninterrupted.fold_auprc);
  EXPECT_EQ(first.mean_auprc, uninterrupted.mean_auprc);

  // All folds resumed: the factory must never be called again.
  const ModelFactory forbidden = []() -> std::unique_ptr<BinaryClassifier> {
    throw std::logic_error("resumed CV must not refit");
  };
  const auto resumed =
      grouped_cross_validate(forbidden, data, groups, control, 1);
  EXPECT_EQ(resumed.fold_auprc, uninterrupted.fold_auprc);
  EXPECT_EQ(resumed.mean_auprc, uninterrupted.mean_auprc);

  // Corrupt one fold: exactly that fold is recomputed, bit-identically.
  spit(store.unit_path("fold-1"), "garbage");
  const auto healed = grouped_cross_validate(small_forest_factory(), data,
                                             groups, control, 1);
  EXPECT_EQ(healed.fold_auprc, uninterrupted.fold_auprc);
  EXPECT_EQ(healed.mean_auprc, uninterrupted.mean_auprc);
}

ParamModelFactory grid_factory() {
  return [](const ParamSet& p) {
    RandomForestOptions o;
    o.n_trees = 8;
    o.max_depth = static_cast<int>(p.at("depth"));
    return std::make_unique<RandomForestClassifier>(o);
  };
}

TEST(Resume, GridSearchResumesBitIdentical) {
  const Dataset data = grouped_data();
  const std::vector<int> groups{0, 1, 2};
  const std::map<std::string, std::vector<double>> grid{{"depth", {3.0, 5.0}}};
  const auto uninterrupted = grid_search(grid_factory(), data, groups, grid, 1);

  const TempDir dir("grid_resume");
  const CheckpointStore store(dir.path(), dataset_digest(data));
  const auto first =
      grid_search(grid_factory(), data, groups, grid, 1, &store);
  EXPECT_EQ(first.best_params, uninterrupted.best_params);
  EXPECT_EQ(first.best_score, uninterrupted.best_score);

  const ParamModelFactory forbidden =
      [](const ParamSet&) -> std::unique_ptr<BinaryClassifier> {
    throw std::logic_error("resumed grid search must not refit");
  };
  const auto resumed = grid_search(forbidden, data, groups, grid, 1, &store);
  EXPECT_EQ(resumed.best_params, uninterrupted.best_params);
  EXPECT_EQ(resumed.best_score, uninterrupted.best_score);
  ASSERT_EQ(resumed.evaluations.size(), uninterrupted.evaluations.size());
  for (std::size_t c = 0; c < resumed.evaluations.size(); ++c) {
    EXPECT_EQ(resumed.evaluations[c].second,
              uninterrupted.evaluations[c].second);
  }
}

// ------------------------------------------------------------- fault harness

TEST(Failpoints, SpecParsingRejectsMalformedEntries) {
  EXPECT_THROW(failpoints_configure("nonsense"), std::invalid_argument);
  EXPECT_THROW(failpoints_configure("x=zap@1"), std::invalid_argument);
  EXPECT_THROW(failpoints_configure("x=fail@0"), std::invalid_argument);
  EXPECT_THROW(failpoints_configure("x=fail@abc"), std::invalid_argument);
  failpoints_clear();
}

TEST(Failpoints, FailAtCountFiresFromNthHitOnward) {
  const ScopedFailpoints armed("io.commit=fail@3");
  EXPECT_NO_THROW(failpoint_hit("io.commit"));
  EXPECT_NO_THROW(failpoint_hit("io.commit"));
  // Models a process that dies and stays dead: the 3rd hit and every later
  // one fail.
  EXPECT_THROW(failpoint_hit("io.commit"), FailpointError);
  EXPECT_THROW(failpoint_hit("io.commit"), FailpointError);
  EXPECT_EQ(failpoint_hits("io.commit"), 4u);
  EXPECT_NO_THROW(failpoint_hit("other.site"));  // unrelated names pass
}

TEST(Failpoints, ThrowOnKeyPoisonsOnlyThatKey) {
  const ScopedFailpoints armed("loop.unit=throw@fft_2");
  EXPECT_NO_THROW(failpoint_hit("loop.unit", "fft_1"));
  try {
    failpoint_hit("loop.unit", "fft_2");
    FAIL() << "keyed failpoint must fire";
  } catch (const FailpointError& e) {
    EXPECT_EQ(e.name(), "loop.unit");
  }
  EXPECT_NO_THROW(failpoint_hit("loop.unit", "des_perf_1"));
  EXPECT_NO_THROW(failpoint_hit("loop.unit"));  // unkeyed hit never matches
}

// Only code arms failpoints: a spec in the environment is ignored.
TEST(Failpoints, EnvironmentArmsNothing) {
  ::setenv("DRCSHAP_FAILPOINTS", "x=fail@1", 1);
  EXPECT_NO_THROW(failpoint_hit("x"));
  EXPECT_NO_THROW(DRCSHAP_FAILPOINT("x"));
  ::unsetenv("DRCSHAP_FAILPOINTS");
}

TEST(Failpoints, AtomicCommitKeepsOldContentOnCrash) {
  const TempDir dir("atomic_crash");
  const std::string path = dir.path() + "/model.rf";
  ASSERT_TRUE(write_artifact_atomic(path, "demo", "version 1").ok());
  // Crash the rename of the overwrite: the target keeps version 1 and no
  // temp file survives.
  {
    const ScopedFailpoints armed("artifact.rename=throw@model.rf");
    EXPECT_THROW(
        (void)write_artifact_atomic(path, "demo", "version 2").ok(),
        FailpointError);
  }
  EXPECT_EQ(read_artifact(path, "demo").value(), "version 1");
  // Crash before the temp write: same story.
  {
    const ScopedFailpoints armed("artifact.write_temp=throw@model.rf");
    EXPECT_THROW(
        (void)write_artifact_atomic(path, "demo", "version 3").ok(),
        FailpointError);
  }
  EXPECT_EQ(read_artifact(path, "demo").value(), "version 1");
  EXPECT_EQ(std::distance(fs::directory_iterator(dir.path()),
                          fs::directory_iterator{}),
            1);  // no .tmp litter
}

TEST(Failpoints, CsvCommitKeepsOldContentOnCrash) {
  const TempDir dir("csv_crash");
  const std::string path = dir.path() + "/table.csv";
  {
    CsvWriter writer(path);
    writer.write_row({"version", "1"});
    writer.close();
  }
  const std::string old_bytes = slurp(path);
  // Crash the rename of the overwrite: the target keeps version 1 and the
  // temp file the rows streamed into is gone.
  {
    CsvWriter writer(path);
    writer.write_row({"version", "2"});
    const ScopedFailpoints armed("artifact.rename=throw@table.csv");
    EXPECT_THROW(writer.close(), FailpointError);
  }
  EXPECT_EQ(slurp(path), old_bytes);
  EXPECT_EQ(std::distance(fs::directory_iterator(dir.path()),
                          fs::directory_iterator{}),
            1);  // no .tmp litter
}

TEST(Failpoints, PoolChunkCrashPropagatesWithSiblingsJoined) {
  const ScopedFailpoints armed("pool.chunk=fail@2");
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(512);
  EXPECT_THROW(
      pool.parallel_for(512,
                        [&](std::size_t i) {
                          hits[i].fetch_add(1, std::memory_order_relaxed);
                        }),
      FailpointError);
  // Joined-before-rethrow means touching `hits` here is safe; destroying it
  // on return would be a use-after-free if a sibling strip still ran.
  for (const auto& h : hits) EXPECT_LE(h.load(), 1);
}

// Counts how many times `name` was evaluated during `scenario()` by arming
// a sentinel rule that never fires (counting requires the armed state).
template <typename Fn>
std::uint64_t count_commit_points(std::string_view name, Fn&& scenario) {
  const ScopedFailpoints armed("never.fires=fail@18446744073709551615");
  scenario();
  return failpoint_hits(name);
}

// Kills the build at every commit point of one site, either just before a
// shard commits ("ckpt.store") or just after ("ckpt.committed"), then
// resumes with failpoints disarmed (the "restarted process") and requires
// the resumed dataset to match the uninterrupted one bit for bit. Thread
// counts alternate between serial and the shared pool. Each site is its own
// test, so ctest runs the two sweeps in parallel processes (the failpoint
// registry is global, so kill points cannot share a process concurrently).
void suite_build_kill_sweep(const std::string& site) {
  const PipelineOptions options = tiny_pipeline();
  const auto specs = three_designs();

  const auto build_with = [&](const CheckpointStore& store,
                              std::size_t n_threads) {
    SuiteBuildControl control;
    control.checkpoint = &store;
    return build_suite_dataset(specs, options, control, nullptr, n_threads);
  };

  // Size the kill schedule: how many commit points does a fresh build pass?
  // That build is uninterrupted, and a checkpointed build equals a plain
  // one (Resume.SuiteBuildReusesCommittedShards), so it is the reference.
  std::uint64_t commits = 0;
  std::uint64_t expected = 0;
  {
    const TempDir dir("sweep_count");
    const CheckpointStore store(dir.path(), suite_config_digest(options));
    commits = count_commit_points(
        site, [&] { expected = dataset_digest(build_with(store, 1)); });
  }
  ASSERT_EQ(commits, specs.size());

  for (std::uint64_t k = 1; k <= commits; ++k) {
    const TempDir dir("sweep");
    const CheckpointStore store(dir.path(), suite_config_digest(options));
    const std::size_t n_threads = (k % 2 == 0) ? 0 : 1;
    {
      const ScopedFailpoints armed(site + "=fail@" + std::to_string(k));
      EXPECT_THROW((void)build_with(store, n_threads), FailpointError)
          << site << " kill " << k;
    }
    const Dataset resumed = build_with(store, n_threads);
    EXPECT_EQ(dataset_digest(resumed), expected)
        << "resume after " << site << " kill " << k
        << " (n_threads=" << n_threads << ")";
  }
}

TEST(Recovery, SuiteBuildKillBeforeEveryCommit) {
  suite_build_kill_sweep("ckpt.store");
}

TEST(Recovery, SuiteBuildKillAfterEveryCommit) {
  suite_build_kill_sweep("ckpt.committed");
}

/// "ckpt.store=fail@1" ... "ckpt.store=fail@<commits>", then `extra`: the
/// kill schedule of a sweep.
std::vector<std::string> kill_schedule(std::uint64_t commits,
                                       const std::string& extra) {
  std::vector<std::string> kills;
  for (std::uint64_t k = 1; k <= commits; ++k) {
    kills.push_back("ckpt.store=fail@" + std::to_string(k));
  }
  kills.push_back(extra);
  return kills;
}

TEST(Recovery, CvKillAtEveryCommitPoint) {
  const Dataset data = grouped_data();
  const std::vector<int> groups{0, 1, 2};
  const auto uninterrupted =
      grouped_cross_validate(small_forest_factory(), data, groups, 1);

  const auto cv_with = [&](const CheckpointStore& store) {
    CvControl control;
    control.checkpoint = &store;
    return grouped_cross_validate(small_forest_factory(), data, groups,
                                  control, 1);
  };
  std::uint64_t commits = 0;
  {
    const TempDir dir("cv_count");
    const CheckpointStore store(dir.path(), dataset_digest(data));
    commits =
        count_commit_points("ckpt.store", [&] { (void)cv_with(store); });
  }
  ASSERT_EQ(commits, groups.size());

  // Every commit point, then a fold task that throws before it fits.
  for (const std::string& kill : kill_schedule(commits, "cv.fold=throw@1")) {
    const TempDir dir("cv_sweep");
    const CheckpointStore store(dir.path(), dataset_digest(data));
    {
      const ScopedFailpoints armed(kill);
      EXPECT_THROW((void)cv_with(store), FailpointError) << kill;
    }
    const auto resumed = cv_with(store);
    EXPECT_EQ(resumed.fold_auprc, uninterrupted.fold_auprc) << kill;
    EXPECT_EQ(resumed.mean_auprc, uninterrupted.mean_auprc) << kill;
  }
}

TEST(Recovery, GridSearchKillAtEveryCommitPoint) {
  const Dataset data = grouped_data();
  const std::vector<int> groups{0, 1, 2};
  const std::map<std::string, std::vector<double>> grid{{"depth", {3.0, 5.0}}};
  const auto uninterrupted = grid_search(grid_factory(), data, groups, grid, 1);

  std::uint64_t commits = 0;
  {
    const TempDir dir("grid_count");
    const CheckpointStore store(dir.path(), dataset_digest(data));
    commits = count_commit_points("ckpt.store", [&] {
      (void)grid_search(grid_factory(), data, groups, grid, 1, &store);
    });
  }
  // 2 candidates x (3 folds + 1 candidate score).
  ASSERT_EQ(commits, 8u);

  // Every commit point, then a candidate task that throws before its CV.
  for (const std::string& kill :
       kill_schedule(commits, "grid.candidate=throw@1")) {
    const TempDir dir("grid_sweep");
    const CheckpointStore store(dir.path(), dataset_digest(data));
    {
      const ScopedFailpoints armed(kill);
      EXPECT_THROW(
          (void)grid_search(grid_factory(), data, groups, grid, 1, &store),
          FailpointError)
          << kill;
    }
    const auto resumed =
        grid_search(grid_factory(), data, groups, grid, 1, &store);
    EXPECT_EQ(resumed.best_params, uninterrupted.best_params) << kill;
    EXPECT_EQ(resumed.best_score, uninterrupted.best_score) << kill;
  }
}

TEST(Quarantine, PoisonedDesignIsSkippedAndRecorded) {
  const PipelineOptions options = tiny_pipeline();
  const auto specs = three_designs();
  const Dataset full = build_suite_dataset(specs, options, nullptr, 1);

  obs::reset();
  const ScopedFailpoints armed("pipeline.design=throw@fft_2");
  SuiteBuildControl control;
  control.quarantine_failures = true;
  const Dataset partial =
      build_suite_dataset(specs, options, control, nullptr, 1);

  // fft_2 is spec index 1, so its rows carry group 1: the quarantined build
  // equals the full build minus that group.
  const std::vector<int> gone{1};
  const Dataset reference = full.subset(full.rows_not_in_groups(gone));
  EXPECT_EQ(partial.features_flat(), reference.features_flat());
  EXPECT_EQ(partial.labels(), reference.labels());
  EXPECT_EQ(partial.groups(), reference.groups());

  const obs::Snapshot snap = obs::snapshot();
  ASSERT_TRUE(snap.counters.count("pipeline/designs_quarantined"));
  EXPECT_EQ(snap.counters.at("pipeline/designs_quarantined"), 1u);
  ASSERT_TRUE(snap.notes.count("quarantine/fft_2"));
  EXPECT_NE(snap.notes.at("quarantine/fft_2").find("pipeline.design"),
            std::string::npos);
}

// With the schedule probe on, a design can fail in either pass. It must be
// quarantined exactly once: a design that failed in the probe is never
// built, and the result equals the full build minus the failed groups.
TEST(Quarantine, PoisonedDesignIsQuarantinedOnceInEitherPass) {
  if (shared_width(4) < 2) GTEST_SKIP() << "shared pool has one worker";
  const PipelineOptions options = tiny_pipeline();
  const auto specs = three_designs();
  const Dataset full = build_suite_dataset(specs, options, nullptr, 1);
  SuiteBuildControl control;
  control.quarantine_failures = true;

  // Fails in the probe (pass 1): fft_2 is never built, so the site is hit
  // three times in the probe and twice in the build.
  {
    obs::reset();
    const ScopedFailpoints armed("pipeline.design=throw@fft_2");
    std::vector<std::string> built;
    const Dataset partial = build_suite_dataset(
        specs, options, control,
        [&](const DesignRun& run) { built.push_back(run.spec.name); }, 4);
    EXPECT_EQ(failpoint_hits("pipeline.design"), 5u);
    EXPECT_EQ(built, (std::vector<std::string>{"fft_1", "des_perf_1"}));
    const std::vector<int> gone{1};
    const Dataset reference = full.subset(full.rows_not_in_groups(gone));
    EXPECT_EQ(partial.features_flat(), reference.features_flat());
    EXPECT_EQ(partial.groups(), reference.groups());
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(obs_counter(snap, "pipeline/designs_quarantined"), 1u);
    EXPECT_TRUE(snap.notes.count("quarantine/fft_2"));
  }

  // Fails from the second hit on: two designs fail in the probe, the one
  // that passed it fails in the build (pass 2). Each is quarantined once
  // and the build pass runs only the survivor: 3 + 1 hits.
  {
    obs::reset();
    const ScopedFailpoints armed("pipeline.design=fail@2");
    std::size_t built = 0;
    const Dataset partial = build_suite_dataset(
        specs, options, control, [&](const DesignRun&) { ++built; }, 4);
    EXPECT_EQ(failpoint_hits("pipeline.design"), 4u);
    EXPECT_EQ(built, 0u);
    EXPECT_EQ(partial.n_rows(), 0u);
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(obs_counter(snap, "pipeline/designs_quarantined"), 3u);
    for (const BenchmarkSpec& spec : specs) {
      EXPECT_TRUE(snap.notes.count("quarantine/" + spec.name)) << spec.name;
    }
  }
}

TEST(Quarantine, OffMeansFirstErrorPropagates) {
  const ScopedFailpoints armed("pipeline.design=throw@fft_1");
  EXPECT_THROW((void)build_suite_dataset(three_designs(), tiny_pipeline(),
                                         nullptr, 1),
               FailpointError);
}

}  // namespace
}  // namespace drcshap
