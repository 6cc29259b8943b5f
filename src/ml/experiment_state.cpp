#include "ml/experiment_state.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "util/failpoint.hpp"

namespace drcshap {

namespace {

constexpr std::string_view kCheckpointKind = "checkpoint";

/// Parses all of `text` as a decimal count spelled the one way
/// std::to_string spells it: digits only, no sign, space or leading zero.
bool parse_count(std::string_view text, std::uint64_t* out) {
  if (text.empty() || (text.size() > 1 && text.front() == '0')) return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool unit_name_ok(std::string_view unit) {
  if (unit.empty()) return false;
  for (const char c : unit) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir, std::uint64_t config_digest)
    : dir_(std::move(dir)), config_digest_(config_digest) {
  if (dir_.empty()) {
    throw std::invalid_argument("CheckpointStore: empty directory");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw ArtifactError({StatusCode::kIoError,
                         "CheckpointStore: cannot create " + dir_ + ": " +
                             ec.message()});
  }
}

CheckpointStore CheckpointStore::with_salt(std::string_view salt) const {
  if (!enabled()) return {};
  CheckpointStore out = *this;
  out.config_digest_ =
      DigestBuilder().add(config_digest_).add(salt).value();
  return out;
}

std::string CheckpointStore::unit_path(std::string_view unit) const {
  return dir_ + "/" + std::string(unit) + ".ckpt";
}

StatusOr<std::string> CheckpointStore::load(std::string_view unit) const {
  if (!enabled()) return Status(StatusCode::kNotFound, "checkpointing off");
  if (!unit_name_ok(unit)) {
    return Status(StatusCode::kInvalid,
                  "bad checkpoint unit name '" + std::string(unit) + "'");
  }
  StatusOr<std::string> framed = read_artifact(unit_path(unit), kCheckpointKind);
  if (!framed.ok()) return framed.status();
  const std::string& body = framed.value();
  // First line: "CONFIG <16-hex>\n" pinning the writer's config digest.
  const std::size_t eol = body.find('\n');
  if (eol == std::string::npos || body.compare(0, 7, "CONFIG ") != 0 ||
      eol != 7 + 16) {
    return Status(StatusCode::kCorrupt,
                  "checkpoint " + std::string(unit) + ": bad CONFIG line");
  }
  if (body.substr(7, 16) != digest_hex(config_digest_)) {
    return Status(StatusCode::kStaleConfig,
                  "checkpoint " + std::string(unit) +
                      " was written under a different config/seed digest");
  }
  return body.substr(eol + 1);
}

Status CheckpointStore::store(std::string_view unit,
                              std::string_view payload) const {
  if (!enabled()) return {};
  if (!unit_name_ok(unit)) {
    return {StatusCode::kInvalid,
            "bad checkpoint unit name '" + std::string(unit) + "'"};
  }
  DRCSHAP_FAILPOINT_KEYED("ckpt.store", unit);
  std::string body = "CONFIG " + digest_hex(config_digest_) + "\n";
  body.append(payload);
  const Status status =
      write_artifact_atomic(unit_path(unit), kCheckpointKind, body);
  if (status.ok()) DRCSHAP_FAILPOINT_KEYED("ckpt.committed", unit);
  return status;
}

// ------------------------------------------------- unit payload encodings

std::string encode_dataset_shard(const Dataset& samples) {
  std::string out = "SHARD " + std::to_string(samples.n_features()) + " " +
                    std::to_string(samples.n_rows()) + "\n";
  const auto& x = samples.features_flat();
  const auto& y = samples.labels();
  const auto& g = samples.groups();
  out.reserve(out.size() + x.size() * sizeof(float) + y.size() +
              g.size() * sizeof(std::int32_t));
  out.append(reinterpret_cast<const char*>(x.data()),
             x.size() * sizeof(float));
  out.append(reinterpret_cast<const char*>(y.data()), y.size());
  for (const int group : g) {
    const auto g32 = static_cast<std::int32_t>(group);
    out.append(reinterpret_cast<const char*>(&g32), sizeof(g32));
  }
  return out;
}

StatusOr<Dataset> decode_dataset_shard(std::string_view payload) {
  const auto corrupt = [](const std::string& why) {
    return Status(StatusCode::kCorrupt, "dataset shard: " + why);
  };
  // Header: "SHARD <n_features> <n_rows>\n", spelled exactly as
  // encode_dataset_shard writes it.
  const std::size_t eol = payload.find('\n');
  if (eol == std::string_view::npos) return corrupt("missing header");
  std::string_view header = payload.substr(0, eol);
  constexpr std::string_view kTag = "SHARD ";
  if (!header.starts_with(kTag)) return corrupt("bad header");
  header.remove_prefix(kTag.size());
  const std::size_t space = header.find(' ');
  std::uint64_t n_features = 0, n_rows = 0;
  if (space == std::string_view::npos ||
      !parse_count(header.substr(0, space), &n_features) ||
      !parse_count(header.substr(space + 1), &n_rows)) {
    return corrupt("bad header");
  }
  if (n_features == 0 || n_features > (1u << 20)) {
    return corrupt("implausible feature count " + std::to_string(n_features));
  }
  const std::size_t body_size = payload.size() - eol - 1;
  const std::size_t per_row =
      n_features * sizeof(float) + 1 + sizeof(std::int32_t);
  // Bound n_rows before multiplying so a corrupt header cannot overflow the
  // size arithmetic (or drive a giant allocation below).
  if (n_rows > body_size / per_row + 1 || body_size != n_rows * per_row) {
    return corrupt("size mismatch: " + std::to_string(body_size) +
                   " body bytes for " + std::to_string(n_rows) + " rows");
  }
  const char* x_bytes = payload.data() + eol + 1;
  const char* y_bytes = x_bytes + n_rows * n_features * sizeof(float);
  const char* g_bytes = y_bytes + n_rows;

  Dataset out(n_features);
  std::vector<float> row(n_features);
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::memcpy(row.data(), x_bytes + r * n_features * sizeof(float),
                n_features * sizeof(float));
    for (const float v : row) {
      if (!std::isfinite(v)) return corrupt("non-finite feature value");
    }
    const unsigned char label =
        static_cast<unsigned char>(y_bytes[r]);
    if (label > 1) return corrupt("label out of range");
    std::int32_t group = 0;
    std::memcpy(&group, g_bytes + r * sizeof(group), sizeof(group));
    out.append_row(row, label, group);
  }
  return out;
}

std::string encode_score(double score, bool scored) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(score));
  std::memcpy(&bits, &score, sizeof(bits));
  return "SCORE " + digest_hex(bits) + " " + (scored ? "1" : "0") + "\n";
}

Status decode_score(std::string_view payload, double* score, bool* scored) {
  // "SCORE <16 lowercase hex> <0|1>\n", spelled exactly as encode_score
  // writes it.
  constexpr std::string_view kTag = "SCORE ";
  constexpr std::size_t kHexDigits = 16;
  const std::size_t flag_at = kTag.size() + kHexDigits + 1;
  if (payload.size() != flag_at + 2 || !payload.starts_with(kTag) ||
      payload[flag_at - 1] != ' ' ||
      (payload[flag_at] != '0' && payload[flag_at] != '1') ||
      payload.back() != '\n') {
    return {StatusCode::kCorrupt, "score checkpoint: bad payload"};
  }
  std::uint64_t bits = 0;
  for (const char c : payload.substr(kTag.size(), kHexDigits)) {
    int digit = 0;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return {StatusCode::kCorrupt, "score checkpoint: bad hex digit"};
    }
    bits = (bits << 4) | static_cast<std::uint64_t>(digit);
  }
  std::memcpy(score, &bits, sizeof(bits));
  *scored = payload[flag_at] == '1';
  if (*scored && std::isnan(*score)) {
    return {StatusCode::kCorrupt, "score checkpoint: NaN score"};
  }
  return {};
}

std::uint64_t dataset_digest(const Dataset& data) {
  DigestBuilder digest;
  digest.add(static_cast<std::uint64_t>(data.n_features()));
  const auto& x = data.features_flat();
  digest.add_bytes(x.data(), x.size() * sizeof(float));
  const auto& y = data.labels();
  digest.add_bytes(y.data(), y.size());
  const auto& g = data.groups();
  digest.add_bytes(g.data(), g.size() * sizeof(int));
  return digest.value();
}

}  // namespace drcshap
