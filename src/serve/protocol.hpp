#pragma once
// Wire protocol of the drcshap_serve daemon: length-prefixed binary frames
// over a Unix stream socket (or stdin/stdout in --stdio mode).
//
//   frame    := u32le body_bytes, body
//   request  := u64le request_id, u8 verb, payload
//   response := u64le request_id, u8 verb, u8 status, payload
//
// Score/explain payloads carry a row-major float32 feature matrix; replies
// carry float64 probabilities / SHAP values, so a reply is bit-comparable
// to a direct predict_proba_all / shap_values_batch call on the same rows.
// Every error is a typed Status reply (the StatusCode taxonomy of
// util/artifact.hpp), never a silently dropped connection: a client can
// branch on kInvalid (its own bad request) vs kNotFound (no model loaded)
// vs kCorrupt (framing damage) the same way checkpoint recovery does.
//
// Integers and floats are little-endian host representation; the daemon
// and its clients target the same x86-64 hosts as the rest of the repo
// (enforced by a static_assert in protocol.cpp).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/artifact.hpp"

namespace drcshap::serve {

/// One byte on the wire. Values are part of the protocol — never renumber.
enum class Verb : std::uint8_t {
  kScore = 1,     ///< probabilities for a feature-matrix payload
  kExplain = 2,   ///< SHAP values (+ base value) for a feature matrix
  kReload = 3,    ///< hot-swap the model (payload: path, empty = re-read)
  kStats = 4,     ///< JSON snapshot of queue/batch/latency/model state
  kShutdown = 5,  ///< drain in-flight work, then stop the daemon
  /// Streaming global aggregation of a feature matrix: the reply carries
  /// per-feature mean |SHAP|, signed mean, and positive fraction instead of
  /// the full n_rows x n_features phi matrix — O(features) on the wire no
  /// matter how many rows were aggregated.
  kGlobalExplain = 6,
  /// Incremental ECO round trip against the daemon's resident design state
  /// (started with --eco-design). The request text carries one edit command
  /// ("move M DX DY" | "resize M XLO YLO XHI YHI" | "reroute NET[,NET...]");
  /// the reply text is a JSON document with the re-route/re-score stats and
  /// the before/after hotspot diff, including per-cell top-k SHAP deltas.
  kEco = 7,
};

std::string_view verb_name(Verb verb);

/// Hard caps a decoder enforces before allocating: a corrupt or hostile
/// length field must produce a typed kCorrupt, not a multi-GiB allocation.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 28;
inline constexpr std::uint32_t kMaxRowsPerRequest = 1u << 20;
inline constexpr std::uint32_t kMaxFeaturesPerRow = 1u << 20;

struct Request {
  std::uint64_t id = 0;
  Verb verb = Verb::kScore;
  // kScore / kExplain / kGlobalExplain: row-major n_rows x n_features
  // float matrix.
  std::uint32_t n_rows = 0;
  std::uint32_t n_features = 0;
  std::vector<float> features;
  // kReload: model artifact path ("" = reload the current path).
  // kEco: one edit command line.
  std::string text;
};

/// Body bytes of an ok kExplain reply: id, verb, status, n_rows,
/// n_features, base_value, then the n_rows x n_features float64 phi matrix.
/// The batcher refuses an explain whose reply would exceed kMaxFrameBytes
/// before it computes anything, since write_frame could never send it.
constexpr std::size_t explain_reply_bytes(std::uint32_t n_rows,
                                          std::uint32_t n_features) {
  return sizeof(std::uint64_t) + 2 * sizeof(std::uint8_t) +
         2 * sizeof(std::uint32_t) + sizeof(double) +
         std::size_t{n_rows} * n_features * sizeof(double);
}

/// Stat-row count of a kGlobalExplain reply: its `values` payload is
/// kGlobalStatRows x n_features doubles — mean |SHAP|, signed mean, and
/// positive fraction per feature, in that row order.
inline constexpr std::uint32_t kGlobalStatRows = 3;

struct Response {
  std::uint64_t id = 0;
  Verb verb = Verb::kScore;
  StatusCode status = StatusCode::kOk;
  std::string message;  ///< non-ok: one-line diagnosis
  // kScore: values = n_rows probabilities. kExplain: values = row-major
  // n_rows x n_features SHAP matrix, base_value = E[f(x)]. kGlobalExplain:
  // n_rows = rows aggregated, values = kGlobalStatRows x n_features stats.
  std::uint32_t n_rows = 0;
  std::uint32_t n_features = 0;
  double base_value = 0.0;
  std::vector<double> values;
  // kReload: served model version. kStats: stats JSON document.
  // kEco: JSON diff document.
  std::string text;
};

/// Shorthand for the error-reply shape every dispatch path uses.
Response error_response(std::uint64_t id, Verb verb, StatusCode code,
                        std::string message);

// ------------------------------------------------------------ body codecs

std::string encode_request(const Request& request);
std::string encode_response(const Response& response);

/// Strict decoders: any truncation, trailing bytes, size mismatch, or
/// unknown verb/status is kCorrupt.
StatusOr<Request> decode_request(std::string_view body);
StatusOr<Response> decode_response(std::string_view body);

/// Best-effort request id of a body that failed to decode (first 8 bytes),
/// so a kCorrupt reply can still be routed to the request that caused it.
std::uint64_t peek_request_id(std::string_view body);

// ------------------------------------------------------------- fd framing

/// Writes one length-prefixed frame, looping over partial writes/EINTR.
Status write_frame(int fd, std::string_view body);

/// Reads one frame body. kNotFound = clean EOF at a frame boundary (peer
/// closed), kCorrupt = EOF mid-frame or an oversized length prefix,
/// kIoError = read(2) failure.
StatusOr<std::string> read_frame(int fd);

}  // namespace drcshap::serve
