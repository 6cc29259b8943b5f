#pragma once
// Crash-safe artifact I/O: the durability layer every persisted file in the
// repo (models, checkpoints, run reports, CSVs) commits through. Two
// guarantees:
//
//   1. Atomicity — files are written to a same-directory temp name, flushed
//      to disk, and renamed into place, so a reader can never observe a
//      torn (partially written) file: it sees either the old content or the
//      new content, even if the writer dies mid-commit.
//   2. Integrity — artifacts carry a versioned header and an FNV-1a content
//      checksum trailer; loads verify both and fail with a typed,
//      actionable error instead of parsing garbage.
//
// Errors are reported as Status/StatusOr values on the primitive layer so
// recovery code (checkpoint/resume) can branch on the failure class without
// exception plumbing; the public file API that predates this layer
// (model_io) keeps throwing, but now throws ArtifactError, which carries
// the same StatusCode.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace drcshap {

// ------------------------------------------------------------------ Status

/// Failure taxonomy for artifact and checkpoint I/O. Each code names what
/// the caller can do about it (retry, recompute, fix the config, give up).
enum class StatusCode {
  kOk = 0,
  kIoError,      ///< open/write/rename/read failed (disk full, permissions)
  kNotFound,     ///< no artifact at the path (fresh run — compute it)
  kCorrupt,      ///< torn/bit-flipped/malformed content (recompute/restore)
  kStaleConfig,  ///< valid artifact for a different config digest (recompute)
  kInvalid,      ///< caller error (bad argument, schema violation)
  kFault,        ///< internal fault: an injected failpoint fired, or a
                 ///< serve batch threw (out of memory, a worker's error)
};

std::string_view to_string(StatusCode code);

class Status {
 public:
  Status() = default;  // ok
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok_status() { return {}; }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>".
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Exception form of a non-ok Status, for the throwing public APIs.
/// Derives from std::runtime_error so pre-existing catch sites keep working.
class ArtifactError : public std::runtime_error {
 public:
  explicit ArtifactError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}

  StatusCode code() const { return status_.code(); }
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Throws ArtifactError when `status` is not ok.
void throw_if_error(const Status& status);

/// Value-or-Status: the load APIs return this so recovery code can branch
/// on the failure class. Accessing value() on an error throws ArtifactError.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}       // NOLINT(runtime/explicit)
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status(StatusCode::kInvalid, "StatusOr built from ok Status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    if (!ok()) throw ArtifactError(status_);
    return *value_;
  }
  T&& value() && {
    if (!ok()) throw ArtifactError(status_);
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

// ------------------------------------------------------------------ FNV-1a

// Deliberately non-standard offset basis: the FNV-1a standard is
// 0xcbf29ce484222325 (14695981039346656037), and this constant is that
// decimal with its last digit dropped (0x14650fb0739d0383). DRC oracle seeds,
// artifact checksums and every pinned dataset digest depend on it, so it
// stays. This is the repo's one FNV-1a: every digest chains through fnv1a.
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over raw bytes, chainable via `seed` (pass a previous digest).
std::uint64_t fnv1a(const void* data, std::size_t n_bytes,
                    std::uint64_t seed = kFnvOffsetBasis);
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t seed = kFnvOffsetBasis);

/// Incremental digest over heterogeneous fields, for config/seed digests
/// that key checkpoints. Every add() also folds in a type tag + separator so
/// add("ab"),add("c") and add("a"),add("bc") hash differently.
class DigestBuilder {
 public:
  DigestBuilder& add(std::string_view text);
  DigestBuilder& add(std::uint64_t value);
  DigestBuilder& add(std::int64_t value);
  DigestBuilder& add(double value);  ///< hashes the IEEE bit pattern
  DigestBuilder& add_bytes(const void* data, std::size_t n_bytes);

  std::uint64_t value() const { return digest_; }

 private:
  std::uint64_t digest_ = kFnvOffsetBasis;
};

/// 16-hex-digit lowercase form used in artifact trailers and digest lines.
std::string digest_hex(std::uint64_t digest);

// ----------------------------------------------------------- atomic commit

/// Writes `contents` to `path` atomically: temp file in the same directory,
/// fsync, rename over `path`. No header/checksum is added — for formats
/// with external consumers (runreport.json, CSVs) that must stay unframed.
Status write_file_atomic(const std::string& path, std::string_view contents);

/// Commits an already fully written temp file: fsync, then rename onto
/// `path`. For streaming writers (CsvWriter) that cannot buffer the whole
/// file but still need the old-or-new atomicity guarantee.
Status commit_temp_file(const std::string& tmp_path, const std::string& path);

/// Temp name next to `path` for a streaming writer ("<path>.tmp.<pid>").
std::string temp_path_for(const std::string& path);

/// Reads a whole file. kNotFound when it does not exist.
StatusOr<std::string> read_file(const std::string& path);

// ------------------------------------------------------- artifact envelope
//
// Framed artifact layout (payload may be binary):
//
//   DRCSHAP-ARTIFACT v1 <kind> <payload_bytes>\n
//   <payload>
//   \nFNV1A <16-hex digest of payload>\n
//
// The header pins the format version and the artifact kind (a reader asking
// for a "forest" fails cleanly on a "checkpoint" file); the byte count makes
// truncation detectable before hashing; the trailer checksum catches bit
// rot and torn writes that slipped past rename atomicity (e.g. a corrupt
// backing store).

/// Frames `payload` and commits it atomically to `path`.
Status write_artifact_atomic(const std::string& path, std::string_view kind,
                             std::string_view payload);

/// Loads and verifies an artifact: header magic/version/kind, payload size,
/// checksum. Returns the payload, or kNotFound / kCorrupt.
StatusOr<std::string> read_artifact(const std::string& path,
                                    std::string_view kind);

/// Frames `payload` into the envelope without touching the filesystem
/// (stream-level callers and tests).
std::string frame_artifact(std::string_view kind, std::string_view payload);

/// Inverse of frame_artifact with full verification.
StatusOr<std::string> unframe_artifact(std::string_view framed,
                                       std::string_view kind);

}  // namespace drcshap
