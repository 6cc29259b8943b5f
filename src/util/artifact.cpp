#include "util/artifact.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/failpoint.hpp"

namespace drcshap {

namespace {

/// Basename for failpoint keys and error messages: artifacts are addressed
/// by unit-of-work names, not by whatever scratch directory a test chose.
std::string_view base_name(std::string_view path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

Status io_error(const std::string& verb, const std::string& path) {
  return {StatusCode::kIoError,
          verb + " failed for " + path + ": " + std::strerror(errno)};
}

/// POSIX write loop: ofstream cannot fsync, and a durability layer that
/// loses the data on power cut would only move the torn-file window.
Status write_all(int fd, std::string_view data, const std::string& path) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return io_error("write", path);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return {};
}

}  // namespace

// ------------------------------------------------------------------ Status

std::string_view to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kIoError: return "io-error";
    case StatusCode::kNotFound: return "not-found";
    case StatusCode::kCorrupt: return "corrupt";
    case StatusCode::kStaleConfig: return "stale-config";
    case StatusCode::kInvalid: return "invalid";
    case StatusCode::kFault: return "fault";
  }
  return "unknown";
}

std::string Status::to_string() const {
  if (ok()) return "ok";
  std::string out(drcshap::to_string(code_));
  out += ": ";
  out += message_;
  return out;
}

void throw_if_error(const Status& status) {
  if (!status.ok()) throw ArtifactError(status);
}

// ------------------------------------------------------------------ FNV-1a

std::uint64_t fnv1a(const void* data, std::size_t n_bytes,
                    std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n_bytes; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t seed) {
  return fnv1a(text.data(), text.size(), seed);
}

namespace {
// Type tags keep differently typed but identically encoded fields distinct.
enum : unsigned char { kTagString = 1, kTagU64, kTagI64, kTagF64, kTagBytes };
}  // namespace

DigestBuilder& DigestBuilder::add(std::string_view text) {
  const unsigned char tag = kTagString;
  digest_ = fnv1a(&tag, 1, digest_);
  const std::uint64_t len = text.size();
  digest_ = fnv1a(&len, sizeof(len), digest_);
  digest_ = fnv1a(text.data(), text.size(), digest_);
  return *this;
}

DigestBuilder& DigestBuilder::add(std::uint64_t value) {
  const unsigned char tag = kTagU64;
  digest_ = fnv1a(&tag, 1, digest_);
  digest_ = fnv1a(&value, sizeof(value), digest_);
  return *this;
}

DigestBuilder& DigestBuilder::add(std::int64_t value) {
  const unsigned char tag = kTagI64;
  digest_ = fnv1a(&tag, 1, digest_);
  digest_ = fnv1a(&value, sizeof(value), digest_);
  return *this;
}

DigestBuilder& DigestBuilder::add(double value) {
  const unsigned char tag = kTagF64;
  digest_ = fnv1a(&tag, 1, digest_);
  digest_ = fnv1a(&value, sizeof(value), digest_);
  return *this;
}

DigestBuilder& DigestBuilder::add_bytes(const void* data,
                                        std::size_t n_bytes) {
  const unsigned char tag = kTagBytes;
  digest_ = fnv1a(&tag, 1, digest_);
  const std::uint64_t len = n_bytes;
  digest_ = fnv1a(&len, sizeof(len), digest_);
  digest_ = fnv1a(data, n_bytes, digest_);
  return *this;
}

std::string digest_hex(std::uint64_t digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[digest & 0xF];
    digest >>= 4;
  }
  return out;
}

// ----------------------------------------------------------- atomic commit

std::string temp_path_for(const std::string& path) {
  // Same-directory temp name so the final rename cannot cross filesystems;
  // pid-qualified so concurrent writers of *different* paths never collide
  // (checkpoint units are distinct files — same-path races are not a
  // supported pattern and would resolve to one winner via rename anyway).
  return path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
}

namespace {

/// The tail both commits share once the temp file is written and synced
/// (`status` says whether that worked): the rename crash point, the rename
/// onto `path`, and an unlink of the temp file on any failure.
Status rename_into_place(Status status, const std::string& tmp_path,
                         const std::string& path) {
  if (status.ok()) {
    try {
      DRCSHAP_FAILPOINT_KEYED("artifact.rename", base_name(path));
    } catch (...) {
      ::unlink(tmp_path.c_str());
      throw;
    }
    if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
      status = io_error("rename", path);
    }
  }
  if (!status.ok()) ::unlink(tmp_path.c_str());
  return status;
}

}  // namespace

Status commit_temp_file(const std::string& tmp_path, const std::string& path) {
  const int fd = ::open(tmp_path.c_str(), O_RDONLY);
  if (fd < 0) return io_error("open", tmp_path);
  Status status;
  if (::fsync(fd) != 0) status = io_error("fsync", tmp_path);
  if (::close(fd) != 0 && status.ok()) status = io_error("close", tmp_path);
  return rename_into_place(std::move(status), tmp_path, path);
}

Status write_file_atomic(const std::string& path, std::string_view contents) {
  DRCSHAP_FAILPOINT_KEYED("artifact.write_temp", base_name(path));
  const std::string tmp = temp_path_for(path);
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return io_error("open", tmp);
  Status status = write_all(fd, contents, tmp);
  if (status.ok() && ::fsync(fd) != 0) status = io_error("fsync", tmp);
  if (::close(fd) != 0 && status.ok()) status = io_error("close", tmp);
  return rename_into_place(std::move(status), tmp, path);
}

StatusOr<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    const StatusCode code =
        errno == ENOENT ? StatusCode::kNotFound : StatusCode::kIoError;
    return Status(code, "cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return io_error("read", path);
  return std::move(buffer).str();
}

// ------------------------------------------------------- artifact envelope

namespace {
constexpr std::string_view kMagic = "DRCSHAP-ARTIFACT";
constexpr std::string_view kVersion = "v1";
constexpr std::string_view kTrailerTag = "FNV1A";
}  // namespace

std::string frame_artifact(std::string_view kind, std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 64);
  out.append(kMagic);
  out += ' ';
  out.append(kVersion);
  out += ' ';
  out.append(kind);
  out += ' ';
  out += std::to_string(payload.size());
  out += '\n';
  out.append(payload);
  out += '\n';
  out.append(kTrailerTag);
  out += ' ';
  out += digest_hex(fnv1a(payload));
  out += '\n';
  return out;
}

StatusOr<std::string> unframe_artifact(std::string_view framed,
                                       std::string_view kind) {
  const auto corrupt = [&](const std::string& why) {
    return Status(StatusCode::kCorrupt,
                  "artifact(" + std::string(kind) + "): " + why);
  };

  const std::size_t header_end = framed.find('\n');
  if (header_end == std::string_view::npos) {
    return corrupt("missing header line");
  }
  std::istringstream header{std::string(framed.substr(0, header_end))};
  std::string magic, version, file_kind;
  std::uint64_t payload_size = 0;
  header >> magic >> version >> file_kind >> payload_size;
  if (!header || magic != kMagic) return corrupt("bad magic");
  if (version != kVersion) {
    return corrupt("unsupported format version '" + version + "'");
  }
  if (file_kind != kind) {
    return corrupt("kind mismatch: file holds '" + file_kind + "'");
  }

  const std::size_t payload_begin = header_end + 1;
  // Trailer: "\nFNV1A <16 hex>\n" — fixed 25 bytes after the payload.
  const std::size_t trailer_size = 1 + kTrailerTag.size() + 1 + 16 + 1;
  if (framed.size() < payload_begin + trailer_size ||
      framed.size() - payload_begin - trailer_size != payload_size) {
    return corrupt("truncated: header promises " +
                   std::to_string(payload_size) + " payload bytes, file has " +
                   std::to_string(framed.size() < payload_begin + trailer_size
                                      ? 0
                                      : framed.size() - payload_begin -
                                            trailer_size));
  }
  const std::string_view payload = framed.substr(payload_begin, payload_size);
  const std::string_view trailer = framed.substr(payload_begin + payload_size);
  std::string expected = "\n";
  expected.append(kTrailerTag);
  expected += ' ';
  expected += digest_hex(fnv1a(payload));
  expected += '\n';
  if (trailer != expected) {
    return corrupt("checksum mismatch (torn write or bit rot)");
  }
  return std::string(payload);
}

Status write_artifact_atomic(const std::string& path, std::string_view kind,
                             std::string_view payload) {
  return write_file_atomic(path, frame_artifact(kind, payload));
}

StatusOr<std::string> read_artifact(const std::string& path,
                                    std::string_view kind) {
  StatusOr<std::string> raw = read_file(path);
  if (!raw.ok()) return raw.status();
  StatusOr<std::string> payload = unframe_artifact(raw.value(), kind);
  if (!payload.ok()) {
    return Status(payload.status().code(),
                  payload.status().message() + " at " + path);
  }
  return payload;
}

}  // namespace drcshap
