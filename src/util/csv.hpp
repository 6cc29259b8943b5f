#pragma once
// Minimal CSV writing with RFC-4180 quoting. `bench_table2 --csv` exports
// the Table II series through it so results can be post-processed externally.

#include <string>
#include <vector>

namespace drcshap {

/// Crash-safe CSV writer: rows stream into a same-directory temp file and
/// the target path is only created/replaced by an atomic rename in close()
/// (or the destructor). A reader — or a re-run after a crash — can never
/// observe a half-written CSV under the final name.
class CsvWriter {
 public:
  /// Opens the temp file; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);
  /// Commits via close() if still open, swallowing errors (stack unwind
  /// must not terminate); call close() explicitly to observe failures.
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  void write_row(const std::vector<std::string>& cells);

  /// Flushes, fsyncs and renames the temp file onto the target path.
  /// Throws ArtifactError (a std::runtime_error) if the commit fails;
  /// idempotent once committed.
  void close();

 private:
  struct Impl;
  Impl* impl_;
};

/// Quote a cell if it contains a comma, quote, or newline.
std::string csv_escape(const std::string& cell);

}  // namespace drcshap
