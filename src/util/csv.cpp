#include "util/csv.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/artifact.hpp"

namespace drcshap {

struct CsvWriter::Impl {
  std::string path;
  std::string tmp;
  std::ofstream out;
  bool committed = false;
};

CsvWriter::CsvWriter(const std::string& path) : impl_(new Impl) {
  impl_->path = path;
  impl_->tmp = temp_path_for(path);
  impl_->out.open(impl_->tmp, std::ios::trunc | std::ios::binary);
  if (!impl_->out) {
    delete impl_;
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

CsvWriter::~CsvWriter() {
  try {
    close();
  } catch (...) {
    // Destructor commit is best-effort; the temp file (if any) is already
    // unlinked by the failed commit, and the target keeps its old content.
  }
  delete impl_;
}

void CsvWriter::close() {
  if (impl_->committed) return;
  impl_->out.flush();
  const bool stream_ok = static_cast<bool>(impl_->out);
  impl_->out.close();
  if (!stream_ok) {
    std::remove(impl_->tmp.c_str());
    impl_->committed = true;  // nothing further to commit
    throw ArtifactError(
        {StatusCode::kIoError, "CsvWriter: write failed for " + impl_->path});
  }
  impl_->committed = true;
  throw_if_error(commit_temp_file(impl_->tmp, impl_->path));
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) impl_->out << ',';
    impl_->out << csv_escape(cells[i]);
  }
  impl_->out << '\n';
}

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace drcshap
