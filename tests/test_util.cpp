#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/artifact.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {
namespace {

// ---------------------------------------------------------------- ThreadPool

// DRCSHAP_THREADS sizes the shared pool, so a typo must not become a
// thread count. Only the pure parse runs: no pool is built, no thread
// starts.
TEST(ThreadPool, ThreadCountParseAcceptsOnlyWholeNumbersUpToTheCap) {
  EXPECT_EQ(parse_thread_count("8"), 8u);
  EXPECT_EQ(parse_thread_count(std::to_string(kMaxEnvThreads)), kMaxEnvThreads);
  const std::vector<std::string> bad_values = {
      "8abc", "0", "-3", "", " 8", "+8", "12345678901234567890",
      "99999999999999999999", std::to_string(kMaxEnvThreads + 1)};
  for (const std::string& bad : bad_values) {
    EXPECT_EQ(parse_thread_count(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PassesIndices) {
  ThreadPool pool(2);
  std::vector<int> hit(50, 0);
  pool.parallel_for(50, [&](std::size_t i) { hit[i] = static_cast<int>(i); });
  for (int i = 0; i < 50; ++i) EXPECT_EQ(hit[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ExplicitGrainCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(
      50, [&](std::size_t i) { ++hits[i]; }, /*grain=*/7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(2);
  std::vector<int> hit(10, 0);
  pool.parallel_for(
      10, [&](std::size_t i) { hit[i] = 1; }, /*grain=*/100);
  for (const int h : hit) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, WorkerIndexIsStableAndInRange) {
  ThreadPool pool(3);
  // The calling thread is not a pool worker.
  EXPECT_EQ(ThreadPool::current_worker_index(), -1);
  std::vector<std::atomic<int>> seen(200);
  pool.parallel_for(200, [&](std::size_t i) {
    seen[i] = ThreadPool::current_worker_index();
  });
  // 200 indices chunk into >1 tasks, so every index ran on a pool worker
  // whose id addresses a per-worker scratch slot.
  for (const auto& w : seen) {
    EXPECT_GE(w.load(), 0);
    EXPECT_LT(w.load(), 3);
  }
}

TEST(ThreadPool, ChunkedExceptionStillPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   1000, [&](std::size_t i) {
                     if (i == 777) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, ThrowJoinsAllSiblingsBeforeRethrow) {
  // Regression: parallel_for used to rethrow from the first failed future
  // while sibling tasks were still running; they then touched the callback
  // and captured state after the caller's stack frame was gone (a
  // use-after-free TSan flags). Throw from a mid-range chunk and destroy
  // the captured vector immediately after: if any abandoned sibling were
  // still running it would write into freed memory.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    auto touched = std::make_unique<std::vector<std::atomic<int>>>(4096);
    try {
      pool.parallel_for(4096, [&](std::size_t i) {
        (*touched)[i].fetch_add(1, std::memory_order_relaxed);
        if (i == 2048) throw std::runtime_error("mid-range boom");
      });
      FAIL() << "parallel_for must rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "mid-range boom");
    }
    touched.reset();  // any straggler task would now be a use-after-free
  }
}

TEST(ThreadPool, ThrowStopsUnclaimedChunks) {
  // The failure flag lets strips stop claiming work once a sibling threw:
  // every strip dies on its first index, so at most one index per strip
  // runs and the rest of the 100k-index range is never claimed.
  ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(
                   100000,
                   [&](std::size_t) {
                     ran.fetch_add(1, std::memory_order_relaxed);
                     throw std::runtime_error("first chunk dies");
                   }),
               std::runtime_error);
  EXPECT_LE(ran.load(), 2u);
}

// --------------------------------------------------------------------- Table

TEST(Table, RendersHeaderAndRows) {
  Table t({"a", "bb"});
  t.add_row({"1", "2"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("| 1 "), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, SeparatorRendersRule) {
  Table t({"x"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  const std::string out = t.to_string();
  // 5 rules: top, under header, separator, bottom... count '+' lines.
  int rules = 0;
  for (std::size_t pos = 0; (pos = out.find("+-", pos)) != std::string::npos;
       ++pos) {
    ++rules;
  }
  EXPECT_GE(rules, 4);
}

TEST(Formatting, FixedKiloPercent) {
  EXPECT_EQ(fmt_fixed(0.50584, 4), "0.5058");
  EXPECT_EQ(fmt_kilo(1252200.0, 1), "1252.2k");
  EXPECT_EQ(fmt_percent(0.506, 1), "50.6%");
}

// ----------------------------------------------------------------------- CSV

TEST(Csv, EscapeQuotesSpecialCells) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RoundTripThroughFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "drcshap_csv_test.csv").string();
  {
    CsvWriter writer(path);
    writer.write_row({"name", "value,with,commas"});
    writer.write_row({"say \"hi\"", "two\nlines", "1.5", ""});
  }
  EXPECT_EQ(read_file(path).value(),
            "name,\"value,with,commas\"\n"
            "\"say \"\"hi\"\"\",\"two\nlines\",1.5,\n");
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- Stopwatch

TEST(Stopwatch, MeasuresNonNegativeMonotonicTime) {
  Stopwatch sw;
  const double t1 = sw.seconds();
  const double t2 = sw.seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_NEAR(sw.minutes() * 60.0, sw.seconds(), 0.1);
}

// -------------------------------------------------------------------- FNV-1a

// Pins the repo's one FNV-1a, including its deliberately non-standard
// offset basis (DRC seeds and artifact checksums depend on it).
TEST(Fnv1a, PinnedDigests) {
  EXPECT_EQ(kFnvOffsetBasis, 0x14650fb0739d0383ull);
  EXPECT_EQ(fnv1a(""), 0x14650fb0739d0383ull);
  EXPECT_EQ(fnv1a("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(fnv1a("foobar"), 0x88fad7c0a8ff07f2ull);
  // Chaining through `seed` equals hashing the concatenation.
  EXPECT_EQ(fnv1a(std::string_view("bar"), fnv1a("foo")), fnv1a("foobar"));
}

}  // namespace
}  // namespace drcshap
