#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>

#include "util/failpoint.hpp"
#include "util/log.hpp"

namespace drcshap {

namespace {

thread_local int tl_worker_index = -1;

std::size_t global_pool_size() {
  if (const char* env = std::getenv("DRCSHAP_THREADS")) {
    if (const auto n = parse_thread_count(env)) return *n;
    log_warn("DRCSHAP_THREADS='", env, "' is not a whole number in [1, ",
             kMaxEnvThreads, "]; using the default pool size");
  }
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

}  // namespace

std::optional<std::size_t> parse_thread_count(std::string_view text) {
  const char* const end = text.data() + text.size();
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  // from_chars into an unsigned type takes no sign and no space, and it
  // reports a value past SIZE_MAX as out of range.
  if (ec != std::errc() || ptr != end || value < 1 || value > kMaxEnvThreads) {
    return std::nullopt;
  }
  return value;
}

ThreadPool::ThreadPool(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n_threads);
  for (std::size_t i = 0; i < n_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(global_pool_size());
  return pool;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain, std::size_t max_workers) {
  if (n == 0) return;
  const std::size_t width = this->width(max_workers);
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (grain == 0) {
    const std::size_t target_chunks = 4 * width;
    grain = std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
  }
  const std::size_t n_chunks = (n + grain - 1) / grain;
  if (n_chunks <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Strip-mining: `strips` pool tasks pull chunks off a shared cursor. Any
  // schedule computes every index exactly once into its own slot, so results
  // cannot depend on which worker claims which chunk.
  const std::size_t strips = std::min(width, n_chunks);
  std::atomic<std::size_t> cursor{0};
  // `failed` lets sibling strips stop claiming new chunks once any task has
  // thrown, so a poisoned index does not force the whole remaining range to
  // run before the error can surface.
  std::atomic<bool> failed{false};
  // Everything a strip touches lives in this frame. A strip stores its error
  // in its own slot, and its last touch of this frame is the decrement and
  // notify made under `done_mutex`, so once the wait below returns no strip
  // can still reach `fn`, `errors` or the cursor.
  std::vector<std::exception_ptr> errors(strips);
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t running = strips;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t s = 0; s < strips; ++s) {
      tasks_.push([&, s] {
        while (!failed.load(std::memory_order_relaxed)) {
          const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
          if (c >= n_chunks) break;
          const std::size_t begin = c * grain;
          const std::size_t end = std::min(n, begin + grain);
          try {
            DRCSHAP_FAILPOINT("pool.chunk");
            for (std::size_t i = begin; i < end; ++i) fn(i);
          } catch (...) {
            errors[s] = std::current_exception();
            failed.store(true, std::memory_order_relaxed);
          }
        }
        std::lock_guard done_lock(done_mutex);
        if (--running == 0) done_cv.notify_all();
      });
    }
  }
  for (std::size_t s = 0; s < strips; ++s) cv_.notify_one();
  // Join EVERY strip before letting the first exception out: `fn` and the
  // caller's captured state live on the caller's stack, so rethrowing while
  // a sibling strip is still running would let that sibling use freed state
  // once the caller unwinds. First exception (in strip order) wins; the
  // others are dropped.
  {
    std::unique_lock done_lock(done_mutex);
    done_cv.wait(done_lock, [&] { return running == 0; });
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

std::size_t ThreadPool::width(std::size_t max_workers) const {
  if (in_parallel_region()) return 1;
  return max_workers == 0 ? size() : std::min(size(), max_workers);
}

int ThreadPool::current_worker_index() { return tl_worker_index; }

void ThreadPool::worker_loop(std::size_t worker_index) {
  tl_worker_index = static_cast<int>(worker_index);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void parallel_for_shared(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::size_t n_threads, std::size_t grain) {
  ThreadPool::global().parallel_for(n, fn, grain, n_threads);
}

std::size_t shared_width(std::size_t n_threads) {
  return ThreadPool::global().width(n_threads);
}

}  // namespace drcshap
