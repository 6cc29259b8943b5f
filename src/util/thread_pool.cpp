#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "util/failpoint.hpp"

namespace drcshap {

namespace {

thread_local int tl_worker_index = -1;

std::size_t global_pool_size() {
  if (const char* env = std::getenv("DRCSHAP_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

}  // namespace

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

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
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
  auto cursor = std::make_shared<std::atomic<std::size_t>>(0);
  std::vector<std::future<void>> futures;
  futures.reserve(strips);
  // `failed` lets sibling strips stop claiming new chunks once any task has
  // thrown, so a poisoned index does not force the whole remaining range to
  // run before the error can surface.
  auto failed = std::make_shared<std::atomic<bool>>(false);
  for (std::size_t s = 0; s < strips; ++s) {
    futures.push_back(submit([&fn, cursor, failed, grain, n, n_chunks] {
      for (;;) {
        if (failed->load(std::memory_order_relaxed)) return;
        const std::size_t c = cursor->fetch_add(1, std::memory_order_relaxed);
        if (c >= n_chunks) return;
        const std::size_t begin = c * grain;
        const std::size_t end = std::min(n, begin + grain);
        try {
          DRCSHAP_FAILPOINT("pool.chunk");
          for (std::size_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          failed->store(true, std::memory_order_relaxed);
          throw;
        }
      }
    }));
  }
  // Join EVERY strip before letting the first exception out: `fn` and the
  // caller's captured state live on the caller's stack, so rethrowing while
  // a sibling strip is still running would let that sibling use freed state
  // once the caller unwinds. First exception (in strip order) wins; the
  // others are joined and dropped.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t ThreadPool::width(std::size_t max_workers) const {
  if (in_parallel_region()) return 1;
  return max_workers == 0 ? size() : std::min(size(), max_workers);
}

int ThreadPool::current_worker_index() { return tl_worker_index; }

void ThreadPool::worker_loop(std::size_t worker_index) {
  tl_worker_index = static_cast<int>(worker_index);
  for (;;) {
    std::packaged_task<void()> task;
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
