#pragma once
// Minimal fixed-size thread pool used to parallelize embarrassingly parallel
// work (random-forest tree training, batched SHAP/inference, per-design
// pipelines, CV folds, grid-search candidates). The pool has one worker per
// hardware thread by default; with DRCSHAP_THREADS=1 (or one worker) every
// parallel_for runs inline on the caller.
//
// Process-wide sharing and nesting policy: ThreadPool::global() is a single
// lazily-constructed pool every library hot path runs on — no code spawns
// threads per call. parallel_for is nesting-aware: when invoked from a pool
// worker (i.e. inside an outer parallel region, e.g. an inner forest fit
// under a parallel CV fold) it runs the range serially inline instead of
// re-entering the pool, so nesting never oversubscribes the machine and
// never deadlocks. Because every work item writes results keyed by its own
// index, serial degradation cannot change any result.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <string_view>
#include <thread>
#include <vector>

namespace drcshap {

class ThreadPool {
 public:
  /// n_threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide shared pool. Lazily constructed on first use, sized by
  /// $DRCSHAP_THREADS when valid, else hardware_concurrency with a floor of 2
  /// (so the concurrent machinery is exercised — and sanitizable — even on
  /// single-core hosts). Library code should run on this pool rather than
  /// constructing its own: per-call pools pay a thread spawn/join per call
  /// and stack into oversubscription when experiment loops nest model fits.
  static ThreadPool& global();

  std::size_t size() const { return workers_.size(); }

  /// How many workers parallel_for(..., max_workers) would run on from the
  /// calling thread: min(max_workers, size()) (max_workers == 0 means the
  /// whole pool), or 1 when the caller is itself a pool worker (nested
  /// calls run inline, see the header comment).
  std::size_t width(std::size_t max_workers = 0) const;

  /// Run fn(i) for i in [0, n) across the pool and wait for all of them.
  /// The range is chunked into contiguous blocks of `grain` indices and the
  /// chunks are strip-mined by at most `max_workers` pool tasks pulling from
  /// a shared cursor, so the queue holds O(workers) tasks and concurrency is
  /// capped at min(max_workers, size()); max_workers == 0 means the whole
  /// pool, grain == 0 picks a block size targeting ~4 chunks per
  /// participating worker (load balance without per-index overhead).
  ///
  /// Degrades to a plain inline loop on the calling thread when the
  /// effective width is 1, the range is a single chunk, or the caller is
  /// itself a pool worker (nested parallelism — see the header comment).
  /// Exceptions from tasks propagate out of this call (first one in strip
  /// order wins); every sibling task is joined before the rethrow, so no
  /// task can still be touching captured state when the caller unwinds.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 0, std::size_t max_workers = 0);

  /// Index of the calling thread within its owning pool, or -1 when called
  /// from a thread that is not a pool worker (e.g. the thread that invoked
  /// parallel_for). Lets parallel work address per-worker scratch arenas
  /// without locking.
  static int current_worker_index();

  /// True iff the calling thread is a pool worker, i.e. it is executing
  /// inside some parallel region; parallel_for uses this to serialize
  /// nested calls.
  static bool in_parallel_region() { return current_worker_index() >= 0; }

 private:
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Largest pool DRCSHAP_THREADS may ask for. A larger value is taken for a
/// typo rather than a machine, so it never becomes a thread count.
inline constexpr std::size_t kMaxEnvThreads = 1024;

/// The worker count a DRCSHAP_THREADS value names: a whole decimal string in
/// [1, kMaxEnvThreads], with no sign, space or suffix. Anything else is
/// nullopt, and ThreadPool::global() then warns and uses its default size.
std::optional<std::size_t> parse_thread_count(std::string_view text);

/// Run fn(i) for i in [0, n) on the shared global pool, capped at
/// `n_threads` concurrent workers (0 = whole pool, 1 = serial inline).
/// This is the one entry point experiment loops and model internals share:
/// the cap plus the pool's nesting rule implement the process concurrency
/// budget — an outer parallel_for_shared over folds/designs/candidates gets
/// the workers, and the fits inside it degrade to serial.
void parallel_for_shared(std::size_t n,
                         const std::function<void(std::size_t)>& fn,
                         std::size_t n_threads = 0, std::size_t grain = 0);

/// ThreadPool::global().width(n_threads): the workers a
/// parallel_for_shared(..., n_threads) from this thread would get.
std::size_t shared_width(std::size_t n_threads = 0);

}  // namespace drcshap
