// Fixed-size worker pool with chunked parallel-for.
//
// The offline index builders (feature mining, PMI bound columns, the
// structural filter's count table, the signature index) fan their per-item
// work across one of these through ForEachIndex, and the work-stealing
// TaskScheduler runs its worker loops on one. The chunked claim loop (an
// atomic cursor advanced `chunk` items at a time) follows the
// Galois/Pangolin-style chunked work distribution: large enough chunks to
// amortize the atomic, small enough to balance skewed per-item cost.
// Header-only; uses only std::thread primitives.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace pgsim {

/// Fixed pool of worker threads. Tasks run in submission order per worker;
/// Wait() blocks until every submitted task has finished.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 means DefaultThreads()).
  explicit ThreadPool(uint32_t num_threads = 0) {
    if (num_threads == 0) num_threads = DefaultThreads();
    workers_.reserve(num_threads);
    for (uint32_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  /// Number of worker threads.
  uint32_t size() const { return static_cast<uint32_t>(workers_.size()); }

  /// Enqueues a task for any worker.
  void Submit(std::function<void()> task) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++pending_;
      queue_.push(std::move(task));
    }
    wake_.notify_one();
  }

  /// Enqueues a burst of tasks under one lock acquisition and one
  /// notify_all, instead of a lock + notify_one per task: on small batches
  /// the per-Submit wake-up (futex syscall while the workers are still
  /// parking) dominates enqueue cost — BM_ThreadPool_SubmitBurst pins the
  /// difference. ParallelFor and the work-stealing TaskScheduler submit
  /// their per-worker loops through this.
  void SubmitMany(std::vector<std::function<void()>> tasks) {
    if (tasks.empty()) return;
    {
      std::unique_lock<std::mutex> lock(mu_);
      pending_ += tasks.size();
      for (auto& task : tasks) queue_.push(std::move(task));
    }
    wake_.notify_all();
  }

  /// Blocks until all tasks submitted so far have completed.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return pending_ == 0; });
  }

  /// Chunked parallel-for over [0, n): workers repeatedly claim the next
  /// `chunk` indices and call fn(worker_rank, begin, end) with worker_rank in
  /// [0, size()). Blocks until the whole range is processed. Per-rank state
  /// is safe: a rank never runs twice concurrently.
  void ParallelFor(size_t n, size_t chunk,
                   const std::function<void(uint32_t, size_t, size_t)>& fn) {
    if (n == 0) return;
    if (chunk == 0) chunk = 1;
    auto cursor = std::make_shared<std::atomic<size_t>>(0);
    std::vector<std::function<void()>> claimers;
    claimers.reserve(size());
    for (uint32_t rank = 0; rank < size(); ++rank) {
      claimers.push_back([cursor, n, chunk, rank, &fn] {
        for (;;) {
          const size_t begin = cursor->fetch_add(chunk);
          if (begin >= n) return;
          const size_t end = begin + chunk < n ? begin + chunk : n;
          fn(rank, begin, end);
        }
      });
    }
    SubmitMany(std::move(claimers));
    Wait();
  }

  /// Hardware concurrency, at least 1.
  static uint32_t DefaultThreads() {
    const unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1u : static_cast<uint32_t>(hc);
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (--pending_ == 0) idle_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  size_t pending_ = 0;
  bool stop_ = false;
};

/// Resolves an options-style `num_threads` (0 means DefaultThreads()) into
/// a usable pool: spawns an owned transient pool when it resolves above 1,
/// and stays null — the ForEachIndex inline path — otherwise. The single
/// spawn point for every offline builder.
class ScopedPool {
 public:
  explicit ScopedPool(uint32_t num_threads)
      : threads_(num_threads == 0 ? ThreadPool::DefaultThreads()
                                  : num_threads) {
    if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
  }

  /// The pool to run on; null means "execute inline".
  ThreadPool* get() const { return pool_.get(); }
  /// The effective worker count (1 for inline execution).
  uint32_t threads() const { return threads_; }

 private:
  uint32_t threads_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Runs fn(i) for every i in [0, n), inline on the calling thread when
/// `pool` is null (or trivial), else chunked across the pool. The offline
/// index builders use this so that their 1-thread path is genuinely
/// sequential while the N-thread path fans the same per-index work items
/// out; determinism is the caller's contract — fn(i) must write only
/// state owned by item i.
inline void ForEachIndex(ThreadPool* pool, size_t n, size_t chunk,
                         const std::function<void(size_t)>& fn) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(n, chunk, [&fn](uint32_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace pgsim
