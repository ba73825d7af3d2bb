// Work-stealing task scheduler.
//
// The chunked ParallelFor in thread_pool.h distributes *ranges*: once a
// worker claims a chunk it owns every item in it, so one pathological item
// (a huge relaxation set, a verification-heavy query) stalls its whole chunk
// while other workers idle. This scheduler distributes *tasks*: each worker
// owns a Chase-Lev deque it pushes spawned subtasks onto (LIFO for the
// owner, so a query's own verification candidates run next with warm
// caches), and an idle worker steals from the FIFO end of a random victim —
// the Galois/Pangolin stealing-executor idiom. Root tasks submitted to
// Run() are claimed one at a time from a shared cursor once a worker's own
// deque is empty and no steal succeeded.
//
// Tasks are plain structs (function pointer + context pointer + two u32
// operands): spawning performs no allocation beyond occasional deque ring
// growth, and the deque slots are relaxed atomics so concurrent
// steal-vs-push probes are data-race-free (a torn speculative read is
// discarded by the failed top CAS that follows it).
//
// Determinism contract: the scheduler guarantees only that every spawned
// task executes exactly once, on some worker, before Run() returns. Callers
// needing schedule-independent results must make each task's *output*
// independent of execution order and worker identity — the query engine
// does this with sequentially pre-forked per-candidate RNGs and
// order-merged verdicts (see query/processor.h).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "pgsim/common/thread_pool.h"

namespace pgsim {

/// Counters aggregated over one Run() (summed across workers).
struct SchedulerRunStats {
  uint64_t tasks_executed = 0;  ///< root + spawned tasks run to completion
  uint64_t tasks_stolen = 0;    ///< tasks taken from another worker's deque
  uint64_t steal_attempts = 0;  ///< victim probes, successful or not
  uint64_t max_queue_depth = 0; ///< deepest per-worker deque seen at a push
};

/// Work-stealing executor over an owned ThreadPool.
///
/// Run() executes a set of root tasks plus everything they transitively
/// Spawn(), returning when the whole task graph has drained. One Run() at a
/// time per scheduler; the object (and its per-worker state) is reusable
/// across Run() calls, which is how worker scratch survives across batches.
class TaskScheduler {
 public:
  /// A task: fn(ctx, worker, a, b). `worker` is the executing worker's rank
  /// in [0, num_workers()) — valid for Spawn() and WorkerState() calls made
  /// from inside the task. `a`/`b` are free operands (typically an index or
  /// a [begin, end) range).
  using TaskFn = void (*)(void* ctx, uint32_t worker, uint32_t a, uint32_t b);
  struct Task {
    TaskFn fn = nullptr;
    void* ctx = nullptr;
    uint32_t a = 0;
    uint32_t b = 0;
  };

  /// Owns a ThreadPool of `num_workers` threads (0 = all hardware threads).
  /// A width of 1 runs every task inline on the thread calling Run().
  explicit TaskScheduler(uint32_t num_workers = 0);

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;
  ~TaskScheduler();

  /// Worker count (>= 1).
  uint32_t num_workers() const { return num_workers_; }

  /// Runs `roots[0..num_roots)` and all transitively spawned tasks to
  /// completion. Workers prefer their own deque (newest first), then steal
  /// from random victims, then claim the next root from the shared cursor.
  /// If a task throws, the first exception is rethrown here after the graph
  /// drains (remaining tasks still run); the scheduler stays usable. Must
  /// not be called from inside a task.
  SchedulerRunStats Run(const Task* roots, size_t num_roots);
  SchedulerRunStats Run(const std::vector<Task>& roots) {
    return Run(roots.data(), roots.size());
  }

  /// Pushes `task` onto `worker`'s deque. Call only from inside a task
  /// running on `worker` (the rank passed to its TaskFn).
  void Spawn(uint32_t worker, const Task& task);

  /// Lazily default-constructed per-worker state of type T, owned by the
  /// scheduler and retained across Run() calls — this is how a worker
  /// reuses query/verifier scratch across stolen tasks and across batches.
  /// Safe from the worker itself mid-run, or from any thread while no Run()
  /// is active. One T per worker slot: all callers must agree on the type.
  template <typename T>
  T* WorkerState(uint32_t worker) {
    StateSlot& slot = worker_state_[worker];
    if (slot.ptr == nullptr) {
      slot.ptr = new T();
      slot.destroy = [](void* p) { delete static_cast<T*>(p); };
    }
    return static_cast<T*>(slot.ptr);
  }

 private:
  struct StateSlot {
    void* ptr = nullptr;
    void (*destroy)(void*) = nullptr;
  };
  struct PerWorker;  // deque + local stats (task_scheduler.cc)

  void WorkerLoop(uint32_t worker);
  void Execute(const Task& task, uint32_t worker);
  bool TrySteal(uint32_t thief, uint64_t* rng_state, Task* out);
  bool HasVisibleWork() const;
  void Park();

  uint32_t num_workers_ = 1;
  std::unique_ptr<ThreadPool> pool_;  ///< null => width-1 inline mode
  std::vector<std::unique_ptr<PerWorker>> workers_;
  std::vector<StateSlot> worker_state_;

  // Per-run root distribution.
  const Task* roots_ = nullptr;
  size_t num_roots_ = 0;
  std::atomic<size_t> root_cursor_{0};

  // Unfinished-task count: roots are pre-counted by Run(), Spawn()
  // increments before pushing, Execute() decrements after the task body (and
  // after any tasks it spawned were counted) — so 0 means the graph drained.
  std::atomic<int64_t> pending_{0};

  // Idle-worker parking. Spawners notify only when sleepers_ > 0; sleepers
  // re-check for work after publishing themselves (seq_cst fences order the
  // push/check against the sleeper count), and the wait is timed as a
  // belt-and-braces backstop, so a lost wakeup costs at most the timeout.
  std::atomic<uint32_t> sleepers_{0};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;

  std::exception_ptr first_exception_;  ///< guarded by sleep_mu_
};

}  // namespace pgsim
