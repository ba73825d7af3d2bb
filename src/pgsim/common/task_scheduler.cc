#include "pgsim/common/task_scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace pgsim {
namespace {

// Cheap per-worker xorshift for victim selection. Seeds differ per worker;
// the steal schedule is allowed to vary run-to-run (results may not).
inline uint64_t NextRandom(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return x;
}

}  // namespace

// Chase-Lev work-stealing deque (Lê/Pop/Cocchiarella/Zappa Nardelli fences).
// The owner pushes/pops at `bottom`; thieves CAS `top` upward. Slots are
// relaxed atomics: a thief may read a slot the owner is concurrently
// recycling, but the value is only *used* if the subsequent top CAS
// succeeds, which proves the slot was still live when read (the owner never
// overwrites an index in [top, bottom), and growth keeps old rings alive).
class TaskDeque {
 public:
  // NewRing registers the ring in rings_, so it must run in the body (after
  // every member is constructed), not in the init list: ring_ is declared
  // before rings_, and a list-initializer would push into a vector whose
  // constructor hasn't run yet, leaking the initial ring when it does.
  TaskDeque() { ring_.store(NewRing(kInitialCapacity), std::memory_order_relaxed); }

  // Owner only.
  void Push(const TaskScheduler::Task& task) {
    const int64_t b = bottom_.load(std::memory_order_relaxed);
    const int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = ring_.load(std::memory_order_relaxed);
    if (b - t > ring->capacity - 1) ring = Grow(ring, t, b);
    StoreSlot(&ring->slots[b & ring->mask], task);
    bottom_.store(b + 1, std::memory_order_release);
  }

  // Owner only. LIFO: returns the most recently pushed task.
  bool Pop(TaskScheduler::Task* out) {
    const int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* ring = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {  // empty
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    LoadSlot(ring->slots[b & ring->mask], out);
    if (t == b) {
      // Last element: race the thieves for it.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }

  // Any thief. FIFO: returns the oldest task.
  bool Steal(TaskScheduler::Task* out) {
    int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    Ring* ring = ring_.load(std::memory_order_acquire);
    TaskScheduler::Task task;
    LoadSlot(ring->slots[t & ring->mask], &task);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return false;  // lost the race; the speculative read is discarded
    }
    *out = task;
    return true;
  }

  /// Approximate depth (racy; for stats only).
  int64_t DepthApprox() const {
    return bottom_.load(std::memory_order_relaxed) -
           top_.load(std::memory_order_relaxed);
  }

  bool EmptyApprox() const { return DepthApprox() <= 0; }

 private:
  static constexpr int64_t kInitialCapacity = 256;

  // One task, stored as independent relaxed atomics (see class comment).
  struct Slot {
    std::atomic<TaskScheduler::TaskFn> fn{nullptr};
    std::atomic<void*> ctx{nullptr};
    std::atomic<uint32_t> a{0};
    std::atomic<uint32_t> b{0};
  };
  struct Ring {
    int64_t capacity = 0;
    int64_t mask = 0;
    std::unique_ptr<Slot[]> slots;
  };

  static void StoreSlot(Slot* slot, const TaskScheduler::Task& task) {
    slot->fn.store(task.fn, std::memory_order_relaxed);
    slot->ctx.store(task.ctx, std::memory_order_relaxed);
    slot->a.store(task.a, std::memory_order_relaxed);
    slot->b.store(task.b, std::memory_order_relaxed);
  }
  static void LoadSlot(const Slot& slot, TaskScheduler::Task* out) {
    out->fn = slot.fn.load(std::memory_order_relaxed);
    out->ctx = slot.ctx.load(std::memory_order_relaxed);
    out->a = slot.a.load(std::memory_order_relaxed);
    out->b = slot.b.load(std::memory_order_relaxed);
  }

  Ring* NewRing(int64_t capacity) {
    auto ring = std::make_unique<Ring>();
    ring->capacity = capacity;
    ring->mask = capacity - 1;
    ring->slots = std::make_unique<Slot[]>(capacity);
    rings_.push_back(std::move(ring));
    return rings_.back().get();
  }

  // Owner only. Old rings stay alive until destruction: a thief that loaded
  // the old ring pointer can still read (then discard) stale slots safely.
  Ring* Grow(Ring* old, int64_t top, int64_t bottom) {
    Ring* bigger = NewRing(old->capacity * 2);
    for (int64_t i = top; i < bottom; ++i) {
      TaskScheduler::Task task;
      LoadSlot(old->slots[i & old->mask], &task);
      StoreSlot(&bigger->slots[i & bigger->mask], task);
    }
    ring_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<Ring*> ring_{nullptr};
  std::vector<std::unique_ptr<Ring>> rings_;  // owner-touched at Grow only
};

struct alignas(64) TaskScheduler::PerWorker {
  TaskDeque deque;
  // Written by the owning worker during a Run, read by Run() afterwards.
  uint64_t executed = 0;
  uint64_t stolen = 0;
  uint64_t steal_attempts = 0;
  uint64_t root_claims = 0;
  uint64_t max_depth = 0;
};

TaskScheduler::TaskScheduler(uint32_t num_workers) {
  num_workers_ = num_workers == 0 ? ThreadPool::DefaultThreads() : num_workers;
  if (num_workers_ > 1) pool_ = std::make_unique<ThreadPool>(num_workers_);
  workers_.reserve(num_workers_);
  for (uint32_t w = 0; w < num_workers_; ++w) {
    workers_.push_back(std::make_unique<PerWorker>());
  }
  worker_state_.resize(num_workers_);
}

TaskScheduler::~TaskScheduler() {
  for (StateSlot& slot : worker_state_) {
    if (slot.ptr != nullptr) slot.destroy(slot.ptr);
  }
}

SchedulerRunStats TaskScheduler::Run(const Task* roots, size_t num_roots,
                                     size_t root_chunk) {
  SchedulerRunStats stats;
  if (num_roots == 0) return stats;
  roots_ = roots;
  num_roots_ = num_roots;
  root_chunk_ = root_chunk == 0 ? 1 : root_chunk;
  root_cursor_.store(0, std::memory_order_relaxed);
  pending_.store(static_cast<int64_t>(num_roots), std::memory_order_relaxed);
  first_exception_ = nullptr;
  for (auto& worker : workers_) {
    worker->executed = worker->stolen = worker->steal_attempts =
        worker->root_claims = worker->max_depth = 0;
  }

  if (pool_ == nullptr) {
    WorkerLoop(0);
  } else {
    std::vector<std::function<void()>> loops;
    loops.reserve(num_workers_);
    for (uint32_t w = 0; w < num_workers_; ++w) {
      loops.push_back([this, w] { WorkerLoop(w); });
    }
    pool_->SubmitMany(std::move(loops));
    pool_->Wait();
  }

  for (const auto& worker : workers_) {
    stats.tasks_executed += worker->executed;
    stats.tasks_stolen += worker->stolen;
    stats.steal_attempts += worker->steal_attempts;
    stats.root_claims += worker->root_claims;
    stats.max_queue_depth = std::max(stats.max_queue_depth, worker->max_depth);
  }
  roots_ = nullptr;
  num_roots_ = 0;
  if (first_exception_ != nullptr) {
    std::exception_ptr rethrow = std::move(first_exception_);
    first_exception_ = nullptr;
    std::rethrow_exception(rethrow);
  }
  return stats;
}

void TaskScheduler::Spawn(uint32_t worker, const Task& task) {
  PerWorker& self = *workers_[worker];
  pending_.fetch_add(1, std::memory_order_relaxed);
  self.deque.Push(task);
  const uint64_t depth = static_cast<uint64_t>(self.deque.DepthApprox());
  if (depth > self.max_depth) self.max_depth = depth;
  // Pair with the sleeper's publish-then-recheck (seq_cst fence on both
  // sides): either the spawner sees the sleeper and notifies, or the
  // sleeper's post-publish scan sees this push.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    sleep_cv_.notify_all();
  }
}

void TaskScheduler::Execute(const Task& task, uint32_t worker) {
  ++workers_[worker]->executed;
  try {
    task.fn(task.ctx, worker, task.a, task.b);
  } catch (...) {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    if (first_exception_ == nullptr) {
      first_exception_ = std::current_exception();
    }
  }
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    sleep_cv_.notify_all();  // graph drained: wake every parked worker
  }
}

bool TaskScheduler::TrySteal(uint32_t thief, uint64_t* rng_state, Task* out) {
  if (num_workers_ <= 1) return false;
  PerWorker& self = *workers_[thief];
  // Randomized probes first, then one deterministic sweep so a lone busy
  // victim is always found before the thief parks.
  for (uint32_t attempt = 0; attempt < num_workers_; ++attempt) {
    const uint32_t victim =
        static_cast<uint32_t>(NextRandom(rng_state) % num_workers_);
    if (victim == thief) continue;
    ++self.steal_attempts;
    if (workers_[victim]->deque.Steal(out)) return true;
  }
  for (uint32_t victim = 0; victim < num_workers_; ++victim) {
    if (victim == thief) continue;
    ++self.steal_attempts;
    if (workers_[victim]->deque.Steal(out)) return true;
  }
  return false;
}

bool TaskScheduler::HasVisibleWork() const {
  if (root_cursor_.load(std::memory_order_relaxed) < num_roots_) return true;
  for (const auto& worker : workers_) {
    if (!worker->deque.EmptyApprox()) return true;
  }
  return false;
}

void TaskScheduler::Park() {
  std::unique_lock<std::mutex> lock(sleep_mu_);
  sleepers_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (!HasVisibleWork() && pending_.load(std::memory_order_acquire) != 0) {
    // Timed: even a (theoretically) lost wakeup only costs the timeout.
    sleep_cv_.wait_for(lock, std::chrono::microseconds(200));
  }
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
}

void TaskScheduler::WorkerLoop(uint32_t worker) {
  PerWorker& self = *workers_[worker];
  uint64_t rng_state = 0x9E3779B97F4A7C15ULL * (worker + 1) | 1;
  size_t local_root = 0;
  size_t local_root_end = 0;
  Task task;
  for (;;) {
    bool have = false;
    if (self.deque.Pop(&task)) {
      have = true;
    } else if (local_root < local_root_end) {
      task = roots_[local_root++];
      have = true;
    } else if (TrySteal(worker, &rng_state, &task)) {
      ++self.stolen;
      have = true;
    } else {
      const size_t begin =
          root_cursor_.fetch_add(root_chunk_, std::memory_order_relaxed);
      if (begin < num_roots_) {
        ++self.root_claims;
        local_root = begin;
        local_root_end = std::min(begin + root_chunk_, num_roots_);
        task = roots_[local_root++];
        have = true;
      }
    }
    if (have) {
      Execute(task, worker);
      continue;
    }
    if (pending_.load(std::memory_order_acquire) == 0) return;
    Park();
  }
}

}  // namespace pgsim
