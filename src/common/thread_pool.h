#ifndef CARP_COMMON_THREAD_POOL_H_
#define CARP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace carp {

/// A fixed-size worker pool for the speculative batch-planning query phase.
///
/// Tasks are drained FIFO by whichever worker frees up first; callers that
/// need deterministic output must make each task independent (write to its
/// own result slot) — the pool guarantees completion, not ordering.
///
/// Each worker carries a stable index in [0, size()), exposed to running
/// tasks via CurrentWorkerIndex(); batch planning uses it to give every
/// worker its own planner scratch state without locking.
///
/// Workers start on the first Submit, so a pool that never receives a task
/// (a service whose waves all plan on the calling thread) spawns no thread.
class ThreadPool {
 public:
  /// A pool of `threads` workers (clamped to >= 1), started on first use.
  explicit ThreadPool(int threads);

  /// Drains outstanding tasks, then joins all started workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return size_; }

  /// Enqueues a task, starting the workers if none runs yet. Tasks must not
  /// throw; an escaping exception terminates the process (workers run under
  /// noexcept semantics).
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished executing.
  /// The pool is reusable afterwards.
  void WaitIdle();

  /// Index of the pool worker executing the calling thread, or -1 when the
  /// caller is not a pool worker.
  static int CurrentWorkerIndex();

  /// Sensible default worker count for this machine.
  static int DefaultThreadCount() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }

 private:
  void WorkerLoop(int worker_index);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::int64_t in_flight_ = 0;  // queued + currently executing
  bool stopping_ = false;
  const int size_;
  std::vector<std::thread> workers_;  // empty until the first Submit
};

}  // namespace carp

#endif  // CARP_COMMON_THREAD_POOL_H_
