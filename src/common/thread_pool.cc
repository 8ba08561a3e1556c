#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

namespace carp {

namespace {
thread_local int t_worker_index = -1;
}  // namespace

ThreadPool::ThreadPool(int threads) : size_(std::max(1, threads)) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (workers_.empty()) {
      // The new workers block on mutex_ until this Submit releases it.
      workers_.reserve(static_cast<std::size_t>(size_));
      for (int i = 0; i < size_; ++i) {
        workers_.emplace_back([this, i] { WorkerLoop(i); });
      }
    }
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_ready_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

int ThreadPool::CurrentWorkerIndex() { return t_worker_index; }

void ThreadPool::WorkerLoop(int worker_index) {
  t_worker_index = worker_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace carp
