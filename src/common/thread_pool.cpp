#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include <sched.h>

#include "common/error.hpp"

namespace fvdf {

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? usable_cpus() : threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    FVDF_CHECK_MSG(!stop_, "submit() after shutdown");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t, std::size_t)>& fn,
                              std::size_t grain) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  if (grain == 0) grain = std::max<std::size_t>(1, total / (4 * size()));
  // Exceptions thrown inside chunks are captured and rethrown to the caller
  // (first one wins) so failures inside simulated kernels surface in tests.
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  std::size_t chunk_begin = begin;
  std::size_t chunks = 0;
  while (chunk_begin < end) {
    const std::size_t chunk_end = std::min(end, chunk_begin + grain);
    ++chunks;
    submit([&, chunk_begin, chunk_end] {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        fn(chunk_begin, chunk_end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!failed.exchange(true)) first_error = std::current_exception();
      }
    });
    chunk_begin = chunk_end;
  }
  (void)chunks;
  wait_idle();
  if (failed.load()) std::rethrow_exception(first_error);
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    task_available_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
    if (stop_ && tasks_.empty()) return;
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop();
    lock.unlock();
    task();
    lock.lock();
    --in_flight_;
    if (in_flight_ == 0) idle_.notify_all();
  }
}

} // namespace fvdf
