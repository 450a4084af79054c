#pragma once
// A small work-stealing-free thread pool with a blocking parallel_for.
//
// Used by (a) the threaded host FV operator and (b) the CUDA-execution-model
// emulator, which maps threadblocks onto pool workers. The pool follows the
// MPI-tutorial mental model: explicit parallelism, no hidden sharing — tasks
// receive disjoint index ranges.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace fvdf {

/// CPUs this process may run on: the size of its affinity mask (so a
/// process under taskset or a cpuset sizes itself to what it was given),
/// else std::thread::hardware_concurrency(); at least 1.
unsigned usable_cpus();

class ThreadPool {
public:
  /// Creates `threads` workers. 0 means usable_cpus().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue an arbitrary task. Fire-and-forget; use parallel_for for
  /// synchronized bulk work.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has completed.
  void wait_idle();

  /// Runs fn(begin..end) split into ~grain-sized chunks across the pool and
  /// blocks until completion. fn receives [chunk_begin, chunk_end).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t grain = 0);

private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

} // namespace fvdf
