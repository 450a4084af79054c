#include "wse/worker_pool.hpp"

#include "wse/placement.hpp"

#ifndef FVDF_TELEMETRY_DISABLED
#include "telemetry/host_profiler.hpp"
#endif

namespace fvdf::wse {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Spinning only pays when every worker owns a core; oversubscribed hosts
/// (CI containers, laptops under load) are better off parking immediately.
u32 pick_spin_iters(u32 workers) {
  const u32 hw = std::thread::hardware_concurrency();
  return (hw != 0 && workers <= hw) ? 256 : 0;
}

} // namespace

void SpinBarrier::arrive_and_wait() {
  const u32 sense = sense_.load(std::memory_order_relaxed);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    arrived_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      sense_.store(sense + 1, std::memory_order_release);
    }
    flipped_.notify_all();
    return;
  }
  for (u32 i = 0; i < spin_iters_; ++i) {
    if (sense_.load(std::memory_order_acquire) != sense) return;
    cpu_relax();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  flipped_.wait(lock, [&] {
    return sense_.load(std::memory_order_acquire) != sense;
  });
}

FabricWorkerPool::FabricWorkerPool(u32 workers, WorkerPlacement placement)
    : workers_(workers), placement_(std::move(placement)),
      spin_iters_(pick_spin_iters(workers)), barrier_(workers, spin_iters_) {
  threads_.reserve(workers_ - 1);
  for (u32 id = 1; id < workers_; ++id)
    threads_.emplace_back([this, id] { worker_loop(id); });
}

FabricWorkerPool::~FabricWorkerPool() {
  stop_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void FabricWorkerPool::run_round(const PhaseFn& fn) {
  fn_ = &fn;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  wake_.notify_all();
  run_phases(0);
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void FabricWorkerPool::worker_loop(u32 id) {
  // Best-effort NUMA pinning before the first round; a failed pin leaves
  // the thread free-floating, which is always correct.
  if (id < placement_.worker_cpus.size())
    pin_current_thread_to_cpus(placement_.worker_cpus[id]);
  u64 seen = 0;
  for (;;) {
    u64 epoch = epoch_.load(std::memory_order_acquire);
    for (u32 i = 0; i < spin_iters_ && epoch == seen; ++i) {
      cpu_relax();
      epoch = epoch_.load(std::memory_order_acquire);
    }
    if (epoch == seen) {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_.wait(lock, [&] {
        return epoch_.load(std::memory_order_acquire) != seen;
      });
      epoch = epoch_.load(std::memory_order_acquire);
    }
    seen = epoch;
    if (stop_.load(std::memory_order_relaxed)) return;
    run_phases(id);
  }
}

void FabricWorkerPool::run_phases(u32 id) {
  // Both phases always reach both barriers, exception or not, so a throw
  // in one worker's window can never deadlock the others.
  const PhaseFn& fn = *fn_;
#ifndef FVDF_TELEMETRY_DISABLED
  // Timeline discipline (see HostProfiler's threading contract): worker w
  // writes only its own timeline, and only between its wake and its final
  // barrier arrival of the round. Worker 0's trailing enter(Drive) happens
  // after the last barrier — safe, it is the driver.
  telemetry::HostProfiler* const prof = profiler_;
  if (prof != nullptr)
    prof->timeline(id).enter(telemetry::HostState::Run, prof->now());
#endif
  try {
    fn(id, 0);
  } catch (...) {
    record_error();
  }
#ifndef FVDF_TELEMETRY_DISABLED
  if (prof != nullptr)
    prof->timeline(id).enter(telemetry::HostState::Barrier, prof->now());
#endif
  barrier_.arrive_and_wait();
#ifndef FVDF_TELEMETRY_DISABLED
  if (prof != nullptr)
    prof->timeline(id).enter(telemetry::HostState::Merge, prof->now());
#endif
  try {
    fn(id, 1);
  } catch (...) {
    record_error();
  }
#ifndef FVDF_TELEMETRY_DISABLED
  if (prof != nullptr)
    prof->timeline(id).enter(id == 0 ? telemetry::HostState::Barrier
                                     : telemetry::HostState::Park,
                             prof->now());
#endif
  barrier_.arrive_and_wait();
#ifndef FVDF_TELEMETRY_DISABLED
  if (prof != nullptr && id == 0)
    prof->timeline(0).enter(telemetry::HostState::Drive, prof->now());
#endif
}

void FabricWorkerPool::record_error() {
  std::lock_guard<std::mutex> lock(error_mutex_);
  if (!error_) error_ = std::current_exception();
}

} // namespace fvdf::wse
