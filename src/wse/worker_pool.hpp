#pragma once
// Persistent two-phase worker pool for the parallel fabric engine.
//
// The sharded event engine executes in rounds: every worker processes its
// shards' windows (phase 0), all workers synchronize, then every worker
// merges the cross-shard traffic its shards received and recomputes their
// lookahead bounds (phase 1). The generic common/thread_pool.hpp paid a
// mutex + condition-variable round trip per dispatch and re-spawned
// threads whenever the worker count changed; at the fabric's round rates
// (thousands per run) that dominated the multi-thread profile. This pool
// keeps its workers between rounds, runs the calling thread as worker 0,
// and separates the two phases with a sense-reversing spin-then-sleep
// barrier — a round with every worker on its own core costs two atomic
// round-trips per worker and zero allocations.
//
// Every wait (the round start and the barrier) spins a bounded number of
// times, then sleeps on a mutex + condition_variable with a predicate; the
// waker flips the word under the mutex before notifying. Sleeping on the
// atomic itself (std::atomic::wait / notify_all) lost wakeups under
// libstdc++ 12: notify_all reads the waiter count after the releasing
// store without a full fence, so it could skip the futex wake while a
// waiter was going to sleep, and the whole pool then slept forever.
//
// The first exception thrown by any phase call is captured and rethrown
// from run_round() on the calling thread after the round completes, so a
// kernel FVDF_CHECK inside a window surfaces exactly as in the serial
// engine.

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace fvdf::telemetry {
class HostProfiler;
}

namespace fvdf::wse {

/// Optional NUMA placement for a pool's workers: worker w pins itself to
/// worker_cpus[w] on startup (best-effort — pinning failure is ignored).
/// An empty worker_cpus, or an empty list for a worker, means "don't pin".
/// Worker 0 is the calling thread and is never pinned: the caller's
/// affinity belongs to the application.
struct WorkerPlacement {
  std::vector<std::vector<int>> worker_cpus;
};

/// Sense-reversing barrier: spins briefly (skipped when the host is
/// oversubscribed), then sleeps on a condition variable until the sense
/// flips. Reusable back-to-back — the sense is a monotonic counter, so a
/// late waker that missed several flips still falls through.
class SpinBarrier {
public:
  SpinBarrier(u32 parties, u32 spin_iters)
      : parties_(parties), spin_iters_(spin_iters) {}

  void arrive_and_wait();

private:
  const u32 parties_;
  const u32 spin_iters_;
  std::atomic<u32> arrived_{0};
  std::atomic<u32> sense_{0};
  std::mutex mutex_; // guards sense_ flips against sleepers' predicate checks
  std::condition_variable flipped_;
};

class FabricWorkerPool {
public:
  /// fn(worker, phase) with worker in [0, size()) and phase in {0, 1}.
  using PhaseFn = std::function<void(u32 worker, u32 phase)>;

  /// `workers` >= 2 total workers; the constructor spawns `workers - 1`
  /// threads and run_round()'s caller acts as worker 0. `placement`
  /// optionally pins each spawned worker near its shards' NUMA node (see
  /// WorkerPlacement).
  explicit FabricWorkerPool(u32 workers, WorkerPlacement placement = {});
  ~FabricWorkerPool();

  FabricWorkerPool(const FabricWorkerPool&) = delete;
  FabricWorkerPool& operator=(const FabricWorkerPool&) = delete;

  u32 size() const { return workers_; }

  /// Runs fn(w, 0) on every worker, a barrier, then fn(w, 1); returns once
  /// both phases finished everywhere. Rethrows the first captured
  /// exception.
  void run_round(const PhaseFn& fn);

  /// Attaches a host profiler (nullptr to detach): each worker then records
  /// its run / barrier / merge / park transitions into its own timeline
  /// (telemetry/host_profiler.hpp). Call between rounds only — the pointer
  /// is published to the workers by run_round()'s epoch release, like fn_.
  /// Workers > 0 cannot time their trailing barrier from inside (they park
  /// right after arriving), so it is folded into their next Park interval;
  /// worker 0 accounts both barriers exactly. Compiled out (the hooks, not
  /// the setter) under -DFVDF_TELEMETRY=OFF.
  void set_profiler(telemetry::HostProfiler* profiler) { profiler_ = profiler; }

private:
  void worker_loop(u32 id);
  void run_phases(u32 id);
  void record_error();

  const u32 workers_;
  const WorkerPlacement placement_;
  const u32 spin_iters_;
  std::atomic<u64> epoch_{0}; // bumped under wake_mutex_ to start a round
  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::atomic<bool> stop_{false};
  const PhaseFn* fn_ = nullptr; // valid for the duration of one round
  telemetry::HostProfiler* profiler_ = nullptr; // null = no host profiling
  SpinBarrier barrier_;
  std::mutex error_mutex_;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

} // namespace fvdf::wse
