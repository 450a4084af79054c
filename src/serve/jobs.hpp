#pragma once
// Concurrent solve-job manager for the serve daemon (docs/serving.md).
//
// Many independent cases run concurrently on a bounded worker pool with a
// bounded admission queue (priority-ordered: higher priority first, FIFO
// within a priority), per-job cancellation, per-job deadlines, streamed
// NDJSON progress events, and spool-directory crash recovery: every
// admitted job's case text is spooled to disk, transient jobs checkpoint
// between steps, and a restarted daemon re-admits whatever was in flight
// — a resumed transient job continues from its last completed step and
// finishes bitwise identical to an uninterrupted run (tested).
//
// Determinism: jobs share compiled artifacts through the ArtifactCache,
// and every solve runs the same deterministic engine fvdf_sim uses, so a
// job's result is bitwise identical to a single-shot run of the same case
// regardless of what else the pool is doing.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "serve/cache.hpp"

namespace fvdf::serve {

enum class JobState : u8 { Queued, Running, Done, Failed, Cancelled, Expired };

const char* to_string(JobState state);

struct JobSpec {
  std::string id;        // client-chosen; [A-Za-z0-9._-], unique while live
  std::string case_text; // INI, the same schema tools/fvdf_sim reads
  i32 priority = 0;      // higher runs first; FIFO within a priority
  f64 deadline_seconds = 0; // wall budget from admission; 0 = none
  i32 sim_threads = -1;  // override solver.sim_threads; -1 = as configured
  bool return_field = false;     // include the pressure field in the result
  bool stream_residuals = false; // emit per-step / residual-history events
};

/// Receives one NDJSON event line (no trailing newline) per job event:
/// accepted, step, residuals, result, error. Called from worker threads;
/// must be internally synchronized and must not block for long.
using EventSink = std::function<void(const std::string& line)>;

/// Largest worker count a JobManager accepts. A larger request is
/// rejected before any worker thread starts.
inline constexpr u32 kMaxJobWorkers = 1024;

struct JobManagerConfig {
  u32 workers = 0; // 0 = one per usable CPU (usable_cpus())
  std::size_t queue_capacity = 64;
  // Crash/restart spool: <id>.case.ini at admission, <id>.ckpt between
  // transient steps, both removed on terminal states. Empty = disabled.
  std::string spool_dir;
  i64 checkpoint_every = 1; // transient steps between spooled checkpoints
};

struct JobStats {
  u64 accepted = 0;
  u64 rejected = 0;
  u64 completed = 0;
  u64 failed = 0;
  u64 cancelled = 0;
  u64 expired = 0;
  u64 recovered = 0;
  u64 queued_now = 0;
  u64 running_now = 0;
};

/// The simulator threads a job runs with when `workers` concurrent jobs
/// share `cpus` CPUs: its share, cpus / workers and at least 1, or fewer
/// when `requested` is below it (0 requests the whole share). The thread
/// count never changes a result, so the cap only keeps concurrent jobs
/// from oversubscribing the host.
u32 job_sim_threads(u32 requested, u32 cpus, u32 workers);

class JobManager {
public:
  JobManager(std::shared_ptr<ArtifactCache> cache, JobManagerConfig config);
  ~JobManager(); // graceful shutdown if still running

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Admits a job. On rejection returns false and (if non-null) fills
  /// `error_code` with queue_full | duplicate_id | invalid_id | draining;
  /// no events are emitted for rejected jobs — the caller reports the
  /// rejection on its own connection.
  bool submit(JobSpec spec, EventSink sink, std::string* error_code = nullptr);

  /// Requests cancellation. Queued jobs are cancelled immediately;
  /// a running transient job stops at its next step boundary; a running
  /// steady solve is uninterruptible (documented limitation) and the
  /// cancellation applies only if still queued. Returns false when the id
  /// is unknown or already terminal.
  bool cancel(const std::string& id);

  /// Scans the spool directory for jobs a previous daemon left behind and
  /// re-admits them with `sink` (transient jobs resume from their spooled
  /// checkpoint). Returns the number of jobs re-admitted.
  i64 recover(EventSink sink);

  /// Stops admitting, asks running transient jobs to stop at the next
  /// step boundary (their spool checkpoints survive for the next daemon),
  /// leaves queued jobs spooled, and joins the workers.
  void shutdown_graceful();

  /// Blocks until the queue is empty and no job is running.
  void wait_idle();

  JobStats stats() const;

  /// Size of the worker pool, after 0 resolved to the usable CPUs.
  u32 workers() const { return config_.workers; }
  /// Simulator threads each job may use (job_sim_threads' share).
  u32 sim_threads_per_job() const {
    return job_sim_threads(0, cpus_, config_.workers);
  }

private:
  struct Job {
    JobSpec spec;
    EventSink sink;
    u64 seq = 0;
    std::chrono::steady_clock::time_point admitted;
    std::atomic<bool> cancel_requested{false};
    JobState state = JobState::Queued; // guarded by mutex_
    bool resume_from_spool = false;
  };

  void worker_loop();
  void run_job(const std::shared_ptr<Job>& job);
  void finish(const std::shared_ptr<Job>& job, JobState state,
              bool keep_spool = false);
  void emit_error(const std::shared_ptr<Job>& job, const std::string& code,
                  const std::string& message);
  bool deadline_passed(const Job& job) const;
  std::string spool_case_path(const std::string& id) const;
  std::string spool_ckpt_path(const std::string& id) const;

  std::shared_ptr<ArtifactCache> cache_;
  JobManagerConfig config_;
  u32 cpus_; // usable_cpus() at construction

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  // Queue key: (-priority, admission seq) — map order is run order.
  std::map<std::pair<i64, u64>, std::shared_ptr<Job>> queue_;
  std::unordered_map<std::string, std::shared_ptr<Job>> live_; // by id
  u64 next_seq_ = 0;
  u64 admitting_ = 0; // admitted by submit(), not yet in queue_
  u64 running_ = 0;
  bool draining_ = false;
  JobStats stats_;

  std::vector<std::thread> workers_;
};

} // namespace fvdf::serve
