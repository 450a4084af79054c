#include "serve/jobs.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "app/scenario.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/json.hpp"
#include "telemetry/session.hpp"

namespace fvdf::serve {

namespace fs = std::filesystem;

namespace {

bool valid_id(const std::string& id) {
  if (id.empty() || id.size() > 128) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

f64 seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<f64>(std::chrono::steady_clock::now() - start)
      .count();
}

// Why a job's on_step returned false; decides the terminal event.
enum class StopReason : u8 { None, Cancelled, Deadline, Shutdown };

} // namespace

const char* to_string(JobState state) {
  switch (state) {
  case JobState::Queued: return "queued";
  case JobState::Running: return "running";
  case JobState::Done: return "done";
  case JobState::Failed: return "failed";
  case JobState::Cancelled: return "cancelled";
  case JobState::Expired: return "expired";
  }
  return "?";
}

u32 job_sim_threads(u32 requested, u32 cpus, u32 workers) {
  const u32 share = std::max(1u, cpus / std::max(1u, workers));
  return requested == 0 ? share : std::min(requested, share);
}

JobManager::JobManager(std::shared_ptr<ArtifactCache> cache,
                       JobManagerConfig config)
    : cache_(std::move(cache)), config_(std::move(config)),
      cpus_(usable_cpus()) {
  FVDF_CHECK_MSG(cache_ != nullptr, "JobManager requires an ArtifactCache");
  FVDF_CHECK_MSG(config_.workers <= kMaxJobWorkers,
                 "JobManager: " << config_.workers << " workers exceeds the cap of "
                                << kMaxJobWorkers);
  if (config_.workers == 0) config_.workers = std::min(cpus_, kMaxJobWorkers);
  if (config_.checkpoint_every < 1) config_.checkpoint_every = 1;
  if (!config_.spool_dir.empty()) fs::create_directories(config_.spool_dir);
  workers_.reserve(config_.workers);
  for (u32 i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

JobManager::~JobManager() { shutdown_graceful(); }

std::string JobManager::spool_case_path(const std::string& id) const {
  return (fs::path(config_.spool_dir) / (id + ".case.ini")).string();
}

std::string JobManager::spool_ckpt_path(const std::string& id) const {
  return (fs::path(config_.spool_dir) / (id + ".ckpt")).string();
}

bool JobManager::submit(JobSpec spec, EventSink sink, std::string* error_code) {
  // Caller must hold mutex_ (stats_ and the queue share its guard).
  auto reject = [&](const char* code) {
    if (error_code != nullptr) *error_code = code;
    ++stats_.rejected;
    return false;
  };
  if (!valid_id(spec.id)) {
    std::lock_guard<std::mutex> lock(mutex_);
    return reject("invalid_id");
  }

  auto job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->sink = std::move(sink);
  job->admitted = std::chrono::steady_clock::now();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return reject("draining");
    if (live_.count(job->spec.id) != 0) return reject("duplicate_id");
    if (queue_.size() + admitting_ >= config_.queue_capacity)
      return reject("queue_full");
    job->seq = next_seq_++;
    live_.emplace(job->spec.id, job);
    ++admitting_;
    ++stats_.accepted;
  }

  if (!config_.spool_dir.empty() && !job->resume_from_spool) {
    std::ofstream out(spool_case_path(job->spec.id),
                      std::ios::binary | std::ios::trunc);
    out << job->spec.case_text;
  }

  if (job->sink) {
    telemetry::JsonWriter writer;
    writer.begin_object()
        .kv("event", "accepted")
        .kv("id", job->spec.id)
        .kv("priority", job->spec.priority)
        .end_object();
    job->sink(writer.take());
  }

  // Runnable only now: no event of the job can precede "accepted", and
  // the job cannot finish (removing its spool file) before the file exists.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --admitting_;
    // A job cancelled while being admitted was finished by cancel().
    if (!job->cancel_requested.load(std::memory_order_relaxed))
      queue_.emplace(std::make_pair(-static_cast<i64>(job->spec.priority),
                                    job->seq),
                     job);
  }
  work_cv_.notify_one();
  return true;
}

bool JobManager::cancel(const std::string& id) {
  std::shared_ptr<Job> queued_victim;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = live_.find(id);
    if (it == live_.end()) return false;
    auto& job = it->second;
    job->cancel_requested.store(true, std::memory_order_relaxed);
    if (job->state == JobState::Queued) {
      queue_.erase(std::make_pair(-static_cast<i64>(job->spec.priority),
                                  job->seq));
      queued_victim = job;
    }
  }
  if (queued_victim != nullptr) {
    emit_error(queued_victim, "cancelled", "job cancelled while queued");
    finish(queued_victim, JobState::Cancelled);
  }
  return true;
}

i64 JobManager::recover(EventSink sink) {
  if (config_.spool_dir.empty() || !fs::exists(config_.spool_dir)) return 0;
  constexpr std::string_view kSuffix = ".case.ini";
  std::vector<std::string> ids;
  for (const auto& dirent : fs::directory_iterator(config_.spool_dir)) {
    const std::string name = dirent.path().filename().string();
    if (name.size() <= kSuffix.size() ||
        name.substr(name.size() - kSuffix.size()) != kSuffix)
      continue;
    ids.push_back(name.substr(0, name.size() - kSuffix.size()));
  }
  std::sort(ids.begin(), ids.end()); // deterministic re-admission order

  i64 recovered = 0;
  for (const std::string& id : ids) {
    std::ifstream in(spool_case_path(id), std::ios::binary);
    if (!in) continue;
    std::ostringstream text;
    text << in.rdbuf();

    JobSpec spec;
    spec.id = id;
    spec.case_text = text.str();
    auto job = std::make_shared<Job>();
    job->spec = std::move(spec);
    job->sink = sink;
    job->admitted = std::chrono::steady_clock::now();
    job->resume_from_spool = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (draining_ || live_.count(id) != 0 ||
          queue_.size() >= config_.queue_capacity)
        continue;
      job->seq = next_seq_++;
      live_.emplace(id, job);
      queue_.emplace(std::make_pair(i64{0}, job->seq), job);
      ++stats_.accepted;
      ++stats_.recovered;
    }
    ++recovered;
    work_cv_.notify_one();
  }
  return recovered;
}

void JobManager::shutdown_graceful() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ && workers_.empty()) return;
    draining_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  workers_.clear();
}

void JobManager::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

JobStats JobManager::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JobStats out = stats_;
  out.queued_now = queue_.size();
  out.running_now = running_;
  return out;
}

void JobManager::worker_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      // Draining: leave queued jobs spooled for the next daemon.
      if (draining_) return;
      const auto it = queue_.begin();
      job = it->second;
      queue_.erase(it);
      job->state = JobState::Running;
      ++running_;
    }
    run_job(job);
  }
}

bool JobManager::deadline_passed(const Job& job) const {
  return job.spec.deadline_seconds > 0 &&
         seconds_since(job.admitted) > job.spec.deadline_seconds;
}

void JobManager::emit_error(const std::shared_ptr<Job>& job,
                            const std::string& code,
                            const std::string& message) {
  if (!job->sink) return;
  telemetry::JsonWriter writer;
  writer.begin_object()
      .kv("event", "error")
      .kv("id", job->spec.id)
      .kv("code", code)
      .kv("message", message)
      .end_object();
  job->sink(writer.take());
}

void JobManager::finish(const std::shared_ptr<Job>& job, JobState state,
                        bool keep_spool) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->state = state;
    live_.erase(job->spec.id);
    switch (state) {
    case JobState::Done: ++stats_.completed; break;
    case JobState::Failed: ++stats_.failed; break;
    case JobState::Cancelled: ++stats_.cancelled; break;
    case JobState::Expired: ++stats_.expired; break;
    default: break;
    }
  }
  if (!config_.spool_dir.empty() && !keep_spool) {
    std::error_code ignored;
    fs::remove(spool_case_path(job->spec.id), ignored);
    fs::remove(spool_ckpt_path(job->spec.id), ignored);
  }
  idle_cv_.notify_all();
}

void JobManager::run_job(const std::shared_ptr<Job>& job) {
  // running_ was incremented at dequeue; every exit path below must go
  // through this helper exactly once.
  auto release_running = [this] {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
    }
    idle_cv_.notify_all();
  };

  if (job->cancel_requested.load(std::memory_order_relaxed)) {
    emit_error(job, "cancelled", "job cancelled before start");
    finish(job, JobState::Cancelled);
    release_running();
    return;
  }
  if (deadline_passed(*job)) {
    emit_error(job, "deadline",
               "deadline of " + std::to_string(job->spec.deadline_seconds) +
                   "s expired before the job started");
    finish(job, JobState::Expired);
    release_running();
    return;
  }

  // --- Setup: parse, content-addressed cache lookup, scenario build. ---
  const auto setup_start = std::chrono::steady_clock::now();
  Config config;
  std::shared_ptr<ArtifactCache::Entry> entry;
  app::Scenario scenario;
  bool cache_hit = false;
  try {
    config = Config::parse_string(job->spec.case_text);
    entry = cache_->acquire(config, &cache_hit);
    scenario = app::scenario_from_config(config, entry->problem);
  } catch (const std::exception& e) {
    emit_error(job, "invalid_case", e.what());
    finish(job, JobState::Failed);
    release_running();
    return;
  }
  if (job->spec.sim_threads >= 0)
    scenario.sim_threads = static_cast<u32>(job->spec.sim_threads);
  scenario.sim_threads =
      job_sim_threads(scenario.sim_threads, cpus_, config_.workers);
  // Service jobs never write client-configured artifacts from the daemon
  // process; outputs flow back over the wire.
  scenario.vtk_path.clear();
  scenario.checkpoint_path.clear();
  scenario.heatmap = false;
  scenario.host_profile_dir.clear();

  const std::string ckpt_path =
      config_.spool_dir.empty() ? std::string() : spool_ckpt_path(job->spec.id);
  if (job->resume_from_spool && !ckpt_path.empty() && fs::exists(ckpt_path))
    scenario.resume_path = ckpt_path;

  app::RunHooks hooks;
  hooks.artifacts = entry->artifacts;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    hooks.skip_verify = entry->verified;
  }

  StopReason stop = StopReason::None;
  const auto& mesh = entry->problem->mesh();
  hooks.on_step = [&](i64 step, i64 total_steps, u64 iterations,
                      const std::vector<f64>& state) {
    if (job->sink && job->spec.stream_residuals) {
      telemetry::JsonWriter writer;
      writer.begin_object()
          .kv("event", "step")
          .kv("id", job->spec.id)
          .kv("step", step + 1)
          .kv("steps", total_steps)
          .kv("iterations", iterations)
          .end_object();
      job->sink(writer.take());
    }
    if (!ckpt_path.empty() && (step + 1) % config_.checkpoint_every == 0) {
      FieldCheckpoint checkpoint;
      checkpoint.nx = mesh.nx();
      checkpoint.ny = mesh.ny();
      checkpoint.nz = mesh.nz();
      checkpoint.fields["pressure"] = state;
      checkpoint.fields["transient_step"] = {static_cast<f64>(step + 1)};
      save_checkpoint(ckpt_path, checkpoint);
    }
    if (job->cancel_requested.load(std::memory_order_relaxed)) {
      stop = StopReason::Cancelled;
      return false;
    }
    if (deadline_passed(*job)) {
      stop = StopReason::Deadline;
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (draining_) {
        stop = StopReason::Shutdown;
        return false;
      }
    }
    return true;
  };

  std::unique_ptr<telemetry::Session> telemetry;
  if (job->spec.stream_residuals && !scenario.transient &&
      scenario.backend == app::Backend::Dataflow) {
    telemetry = std::make_unique<telemetry::Session>();
    hooks.telemetry = telemetry.get();
  }

  const f64 setup_seconds = seconds_since(setup_start);

  // --- Solve. ---
  const auto solve_start = std::chrono::steady_clock::now();
  std::ostringstream log;
  app::ScenarioOutcome outcome;
  try {
    outcome = app::run_scenario(scenario, log, &hooks);
  } catch (const std::exception& e) {
    emit_error(job, "internal", e.what());
    finish(job, JobState::Failed);
    release_running();
    return;
  }
  const f64 solve_seconds = seconds_since(solve_start);

  if (scenario.verify && !hooks.skip_verify) {
    // run_scenario's verify preflight passed (it throws otherwise);
    // later jobs of this case skip it.
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->verified = true;
  }

  if (outcome.interrupted) {
    switch (stop) {
    case StopReason::Cancelled:
      emit_error(job, "cancelled",
                 "job cancelled at step " +
                     std::to_string(outcome.steps_completed) + "/" +
                     std::to_string(scenario.steps));
      finish(job, JobState::Cancelled);
      break;
    case StopReason::Deadline:
      emit_error(job, "deadline",
                 "deadline of " + std::to_string(job->spec.deadline_seconds) +
                     "s expired at step " +
                     std::to_string(outcome.steps_completed) + "/" +
                     std::to_string(scenario.steps));
      finish(job, JobState::Expired);
      break;
    default:
      // Shutdown: the spooled checkpoint is the hand-off to the next
      // daemon — recover() resumes from here.
      emit_error(job, "shutdown",
                 "daemon shutting down; job checkpointed at step " +
                     std::to_string(outcome.steps_completed) + "/" +
                     std::to_string(scenario.steps) +
                     " and will resume on restart");
      finish(job, JobState::Failed, /*keep_spool=*/true);
      break;
    }
    release_running();
    return;
  }

  if (job->sink) {
    if (job->spec.stream_residuals && !outcome.residual_history.empty()) {
      telemetry::JsonWriter writer;
      writer.begin_object()
          .kv("event", "residuals")
          .kv("id", job->spec.id)
          .key("values")
          .begin_array();
      for (const f64 value : outcome.residual_history) writer.value(value);
      writer.end_array().end_object();
      job->sink(writer.take());
    }

    telemetry::JsonWriter writer;
    writer.begin_object()
        .kv("event", "result")
        .kv("id", job->spec.id)
        .kv("fingerprint", entry->fingerprint)
        .kv("cache", cache_hit ? "hit" : "miss")
        .kv("converged", outcome.converged)
        .kv("iterations", outcome.iterations)
        .kv("steps_completed", outcome.steps_completed)
        .kv("residual_norm", outcome.residual_norm)
        .kv("setup_seconds", setup_seconds)
        .kv("solve_seconds", solve_seconds)
        .kv("pressure_hash",
            hash_hex(fnv1a64(outcome.pressure.data(),
                             outcome.pressure.size() * sizeof(f64))));
    if (job->spec.return_field) {
      writer.key("pressure").begin_array();
      for (const f64 value : outcome.pressure) writer.value(value);
      writer.end_array();
    }
    writer.end_object();
    job->sink(writer.take());
  }

  finish(job, JobState::Done);
  release_running();
}

} // namespace fvdf::serve
