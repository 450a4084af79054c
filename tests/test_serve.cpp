// Serve subsystem tests: JSON parser strictness, content-addressed cache
// key stability, concurrent-job determinism against single-shot runs,
// cancellation / deadlines, spool-based restart, and the socket server
// end to end.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "app/scenario.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/jobs.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "telemetry/json.hpp"
#include "telemetry/registry.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace fvdf::serve {
namespace {

// ---------- JSON parser ----------

TEST(ServeJson, ParsesScalarsAndContainers) {
  const JsonValue v = JsonValue::parse(
      R"({"a": 1.5, "b": [true, false, null], "c": {"d": "x\ny"}, "n": -3})");
  EXPECT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.get_f64("a", 0), 1.5);
  EXPECT_EQ(v.get_i64("n", 0), -3);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->items().size(), 3u);
  EXPECT_TRUE(b->items()[0].as_bool());
  EXPECT_EQ(b->items()[2].kind(), JsonValue::Kind::Null);
  const JsonValue* c = v.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->get_string("d", ""), "x\ny");
}

TEST(ServeJson, DecodesUnicodeEscapes) {
  const JsonValue v = JsonValue::parse(R"(["\u0041\u00e9", "\ud83d\ude00"])");
  EXPECT_EQ(v.items()[0].as_string(), "A\xc3\xa9");
  EXPECT_EQ(v.items()[1].as_string(), "\xf0\x9f\x98\x80");
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), Error);
  EXPECT_THROW(JsonValue::parse("{"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), Error);
  EXPECT_THROW(JsonValue::parse("[1 2]"), Error);
  EXPECT_THROW(JsonValue::parse("01"), Error);
  EXPECT_THROW(JsonValue::parse("1e"), Error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), Error);
  EXPECT_THROW(JsonValue::parse("\"\\ud800\""), Error); // unpaired surrogate
  EXPECT_THROW(JsonValue::parse("{} {}"), Error);       // trailing content
  EXPECT_THROW(JsonValue::parse("nul"), Error);
}

TEST(ServeJson, TypedGettersThrowOnWrongKind) {
  const JsonValue v = JsonValue::parse(R"({"s": "text", "n": 4})");
  EXPECT_EQ(v.get_string("missing", "fallback"), "fallback");
  EXPECT_THROW(v.get_i64("s", 0), Error); // present but wrong kind
  EXPECT_THROW(v.get_string("n", ""), Error);
  EXPECT_THROW(JsonValue::parse("2.5").as_i64(), Error); // not integral
}

TEST(ServeJson, RoundTripsWriterOutput) {
  // The daemon parses what JsonWriter emits; prove the pair agrees on a
  // case-text payload with newlines and quotes.
  const std::string text = "[mesh]\nnx = 4\n# \"quoted\"\n";
  telemetry::JsonWriter writer;
  writer.begin_object().kv("case", text).end_object();
  const JsonValue parsed = JsonValue::parse(writer.take());
  EXPECT_EQ(parsed.get_string("case", ""), text);
}

// ---------- Case canonicalization / cache keys ----------

constexpr const char* kBaseCase = R"(
[mesh]
nx = 8
ny = 8
nz = 2

[perm]
kind = lognormal
sigma = 1.0
seed = 7

[solver]
backend = dataflow
tolerance = 1e-8
)";

TEST(ServeCacheKey, ExecutionKnobsDoNotChangeTheFingerprint) {
  const Config base = Config::parse_string(kBaseCase);
  const std::string fp = app::case_fingerprint(base);

  // sim_threads, verify and output artifacts never change results, so
  // they must not change the key either.
  const Config variant = Config::parse_string(
      std::string(kBaseCase) +
      "sim_threads = 4\nverify = true\n\n[output]\nvtk = out.vtk\n");
  EXPECT_EQ(app::case_fingerprint(variant), fp);

  // Spelling defaults explicitly is also identity.
  const Config spelled = Config::parse_string(
      std::string(kBaseCase) + "max_iterations = 100000\n");
  EXPECT_EQ(app::case_fingerprint(spelled), fp);
}

TEST(ServeCacheKey, PhysicsChangesChangeTheFingerprint) {
  const Config base = Config::parse_string(kBaseCase);
  const std::string fp = app::case_fingerprint(base);
  const char* variants[] = {
      "[mesh]\nnx = 9\nny = 8\nnz = 2\n[perm]\nkind = lognormal\nsigma = "
      "1.0\nseed = 7\n[solver]\nbackend = dataflow\ntolerance = 1e-8\n",
      "[mesh]\nnx = 8\nny = 8\nnz = 2\n[perm]\nkind = lognormal\nsigma = "
      "1.0\nseed = 8\n[solver]\nbackend = dataflow\ntolerance = 1e-8\n",
      "[mesh]\nnx = 8\nny = 8\nnz = 2\n[perm]\nkind = lognormal\nsigma = "
      "1.0\nseed = 7\n[solver]\nbackend = dataflow\ntolerance = 1e-9\n",
  };
  for (const char* text : variants)
    EXPECT_NE(app::case_fingerprint(Config::parse_string(text)), fp) << text;
}

TEST(ServeCache, CountsHitsMissesAndEvictions) {
  telemetry::MetricsRegistry metrics(1);
  ArtifactCache cache(2, &metrics);
  const Config a = Config::parse_string(kBaseCase);
  bool hit = true;
  auto entry1 = cache.acquire(a, &hit);
  EXPECT_FALSE(hit);
  auto entry2 = cache.acquire(a, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(entry1.get(), entry2.get());
  EXPECT_EQ(entry1->problem.get(), entry2->problem.get());

  // Two more distinct cases overflow capacity 2 and evict the oldest.
  const std::string text(kBaseCase);
  cache.acquire(Config::parse_string(text + "max_iterations = 7\n"));
  cache.acquire(Config::parse_string(text + "max_iterations = 9\n"));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(metrics.counter_value(metrics.counter("serve.cache.hits")), 1u);
  EXPECT_EQ(metrics.counter_value(metrics.counter("serve.cache.misses")), 3u);
  EXPECT_EQ(metrics.counter_value(metrics.counter("serve.cache.evictions")),
            1u);
}

TEST(ServeCache, ConcurrentColdAcquiresBuildOnce) {
  // Eight jobs of one cold case released together: one builds, the rest
  // wait on its in-flight entry and share it.
  ArtifactCache cache(4);
  const Config config = Config::parse_string(
      "[mesh]\nnx = 64\nny = 64\nnz = 8\n[perm]\nkind = lognormal\n"
      "sigma = 1.0\nseed = 3\n[solver]\nbackend = dataflow\n");
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<ArtifactCache::Entry>> entries(kThreads);
  std::mutex mutex;
  std::condition_variable cv;
  int waiting = 0;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (++waiting == kThreads) cv.notify_all();
        cv.wait(lock, [&] { return waiting == kThreads; });
      }
      entries[static_cast<std::size_t>(i)] = cache.acquire(config);
    });
  for (std::thread& thread : threads) thread.join();
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<u64>(kThreads - 1));
  EXPECT_EQ(stats.entries, 1u);
  for (const auto& entry : entries) EXPECT_EQ(entry.get(), entries[0].get());

  // A build that throws hands its exception to every waiter and leaves no
  // entry behind.
  ArtifactCache failing(4);
  const Config bad = Config::parse_string("[mesh]\nnx = -3\n");
  std::vector<std::string> errors(kThreads);
  waiting = 0;
  threads.clear();
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (++waiting == kThreads) cv.notify_all();
        cv.wait(lock, [&] { return waiting == kThreads; });
      }
      try {
        failing.acquire(bad);
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(i)] = e.what();
      }
    });
  for (std::thread& thread : threads) thread.join();
  for (const std::string& error : errors) {
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(error, errors[0]);
  }
  EXPECT_EQ(failing.stats().entries, 0u);
}

// ---------- Job manager ----------

struct EventLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<JsonValue> events;

  EventSink sink() {
    return [this](const std::string& line) {
      JsonValue event = JsonValue::parse(line); // every event line is JSON
      std::lock_guard<std::mutex> lock(mutex);
      events.push_back(std::move(event));
      cv.notify_all();
    };
  }

  // Blocks until an event for `id` with kind `event` arrives; returns it.
  JsonValue await(const std::string& id, const std::string& kind) {
    std::unique_lock<std::mutex> lock(mutex);
    JsonValue found;
    cv.wait(lock, [&] {
      for (const JsonValue& e : events)
        if (e.get_string("id", "") == id && e.get_string("event", "") == kind) {
          found = e;
          return true;
        }
      return false;
    });
    return found;
  }

  i64 count(const std::string& id, const std::string& kind) {
    std::lock_guard<std::mutex> lock(mutex);
    i64 n = 0;
    for (const JsonValue& e : events)
      n += (e.get_string("id", "") == id && e.get_string("event", "") == kind);
    return n;
  }
};

std::string hash_of(const std::vector<f64>& values) {
  return hash_hex(fnv1a64(values.data(), values.size() * sizeof(f64)));
}

TEST(ServeJobs, ConcurrentJobsMatchSingleShotBitwise) {
  // Two distinct cases, several concurrent submissions each, at one, two
  // and the default number of workers: every result hash must equal the
  // single-shot run_scenario hash of the same case — concurrency and
  // artifact reuse never change results.
  const std::string case_a(kBaseCase);
  const std::string case_b(std::string(kBaseCase) + "max_iterations = 50\n");

  std::map<std::string, std::string> expected;
  for (const auto& [name, text] :
       {std::pair<std::string, std::string>{"a", case_a}, {"b", case_b}}) {
    auto scenario = app::scenario_from_config(Config::parse_string(text));
    std::ostringstream log;
    expected[name] = hash_of(app::run_scenario(scenario, log).pressure);
  }

  for (const u32 workers : {1u, 2u, 0u}) {
    auto cache = std::make_shared<ArtifactCache>(8);
    JobManagerConfig config;
    config.workers = workers;
    EventLog log;
    JobManager jobs(cache, config);
    for (int i = 0; i < 3; ++i) {
      for (const auto& [name, text] :
           {std::pair<std::string, std::string>{"a", case_a}, {"b", case_b}}) {
        JobSpec spec;
        spec.id = name + std::to_string(i);
        spec.case_text = text;
        ASSERT_TRUE(jobs.submit(std::move(spec), log.sink()));
      }
    }
    jobs.wait_idle();
    for (int i = 0; i < 3; ++i) {
      for (const char* name : {"a", "b"}) {
        const JsonValue result = log.await(name + std::to_string(i), "result");
        EXPECT_EQ(result.get_string("pressure_hash", ""), expected[name])
            << name << i << " at " << workers << " workers";
        EXPECT_TRUE(result.get_bool("converged", false));
      }
    }
    const CacheStats stats = cache->stats();
    if (workers == 1 || workers == 2) {
      // 2 misses (first of each case), 4 hits.
      EXPECT_EQ(stats.misses, 2u);
      EXPECT_EQ(stats.hits, 4u);
    } else {
      // More workers may start two jobs of one case together; both miss
      // and the cache keeps the first entry built.
      EXPECT_GE(stats.misses, 2u);
      EXPECT_EQ(stats.misses + stats.hits, 6u);
    }
  }
}

TEST(ServeJobs, DefaultsToOneWorkerPerUsableCpu) {
  auto cache = std::make_shared<ArtifactCache>(1);
  JobManager jobs(cache, JobManagerConfig{});
  EXPECT_EQ(jobs.workers(), std::min(usable_cpus(), kMaxJobWorkers));
  EXPECT_EQ(jobs.sim_threads_per_job(), 1u);
}

TEST(ServeJobs, RejectsAWorkerCountAboveTheCapBeforeStartingThreads) {
  // The cap is checked before the first worker thread is created.
  auto cache = std::make_shared<ArtifactCache>(1);
  JobManagerConfig config;
  config.workers = kMaxJobWorkers + 1;
  EXPECT_THROW(JobManager(cache, config), Error);
}

TEST(ServeJobs, SimThreadsOverrideKeepsResultsIdentical) {
  auto cache = std::make_shared<ArtifactCache>(4);
  JobManagerConfig config;
  config.workers = 1;
  EventLog log;
  JobManager jobs(cache, config);
  std::string first_hash;
  int index = 0;
  // 0 asks for the job's whole share; 64 is capped at it.
  for (const i32 threads : {0, 1, 2, 4, 64}) {
    JobSpec spec;
    spec.id = "t" + std::to_string(index++);
    spec.case_text = kBaseCase;
    spec.sim_threads = threads;
    ASSERT_TRUE(jobs.submit(std::move(spec), log.sink()));
  }
  jobs.wait_idle();
  for (int i = 0; i < index; ++i) {
    const JsonValue result = log.await("t" + std::to_string(i), "result");
    const std::string hash = result.get_string("pressure_hash", "");
    if (first_hash.empty()) first_hash = hash;
    EXPECT_EQ(hash, first_hash) << "sim_threads changed the result";
  }
  EXPECT_EQ(jobs.sim_threads_per_job(), usable_cpus());

  // The thread budget: a job never runs more simulator threads than its
  // share of the CPUs, 0 takes the whole share, and a smaller request is
  // kept as it is.
  for (const u32 cpus : {1u, 2u, 3u, 4u, 8u, 64u})
    for (const u32 workers : {1u, 2u, 3u, 4u, 8u, 100u}) {
      const u32 share = std::max(1u, cpus / workers);
      EXPECT_EQ(job_sim_threads(0, cpus, workers), share);
      for (const u32 requested : {1u, 2u, 4u, 64u})
        EXPECT_EQ(job_sim_threads(requested, cpus, workers),
                  std::min(requested, share))
            << requested << " requested, " << cpus << " cpus, " << workers
            << " workers";
    }
}

// ---------- fvdf_serve command line ----------

// Parses `flag value` after a --socket; returns the rejection reason.
std::string parse_flag(const std::string& flag, const std::string& value,
                       ServerConfig& config) {
  const char* argv[] = {"fvdf_serve", "--socket", "s.sock", flag.c_str(),
                        value.c_str()};
  return parse_server_args(5, argv, config);
}

TEST(ServeArgs, RejectsNonNumericNegativeAndOutOfRangeValues) {
  for (const char* flag : {"--workers", "--queue-capacity", "--cache-capacity",
                           "--checkpoint-every", "--http-port"})
    for (const char* bad : {"-1", "abc", "99999999999", "", "4x", "+4"}) {
      ServerConfig config;
      EXPECT_NE(parse_flag(flag, bad, config), "") << flag << " " << bad;
    }
  ServerConfig config;
  EXPECT_EQ(parse_flag("--workers", std::to_string(kMaxJobWorkers), config), "");
  EXPECT_NE(parse_flag("--workers", std::to_string(kMaxJobWorkers + 1), config),
            "");
  EXPECT_NE(parse_flag("--http-port", "65536", config), "");
  // 0 is no queue, cache or checkpoint interval at all.
  for (const char* flag :
       {"--queue-capacity", "--cache-capacity", "--checkpoint-every"})
    EXPECT_NE(parse_flag(flag, "0", config), "") << flag;
}

TEST(ServeArgs, AcceptsInRangeValues) {
  ServerConfig config;
  EXPECT_EQ(parse_flag("--workers", "0", config), "");
  EXPECT_EQ(config.jobs.workers, 0u); // one per usable CPU
  EXPECT_EQ(parse_flag("--workers", "3", config), "");
  EXPECT_EQ(config.jobs.workers, 3u);
  EXPECT_EQ(parse_flag("--http-port", "0", config), ""); // ephemeral
  EXPECT_EQ(config.http_port, 0);
  EXPECT_EQ(parse_flag("--queue-capacity", "8", config), "");
  EXPECT_EQ(config.jobs.queue_capacity, 8u);
  EXPECT_EQ(parse_flag("--cache-capacity", "5", config), "");
  EXPECT_EQ(config.cache_capacity, 5u);
  EXPECT_EQ(parse_flag("--checkpoint-every", "2", config), "");
  EXPECT_EQ(config.jobs.checkpoint_every, 2);
  EXPECT_EQ(config.socket_path, "s.sock");
}

TEST(ServeArgs, RejectsUnknownFlagsAndMissingValues) {
  ServerConfig config;
  EXPECT_NE(parse_flag("--wokers", "2", config), "");
  const char* no_value[] = {"fvdf_serve", "--socket", "s.sock", "--workers"};
  EXPECT_NE(parse_server_args(4, no_value, config), "");
  const char* no_socket[] = {"fvdf_serve", "--workers", "2"};
  ServerConfig fresh;
  EXPECT_NE(parse_server_args(3, no_socket, fresh), "");
}

constexpr const char* kTransientCase = R"(
[mesh]
nx = 8
ny = 8
nz = 1

[perm]
kind = layered

[solver]
backend = dataflow
tolerance = 1e-8

[transient]
enabled = true
dt = 0.5
steps = 12
)";

TEST(ServeJobs, RejectsBadSubmissions) {
  auto cache = std::make_shared<ArtifactCache>(4);
  JobManagerConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  EventLog log;
  JobManager jobs(cache, config);

  std::string code;
  JobSpec bad_id;
  bad_id.id = "no spaces allowed";
  bad_id.case_text = kBaseCase;
  EXPECT_FALSE(jobs.submit(bad_id, log.sink(), &code));
  EXPECT_EQ(code, "invalid_id");

  // Fill the single queue slot behind a busy worker, then overflow it.
  JobSpec running;
  running.id = "busy";
  running.case_text = kTransientCase;
  ASSERT_TRUE(jobs.submit(running, log.sink()));
  log.await("busy", "accepted");

  JobSpec queued;
  queued.id = "queued";
  queued.case_text = kBaseCase;
  JobSpec duplicate = queued;
  JobSpec overflow;
  overflow.id = "overflow";
  overflow.case_text = kBaseCase;

  // The busy job may briefly still be queued; poll until the slot frees.
  while (!jobs.submit(queued, log.sink(), &code))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(jobs.submit(duplicate, log.sink(), &code));
  EXPECT_EQ(code, "duplicate_id");
  EXPECT_FALSE(jobs.submit(overflow, log.sink(), &code));
  EXPECT_EQ(code, "queue_full");
  jobs.wait_idle();

  // An unparseable case fails with an actionable invalid_case error.
  JobSpec invalid;
  invalid.id = "invalid";
  invalid.case_text = "[mesh]\nnx = not_a_number\n";
  ASSERT_TRUE(jobs.submit(invalid, log.sink()));
  const JsonValue error = log.await("invalid", "error");
  EXPECT_EQ(error.get_string("code", ""), "invalid_case");
  EXPECT_FALSE(error.get_string("message", "").empty());
}

TEST(ServeJobs, CancelsQueuedAndRunningJobs) {
  auto cache = std::make_shared<ArtifactCache>(4);
  JobManagerConfig config;
  config.workers = 1;
  EventLog log;
  JobManager jobs(cache, config);

  // Occupy the worker with a streaming transient job, queue another.
  JobSpec running;
  running.id = "victim-running";
  running.case_text = kTransientCase;
  running.stream_residuals = true;
  ASSERT_TRUE(jobs.submit(running, log.sink()));
  JobSpec queued;
  queued.id = "victim-queued";
  queued.case_text = kBaseCase;
  ASSERT_TRUE(jobs.submit(queued, log.sink()));

  // Queued job dies immediately.
  EXPECT_TRUE(jobs.cancel("victim-queued"));
  const JsonValue queued_error = log.await("victim-queued", "error");
  EXPECT_EQ(queued_error.get_string("code", ""), "cancelled");

  // Running transient job stops at the next step boundary.
  log.await("victim-running", "step");
  EXPECT_TRUE(jobs.cancel("victim-running"));
  const JsonValue running_error = log.await("victim-running", "error");
  EXPECT_EQ(running_error.get_string("code", ""), "cancelled");
  EXPECT_NE(running_error.get_string("message", "").find("step"),
            std::string::npos);
  jobs.wait_idle();
  EXPECT_FALSE(jobs.cancel("victim-running")); // already terminal
}

TEST(ServeJobs, DeadlineExpiresLongTransientRuns) {
  auto cache = std::make_shared<ArtifactCache>(4);
  JobManagerConfig config;
  config.workers = 1;
  EventLog log;
  JobManager jobs(cache, config);
  JobSpec spec;
  spec.id = "deadline";
  spec.case_text = kTransientCase;
  spec.deadline_seconds = 0.001; // expires during the first steps
  ASSERT_TRUE(jobs.submit(std::move(spec), log.sink()));
  const JsonValue error = log.await("deadline", "error");
  EXPECT_EQ(error.get_string("code", ""), "deadline");
  jobs.wait_idle();
}

TEST(ServeJobs, AcceptedPrecedesEveryOtherEventOfAJob) {
  // Jobs that expire at dequeue finish at once; an idle worker must still
  // not report one before its "accepted" event.
  auto cache = std::make_shared<ArtifactCache>(1);
  JobManagerConfig config;
  config.workers = 4;
  config.queue_capacity = 256;
  EventLog log;
  JobManager jobs(cache, config);
  constexpr int kJobs = 256;
  for (int i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.id = std::string("e").append(std::to_string(i));
    spec.case_text = kBaseCase;
    spec.deadline_seconds = 1e-12;
    ASSERT_TRUE(jobs.submit(std::move(spec), log.sink()));
  }
  jobs.wait_idle();
  std::lock_guard<std::mutex> lock(log.mutex);
  std::set<std::string> accepted;
  for (const JsonValue& event : log.events) {
    const std::string id = event.get_string("id", "");
    if (event.get_string("event", "") == "accepted")
      accepted.insert(id);
    else
      EXPECT_EQ(accepted.count(id), 1u) << id << " reported before accepted";
  }
  EXPECT_EQ(accepted.size(), static_cast<std::size_t>(kJobs));
}

TEST(ServeJobs, RestartFromSpoolResumesBitwiseIdentical) {
  const auto spool =
      std::filesystem::temp_directory_path() / "fvdf_serve_spool_test";
  std::filesystem::remove_all(spool);

  // Reference: the uninterrupted single-shot run.
  auto scenario =
      app::scenario_from_config(Config::parse_string(kTransientCase));
  std::ostringstream ref_log;
  const std::string expected =
      hash_of(app::run_scenario(scenario, ref_log).pressure);

  // First manager: start the job, drain mid-run (the graceful-shutdown
  // path a SIGTERM takes), leaving the spool checkpoint behind.
  {
    auto cache = std::make_shared<ArtifactCache>(4);
    JobManagerConfig config;
    config.workers = 1;
    config.spool_dir = spool.string();
    EventLog log;
    JobManager jobs(cache, config);
    JobSpec spec;
    spec.id = "restartable";
    spec.case_text = kTransientCase;
    spec.stream_residuals = true;
    ASSERT_TRUE(jobs.submit(std::move(spec), log.sink()));
    log.await("restartable", "step");
    jobs.shutdown_graceful();
    const JsonValue error = log.await("restartable", "error");
    EXPECT_EQ(error.get_string("code", ""), "shutdown");
  }
  EXPECT_TRUE(std::filesystem::exists(spool / "restartable.case.ini"));
  EXPECT_TRUE(std::filesystem::exists(spool / "restartable.ckpt"));

  // Second manager: recover and finish; final state must match the
  // uninterrupted run bitwise.
  {
    auto cache = std::make_shared<ArtifactCache>(4);
    JobManagerConfig config;
    config.workers = 1;
    config.spool_dir = spool.string();
    EventLog log;
    JobManager jobs(cache, config);
    EXPECT_EQ(jobs.recover(log.sink()), 1);
    const JsonValue result = log.await("restartable", "result");
    EXPECT_EQ(result.get_string("pressure_hash", ""), expected);
    EXPECT_EQ(result.get_i64("steps_completed", 0), 12);
    jobs.wait_idle();
  }
  // Terminal success cleans the spool.
  EXPECT_FALSE(std::filesystem::exists(spool / "restartable.case.ini"));
  EXPECT_FALSE(std::filesystem::exists(spool / "restartable.ckpt"));
  std::filesystem::remove_all(spool);
}

// ---------- Socket server end to end ----------

TEST(ServeServer, SolvesOverUnixSocketWithCacheHits) {
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("fvdf_serve_test_" + std::to_string(::getpid()) + ".sock"))
          .string();
  ServerConfig config;
  config.socket_path = socket_path;
  config.http_port = -1;
  config.jobs.workers = 2;
  Server server(std::move(config));
  server.start();

  auto scenario =
      app::scenario_from_config(Config::parse_string(kBaseCase));
  std::ostringstream ref_log;
  const std::string expected =
      hash_of(app::run_scenario(scenario, ref_log).pressure);

  Client client;
  client.connect(socket_path);
  client.ping();
  EXPECT_EQ(client.read_event().get_string("event", ""), "pong");

  for (int i = 0; i < 2; ++i) {
    Client::SolveRequest request;
    request.id = "net" + std::to_string(i);
    request.case_text = kBaseCase;
    client.solve(request);
    const JsonValue result = client.wait_result(request.id);
    EXPECT_EQ(result.get_string("event", ""), "result");
    EXPECT_EQ(result.get_string("pressure_hash", ""), expected);
    EXPECT_EQ(result.get_string("cache", ""), i == 0 ? "miss" : "hit");
  }

  client.stats();
  const JsonValue stats = client.read_event();
  EXPECT_EQ(stats.get_string("event", ""), "stats");
  const JsonValue* cache_stats = stats.find("cache");
  ASSERT_NE(cache_stats, nullptr);
  EXPECT_EQ(cache_stats->get_i64("hits", -1), 1);
  EXPECT_EQ(cache_stats->get_i64("misses", -1), 1);
  const JsonValue* job_stats = stats.find("jobs");
  ASSERT_NE(job_stats, nullptr);
  EXPECT_EQ(job_stats->get_i64("workers", -1), 2);
  EXPECT_EQ(job_stats->get_i64("sim_threads_per_job", -1),
            job_sim_threads(0, usable_cpus(), 2));

  client.shutdown();
  EXPECT_EQ(client.read_event().get_string("event", ""), "ok");
  client.close();
  server.wait();
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

// ---------- Request size limits ----------
// Raw sockets with a receive timeout: a daemon that keeps buffering an
// oversized request never answers, and the read gives up instead of
// hanging the suite.

int connect_raw(const sockaddr* addr, socklen_t size) {
  const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  EXPECT_EQ(::connect(fd, addr, size), 0) << std::strerror(errno);
  return fd;
}

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return connect_raw(reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
}

int connect_loopback(i32 port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<u16>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return connect_raw(reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
}

// Sends what the peer accepts; a peer that closes early just stops it.
void send_best_effort(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t sent = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (sent <= 0) return;
    off += static_cast<std::size_t>(sent);
  }
}

// Everything the peer sends before it closes (or the timeout fires).
std::string read_to_close(int fd) {
  std::string out;
  char chunk[4096];
  ssize_t got;
  while ((got = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
    out.append(chunk, static_cast<std::size_t>(got));
  return out;
}

struct LimitsDaemon {
  std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("fvdf_serve_limits_" + std::to_string(::getpid()) + ".sock"))
          .string();
  std::unique_ptr<Server> server;

  LimitsDaemon() {
    ServerConfig config;
    config.socket_path = socket_path;
    config.http_port = 0;
    config.jobs.workers = 1;
    server = std::make_unique<Server>(std::move(config));
    server->start();
  }
  ~LimitsDaemon() {
    server->request_shutdown();
    server->wait();
  }
};

TEST(ServeServer, RejectsAnUnterminatedLineOverOneMiB) {
  LimitsDaemon daemon;
  const int fd = connect_unix(daemon.socket_path);
  send_best_effort(fd, std::string((std::size_t{1} << 20) + 8192, 'x'));
  const std::string reply = read_to_close(fd);
  ::close(fd);
  ASSERT_FALSE(reply.empty()) << "no reply: the daemon kept buffering";
  const JsonValue event = JsonValue::parse(reply.substr(0, reply.find('\n')));
  EXPECT_EQ(event.get_string("event", ""), "error");
  EXPECT_EQ(event.get_string("code", ""), "bad_request");

  // The daemon still serves other connections.
  Client client;
  client.connect(daemon.socket_path);
  client.ping();
  EXPECT_EQ(client.read_event().get_string("event", ""), "pong");
}

TEST(ServeServer, RejectsAnHttpBodyOverOneMiBBeforeReadingIt) {
  LimitsDaemon daemon;
  const int fd = connect_loopback(daemon.server->http_port());
  // The header announces 2 MiB; no body follows.
  send_best_effort(fd, "POST /solve HTTP/1.1\r\nHost: localhost\r\n"
                       "Content-Length: 2097152\r\n\r\n");
  const std::string reply = read_to_close(fd);
  ::close(fd);
  EXPECT_EQ(reply.rfind("HTTP/1.1 413 ", 0), 0u) << reply;

  const int health = connect_loopback(daemon.server->http_port());
  send_best_effort(health, "GET /healthz HTTP/1.1\r\n\r\n");
  EXPECT_NE(read_to_close(health).find("\r\n\r\nok\n"), std::string::npos);
  ::close(health);
}

TEST(ServeServer, JoinsFinishedConnectionThreads) {
  LimitsDaemon daemon;
  const auto round_trip = [&] {
    Client client;
    client.connect(daemon.socket_path);
    client.ping();
    EXPECT_EQ(client.read_event().get_string("event", ""), "pong");
  };
  for (int i = 0; i < 50; ++i) round_trip();
  // Each accept joins the threads finished by then; one still closing
  // when the next connection arrives is joined at the connection after.
  std::size_t threads = daemon.server->connection_threads();
  for (int tries = 0; tries < 100 && threads > 1; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    round_trip();
    threads = daemon.server->connection_threads();
  }
  EXPECT_LE(threads, 1u);
}

} // namespace
} // namespace fvdf::serve
