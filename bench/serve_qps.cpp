// serve_qps — load generator for the fvdf_serve daemon (docs/serving.md):
// boots an in-process Server on a throwaway unix socket, hammers it from
// N client threads with a mixed cache-hot / cache-cold case stream, and
// reports solves/sec plus p50/p95 end-to-end latency (StreamingHistogram)
// per client count. The cache columns prove the content-addressed
// artifact cache's point: cache-hot setup latency drops by well over the
// 5x acceptance bar because repeat cases skip geomodel construction,
// lowering and verification entirely.
//
//   ./bench/serve_qps [--quick] [--json BENCH_serve_qps.json]
//
// JSON follows the BENCH_sim_throughput.json conventions: a top-level
// "hardware_threads" gate for timing comparisons, a "seed_baseline" row
// (the daemon-less single-shot path: parse + build + solve per request,
// i.e. what fvdf_sim does), and one "runs" row per client count.

#include <chrono>
#include <cstring>
#include <unistd.h>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/scenario.hpp"
#include "common/stats.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "telemetry/json.hpp"

namespace {

using namespace fvdf;

f64 now_seconds() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One dataflow case per seed; seed also decides hot/cold mixing. The
// heavily-smoothed lognormal geomodel makes the cold setup cost (problem
// build) realistic relative to the solve, which is what the cache-hot
// setup_speedup column measures.
std::string case_text(u64 seed) {
  std::ostringstream out;
  out << "[mesh]\nnx = 16\nny = 16\nnz = 4\n\n"
      << "[perm]\nkind = lognormal\nsigma = 1.0\nsmoothing = 24\nseed = "
      << seed << "\n\n"
      << "[solver]\nbackend = dataflow\ntolerance = 1e-8\nverify = true\n";
  return out.str();
}

struct WorkerTally {
  u64 solves = 0;
  StreamingHistogram latency;       // end-to-end seconds per request
  StreamingHistogram setup_hot;     // setup_seconds on cache hits
  StreamingHistogram setup_cold;    // setup_seconds on cache misses
  bool all_converged = true;
  std::string first_hash;           // per hot-case result hash (identity check)
  bool hashes_identical = true;
};

WorkerTally run_client(const std::string& socket_path, u32 worker_index,
                       u64 requests, u64 cold_cases) {
  WorkerTally tally;
  serve::Client client;
  client.connect(socket_path);
  for (u64 i = 0; i < requests; ++i) {
    // Every odd request re-submits the shared hot case; even requests
    // walk a per-worker cold seed range (distinct fingerprints).
    const bool hot = (i % 2) == 1;
    const u64 seed =
        hot ? 1 : 1000 + worker_index * cold_cases + (i / 2) % cold_cases;
    serve::Client::SolveRequest request;
    request.id = std::string("w")
                     .append(std::to_string(worker_index))
                     .append("-")
                     .append(std::to_string(i));
    request.case_text = case_text(seed);
    const f64 start = now_seconds();
    client.solve(request);
    const serve::JsonValue result = client.wait_result(request.id);
    const f64 elapsed = now_seconds() - start;

    tally.latency.add(elapsed);
    ++tally.solves;
    if (result.get_string("event", "") != "result") {
      tally.all_converged = false;
      continue;
    }
    tally.all_converged &= result.get_bool("converged", false);
    const f64 setup = result.get_f64("setup_seconds", 0);
    const bool was_hit = result.get_string("cache", "") == "hit";
    (was_hit ? tally.setup_hot : tally.setup_cold).add(setup);
    if (hot) {
      const std::string hash = result.get_string("pressure_hash", "");
      if (tally.first_hash.empty()) tally.first_hash = hash;
      else tally.hashes_identical &= (hash == tally.first_hash);
    }
  }
  client.close();
  return tally;
}

struct RunRow {
  u32 clients = 0;
  u64 solves = 0;
  f64 wall_seconds = 0;
  f64 solves_per_sec = 0;
  f64 latency_p50 = 0, latency_p95 = 0;
  f64 setup_cold_mean = 0, setup_hot_mean = 0;
  f64 setup_speedup = 0; // cold mean / hot mean
  u64 cache_hits = 0, cache_misses = 0;
  bool hashes_identical = true;
  bool all_converged = true;
};

RunRow run_load(u32 clients, u64 requests_per_client, u64 cold_cases) {
  const std::string socket_path =
      "/tmp/fvdf_serve_qps_" + std::to_string(::getpid()) + ".sock";
  serve::ServerConfig config;
  config.socket_path = socket_path;
  config.http_port = -1;
  config.jobs.workers = 2;
  config.jobs.queue_capacity = 256;
  config.cache_capacity = 64;
  serve::Server server(std::move(config));
  server.start();

  std::vector<WorkerTally> tallies(clients);
  std::vector<std::thread> threads;
  const f64 start = now_seconds();
  for (u32 w = 0; w < clients; ++w)
    threads.emplace_back([&, w] {
      tallies[w] = run_client(socket_path, w, requests_per_client, cold_cases);
    });
  for (auto& thread : threads) thread.join();
  const f64 wall = now_seconds() - start;

  RunRow row;
  row.clients = clients;
  row.wall_seconds = wall;
  StreamingHistogram latency, setup_hot, setup_cold;
  std::string hot_hash;
  for (const WorkerTally& tally : tallies) {
    row.solves += tally.solves;
    latency.merge(tally.latency);
    setup_hot.merge(tally.setup_hot);
    setup_cold.merge(tally.setup_cold);
    row.all_converged &= tally.all_converged;
    row.hashes_identical &= tally.hashes_identical;
    if (!tally.first_hash.empty()) {
      if (hot_hash.empty()) hot_hash = tally.first_hash;
      else row.hashes_identical &= (tally.first_hash == hot_hash);
    }
  }
  row.solves_per_sec = wall > 0 ? static_cast<f64>(row.solves) / wall : 0;
  row.latency_p50 = latency.p50();
  row.latency_p95 = latency.p95();
  row.setup_hot_mean = setup_hot.mean();
  row.setup_cold_mean = setup_cold.mean();
  row.setup_speedup = row.setup_hot_mean > 0
                          ? row.setup_cold_mean / row.setup_hot_mean
                          : 0;
  const serve::CacheStats cache = server.cache().stats();
  row.cache_hits = cache.hits;
  row.cache_misses = cache.misses;

  server.request_shutdown();
  server.wait();
  return row;
}

// The daemon-less baseline: what a cold single-shot driver pays per
// request (config parse + problem build + solve, no artifact reuse).
f64 single_shot_seconds(u64 reps) {
  const std::string text = case_text(1);
  f64 total = 0;
  for (u64 i = 0; i < reps; ++i) {
    const f64 start = now_seconds();
    const Config config = Config::parse_string(text);
    app::Scenario scenario = app::scenario_from_config(config);
    std::ostringstream log;
    const app::ScenarioOutcome outcome = app::run_scenario(scenario, log);
    total += now_seconds() - start;
    if (!outcome.converged) std::cerr << "warning: baseline did not converge\n";
  }
  return total / static_cast<f64>(reps);
}

} // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_serve_qps.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    else {
      std::cerr << "usage: serve_qps [--quick] [--json PATH]\n";
      return 2;
    }
  }

  const u64 requests = quick ? 6 : 20;
  const u64 cold_cases = quick ? 2 : 5;
  const std::vector<u32> client_counts = quick ? std::vector<u32>{1, 2}
                                              : std::vector<u32>{1, 2, 4};

  std::cout << "serve_qps: single-shot baseline..." << std::endl;
  const f64 baseline = single_shot_seconds(quick ? 2 : 5);
  std::cout << "  " << baseline << " s/request (parse+build+solve, no cache)\n";

  std::vector<RunRow> rows;
  for (const u32 clients : client_counts) {
    std::cout << "serve_qps: " << clients << " client(s) x " << requests
              << " requests..." << std::endl;
    rows.push_back(run_load(clients, requests, cold_cases));
    const RunRow& row = rows.back();
    std::cout << "  " << row.solves_per_sec << " solves/s, p50 "
              << row.latency_p50 << " s, p95 " << row.latency_p95
              << " s, setup cold/hot " << row.setup_cold_mean << "/"
              << row.setup_hot_mean << " s (" << row.setup_speedup
              << "x), hits/misses " << row.cache_hits << "/"
              << row.cache_misses
              << (row.hashes_identical ? "" : "  HASH MISMATCH") << std::endl;
  }

  telemetry::JsonWriter writer;
  writer.begin_object()
      .kv("bench", "serve_qps")
      .kv("workload",
          "16x16x4 smoothed-lognormal device CG + verify, 50% cache-hot / "
          "50% cold seeds")
      .kv("hardware_threads",
          static_cast<u64>(std::thread::hardware_concurrency()))
      .key("seed_baseline")
      .begin_object()
      .kv("note", "daemon-less single-shot path: parse + build + solve per "
                  "request, no artifact reuse")
      .kv("seconds_per_request", baseline)
      .end_object()
      .key("runs")
      .begin_array();
  bool all_identical = true;
  for (const RunRow& row : rows) {
    all_identical &= row.hashes_identical;
    writer.begin_object()
        .kv("clients", row.clients)
        .kv("solves", row.solves)
        .kv("wall_seconds", row.wall_seconds)
        .kv("solves_per_sec", row.solves_per_sec)
        .kv("latency_p50", row.latency_p50)
        .kv("latency_p95", row.latency_p95)
        .kv("setup_cold_mean", row.setup_cold_mean)
        .kv("setup_hot_mean", row.setup_hot_mean)
        .kv("setup_speedup_hot_vs_cold", row.setup_speedup)
        .kv("cache_hits", row.cache_hits)
        .kv("cache_misses", row.cache_misses)
        .kv("all_converged", row.all_converged)
        .kv("hot_results_bitwise_identical", row.hashes_identical)
        .end_object();
  }
  writer.end_array()
      .kv("all_hot_results_bitwise_identical", all_identical)
      .end_object();

  std::ofstream out(json_path, std::ios::trunc);
  out << writer.take() << '\n';
  std::cout << "serve_qps: wrote " << json_path << std::endl;
  return all_identical ? 0 : 1;
}
