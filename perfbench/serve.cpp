// serve-mixed: four closed-loop client connections on the unix socket of
// an in-process serve::Server (default JobManager: 2 workers, cache
// capacity 32). Half the requests re-submit one of 4 hot cases (cache
// reads); the other half are fresh seeds (cold inserts that evict).

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/scenario.hpp"
#include "checks.hpp"
#include "common/config.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace fvdf;

namespace {

constexpr u32 kClients = 4;
constexpr u32 kHotCases = 4;
constexpr u32 kSetupReps = 5;

std::string case_text(i64 perm_seed) {
  std::ostringstream out;
  out << "[mesh]\nnx = 12\nny = 12\nnz = 4\n\n"
      << "[perm]\nkind = lognormal\nseed = " << perm_seed << "\n\n"
      << "[solver]\nbackend = dataflow\ntolerance = 1e-6\nverify = true\n";
  return out.str();
}

struct Request {
  bool hot = false;
  f64 t_send = 0, t_accepted = 0, t_result = 0;
  f64 setup_s = 0, solve_s = 0;
  bool cache_hit = false;
  u64 queued_at_admission = 0;
};

struct ClientTally {
  std::vector<Request> done;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;
};

/// Submits one case and waits for its terminal event. Returns the check
/// verdict (empty = ok). With `probe` set, samples its queue depth right
/// after admission.
std::string round_trip(serve::Client& client, const std::string& id,
                       const std::string& text, const std::string& expected_hash,
                       Request& r, serve::Server* probe = nullptr) {
  serve::Client::SolveRequest request;
  request.id = id;
  request.case_text = text;
  r.t_send = now_s();
  client.solve(request);
  serve::JsonValue event = client.read_event();
  r.t_accepted = now_s();
  if (event.get_string("event", "") != "accepted")
    return check_result_event(event, "", "");
  if (probe != nullptr) r.queued_at_admission = probe->jobs().stats().queued_now;
  event = client.wait_result(id);
  r.t_result = now_s();
  Watchdog::beat();
  r.setup_s = event.get_f64("setup_seconds", 0);
  r.solve_s = event.get_f64("solve_seconds", 0);
  r.cache_hit = event.get_string("cache", "") == "hit";
  return check_result_event(event,
                            app::case_fingerprint(Config::parse_string(text)),
                            expected_hash);
}

std::unique_ptr<serve::Server> start_server(const std::string& socket_path) {
  ::unlink(socket_path.c_str());
  serve::ServerConfig config;
  config.socket_path = socket_path;
  auto server = std::make_unique<serve::Server>(config);
  server->start();
  return server;
}

void stop_server(std::unique_ptr<serve::Server>& server, const std::string& path) {
  server->request_shutdown();
  server->wait();
  server.reset();
  ::unlink(path.c_str());
}

} // namespace

void run_serve(const RunOptions& options, RunReport& report) {
  const std::string socket_path = options.work_dir + "/perfbench-" +
                                  std::to_string(::getpid()) + ".sock";
  std::vector<std::string> hot_text;
  for (u32 i = 0; i < kHotCases; ++i)
    hot_text.push_back(case_text(case_seed(options.seed, i)));
  // Cold seeds come from disjoint streams per client and per set-up rep.
  const auto cold_text = [&](u64 client, u64 index) {
    return case_text(case_seed(options.seed, 1000 + client * 1'000'000 + index));
  };

  // --- Set-up: daemon start + first (cold) request, several times. ---
  const Usage u_start = Usage::now();
  std::vector<f64> setup;
  std::unique_ptr<serve::Server> server;
  for (u32 rep = 0; rep < kSetupReps; ++rep) {
    if (server) stop_server(server, socket_path);
    const f64 t0 = now_s();
    server = start_server(socket_path);
    serve::Client client;
    client.connect(socket_path);
    Request r;
    ++report.attempted;
    report.expect(round_trip(client, "setup-" + std::to_string(rep),
                             cold_text(kClients, rep), "", r));
    setup.push_back(now_s() - t0);
  }
  const Usage u_setup = Usage::now() - u_start;

  // --- Off the clock: single-shot run_scenario hashes of the hot cases,
  // and one request each so they sit in the daemon's cache. ---
  std::vector<std::string> hot_hash;
  {
    serve::Client client;
    client.connect(socket_path);
    for (u32 i = 0; i < kHotCases; ++i) {
      std::ostringstream log;
      const app::ScenarioOutcome outcome = app::run_scenario(
          app::scenario_from_config(Config::parse_string(hot_text[i])), log);
      hot_hash.push_back(pressure_hash(outcome.pressure));
      Request r;
      ++report.attempted;
      report.expect(round_trip(client, "warm-" + std::to_string(i), hot_text[i],
                               hot_hash[i], r));
    }
  }

  // --- Timed window: kClients closed-loop connections. In the traced run
  // odd clients also sample the queue depth at admission, and the
  // overhead is read against the even (untraced) clients. ---
  const serve::CacheStats cache0 = server->cache().stats();
  const serve::JobStats jobs0 = server->jobs().stats();
  std::vector<ClientTally> tallies(kClients);
  const Usage u0 = Usage::now();
  const f64 steal0 = host_steal_s();
  const f64 t_start = now_s();
  std::vector<std::thread> clients;
  for (u32 c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& tally = tallies[c];
      const bool traced = options.trace && (c % 2) == 1;
      try {
        serve::Client client;
        client.connect(socket_path);
        for (u64 i = 0; now_s() - t_start < options.seconds; ++i) {
          Request r;
          r.hot = (i % 2) == 1;
          const u32 h = static_cast<u32>((c + i / 2) % kHotCases);
          const std::string text = r.hot ? hot_text[h] : cold_text(c, i);
          const std::string id = "c" + std::to_string(c) + "-" + std::to_string(i);
          ++tally.attempted;
          const std::string err = round_trip(client, id, text,
                                             r.hot ? hot_hash[h] : "", r,
                                             traced ? server.get() : nullptr);
          if (!err.empty()) {
            ++tally.failed;
            if (tally.errors.size() < 4) tally.errors.push_back(id + ": " + err);
            continue;
          }
          tally.done.push_back(r);
        }
      } catch (const std::exception& e) {
        ++tally.failed;
        tally.errors.push_back(std::string("client: ") + e.what());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const Usage u_window = Usage::now() - u0;
  const serve::CacheStats cache1 = server->cache().stats();
  const serve::JobStats jobs1 = server->jobs().stats();
  stop_server(server, socket_path);

  std::vector<f64> latency, traced_lat, untraced_lat, transport, queue_wait,
      setup_hot, setup_cold, solve, completions;
  f64 t_last = t_start;
  u64 queue_depth_max = 0, hot_hits = 0, hot_count = 0;
  for (u32 c = 0; c < kClients; ++c) {
    const ClientTally& tally = tallies[c];
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    for (const std::string& e : tally.errors)
      if (report.errors.size() < 8) report.errors.push_back(e);
    for (const Request& r : tally.done) {
      const f64 lat = r.t_result - r.t_send;
      latency.push_back(lat);
      ((c % 2) == 1 ? traced_lat : untraced_lat).push_back(lat);
      transport.push_back(r.t_accepted - r.t_send);
      queue_wait.push_back(lat - (r.t_accepted - r.t_send) - r.setup_s - r.solve_s);
      (r.hot ? setup_hot : setup_cold).push_back(r.setup_s);
      solve.push_back(r.solve_s);
      t_last = std::max(t_last, r.t_result);
      completions.push_back(r.t_result);
      queue_depth_max = std::max(queue_depth_max, r.queued_at_admission);
      hot_count += r.hot ? 1 : 0;
      hot_hits += (r.hot && r.cache_hit) ? 1 : 0;
    }
  }
  const f64 window = t_last - t_start;
  const f64 completed = static_cast<f64>(latency.size());
  const u64 lookups = (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses);
  const u64 rejected = jobs1.rejected - jobs0.rejected;
  report.failed += rejected;

  report.set("setup_s", median(setup));
  report.set("latency_p50_s", median(latency));
  report.set("solves_per_s", batch_rate(completions, t_start));
  report.set("cpu_s_per_solve", completed > 0 ? u_window.cpu_s() / completed : 0);

  report.set("serve.latency_p90_s", quantile(latency, 0.9));
  report.set("serve.transport_s", median(transport));
  report.set("serve.queue_wait_p50_s", median(queue_wait));
  report.set("serve.queue_wait_p90_s", quantile(queue_wait, 0.9));
  report.set("serve.setup_hot_s", median(setup_hot));
  report.set("serve.setup_cold_s", median(setup_cold));
  report.set("serve.solve_s", median(solve));
  report.set("serve.cache_hit_ratio",
             lookups ? static_cast<f64>(cache1.hits - cache0.hits) /
                           static_cast<f64>(lookups)
                     : 0);
  report.set("serve.cache_evictions", static_cast<f64>(cache1.evictions - cache0.evictions));
  report.set("serve.rejected", static_cast<f64>(rejected));
  report.set("serve.queue_depth_max", static_cast<f64>(queue_depth_max));
  report.set("proc.minor_faults", static_cast<f64>(u_setup.minor_faults));
  report.set("proc.cpu_sys_s", u_setup.sys_s);
  report.set("proc.peak_rss_mb", Usage::now().peak_rss_mb);
  if (options.trace) {
    report.set("trace.overhead_frac", median(traced_lat) / median(untraced_lat) - 1.0);
    // Client-side spans: transport, server setup, server solve; the rest
    // of a request (queue wait, result delivery) is unattributed.
    std::vector<f64> unattributed;
    for (std::size_t i = 0; i < latency.size(); ++i)
      unattributed.push_back(queue_wait[i] / latency[i]);
    report.set("trace.unattributed_frac", median(unattributed));

    // Spans of the traced clients. Transport is measured by the client;
    // setup and solve carry the daemon's reported durations, placed back
    // to back ending at the result's arrival.
    Spans spans;
    u64 unit = 0;
    for (u32 c = 1; c < kClients; c += 2)
      for (const Request& r : tallies[c].done) {
        const int root = spans.add(r.hot ? "request.hot" : "request.cold", unit,
                                   -1, r.t_send, r.t_result);
        spans.add("serve.transport", unit, root, r.t_send, r.t_accepted);
        const f64 solve_begin = r.t_result - r.solve_s;
        spans.add("serve.setup", unit, root, solve_begin - r.setup_s, solve_begin);
        spans.add("serve.solve", unit, root, solve_begin, r.t_result);
        ++unit;
      }
    const std::string path = options.work_dir + "/perfbench-trace-" +
                             options.workload + "-" + std::to_string(options.seed) +
                             ".json";
    if (spans.write(path)) diag("trace file", path);
  }

  diag("clients", static_cast<f64>(kClients));
  diag("setup samples", static_cast<f64>(setup.size()));
  diag("setup minor faults", static_cast<f64>(u_setup.minor_faults));
  diag("setup cpu user/sys s", std::to_string(u_setup.user_s) + " / " +
                                   std::to_string(u_setup.sys_s));
  diag("latency samples", completed);
  diag("latency samples hot / cold", std::to_string(setup_hot.size()) + " / " +
                                         std::to_string(setup_cold.size()));
  const f64 p90 = quantile(latency, 0.9);
  diag("latency p90 s", p90);
  diag("solves_per_s over the whole window", completed / window);
  diag("latency samples beyond p90", static_cast<f64>(std::count_if(
                                         latency.begin(), latency.end(),
                                         [&](f64 v) { return v > p90; })));
  diag("latency within-run iqr frac", iqr_frac(latency));
  diag("window s", window);
  diag("window minor faults", static_cast<f64>(u_window.minor_faults));
  diag("peak rss mb", Usage::now().peak_rss_mb);
  diag("window host steal s (all vCPUs)", host_steal_s() - steal0);
  diag("window cpu user/sys s", std::to_string(u_window.user_s) + " / " +
                                    std::to_string(u_window.sys_s));
  diag("cache lookups (hit_ratio base)", static_cast<f64>(lookups));
  diag("hot requests served from cache", std::to_string(hot_hits) + " / " +
                                             std::to_string(hot_count));
  diag("error_rate", report.attempted
                         ? static_cast<f64>(report.failed) /
                               static_cast<f64>(report.attempted)
                         : 0);
  if (options.trace) {
    diag("traced / untraced client p50 s", std::to_string(median(traced_lat)) +
                                               " / " +
                                               std::to_string(median(untraced_lat)));
    diag("transport+setup+solve+queue p50 s",
         std::to_string(median(transport)) + " + " + std::to_string(median(setup_hot)) +
             "|" + std::to_string(median(setup_cold)) + " + " +
             std::to_string(median(solve)) + " + " + std::to_string(median(queue_wait)));
  }
}

} // namespace perfbench
