#pragma once
// fvdf_serve network front-end (docs/serving.md): a persistent solve
// service speaking newline-delimited JSON over a unix-domain socket, plus
// a minimal HTTP/1.1 endpoint on loopback TCP for curl-style health
// checks and synchronous one-shot solves.
//
// NDJSON ops (one JSON object per line, responses streamed on the same
// connection):
//   {"op":"solve","id":...,"case":"<INI text>","priority":...,
//    "deadline_seconds":...,"sim_threads":...,"return_field":...,
//    "stream_residuals":...}       -> accepted/step/residuals/result/error
//   {"op":"cancel","id":...}       -> {"event":"ok","found":...}
//   {"op":"stats"}                 -> {"event":"stats",...}
//   {"op":"ping"}                  -> {"event":"pong"}
//   {"op":"shutdown"}              -> {"event":"ok"} then graceful stop
//
// HTTP routes: GET /healthz ("ok"), GET /stats (the stats document),
// POST /solve (body = INI case text; runs synchronously and returns the
// job's NDJSON event lines).
//
// Jobs outlive disconnects: a sink holds the connection behind a closed
// flag, so a client that goes away simply stops receiving events while
// the job runs to completion (and its spool entries are cleaned up
// normally).

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "serve/cache.hpp"
#include "serve/jobs.hpp"
#include "telemetry/registry.hpp"

namespace fvdf::serve {

struct ServerConfig {
  std::string socket_path;  // unix-domain listener (required)
  i32 http_port = -1;       // loopback TCP; <0 = disabled, 0 = ephemeral
  JobManagerConfig jobs;
  std::size_t cache_capacity = 32;
};

/// Reads fvdf_serve's command line (flags as in its usage text) into
/// `config`. Returns an empty string, or why the arguments were rejected:
/// an unknown flag, a missing value or --socket, or a number that is not a
/// plain decimal integer in its flag's range (--workers 0 is the default,
/// one per usable CPU). Starts nothing.
std::string parse_server_args(int argc, const char* const* argv,
                              ServerConfig& config);

class Server {
public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners, recovers spooled jobs from a previous daemon,
  /// and starts the accept threads. Throws fvdf::Error on bind failures.
  void start();

  /// Begins a graceful stop: closes the listeners, lets the job manager
  /// drain (running transient jobs checkpoint at the next step boundary),
  /// then releases wait(). Safe to call from any thread, more than once.
  void request_shutdown();

  /// Blocks until a shutdown (request_shutdown or the NDJSON shutdown op)
  /// has completed.
  void wait();

  bool shutting_down() const { return stopping_.load(); }

  /// The stats document served by GET /stats and {"op":"stats"}: cache
  /// hit/miss/eviction counts, job counts, the worker pool's size and each
  /// job's simulator-thread share.
  std::string stats_json() const;

  /// Realized HTTP port (differs from config when 0 = ephemeral was
  /// requested); -1 when HTTP is disabled.
  i32 http_port() const { return http_port_; }

  /// Connection threads not yet joined. Each accepted connection joins
  /// the ones that have finished, so this counts the live connections plus
  /// those that ended since the last accept.
  std::size_t connection_threads();

  JobManager& jobs() { return *jobs_; }
  ArtifactCache& cache() { return *cache_; }

private:
  struct ClientConn;

  void accept_loop_unix();
  void accept_loop_http();
  void serve_ndjson(int fd);
  void serve_http(int fd);
  void handle_line(const std::shared_ptr<ClientConn>& conn,
                   const std::string& line);
  /// Starts the thread serving an accepted connection, after joining the
  /// connection threads that have finished.
  void spawn_connection(void (Server::*serve)(int), int fd);
  void reap_finished_locked(); // caller holds conns_mutex_
  void track_fd(int fd);
  void untrack_and_close_fd(int fd);

  ServerConfig config_;
  telemetry::MetricsRegistry metrics_{1};
  std::shared_ptr<ArtifactCache> cache_;
  std::unique_ptr<JobManager> jobs_;

  int unix_fd_ = -1;
  int http_fd_ = -1;
  i32 http_port_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::mutex shutdown_mutex_;

  std::thread unix_accept_;
  std::thread http_accept_;
  std::mutex conns_mutex_;
  std::vector<std::thread> conn_threads_;
  std::vector<std::thread::id> finished_; // conn_threads_ that have returned
  std::vector<int> open_fds_; // accepted connections not yet closed
  std::atomic<u64> http_job_counter_{0};
};

} // namespace fvdf::serve
