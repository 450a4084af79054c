// fvdf_serve — the persistent solve daemon (docs/serving.md): accepts
// case configs over a unix-domain NDJSON socket (plus an optional
// loopback HTTP endpoint), batches many independent solves on a bounded
// worker pool, and memoizes compiled artifacts in a content-addressed
// cache so repeat submissions of the same case skip setup entirely.
//
//   ./tools/fvdf_serve --socket /tmp/fvdf.sock
//   ./tools/fvdf_serve --socket /tmp/fvdf.sock --http-port 8080
//       --workers 4 --spool-dir /var/tmp/fvdf_spool
//
// --workers defaults to one per usable CPU (the affinity mask), and each
// job runs at most usable CPUs / workers simulator threads.
//
// SIGINT/SIGTERM trigger a graceful stop: running transient jobs finish
// their current step and checkpoint into the spool directory, queued jobs
// stay spooled, and a restarted daemon resumes them (--spool-dir).

#include <cstring>
#include <iostream>
#include <string>

#include <csignal>
#include <poll.h>
#include <unistd.h>

#include "common/error.hpp"
#include "serve/server.hpp"

namespace {

// Self-pipe: the handler only write()s (async-signal-safe); the main
// thread blocks on the read end and runs the graceful stop.
int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void usage() {
  std::cerr
      << "usage: fvdf_serve --socket PATH [--http-port N] [--workers N]\n"
         "                  [--queue-capacity N] [--cache-capacity N]\n"
         "                  [--spool-dir DIR] [--checkpoint-every N]\n"
         "  --workers N  concurrent jobs (default 0: one per usable CPU);\n"
         "               each job's sim_threads is capped at usable CPUs / N\n";
}

} // namespace

int main(int argc, char** argv) {
  fvdf::serve::ServerConfig config;
  const std::string error = fvdf::serve::parse_server_args(argc, argv, config);
  if (!error.empty()) {
    std::cerr << "error: " << error << '\n';
    usage();
    return 2;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "error: pipe() failed: " << std::strerror(errno) << '\n';
    return 2;
  }
  struct sigaction action {};
  action.sa_handler = on_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  try {
    fvdf::serve::Server server(std::move(config));
    server.start();
    const fvdf::serve::JobStats boot = server.jobs().stats();
    if (boot.recovered > 0)
      std::cout << "fvdf_serve recovered " << boot.recovered
                << " spooled job(s)" << std::endl;
    std::cout << "fvdf_serve ready";
    if (server.http_port() >= 0)
      std::cout << " (http 127.0.0.1:" << server.http_port() << ")";
    std::cout << std::endl;

    // Park until a signal or an {"op":"shutdown"} request (the latter
    // flips shutting_down() from a connection thread, so poll both).
    char byte;
    struct pollfd pfd {};
    pfd.fd = g_signal_pipe[0];
    pfd.events = POLLIN;
    while (!server.shutting_down()) {
      const int ready = ::poll(&pfd, 1, 200);
      if (ready < 0 && errno != EINTR) break;
      if (ready > 0 && ::read(g_signal_pipe[0], &byte, 1) > 0) break;
    }
    std::cout << "fvdf_serve stopping: draining jobs, checkpointing transient "
                 "runs"
              << std::endl;
    server.request_shutdown();
    server.wait();
    std::cout << "fvdf_serve stopped" << std::endl;
    return 0;
  } catch (const fvdf::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
