#include "serve/server.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <type_traits>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/error.hpp"
#include "serve/json.hpp"
#include "telemetry/json.hpp"

namespace fvdf::serve {

namespace {

// The most a client may send as one NDJSON line, one HTTP header block or
// one HTTP body. Anything larger is refused before it is buffered further.
constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;
// The largest --queue-capacity, --cache-capacity or --checkpoint-every.
constexpr u64 kMaxCount = u64{1} << 20;

std::string error_event(const std::string& id, const std::string& code,
                        const std::string& message) {
  telemetry::JsonWriter writer;
  writer.begin_object().kv("event", "error");
  if (!id.empty()) writer.kv("id", id);
  writer.kv("code", code).kv("message", message).end_object();
  return writer.take();
}

// A plain decimal integer in [lo, hi]: no sign, no suffix, no overflow.
bool parse_count(const char* text, u64 lo, u64 hi, u64& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && out >= lo && out <= hi;
}

// send() with MSG_NOSIGNAL so a disconnected client yields EPIPE instead
// of killing the daemon; short writes retried.
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

} // namespace

// One accepted NDJSON connection. Sinks hold it as shared_ptr so a job
// can keep emitting after the reader thread exits; `closed` turns those
// emissions into no-ops.
struct Server::ClientConn {
  int fd = -1;
  std::mutex write_mutex;
  bool closed = false;

  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (closed) return;
    std::string framed = line;
    framed += '\n';
    if (!send_all(fd, framed.data(), framed.size())) closed = true;
  }

  void close_fd() {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (!closed) ::shutdown(fd, SHUT_RDWR);
    closed = true;
    // fd itself is closed by the owner (serve_ndjson) after the reader
    // exits; sinks only ever write through this object.
  }
};

std::string parse_server_args(int argc, const char* const* argv,
                              ServerConfig& config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return arg + " needs a value";
    const char* value = argv[++i];
    // Each numeric flag: its target and its accepted range.
    auto count = [&](u64 lo, u64 hi, auto& target) -> std::string {
      u64 parsed = 0;
      if (!parse_count(value, lo, hi, parsed))
        return arg + " takes an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "], not '" + value + "'";
      target = static_cast<std::remove_reference_t<decltype(target)>>(parsed);
      return {};
    };
    std::string error;
    if (arg == "--socket") {
      config.socket_path = value;
    } else if (arg == "--spool-dir") {
      config.jobs.spool_dir = value;
    } else if (arg == "--http-port") {
      error = count(0, 65535, config.http_port);
    } else if (arg == "--workers") {
      error = count(0, kMaxJobWorkers, config.jobs.workers);
    } else if (arg == "--queue-capacity") {
      error = count(1, kMaxCount, config.jobs.queue_capacity);
    } else if (arg == "--cache-capacity") {
      error = count(1, kMaxCount, config.cache_capacity);
    } else if (arg == "--checkpoint-every") {
      error = count(1, kMaxCount, config.jobs.checkpoint_every);
    } else {
      return "unknown flag: " + arg;
    }
    if (!error.empty()) return error;
  }
  if (config.socket_path.empty()) return "--socket is required";
  return {};
}

Server::Server(ServerConfig config) : config_(std::move(config)) {
  FVDF_CHECK_MSG(!config_.socket_path.empty(),
                 "serve: socket_path is required");
  cache_ = std::make_shared<ArtifactCache>(config_.cache_capacity, &metrics_);
  jobs_ = std::make_unique<JobManager>(cache_, config_.jobs);
}

Server::~Server() {
  request_shutdown();
  wait();
}

void Server::start() {
  // Unix listener. A stale socket file from a crashed daemon is unlinked;
  // a *live* daemon on the same path would lose its listener, so deployers
  // give each instance its own path (docs/serving.md).
  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  FVDF_CHECK_MSG(unix_fd_ >= 0, "serve: socket(AF_UNIX) failed: "
                                    << std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  FVDF_CHECK_MSG(config_.socket_path.size() < sizeof(addr.sun_path),
                 "serve: socket path too long: " << config_.socket_path);
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(config_.socket_path.c_str());
  FVDF_CHECK_MSG(::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0,
                 "serve: bind(" << config_.socket_path
                                << ") failed: " << std::strerror(errno));
  FVDF_CHECK_MSG(::listen(unix_fd_, 64) == 0,
                 "serve: listen failed: " << std::strerror(errno));

  if (config_.http_port >= 0) {
    http_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    FVDF_CHECK_MSG(http_fd_ >= 0, "serve: socket(AF_INET) failed: "
                                      << std::strerror(errno));
    const int one = 1;
    ::setsockopt(http_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in inaddr{};
    inaddr.sin_family = AF_INET;
    inaddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    inaddr.sin_port = htons(static_cast<u16>(config_.http_port));
    FVDF_CHECK_MSG(::bind(http_fd_, reinterpret_cast<sockaddr*>(&inaddr),
                          sizeof(inaddr)) == 0,
                   "serve: bind(127.0.0.1:" << config_.http_port
                                            << ") failed: "
                                            << std::strerror(errno));
    FVDF_CHECK_MSG(::listen(http_fd_, 16) == 0,
                   "serve: http listen failed: " << std::strerror(errno));
    socklen_t len = sizeof(inaddr);
    ::getsockname(http_fd_, reinterpret_cast<sockaddr*>(&inaddr), &len);
    http_port_ = ntohs(inaddr.sin_port);
  }

  // Jobs a previous daemon left spooled resume now, reporting to the log
  // only (their original connections are gone).
  jobs_->recover(EventSink{});

  unix_accept_ = std::thread([this] { accept_loop_unix(); });
  if (http_fd_ >= 0) http_accept_ = std::thread([this] { accept_loop_http(); });
}

void Server::request_shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  // Closing the listeners unblocks the accept loops.
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (http_fd_ >= 0) ::shutdown(http_fd_, SHUT_RDWR);
}

void Server::wait() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (stopped_.load()) return;
  if (unix_accept_.joinable()) unix_accept_.join();
  if (http_accept_.joinable()) http_accept_.join();
  // Drain the job manager first so in-flight jobs finish (or checkpoint)
  // while their connections are still writable for final events.
  if (jobs_ != nullptr) jobs_->shutdown_graceful();
  // Then force-release reader threads still blocked in recv().
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> conns(conns_mutex_);
    for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
    threads.swap(conn_threads_);
    finished_.clear();
  }
  for (auto& thread : threads)
    if (thread.joinable()) thread.join();
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  if (http_fd_ >= 0) {
    ::close(http_fd_);
    http_fd_ = -1;
  }
  stopped_.store(true);
}

void Server::track_fd(int fd) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  open_fds_.push_back(fd);
}

void Server::untrack_and_close_fd(int fd) {
  // Removed from the tracked set *before* close so wait() never shuts
  // down a recycled descriptor.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    open_fds_.erase(std::remove(open_fds_.begin(), open_fds_.end(), fd),
                    open_fds_.end());
  }
  ::close(fd);
}

void Server::spawn_connection(void (Server::*serve)(int), int fd) {
  track_fd(fd);
  std::lock_guard<std::mutex> lock(conns_mutex_);
  reap_finished_locked();
  conn_threads_.emplace_back([this, serve, fd] {
    (this->*serve)(fd);
    std::lock_guard<std::mutex> done(conns_mutex_);
    finished_.push_back(std::this_thread::get_id());
  });
}

void Server::reap_finished_locked() {
  // A finished thread has only its return left to run: joining it under
  // the lock cannot wait on anything that needs the lock.
  for (const std::thread::id id : finished_) {
    const auto it = std::find_if(
        conn_threads_.begin(), conn_threads_.end(),
        [id](const std::thread& thread) { return thread.get_id() == id; });
    if (it == conn_threads_.end()) continue;
    it->join();
    conn_threads_.erase(it);
  }
  finished_.clear();
}

std::size_t Server::connection_threads() {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  return conn_threads_.size();
}

void Server::accept_loop_unix() {
  while (!stopping_.load()) {
    const int fd = ::accept(unix_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return; // listener closed (shutdown) or fatal
    }
    spawn_connection(&Server::serve_ndjson, fd);
  }
}

void Server::accept_loop_http() {
  while (!stopping_.load()) {
    const int fd = ::accept(http_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;
    }
    spawn_connection(&Server::serve_http, fd);
  }
}

void Server::serve_ndjson(int fd) {
  auto conn = std::make_shared<ClientConn>();
  conn->fd = fd;
  std::string buffer; // the unterminated tail of the stream
  char chunk[4096];
  while (true) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    // Only the new bytes can hold a newline: the tail was searched already.
    std::size_t scan_from = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(got));
    std::size_t line_start = 0;
    std::size_t newline;
    while ((newline = buffer.find('\n', scan_from)) != std::string::npos &&
           newline - line_start <= kMaxRequestBytes) {
      std::string line = buffer.substr(line_start, newline - line_start);
      line_start = scan_from = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      handle_line(conn, line);
    }
    buffer.erase(0, line_start);
    // What is left starts with an unterminated or an oversized line.
    if (buffer.size() > kMaxRequestBytes) {
      conn->write_line(error_event("", "bad_request",
                                   "request line exceeds the 1 MiB limit"));
      break;
    }
    if (stopping_.load()) break;
  }
  conn->close_fd();
  untrack_and_close_fd(fd);
}

void Server::handle_line(const std::shared_ptr<ClientConn>& conn,
                         const std::string& line) {
  auto reply_error = [&](const std::string& id, const std::string& code,
                         const std::string& message) {
    conn->write_line(error_event(id, code, message));
  };

  JsonValue request;
  std::string op;
  std::string id;
  try {
    request = JsonValue::parse(line);
    op = request.get_string("op", "");
    id = request.get_string("id", "");
  } catch (const std::exception& e) {
    reply_error("", "bad_request", e.what());
    return;
  }

  if (op == "ping") {
    telemetry::JsonWriter writer;
    writer.begin_object().kv("event", "pong").end_object();
    conn->write_line(writer.take());
    return;
  }
  if (op == "stats") {
    conn->write_line(stats_json());
    return;
  }
  if (op == "cancel") {
    const bool found = jobs_->cancel(id);
    telemetry::JsonWriter writer;
    writer.begin_object()
        .kv("event", "ok")
        .kv("op", "cancel")
        .kv("id", id)
        .kv("found", found)
        .end_object();
    conn->write_line(writer.take());
    return;
  }
  if (op == "shutdown") {
    telemetry::JsonWriter writer;
    writer.begin_object().kv("event", "ok").kv("op", "shutdown").end_object();
    conn->write_line(writer.take());
    request_shutdown();
    return;
  }
  if (op == "solve") {
    JobSpec spec;
    try {
      spec.id = id;
      spec.case_text = request.get_string("case", "");
      spec.priority = static_cast<i32>(request.get_i64("priority", 0));
      spec.deadline_seconds = request.get_f64("deadline_seconds", 0);
      spec.sim_threads = static_cast<i32>(request.get_i64("sim_threads", -1));
      spec.return_field = request.get_bool("return_field", false);
      spec.stream_residuals = request.get_bool("stream_residuals", false);
    } catch (const std::exception& e) {
      reply_error(id, "bad_request", e.what());
      return;
    }
    if (spec.case_text.empty()) {
      reply_error(id, "bad_request", "solve requires a non-empty \"case\"");
      return;
    }
    std::string code;
    const bool admitted = jobs_->submit(
        std::move(spec),
        [conn](const std::string& event) { conn->write_line(event); }, &code);
    if (!admitted)
      reply_error(id, code, "job rejected at admission (" + code + ")");
    return;
  }
  reply_error(id, "bad_request", "unknown op '" + op + "'");
}

std::string Server::stats_json() const {
  const CacheStats cache = cache_->stats();
  const JobStats jobs = jobs_->stats();
  telemetry::JsonWriter writer;
  writer.begin_object()
      .kv("event", "stats")
      .key("cache")
      .begin_object()
      .kv("hits", cache.hits)
      .kv("misses", cache.misses)
      .kv("evictions", cache.evictions)
      .kv("entries", cache.entries)
      .kv("capacity", static_cast<u64>(cache_->capacity()))
      .end_object()
      .key("jobs")
      .begin_object()
      .kv("accepted", jobs.accepted)
      .kv("rejected", jobs.rejected)
      .kv("completed", jobs.completed)
      .kv("failed", jobs.failed)
      .kv("cancelled", jobs.cancelled)
      .kv("expired", jobs.expired)
      .kv("recovered", jobs.recovered)
      .kv("queued", jobs.queued_now)
      .kv("running", jobs.running_now)
      .kv("workers", jobs_->workers())
      .kv("sim_threads_per_job", jobs_->sim_threads_per_job())
      .end_object()
      .end_object();
  return writer.take();
}

void Server::serve_http(int fd) {
  std::string buffer;
  char chunk[4096];
  // Read until the header terminator.
  while (buffer.find("\r\n\r\n") == std::string::npos) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      untrack_and_close_fd(fd);
      return;
    }
    buffer.append(chunk, static_cast<std::size_t>(got));
    if (buffer.size() > kMaxRequestBytes) break; // oversized header
  }

  auto respond = [&](const char* status, const std::string& body,
                     const char* content_type = "text/plain") {
    std::ostringstream out;
    out << "HTTP/1.1 " << status << "\r\nContent-Type: " << content_type
        << "\r\nContent-Length: " << body.size()
        << "\r\nConnection: close\r\n\r\n"
        << body;
    const std::string text = out.str();
    send_all(fd, text.data(), text.size());
  };

  const std::size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    respond("400 Bad Request", "malformed request\n");
    untrack_and_close_fd(fd);
    return;
  }
  const std::string head = buffer.substr(0, header_end);
  std::istringstream request_line(head.substr(0, head.find("\r\n")));
  std::string method, target, version;
  request_line >> method >> target >> version;

  // Content-Length (case-insensitive scan of the header block).
  std::size_t content_length = 0;
  {
    std::string lower = head;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    const std::size_t pos = lower.find("content-length:");
    if (pos != std::string::npos)
      content_length = static_cast<std::size_t>(
          std::strtoull(head.c_str() + pos + 15, nullptr, 10));
  }
  if (content_length > kMaxRequestBytes) {
    respond("413 Payload Too Large", "request body exceeds the 1 MiB limit\n");
    untrack_and_close_fd(fd);
    return;
  }
  std::string body = buffer.substr(header_end + 4);
  while (body.size() < content_length) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    body.append(chunk, static_cast<std::size_t>(got));
  }

  if (method == "GET" && target == "/healthz") {
    respond("200 OK", "ok\n");
  } else if (method == "GET" && target == "/stats") {
    respond("200 OK", stats_json() + "\n", "application/json");
  } else if (method == "POST" && target == "/solve") {
    // Synchronous one-shot: admit with a collecting sink, wait for the
    // terminal event, return every NDJSON line as the response body.
    struct Collector {
      std::mutex mutex;
      std::condition_variable cv;
      std::string lines;
      bool done = false;
    };
    auto collector = std::make_shared<Collector>();
    JobSpec spec;
    spec.id = "http-" + std::to_string(++http_job_counter_);
    spec.case_text = body;
    std::string code;
    const bool admitted = jobs_->submit(
        spec,
        [collector](const std::string& event) {
          std::lock_guard<std::mutex> lock(collector->mutex);
          collector->lines += event;
          collector->lines += '\n';
          // Terminal events close the wait below.
          if (event.find("\"event\":\"result\"") != std::string::npos ||
              event.find("\"event\":\"error\"") != std::string::npos) {
            collector->done = true;
            collector->cv.notify_all();
          }
        },
        &code);
    if (!admitted) {
      respond("503 Service Unavailable", "rejected: " + code + "\n");
    } else {
      // Poll the stop flag so a daemon shutdown (which may strand the job
      // in the spool for the next daemon) releases this thread.
      std::unique_lock<std::mutex> lock(collector->mutex);
      while (!collector->done && !stopping_.load())
        collector->cv.wait_for(lock, std::chrono::milliseconds(100));
      if (collector->done)
        respond("200 OK", collector->lines, "application/x-ndjson");
      else
        respond("503 Service Unavailable", "daemon shutting down\n");
    }
  } else {
    respond("404 Not Found", "unknown route\n");
  }
  untrack_and_close_fd(fd);
}

} // namespace fvdf::serve
