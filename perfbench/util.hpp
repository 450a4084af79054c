#pragma once
// Shared plumbing for the solve-path benchmark: clocks, process usage,
// order statistics, the metric table printed as the result line, and the
// in-memory span recorder of the traced mode.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using fvdf::f64;
using fvdf::i64;
using fvdf::u32;
using fvdf::u64;

inline f64 now_s() {
  return std::chrono::duration<f64>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Whole-process resource usage (all threads, the in-process daemon too).
struct Usage {
  f64 user_s = 0;
  f64 sys_s = 0;
  u64 minor_faults = 0;
  f64 peak_rss_mb = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<f64>(ru.ru_utime.tv_sec) +
               static_cast<f64>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<f64>(ru.ru_stime.tv_sec) +
              static_cast<f64>(ru.ru_stime.tv_usec) * 1e-6;
    u.minor_faults = static_cast<u64>(ru.ru_minflt);
    u.peak_rss_mb = static_cast<f64>(ru.ru_maxrss) / 1024.0; // KiB on Linux
    return u;
  }
  f64 cpu_s() const { return user_s + sys_s; }
  /// Usage between two snapshots; the peak stays the later snapshot's.
  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, minor_faults - o.minor_faults,
            peak_rss_mb};
  }
};

/// Host CPU time stolen by the hypervisor, summed over all vCPUs
/// (/proc/stat "steal" column, clock ticks -> seconds). A diagnostic: it
/// rises when the host, not the program, slows a run down.
inline f64 host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<f64>(v[7]) / 100.0 : 0; // USER_HZ = 100
}

/// Linear-interpolated quantile of a sample (q in [0,1]); 0 when empty.
inline f64 quantile(std::vector<f64> v, f64 q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<f64>(lo)) * (v[hi] - v[lo]);
}
inline f64 median(const std::vector<f64>& v) { return quantile(v, 0.5); }
/// Within-sample spread: (q3 - q1) / median.
inline f64 iqr_frac(const std::vector<f64>& v) {
  const f64 m = median(v);
  return m > 0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / m : 0;
}

/// Sustained throughput of a closed loop: the window's completions, in
/// time order, are cut into `batches` consecutive batches of equal count;
/// each batch's rate is its count over the time from the previous batch's
/// last completion (or `t_start`) to its own last one. Returns the median
/// batch rate, so a host stall that hits a few batches does not move it.
inline f64 batch_rate(std::vector<f64> completions, f64 t_start, u32 batches = 8) {
  std::sort(completions.begin(), completions.end());
  const std::size_t k = std::max<std::size_t>(1, completions.size() / batches);
  std::vector<f64> rates;
  f64 prev = t_start;
  for (std::size_t end = k; end <= completions.size(); end += k) {
    const f64 t = completions[end - 1];
    if (t > prev) rates.push_back(static_cast<f64>(k) / (t - prev));
    prev = t;
  }
  return median(rates);
}

/// Perm seed of case `stream` of a run: splitmix64 of (seed, stream), kept
/// a small positive integer (the INI reader takes i64).
inline i64 case_seed(u64 seed, u64 stream) {
  u64 z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return static_cast<i64>((z ^ (z >> 31)) % 1'000'000'007ull) + 1;
}

/// Ordered metric table; to_json renders the result line's "metrics".
class Metrics {
public:
  void add(const std::string& name, const std::string& unit) {
    items_.push_back({name, 0, unit});
  }
  /// Sets a metric already in the table; other names are ignored.
  void update(const std::string& name, f64 value) {
    for (auto& m : items_)
      if (m.name == name) m.value = value;
  }
  std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      if (i) out += ", ";
      out += "\"" + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

private:
  struct Item {
    std::string name;
    f64 value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Diagnostics printed above the result line ("# key value" lines).
inline void diag(const std::string& key, f64 value) {
  std::printf("# %-34s %.6g\n", key.c_str(), value);
}
inline void diag(const std::string& key, const std::string& value) {
  std::printf("# %-34s %s\n", key.c_str(), value.c_str());
}

/// Fails a run that stops making progress. The workloads call beat() after
/// every unit; when no beat arrives for `limit_s`, the watchdog prints each
/// thread's state and current syscall (a deadlock shows as every thread in
/// futex wait) to stderr and exits with code 3, well inside the run's time
/// budget. One idle thread for the life of the run.
class Watchdog {
public:
  explicit Watchdog(f64 limit_s) : limit_s_(limit_s), thread_([this] { watch(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  static void beat() { last_beat_.store(now_s(), std::memory_order_relaxed); }

private:
  void watch() {
    beat();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::seconds(1), [this] { return stop_; })) {
      const f64 idle = now_s() - last_beat_.load(std::memory_order_relaxed);
      if (idle < limit_s_) continue;
      std::fprintf(stderr, "fvdf_perfbench: no unit completed for %.0f s; threads:\n", idle);
      for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
        std::string stat, syscall;
        std::getline(std::ifstream(task.path() / "stat"), stat);
        std::getline(std::ifstream(task.path() / "syscall"), syscall);
        const std::size_t state = stat.rfind(')');
        std::fprintf(stderr, "  tid %s state %c syscall %s\n",
                     task.path().filename().c_str(),
                     state + 2 < stat.size() ? stat[state + 2] : '?', syscall.c_str());
      }
      std::fflush(stderr);
      std::_Exit(3);
    }
  }

  static inline std::atomic<f64> last_beat_{0};
  const f64 limit_s_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_; // last: starts after the members it reads
};

/// In-memory span recorder. A unit (one case, one request) is a root span;
/// its layer calls are children. Self time = duration minus the part its
/// children cover (children never overlap here: the calls are sequential).
class Spans {
public:
  struct Span {
    std::string name;
    u64 unit = 0;
    int parent = -1;
    f64 t0 = 0;
    f64 t1 = 0;
  };

  int begin(const std::string& name, u64 unit, int parent = -1) {
    spans_.push_back({name, unit, parent, now_s(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].t1 = now_s(); }
  /// Records a span whose bounds were measured elsewhere.
  int add(const std::string& name, u64 unit, int parent, f64 t0, f64 t1) {
    spans_.push_back({name, unit, parent, t0, t1});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Self seconds per span name, one entry per span instance.
  std::map<std::string, std::vector<f64>> self_times() const {
    std::vector<f64> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    std::map<std::string, std::vector<f64>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name].push_back(spans_[i].t1 - spans_[i].t0 - child[i]);
    return out;
  }

  /// Chrome trace-event JSON (complete events, microseconds, one track per
  /// unit).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const f64 t_origin = spans_.empty() ? 0 : spans_.front().t0;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": %d}}\n",
                   i ? "," : "", s.name.c_str(),
                   static_cast<unsigned long long>(s.unit), (s.t0 - t_origin) * 1e6,
                   (s.t1 - s.t0) * 1e6, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

private:
  std::vector<Span> spans_;
};

} // namespace perfbench
