#pragma once
// Content-addressed artifact cache for the serve daemon (docs/serving.md).
//
// Key: app::case_fingerprint — the FNV-1a 64 of the canonical,
// default-resolved, solve-relevant parameter text of a case config. Two
// requests whose configs spell the same case differently (reordered keys,
// explicit defaults, extra whitespace, different sim_threads or output
// paths) hash identically and share one entry.
//
// Value: everything expensive that a repeat solve of the same case can
// legally reuse without changing results —
//   - the built FlowProblem (mesh + geomodel + transmissibilities; the
//     dominant setup cost for structured geomodels),
//   - core::CaseArtifacts (lowered bytecode programs + planned channel
//     lookahead tables; see the sharing contract on CaseArtifacts),
//   - the verify-preflight verdict (static verification passes once per
//     case, not once per job).
//
// Entries are handed out as shared_ptr, so eviction never invalidates a
// running job — the entry just stops being findable. Eviction is LRU by
// acquire order. Hit / miss / eviction counters land in an optional
// telemetry::MetricsRegistry (mutated under the cache mutex — registry
// adds are shard-local, not internally synchronized).

#include <cstddef>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/config.hpp"
#include "common/types.hpp"
#include "core/solver.hpp"

namespace fvdf::telemetry {
class MetricsRegistry;
}

namespace fvdf::serve {

struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 entries = 0;
};

class ArtifactCache {
public:
  struct Entry {
    std::string fingerprint;
    std::string canonical_text;
    std::shared_ptr<const FlowProblem> problem;
    std::shared_ptr<core::CaseArtifacts> artifacts;

    // Verify-preflight memo: the first job of a case that asks for
    // verification runs it; later jobs skip it (RunHooks::skip_verify).
    // Guarded by `mutex` — two concurrent first jobs may both verify
    // (benign: verification is read-only), but the flag flips once.
    std::mutex mutex;
    bool verified = false;

    bool operator==(const Entry&) const = delete;
  };

  explicit ArtifactCache(std::size_t capacity = 32,
                         telemetry::MetricsRegistry* metrics = nullptr);

  /// Looks up (or builds) the entry for `config`. The expensive problem
  /// build runs outside the cache lock, so concurrent first requests for
  /// *different* cases build in parallel. Concurrent first requests for
  /// the *same* case build it once: the first counts the miss and builds,
  /// the others wait on its in-flight entry and count hits. A failed build
  /// rethrows the same exception in the builder and every waiter and
  /// leaves no entry behind.
  std::shared_ptr<Entry> acquire(const Config& config, bool* was_hit = nullptr);

  CacheStats stats() const;
  std::size_t capacity() const { return capacity_; }

private:
  struct Slot {
    std::shared_ptr<Entry> entry;
    std::list<std::string>::iterator lru_pos;
  };

  void count(u32 id) const; // caller holds mutex_

  std::size_t capacity_;
  telemetry::MetricsRegistry* metrics_;
  u32 hit_id_ = 0, miss_id_ = 0, eviction_id_ = 0;

  mutable std::mutex mutex_;
  std::unordered_map<std::string, Slot> entries_; // by fingerprint
  // Builds in progress, by fingerprint: later acquirers wait on these.
  std::unordered_map<std::string, std::shared_future<std::shared_ptr<Entry>>>
      building_;
  std::list<std::string> lru_; // front = most recently acquired
  mutable CacheStats stats_;
};

} // namespace fvdf::serve
