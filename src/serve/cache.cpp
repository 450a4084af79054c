#include "serve/cache.hpp"

#include "app/scenario.hpp"
#include "common/serialize.hpp"
#include "telemetry/registry.hpp"

namespace fvdf::serve {

ArtifactCache::ArtifactCache(std::size_t capacity,
                             telemetry::MetricsRegistry* metrics)
    : capacity_(capacity == 0 ? 1 : capacity), metrics_(metrics) {
  if (metrics_ != nullptr) {
    hit_id_ = metrics_->counter("serve.cache.hits");
    miss_id_ = metrics_->counter("serve.cache.misses");
    eviction_id_ = metrics_->counter("serve.cache.evictions");
  }
}

void ArtifactCache::count(u32 id) const {
  if (metrics_ != nullptr) metrics_->add(0, id, 1);
}

std::shared_ptr<ArtifactCache::Entry>
ArtifactCache::acquire(const Config& config, bool* was_hit) {
  std::string canonical = app::canonical_case_text(config);
  std::string fingerprint =
      hash_hex(fnv1a64(canonical.data(), canonical.size()));

  std::promise<std::shared_ptr<Entry>> built;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = entries_.find(fingerprint);
    const auto pending = building_.find(fingerprint);
    if (it != entries_.end() || pending != building_.end()) {
      ++stats_.hits;
      count(hit_id_);
      if (was_hit != nullptr) *was_hit = true;
      if (it != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        return it->second.entry;
      }
      // Another job is building this case: wait for its entry (or its
      // exception) instead of building a second copy.
      const std::shared_future<std::shared_ptr<Entry>> future = pending->second;
      lock.unlock();
      return future.get();
    }
    ++stats_.misses;
    count(miss_id_);
    if (was_hit != nullptr) *was_hit = false;
    building_.emplace(fingerprint, built.get_future().share());
  }

  // Miss: build outside the lock so unrelated cases don't serialize on
  // each other's geomodel construction.
  auto entry = std::make_shared<Entry>();
  try {
    entry->fingerprint = fingerprint;
    entry->canonical_text = std::move(canonical);
    entry->problem = app::problem_from_config(config);
    entry->artifacts = std::make_shared<core::CaseArtifacts>();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    building_.erase(fingerprint);
    built.set_exception(std::current_exception());
    throw;
  }

  std::lock_guard<std::mutex> lock(mutex_);
  building_.erase(fingerprint);
  built.set_value(entry);
  lru_.push_front(fingerprint);
  entries_.emplace(fingerprint, Slot{entry, lru_.begin()});
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
    count(eviction_id_);
  }
  return entry;
}

CacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats out = stats_;
  out.entries = entries_.size();
  return out;
}

} // namespace fvdf::serve
