#include "telemetry/collector.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace fvdf::telemetry {

const std::array<const char*, kPeLinks> kLinkNames = {"ramp", "north", "east",
                                                      "south", "west"};

const char* to_string(Level level) {
  switch (level) {
  case Level::Off: return "off";
  case Level::Metrics: return "metrics";
  case Level::Trace: return "trace";
  }
  return "?";
}

FabricCollector::FabricCollector(Level level, SamplingConfig sampling)
    : level_(level), sampling_(sampling) {
  FVDF_CHECK_MSG(sampling_.pe_stride >= 1, "pe_stride must be >= 1");
  FVDF_CHECK_MSG(sampling_.event_sample_period >= 1,
                 "event_sample_period must be >= 1");
}

void FabricCollector::bind(i64 width, i64 height, u32 shard_count) {
  FVDF_CHECK(width >= 1 && height >= 1 && shard_count >= 1);
  width_ = width;
  height_ = height;
  total_cycles_ = 0;
  finalized_ = false;
  activity_.assign(static_cast<std::size_t>(width * height), PeActivity{});
  shards_.clear();
  shards_.resize(shard_count);
  marks_.clear();
  progress_.clear();
  spans_.clear();
  task_cycles_.clear();
}

FabricCollector::Checkpoint FabricCollector::checkpoint() const {
  Checkpoint out;
  out.activity = activity_;
  for (const ShardSlot& slot : shards_) {
    out.stream_sizes.push_back({slot.phases.size(), slot.progress.size()});
    out.task_cycles.push_back(slot.task_cycles);
  }
  return out;
}

void FabricCollector::restore(const Checkpoint& checkpoint) {
  FVDF_CHECK(checkpoint.stream_sizes.size() == shards_.size());
  activity_ = checkpoint.activity;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].phases.resize(checkpoint.stream_sizes[s][0]);
    shards_[s].progress.resize(checkpoint.stream_sizes[s][1]);
    shards_[s].task_cycles = checkpoint.task_cycles[s];
  }
}

void FabricCollector::finalize(f64 total_cycles) {
  FVDF_CHECK_MSG(bound(), "finalize() before bind()");
  FVDF_CHECK_MSG(!finalized_, "collector already finalized");
  finalized_ = true;
  total_cycles_ = total_cycles;

  // Concatenate shard streams in shard-id order, then stable-sort by
  // (pe, t): each PE's marks all come from its single owning shard, whose
  // stream is already in emission order, so ties keep that order and the
  // result is a thread-count-independent total order.
  std::size_t mark_count = 0, progress_count = 0;
  for (const ShardSlot& slot : shards_) {
    mark_count += slot.phases.size();
    progress_count += slot.progress.size();
  }
  marks_.reserve(mark_count);
  progress_.reserve(progress_count);
  for (ShardSlot& slot : shards_) {
    marks_.insert(marks_.end(), slot.phases.begin(), slot.phases.end());
    progress_.insert(progress_.end(), slot.progress.begin(), slot.progress.end());
    task_cycles_.merge(slot.task_cycles);
    slot.phases.clear();
    slot.phases.shrink_to_fit();
    slot.progress.clear();
  }
  std::stable_sort(marks_.begin(), marks_.end(),
                   [](const PhaseMark& a, const PhaseMark& b) {
                     if (a.pe != b.pe) return a.pe < b.pe;
                     return a.t < b.t;
                   });
  std::stable_sort(progress_.begin(), progress_.end(),
                   [](const ProgressSample& a, const ProgressSample& b) {
                     return a.iteration < b.iteration;
                   });

  // Build per-PE spans: implicit Setup from t=0, last phase runs to the
  // end of the simulation, adjacent same-phase marks coalesce.
  spans_.clear();
  std::size_t i = 0;
  while (i < marks_.size()) {
    const i64 pe = marks_[i].pe;
    f64 cursor = 0;
    u8 phase = static_cast<u8>(Phase::Setup);
    for (; i < marks_.size() && marks_[i].pe == pe; ++i) {
      const PhaseMark& mark = marks_[i];
      if (mark.phase == phase) continue; // coalesce
      const f64 t = std::min(std::max(mark.t, cursor), total_cycles_);
      if (t > cursor) spans_.push_back(PhaseSpan{pe, phase, cursor, t});
      cursor = t;
      phase = mark.phase;
    }
    if (total_cycles_ > cursor || spans_.empty() || spans_.back().pe != pe)
      spans_.push_back(PhaseSpan{pe, phase, cursor, total_cycles_});
  }
}

std::array<f64, kNumPhases> FabricCollector::phase_cycles(i64 pe_index) const {
  FVDF_CHECK_MSG(finalized_, "phase_cycles() before finalize()");
  std::array<f64, kNumPhases> totals{};
  for (const PhaseSpan& span : spans_) {
    if (span.pe != pe_index) continue;
    totals[span.phase] += span.end - span.begin;
  }
  return totals;
}

} // namespace fvdf::telemetry
