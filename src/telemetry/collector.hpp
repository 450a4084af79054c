#pragma once
// Sharded fabric telemetry collector.
//
// The fabric's parallel engine partitions the PE grid into spatial shards
// (see wse/fabric.hpp), and during a window each shard touches only its
// own rectangle's state. The collector mirrors that discipline: per-PE
// activity cells are written exclusively by the owning shard, and
// append-only streams (phase marks, progress samples) plus histograms live
// in per-shard slots that finalize() merges into per-PE order. Every
// merged artifact is therefore bitwise identical under any shard layout,
// and so at any --sim-threads value (which picks the layout) — the same
// argument that makes FabricStats and the trace stream deterministic.
//
// This header deliberately depends only on common/ so that wse can link
// against it from below; all fabric-specific typing (directions, colors)
// is reduced to small integers at the call sites.

#include <array>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "telemetry/phase.hpp"

namespace fvdf::telemetry {

enum class Level : u8 {
  Off = 0,     // collector ignored; fabric hot paths see a null pointer
  Metrics = 1, // per-PE/per-link activity, phase spans, progress, histograms
  Trace = 2,   // Metrics + sampled raw fabric events in the Chrome trace
};

const char* to_string(Level level);

struct SamplingConfig {
  /// Record phase marks only for PEs with x % pe_stride == 0 &&
  /// y % pe_stride == 0 (PE (0,0) — the reference timeline — is always
  /// sampled). 1 = every PE.
  u32 pe_stride = 1;
  /// Keep every Nth raw fabric event at Level::Trace. 1 = all.
  u32 event_sample_period = 1;
};

/// Outbound-link slots per PE: [0] is the ramp (self-injection), [1..4]
/// the cardinal links in the fabric's N, E, S, W order.
constexpr u32 kPeLinks = 5;
extern const std::array<const char*, kPeLinks> kLinkNames;

/// Per-PE activity cell, written only by the PE's owning shard.
struct PeActivity {
  std::array<u64, kPeLinks> tx_words{};    // words pushed out each link
  std::array<u64, kPeLinks> tx_messages{}; // wavelet batches per link
  u64 rx_words = 0;     // words landed in this PE's memory via the ramp
  u64 stalls = 0;       // flits parked by backpressure at this router
  f64 stall_cycles = 0; // total park time of released flits
  u64 tasks = 0;        // task activations executed
  f64 busy_cycles = 0;  // sum of task durations (dispatch to return)

  /// Words leaving on cardinal links only — the traffic this PE put on
  /// the fabric (ramp injections excluded; they never cross a link).
  u64 fabric_tx_words() const {
    return tx_words[1] + tx_words[2] + tx_words[3] + tx_words[4];
  }
};

struct PhaseMark {
  f64 t = 0;
  i64 pe = 0;
  u8 phase = 0;
};

struct ProgressSample {
  f64 t = 0;
  u64 iteration = 0;
  f64 value = 0; // residual r^T r at that iteration
};

/// One contiguous phase interval on one PE's timeline (finalize product).
struct PhaseSpan {
  i64 pe = 0;
  u8 phase = 0;
  f64 begin = 0;
  f64 end = 0;
};

class FabricCollector {
public:
  explicit FabricCollector(Level level = Level::Metrics,
                           SamplingConfig sampling = {});

  Level level() const { return level_; }
  bool enabled() const { return level_ != Level::Off; }
  const SamplingConfig& sampling() const { return sampling_; }

  // --- fabric-side interface (called by wse::Fabric) -----------------------

  /// Sizes the per-PE table and shard slots; called by Fabric::set_telemetry.
  /// Rebinding resets all collected data.
  void bind(i64 width, i64 height, u32 shard_count);
  bool bound() const { return width_ > 0; }

  PeActivity& activity(i64 pe_index) {
    return activity_[static_cast<std::size_t>(pe_index)];
  }

  bool samples_pe(i64 pe_index) const {
    if (sampling_.pe_stride <= 1) return true;
    const i64 stride = sampling_.pe_stride;
    return (pe_index % width_) % stride == 0 && (pe_index / width_) % stride == 0;
  }

  void mark_phase(u32 shard, i64 pe_index, u8 phase, f64 t) {
    shards_[shard].phases.push_back(PhaseMark{t, pe_index, phase});
  }

  /// Progress samples are recorded from the reference PE (index 0) only.
  void note_progress(u32 shard, i64 pe_index, u64 iteration, f64 value, f64 t) {
    if (pe_index != 0) return;
    shards_[shard].progress.push_back(ProgressSample{t, iteration, value});
  }

  void observe_task_cycles(u32 shard, f64 cycles) {
    shards_[shard].task_cycles.add(cycles);
  }

  // --- host-side interface (after the run) ---------------------------------

  /// Merges shard streams deterministically and computes phase spans.
  /// Idempotent only in the sense that re-finalizing after more data is an
  /// error; call exactly once per run.
  void finalize(f64 total_cycles);
  bool finalized() const { return finalized_; }

  i64 width() const { return width_; }
  i64 height() const { return height_; }
  f64 total_cycles() const { return total_cycles_; }
  const std::vector<PeActivity>& activities() const { return activity_; }
  const std::vector<PhaseMark>& phase_marks() const { return marks_; }
  const std::vector<ProgressSample>& progress() const { return progress_; }
  const StreamingHistogram& task_cycles() const { return task_cycles_; }

  /// Per-PE phase spans: each sampled PE's timeline is fully covered from
  /// cycle 0 (implicit Setup) to total_cycles (the last phase extends to
  /// the end of the run), with adjacent same-phase marks coalesced.
  const std::vector<PhaseSpan>& spans() const { return spans_; }

  /// Total cycles per phase over `pe`'s spans. By construction the array
  /// sums to total_cycles (up to f64 rounding in the summation).
  std::array<f64, kNumPhases> phase_cycles(i64 pe_index) const;

private:
  // Cache-line aligned: adjacent slots are written concurrently by the
  // fabric engine's worker threads (one slot per shard), and an unpadded
  // array would put two shards' append cursors on one line.
  struct alignas(64) ShardSlot {
    std::vector<PhaseMark> phases;
    std::vector<ProgressSample> progress;
    StreamingHistogram task_cycles;
  };

  Level level_;
  SamplingConfig sampling_;
  i64 width_ = 0;
  i64 height_ = 0;
  f64 total_cycles_ = 0;
  bool finalized_ = false;
  std::vector<PeActivity> activity_;
  std::vector<ShardSlot> shards_;
  // finalize() products:
  std::vector<PhaseMark> marks_;
  std::vector<ProgressSample> progress_;
  std::vector<PhaseSpan> spans_;
  StreamingHistogram task_cycles_;
};

} // namespace fvdf::telemetry
