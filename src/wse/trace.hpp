#pragma once
// Fabric event tracing and fault injection.
//
// TraceSink receives one record per simulator event (message injection,
// link hop, ramp delivery, task execution, switch advance) — the
// observability a hardware fabric gives through performance counters,
// plus full payload visibility only a simulator can offer. Traces are the
// debugging story for device programs: a deadlocked schedule is diagnosed
// by replaying who sent what where.
//
// FaultPlan injects the failure modes a distributed machine fears:
// dropped messages (a link that eats a wavelet) and corrupted payloads
// (a flipped bit in one word). The test suite uses these to show the
// system *detects* such faults — dropped halo data deadlocks the
// completion-callback protocol rather than silently computing garbage,
// and corrupted data is caught by the host-side numerical validation.

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "wse/color.hpp"
#include "wse/geometry.hpp"

namespace fvdf::wse {

enum class TraceEvent : u8 {
  MessageInjected, // PE pushed a message into its router
  LinkHop,         // message crossed a router-to-router link
  RampDelivery,    // words landed in a PE's inbox
  TaskRun,         // a task color executed on a PE
  SwitchAdvance,   // a router advanced switch positions
  FlitStalled,     // backpressure parked a flit
  FaultDrop,       // fault injection removed a message
  FaultCorrupt,    // fault injection flipped a payload bit
};

const char* to_string(TraceEvent event);

struct TraceRecord {
  TraceEvent event = TraceEvent::MessageInjected;
  f64 cycles = 0;
  PeCoord at{};
  Color color = kInvalidColor;
  u32 words = 0;
};

/// Receives every record, in the fabric's trace order (see
/// Fabric::set_trace). Keep it cheap: it runs inside the event loop.
using TraceSink = std::function<void(const TraceRecord&)>;

/// A bounded in-memory sink with simple querying, for tests and tools.
///
/// Thread-safety: appends through sink() are serialized by an internal
/// mutex, so one buffer may back several fabrics running on different
/// host threads. Within a single fabric the engine already guarantees the
/// sink only runs on the driving thread, in the defined trace order —
/// records are gathered per shard and released sorted by (cycle, PE, the
/// PE's record index) at window barriers (see Fabric::set_trace) — so the
/// lock is uncontended there. The
/// records()/total()/count()/summary() accessors take the same lock;
/// records() returns a snapshot copy for that reason.
class TraceBuffer {
public:
  explicit TraceBuffer(std::size_t capacity = 1 << 20) : capacity_(capacity) {}

  TraceBuffer(const TraceBuffer& other);
  TraceBuffer& operator=(const TraceBuffer& other);

  TraceSink sink() {
    return [this](const TraceRecord& record) { push(record); };
  }

  void push(const TraceRecord& record);

  std::vector<TraceRecord> records() const;
  u64 total() const;
  u64 count(TraceEvent event) const;
  std::string summary() const;

private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<TraceRecord> records_;
  u64 total_ = 0;
};

/// Deterministic fault schedule, applied at message injection time.
struct FaultPlan {
  /// Drop the n-th injected data message (1-based); 0 disables.
  u64 drop_message_index = 0;
  /// Flip one bit of word 0 of the n-th injected data message; 0 disables.
  u64 corrupt_message_index = 0;
  u32 corrupt_bit = 12; // which bit of the fp32 word to flip
};

} // namespace fvdf::wse
