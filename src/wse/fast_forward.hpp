#pragma once
// Steady-state fast-forward for the one-shard event loop
// (docs/simulator.md, "Steady-state fast-forward").
//
// An iterative device program runs every PE through the same task
// sequence in every iteration: the same tasks at the same relative times,
// the same messages over the same links. Only the data changes. The
// fast-forward records one period of that schedule and replays the later
// periods from the record:
//
//   - A period boundary is the event boundary after PE (0,0)'s PROG task,
//     which the CG and Chebyshev programs issue once per iteration (probe).
//   - At each boundary the schedule state is captured: the pending events
//     (times, and per-PE emission indices relative to each PE's counter),
//     link and task occupancy, switch positions, receive descriptors,
//     inbox word counts, parked flits, the VM's u/cont/handler registers.
//     Data is left out: f registers, k, arena words and payload words.
//   - When a recorded period starts and ends in the same state shifted in
//     time, the later periods replay: each recorded task runs through the
//     interpreter against a replay context that checks every send, recv,
//     activation, advance and progress call, and the task's end cursor,
//     against the record; message words go from the sender's send straight
//     into the receiver's arena, at the offsets its receive descriptors
//     had in the record; the period's FabricStats and collector deltas are
//     added. No event queue, router, payload pool, inbox or descriptor
//     queue runs.
//   - A task that leaves the recorded path (the convergence test, the
//     iteration limit, a failed check) rolls its period back to the
//     snapshot taken at the period's start, and the full event loop
//     continues from the shifted boundary state. So does a period that
//     would cross the run's max_cycles.
//
// Replay engages only where it is exact: every recorded time, every link
// batch time and the period's shift lie on a 2^-16-cycle grid below 2^37
// cycles, so each shifted sum the full simulation would compute is exact
// in f64. Results — arenas, counters, FabricStats, cycles and the
// Metrics-level telemetry — are bitwise what full simulation gives.

#include <memory>
#include <unordered_map>
#include <vector>

#include "telemetry/collector.hpp"
#include "wse/fabric.hpp"

namespace fvdf::wse {

class FastForward {
public:
  /// What the recorder notes, in event order. Calls carry the task's
  /// cursor at the call; TaskBegin the task's start time, TaskEnd its end
  /// cursor.
  enum class OpKind : u8 {
    TaskBegin,
    TaskEnd,
    Send,
    SendControl,
    Recv,
    Activate,
    Advance,
    Halt,
    Progress,
    Store, // received words land in a PE's arena
  };
  struct Op {
    f64 t = 0;
    Dsd dsd{};  // Send: source; Recv: destination; Store: destination
    u32 pe = 0; // TaskBegin, Store
    u32 arg = 0; // Send/SendControl/Advance: color mask; Store: the
                 // words' address in the period's word space
    OpKind kind = OpKind::TaskBegin;
    Color color = kInvalidColor;
    Color completion = kInvalidColor;
    bool first = false; // the period's first touch of this PE (replay only)
  };
  static_assert(sizeof(Op) == 32, "a period holds ~50 ops per PE");

  /// Boundaries without a matching period after which detection stops.
  static constexpr u32 kMaxBoundaries = 8;

  /// Attaches to `fabric` for one run() of its one-shard engine.
  FastForward(Fabric& fabric, f64 max_cycles);
  ~FastForward();
  FastForward(const FastForward&) = delete;
  FastForward& operator=(const FastForward&) = delete;

  // --- recording hooks: the fabric calls these only while recording ---
  void record(const Op& op) { ops_.push_back(op); }
  void record_send(const Op& op, const std::vector<f32>* payload);
  /// A payload's words joined (pe, color)'s inbox.
  void record_delivery(u32 pe, Color color, const std::vector<f32>* payload);
  /// `count` inbox words of (pe, color) went to the arena at `dst` onward.
  void record_store(u32 pe, Color color, Dsd dst, u32 count);
  void record_stall_release(u32 pe, f64 cycles) {
    stall_releases_.push_back({pe, cycles});
  }

  /// PE (0,0) reported progress in the running task.
  void note_boundary() { boundary_ = true; }
  bool at_boundary() const { return boundary_; }
  /// Called after the boundary task's event (at time `t`) is processed:
  /// checks the period, and replays when it repeats.
  void on_boundary(f64 t);

private:
  using Shard = Fabric::Shard;
  using Event = Fabric::Event;
  using Payload = const std::vector<f32>*;
  class ReplayContext;

  /// Words of one inbox in the period's word space (see words_).
  struct Span {
    u32 at;
    u32 count;
    Color color;
  };
  struct Copy {
    u32 to;
    u32 from;
    u32 count;
  };

  struct Inbox {
    u32 pe;
    Color color;
    u32 words;
  };

  /// The schedule state at a boundary, encoded for comparison.
  struct Boundary {
    f64 t = 0;
    f64 now = 0;
    std::vector<u64> words;   // the state's non-time fields
    std::vector<f64> times;   // its times; kPast for occupancy already over
    std::vector<u64> emit_seq; // per PE
    FabricStats stats;
    std::vector<Payload> carries; // live payloads, by first appearance
    std::unordered_map<Payload, u32> slot_of;
    std::vector<Inbox> inboxes; // the inboxes holding words
    std::vector<telemetry::PeActivity> activity; // with telemetry only
  };

  /// The data a period changes, saved per PE as the period first touches
  /// it: the part of the state the schedule does not fix.
  struct Snapshot {
    std::vector<u8> arenas;
    std::vector<bc::VmState> vms;
    std::vector<OpCounters> counters;
    std::vector<u64> saved; // the period each PE was last saved in
    std::unique_ptr<telemetry::FabricCollector::Checkpoint> collector;
  };

  Boundary capture(f64 t) const;
  bool repeats(const Boundary& start, const Boundary& end) const;
  void start_recording(Boundary boundary);
  void replay(Boundary end);
  void replay_period(f64 shift);
  void save(u32 pe);
  void store(const Op& op);
  void commit_period();
  void restore_snapshot();
  void materialize(u64 periods);

  Fabric& fabric_;
  Shard& shard_;
  f64 max_cycles_;
  bool boundary_ = false;
  bool done_ = false;
  u32 boundaries_ = 0;

  // The period being recorded (or, once it repeats, the template). A
  // period's words live in one word space: the payloads alive at its
  // start (payload carries), the words waiting in inboxes at its start
  // (inbox carries), then every word it sends, in send order.
  bool recording_ = false;
  Boundary start_;
  std::vector<Op> ops_;
  std::unordered_map<Payload, u32> payload_at_; // a live payload's address
  // Per PE, the spans its inboxes hold, oldest first.
  std::vector<std::vector<Span>> inbox_words_;
  u32 staged_at_ = 0;         // where sent words start
  u32 words_end_ = 0;         // one past the last word sent
  std::vector<std::pair<u32, f64>> stall_releases_;
  bool valid_ = true; // the recording stayed replayable

  // The replay.
  Boundary end_;                  // the live state replay started from
  std::vector<Event> base_events_; // its pending events
  f64 shift_ = 0;                 // one period
  f64 max_time_ = 0;              // latest time in the template
  std::vector<u64> seq_delta_;    // per-PE emissions per period
  FabricStats stats_delta_;
  std::vector<std::pair<u32, telemetry::PeActivity>> activity_delta_;
  std::vector<Copy> carry_copies_; // a period's words -> the next's carries
  std::vector<f32> words_;         // this period's word space
  std::vector<f32> words_next_;
  u32 send_at_ = 0;                // the next send's address
  std::vector<f32*> store_to_;     // each Store's first arena word
  std::size_t store_next_ = 0;
  // Per PE: the words it sends and receives in a period. Their op-counter
  // charges are linear, so one per period replaces one per message.
  std::vector<std::array<u64, 3>> fmov_words_; // pe, sent, received
  std::vector<u32> arena_offset_;  // per PE, into Snapshot::arenas
  Snapshot snap_;
  u64 period_ = 0;                 // replayed periods, the snapshot's epoch
};

} // namespace fvdf::wse
