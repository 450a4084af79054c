#pragma once
// The event-driven fabric simulator: a width x height grid of PEs, each
// with a router, 48 KiB memory arena, DSD engine and task machinery,
// connected by cardinal links that move 32-bit wavelets.
//
// Fidelity model (see DESIGN.md): functionally exact — every word a kernel
// sends is routed through real Router switch-position state and lands in
// real PE memory, so numerical results are bit-faithful to the programmed
// algorithm. Timing is cycle-approximate: link occupancy, hop latency,
// task dispatch and per-element DSD costs from TimingParams. Contiguous
// words of one send travel as a single "flit" event batch (one event per
// message per hop, not per word), which keeps the event count tractable
// while preserving per-word bandwidth accounting.
//
// Execution engine (docs/simulator.md, "Parallel execution model"): the PE
// grid is partitioned into rectangular tile shards, each owning the event
// queue, payload pool, statistics and trace buffer of its rows x cols
// rectangle. The layout is resolved when the fabric is loaded: an explicit
// ShardGrid is honoured at any thread count, and the automatic layout
// ({0, 0}) is one shard for a one-worker run and the wse/shard_layout.hpp
// cost-model tiles for two or more workers (see resolve_shard_grid). A
// one-shard run drains in a single round with no lookahead, bound rescans
// or merges. A multi-shard run() is a conservative parallel DES in the
// Chandy–Misra channel-lookahead family: each round every shard processes
// events below its own horizon, derived from its neighbors' per-event
// emission bounds (earliest cycle a neighbor's pending work could place a
// wavelet across the shared boundary) propagated min-plus over the tile
// adjacency graph, and the static channel-lookahead table (which colors
// can cross each directed tile boundary at all, see
// set_channel_lookahead). Boundary-crossing flits travel through
// per-directed-boundary SPSC channels and merge at a deterministic barrier
// under the engine's total event order (time, emitting PE, per-PE emission
// index). A shard shares nothing else with another shard's worker: a
// crossing flit's words are copied into the channel and re-pooled on the
// far side, so every payload is acquired and released by its own shard's
// thread. Because that order is stamped at emission rather than at
// arrival, results — memory contents, FabricStats, trace streams — are
// bitwise identical under any shard layout (2D tiles, 1D strips, one
// shard) and, since a layout's round schedule depends only on the event
// state, at any thread count.

#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "perf/opcount.hpp"
#include "wse/color.hpp"
#include "wse/dsd.hpp"
#include "wse/event_queue.hpp"
#include "wse/geometry.hpp"
#include "wse/memory.hpp"
#include "wse/payload_pool.hpp"
#include "wse/program.hpp"
#include "wse/router.hpp"
#include "wse/shard_layout.hpp"
#include "wse/timing.hpp"
#include "wse/trace.hpp"
#include "wse/worker_pool.hpp"

namespace fvdf::analysis {
struct VerifyReport;
}

namespace fvdf::telemetry {
class FabricCollector;
class HostProfiler;
}

namespace fvdf::wse {

class FastForward;

struct FabricStats {
  u64 messages_sent = 0;   // send()/send_control() calls that left a ramp
  u64 wavelet_hops = 0;    // router-to-router link traversals (per message)
  u64 word_hops = 0;       // data words x link traversals
  u64 words_delivered = 0; // words landed in PE memory via ramps
  u64 words_dropped = 0;   // words routed off the fabric edge
  u64 control_wavelets = 0;
  u64 tasks_run = 0;
  u64 events_processed = 0;
  u64 flits_stalled = 0; // backpressure events (arrival before switch advance)

  bool operator==(const FabricStats&) const = default;
};

/// Static per-directed-boundary lookahead information for the parallel
/// engine. `out[s][d]` covers wavelets leaving shard s through cardinal
/// side d (d indexes kCardinalDirs via cardinal_index: N=0, E=1, S=2,
/// W=3) into the neighboring tile. `crosses = false` proves no configured
/// route carries any color over that boundary in that direction, which
/// decouples the two shards entirely (infinite lookahead);
/// `min_batch_cycles` is a proven lower bound on the link-transfer time of
/// any crossing wavelet (0 when unknown). Entries for sides with no
/// neighboring shard are ignored (planners mark them non-crossing). The
/// default table — every existing boundary crossing-capable with zero
/// minimum batch — is always safe; Fabric::plan_channel_lookahead
/// (src/analysis/) computes a tighter one from the program's static route
/// set.
struct ChannelLookahead {
  struct Edge {
    bool crosses = true;
    f64 min_batch_cycles = 0;
  };
  std::vector<std::array<Edge, 4>> out; // size shard_count
};

class Fabric {
public:
  /// `grid` optionally overrides the shard layout's tile grid (see
  /// wse::ShardGrid). The default {0, 0} is resolved against the thread
  /// count set before load(): one shard at one worker, the cost-model
  /// tiles at two or more (resolve_shard_grid). Tests and benchmarks force
  /// the 1D strip layout ({0, 1}), a single shard ({1, 1}) or a specific
  /// tile grid, honoured at any thread count; results are bitwise
  /// independent of the choice for programs whose event schedule is
  /// confluent (everything the solvers ship — tested), but round counts
  /// and per-shard diagnostics follow the layout.
  Fabric(i64 width, i64 height, TimingParams timing = {}, PeMemoryParams mem = {},
         ShardGrid grid = {});
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  i64 width() const { return width_; }
  i64 height() const { return height_; }

  /// Instantiates one program per PE (wse::instantiate) and applies its
  /// image: the routes, then the allocation map and the arena bytes. An
  /// image that does not fit the arena, or a route the router rejects,
  /// throws here. Then schedules every PE's start task at t=0, which runs
  /// the stream's entry block.
  void load(const ProgramFactory& factory);

  /// Statically verifies `factory` against this fabric's geometry and
  /// memory parameters without running the event loop: route completeness,
  /// deadlock freedom, delivery liveness, switch-position liveness and the
  /// per-PE memory budget. Does not modify this fabric — the verifier reads
  /// freshly instantiated images. Defined in src/analysis/ (link
  /// fvdf_analysis to use it); see docs/static_verification.md.
  analysis::VerifyReport verify(const ProgramFactory& factory) const;

  /// Computes the channel-lookahead table for `factory` on this fabric's
  /// shard layout from every PE's image: its route table and the sends
  /// its stream can make. Nothing runs. Sound because a PE's routes are
  /// all in its image and its task-time sends are all in its stream.
  /// Defined in src/analysis/ (link fvdf_analysis); install the result
  /// with set_channel_lookahead before run().
  ChannelLookahead plan_channel_lookahead(const ProgramFactory& factory) const;

  /// Installs a channel-lookahead table (see ChannelLookahead). Must match
  /// this fabric's shard layout; entries only ever tighten the engine's
  /// built-in one-hop bound, so an inaccurate table can cost determinism —
  /// only install tables computed for the loaded program.
  void set_channel_lookahead(ChannelLookahead table);
  const ChannelLookahead& channel_lookahead() const { return lookahead_; }

  struct RunResult {
    f64 cycles = 0;       // simulated time at completion
    bool all_halted = false;
    bool hit_cycle_limit = false;
  };

  /// Processes events until the queue drains, all PEs halt, or `max_cycles`
  /// simulated cycles elapse.
  RunResult run(f64 max_cycles = 1e15);

  /// Sets the number of worker threads run() may use (0 = usable_cpus(),
  /// 1 = serial; the default). Before load() this also
  /// re-resolves an automatic layout (see the constructor): the layout
  /// switches between one shard and the cost-model tiles, which resets an
  /// installed channel-lookahead table to the default and rebinds an
  /// attached telemetry collector — call it right after construction.
  /// After load() the layout is fixed. Thread counts beyond shard_count()
  /// are clamped — extra workers would own no shard — and requests far
  /// beyond the hardware's parallelism degrade to the best smaller
  /// configuration (see run()). The thread count never changes results.
  void set_threads(u32 threads);
  u32 threads() const { return threads_; }

  /// Number of spatial shards the engine partitioned this fabric into — a
  /// function of the grid, the constructor's ShardGrid override and
  /// whether more than one worker was requested before load() (for tests
  /// and diagnostics). This is the cost model's *useful* shard count:
  /// tiles own at least kMinTilePes PEs unless an explicit override
  /// forces more, so it also caps the worker count.
  u32 shard_count() const { return static_cast<u32>(shards_.size()); }

  /// The tile grid of the shard layout: shard id s is tile
  /// (s / tile_cols(), s % tile_cols()).
  u32 tile_rows() const { return tile_rows_; }
  u32 tile_cols() const { return tile_cols_; }

  /// The PE rectangle tile shard `s` owns: rows [row_begin, row_end) x
  /// cols [col_begin, col_end).
  struct TileRect {
    i64 row_begin = 0;
    i64 row_end = 0;
    i64 col_begin = 0;
    i64 col_end = 0;
  };
  TileRect shard_rect(u32 s) const {
    const Shard& shard = shards_[s];
    return TileRect{shard.row_begin, shard.row_end, shard.col_begin,
                    shard.col_end};
  }

  /// Shard id owning PE (x, y) (tests and diagnostics).
  u32 shard_id_of(i64 x, i64 y) const {
    return row_tile_[static_cast<std::size_t>(y)] * tile_cols_ +
           col_tile_[static_cast<std::size_t>(x)];
  }

  /// Steady-state fast-forward (wse/fast_forward.hpp), on by default: a
  /// one-shard run with no trace sink, fault plan or Trace-level collector
  /// replays repeating solver periods instead of simulating them. Results
  /// are bitwise identical either way; tests turn it off to compare.
  void set_fast_forward(bool on) { fast_forward_ = on; }

  /// Solver periods the fast-forward replayed since load().
  u64 replayed_periods() const { return replayed_periods_; }

  /// Window rounds (merge barriers) the last run() executed — a
  /// determinism-safe diagnostic: identical at any thread count for a
  /// given layout. A one-shard fabric, or one whose shards never exchange
  /// traffic, drains in a single round.
  u64 last_run_rounds() const { return last_run_rounds_; }

  // --- host-side access (the "memcpy" path: the host can read and write PE
  // memory only between runs, like the SDK's memcpy infrastructure). All
  // three throw on out-of-range coordinates. ---
  PeMemory& pe_memory(i64 x, i64 y);
  const Router& pe_router(i64 x, i64 y) const;
  const OpCounters& pe_counters(i64 x, i64 y) const;
  OpCounters total_counters() const;
  const FabricStats& stats() const { return stats_; }
  const TimingParams& timing() const { return timing_; }
  TimingParams& timing() { return timing_; }

  /// Simulated seconds corresponding to a cycle count.
  f64 seconds(f64 cycles) const { return timing_.seconds(cycles); }

  /// Installs a trace sink (pass nullptr to disable). Must be set before
  /// run(). The sink sees records in a defined total order — by cycle,
  /// then PE index, then the PE's own record index — released once no
  /// pending event can emit an earlier one (at window barriers, and inside
  /// a one-shard window at the event queue's top). The stream is therefore
  /// identical under any shard layout and thread count.
  void set_trace(TraceSink sink) { trace_ = std::move(sink); }

  /// Installs a deterministic fault schedule (see wse/trace.hpp). Fault
  /// plans count injected messages fabric-globally, so a run with faults
  /// active is pinned to one worker thread (still windowed, still
  /// deterministic).
  void set_faults(FaultPlan plan) { faults_ = plan; }

  /// Attaches a telemetry collector (pass nullptr — or a collector at
  /// Level::Off — to detach). Must be set before run(); binds the
  /// collector to this fabric's geometry and shard layout, resetting any
  /// previously collected data. Per-PE activity cells and per-shard
  /// streams are only ever written by the owning shard, so collected data
  /// is bitwise identical at any thread count (see
  /// telemetry/collector.hpp). The disabled path costs one pointer test
  /// per instrumentation site; configure with -DFVDF_TELEMETRY=OFF to
  /// compile the hooks out entirely.
  void set_telemetry(telemetry::FabricCollector* collector);
  telemetry::FabricCollector* telemetry_collector() const { return telemetry_; }

  /// Attaches a host-side execution profiler (pass nullptr to detach) for
  /// the next run(): per-worker wall-clock timelines, per-shard per-round
  /// stall attribution, sampled bytecode pc histograms and the
  /// critical-path speedup bound (see telemetry/host_profiler.hpp). Unlike
  /// the telemetry collector this observes the *simulator*, not the
  /// simulated fabric: its output is wall-clock data, never deterministic,
  /// and it cannot perturb results — solve output, cycle counts and the
  /// telemetry bundle stay bitwise identical with or without it. The
  /// hooks compile out under -DFVDF_TELEMETRY=OFF (the profiler then
  /// captures nothing; see host_profiling_compiled()).
  void set_host_profiler(telemetry::HostProfiler* profiler) {
    host_prof_ = profiler;
  }
  telemetry::HostProfiler* host_profiler() const { return host_prof_; }

  /// Whether the host-profiler hooks are compiled into this build.
  static constexpr bool host_profiling_compiled() {
#ifdef FVDF_TELEMETRY_DISABLED
    return false;
#else
    return true;
#endif
  }

  /// The distinct bytecode programs the loaded PEs dispatch into (PEs with
  /// coinciding lowering sites share one immutable program, so this is
  /// small). Valid after load(); the host profiler's pc histograms need
  /// their names after run() (analysis::annotate_host_profile).
  std::vector<const bc::Program*> distinct_bytecode_programs() const;

private:
  friend class FabricPeContext;
  friend class FastForward;

  struct Flit {
    PayloadRef data; // null for control-only wavelets
    ColorMask advance_after = 0; // trailing control wavelet, 0 = none
    Color color = kInvalidColor;
  };

  struct RecvDesc {
    Dsd dst;
    u32 filled = 0;
    Color completion = kInvalidColor;
  };

  // FIFO over a vector and a head index, used for every per-PE, per-color
  // queue (inbox words, receive descriptors, parked flits). An unused
  // queue is an empty vector and allocates nothing — most of a PE's 24
  // colors never see traffic — and a drained one keeps its buffer for the
  // next burst. Words append as one span and descriptors drain in bulk.
  template <typename T>
  class Fifo {
  public:
    bool empty() const { return head_ == buf_.size(); }
    std::size_t size() const { return buf_.size() - head_; }
    T& front() { return buf_[head_]; }
    T* data() { return buf_.data() + head_; }
    const T* data() const { return buf_.data() + head_; }
    void push_back(T&& item) { buf_.push_back(std::move(item)); }
    void append(const T* items, std::size_t count) {
      buf_.insert(buf_.end(), items, items + count);
    }
    void pop_front() { consume(1); }
    void consume(std::size_t count) {
      head_ += count;
      if (head_ == buf_.size()) {
        buf_.clear();
        head_ = 0;
      } else if (head_ >= 64 && 2 * head_ >= buf_.size()) {
        // A queue that never fully drains compacts instead of growing.
        buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
    void clear() {
      buf_.clear();
      head_ = 0;
    }
    void swap(Fifo& other) noexcept {
      buf_.swap(other.buf_);
      std::swap(head_, other.head_);
    }

  private:
    std::vector<T> buf_;
    std::size_t head_ = 0;
  };

  /// A parked flit: its arrival link is not in its color's current rx
  /// set, so it waits until a control advances that color's switch
  /// position.
  struct StalledFlit {
    Dir from;
    Flit flit;
    f64 parked_at = 0; // arrival time, for telemetry stall-cycle accounting
  };

  /// A PE's hot record: what a flit arrival, a switch advance and a task
  /// start read first, stored by value in PE-index order. Whole cache lines
  /// each, so neighboring tiles of the parallel engine never share a line.
  /// docs/simulator.md ("PE state layout") gives the field order's reason.
  struct alignas(64) PeHot {
    // Outbound link occupancy: [0]=ramp injection, [1..4]=N,E,S,W.
    std::array<f64, 5> link_free_at{};
    // Emission counter for the layout-invariant event order (see Event):
    // every event this PE emits is stamped (index, emit_seq++).
    u64 emit_seq = 0;
    PeCoord coord;
    Router router;
    u32 index = 0; // y * width + x
    // Colors that may have parked flits: bit c is set by every park and
    // cleared only when color c's queue in PeCold::stalled is empty, so a
    // switch advance skips the cold record for every other color.
    ColorMask stalled = 0;
    f64 busy_until = 0;
    const bc::Program* stream = nullptr; // kept alive by Fabric::streams_
    bool halted = false;
    bool run_entry = false; // interpret the stream's entry block at t=0
    bc::VmState vm;
  };
  static_assert(sizeof(PeHot) == 512, "the hot record is eight cache lines");

  /// A PE's cold state, indexed like the hot records: the arena, the op
  /// ledger, the per-color receive queues (most of a PE's 24 colors never
  /// see traffic), the parked flits and the trace counter.
  struct alignas(64) PeCold {
    PeMemory memory;
    OpCounters counters;
    std::array<Fifo<RecvDesc>, kNumRoutableColors> recv_queues;
    std::array<Fifo<f32>, kNumRoutableColors> inbox;
    // Parked flits per color, allocated at the PE's first stall:
    // backpressure is rare (the 64x64x8 CG case parks none), and inline
    // queues would add 768 bytes to every cold record.
    using StalledQueues = std::array<Fifo<StalledFlit>, kNumRoutableColors>;
    std::unique_ptr<StalledQueues> stalled;
    // Trace records this PE emitted: the last key of the trace order.
    u64 trace_seq = 0;

    explicit PeCold(const PeMemoryParams& mem)
        : memory(mem.capacity_bytes, mem.reserved_bytes) {}
  };

  enum class EventKind : u8 { FlitArrive, TaskStart };

  /// Events are totally ordered by (t, order): time first, ties broken by
  /// the emitting PE and its per-PE emission counter, packed into one key
  /// as `emitting PE index << 40 | emission counter`. Both fields fit: the
  /// constructor allows at most 2^24 PEs and stamp() fewer than 2^40
  /// emissions per PE.
  /// The tie-break is stamped at emission and is a property of the
  /// simulated program alone — each PE processes the same event sequence
  /// under any conservative schedule, so it emits the same events with the
  /// same counters — which is what makes results bitwise identical under
  /// ANY shard layout (2D tiles, 1D strips, a single serial shard), not
  /// just any thread count.
  struct Event {
    f64 t = 0;
    u64 order = 0;
    Flit flit; // FlitArrive
    u32 pe_index = 0;
    EventKind kind = EventKind::TaskStart;
    Dir from = Dir::Ramp;        // FlitArrive
    Color color = kInvalidColor; // TaskStart
  };
  static_assert(sizeof(Event) == 40, "the event queue moves Events by value");
  static constexpr u32 kEmitSeqBits = 40;
  static constexpr i64 kMaxPes = i64{1} << (64 - kEmitSeqBits);

  /// A trace record with the rest of its trace-order key (see set_trace).
  struct PendingTrace {
    TraceRecord record;
    i64 pe = 0;  // emitting PE index
    u64 seq = 0; // the PE's record index
  };

  /// Single-producer single-consumer hand-off of one window's
  /// boundary-crossing events between two adjacent shards. The source
  /// shard's worker appends during the processing phase (storage persists
  /// across windows — no per-window allocation once warm) and publishes
  /// the count with a release store at phase end; the destination shard's
  /// worker acquires it in the merge phase, drains in emission order, and
  /// resets. The two phases are barrier-separated, so producer and
  /// consumer never touch the slots concurrently. Payloads stay behind the
  /// boundary: a slot's flit carries no PayloadRef, its words travel in
  /// `words` and the destination copies them into its own pool.
  struct SpscChannel {
    std::vector<Event> slots;
    std::vector<u32> word_counts; // per slot; 0 = no payload (control-only)
    std::vector<f32> words;       // the slots' payload words, concatenated
    std::atomic<u32> published{0};

    void publish() {
      if (!slots.empty())
        published.store(static_cast<u32>(slots.size()), std::memory_order_release);
    }
  };

  /// One spatial tile of the fabric: a rectangle of PEs with its own event
  /// queue, sequence counter, statistics, payload pool, outbound channels
  /// (one per cardinal side with a neighboring tile) and trace buffer.
  /// Shards only ever touch their own rectangle's state during a window;
  /// padding keeps neighboring shards' hot counters off each other's cache
  /// lines.
  struct alignas(64) Shard {
    u32 id = 0;
    u32 tile_r = 0; // tile coordinates: id == tile_r * tile_cols_ + tile_c
    u32 tile_c = 0;
    i64 row_begin = 0;
    i64 row_end = 0;
    i64 col_begin = 0;
    i64 col_end = 0;
    EventQueue<Event> events;
    f64 now = 0;
    i64 halted = 0;
    FabricStats stats;
    PayloadPool* payloads = nullptr;    // this shard's pool (see payload_pools_)
    std::array<SpscChannel, 4> out;     // emissions per cardinal side this window
    std::vector<PendingTrace> trace;    // not yet gathered for release
    // Engine scheduling state, recomputed after every merge:
    f64 tmin = 0;            // earliest pending event time (+inf when drained)
    std::array<f64, 4> bound{}; // earliest cycle pending work could cross side d
    f64 horizon = 0;     // this round's processing horizon (set by the driver)
    bool dirty = true;   // queue changed since bounds were last computed
    bool bounds_changed = true; // tmin/bounds moved since the last horizon pass
  };

  u32 pe_index(i64 x, i64 y) const { return static_cast<u32>(y * width_ + x); }
  PeHot& at(u32 index) { return pes_[index]; }
  PeCold& cold(const PeHot& pe) { return cold_[pe.index]; }
  Shard& shard_of(i64 pe_idx) {
    return shards_[shard_id_of(pe_idx % width_, pe_idx / width_)];
  }
  /// Neighboring shard id across cardinal side `side` of `shard`, or -1
  /// when the tile sits on that edge of the tile grid.
  i64 neighbor_shard(const Shard& shard, std::size_t side) const {
    switch (side) {
    case cardinal_index(Dir::North):
      return shard.tile_r > 0 ? static_cast<i64>(shard.id - tile_cols_) : -1;
    case cardinal_index(Dir::East):
      return shard.tile_c + 1 < tile_cols_ ? static_cast<i64>(shard.id + 1) : -1;
    case cardinal_index(Dir::South):
      return shard.tile_r + 1 < tile_rows_
                 ? static_cast<i64>(shard.id + tile_cols_)
                 : -1;
    default:
      return shard.tile_c > 0 ? static_cast<i64>(shard.id - 1) : -1;
    }
  }
  void check_host_coord(i64 x, i64 y) const;
  /// (Re)builds the shards, payload pools and default lookahead table for
  /// the layout `grid_` resolves to at `threads_` workers. Only valid
  /// before load(): shards own the pending events.
  void apply_layout();

  /// Stamps the layout-invariant event-order key (see Event): the emitting
  /// PE's index and its next emission counter value. Every event enters the
  /// engine through exactly one stamp.
  void stamp(PeHot& pe, Event& event) {
    FVDF_CHECK_MSG(pe.emit_seq < (u64{1} << kEmitSeqBits),
                   "PE (" << pe.coord.x << ", " << pe.coord.y
                          << ") exhausted its 2^40 event emissions");
    event.order = u64{pe.index} << kEmitSeqBits | pe.emit_seq++;
  }

  /// Routes `event` from code running inside `from`: same-shard events
  /// enter the local queue immediately, boundary-crossing events park in
  /// the outbound channel until the merge barrier, their payload words
  /// copied and their PayloadRef released on `from`'s thread.
  void push_event(Shard& from, Event&& event);
  void enqueue_local(Shard& shard, Event&& event);

  // One engine round: every shard processes its window (phase A), then
  // every shard merges the traffic it received and refreshes its lookahead
  // bounds (phase B). compute_horizons runs between rounds on the driver
  // thread. All of it is deterministic — horizons are a function of the
  // event state and the lookahead table only. Rounds in which no shard's
  // bounds moved (quiet neighborhoods) reuse the previous horizons
  // verbatim — sound because the horizon is a pure function of exactly
  // those inputs.
  void compute_horizons(f64 tmin_global);
  void round_phase_a(Shard& shard, f64 max_cycles);
  void round_phase_b(Shard& shard);
  void process_window(Shard& shard, f64 horizon, f64 max_cycles);
  /// Merge half of the barrier: drains the neighbors' channels toward
  /// `dest` into its event queue, re-pooling each payload from `dest`'s
  /// own pool. Returns the number of events merged (the host profiler's
  /// backpressure-vs-window-limited discriminator).
  u32 merge_inbound(Shard& dest);
  void update_shard_bounds(Shard& shard);
  /// Hands the sink every trace record below `watermark` in trace order
  /// (see set_trace). Sound whenever no pending event is earlier than the
  /// watermark: every record an event emits is stamped at or after it.
  void release_traces(f64 watermark);

  void handle_flit_arrive(Shard& shard, Event&& event);
  /// Forwards/delivers an accepted flit (the post-backpressure half of
  /// arrival handling; also the re-dispatch path for released flits).
  void dispatch_flit(Shard& shard, PeHot& pe, Dir from, Flit&& flit, f64 t);
  // Applies a switch advance at `pe` and re-dispatches any flits that were
  // stalled on the affected colors (at time `t`). Flits the new position
  // still rejects re-park directly without re-entering the event queue.
  void advance_and_release(Shard& shard, PeHot& pe, ColorMask mask, f64 t);
  // Parks a flit that its color's current switch position rejects.
  void park(PeHot& pe, StalledFlit&& entry) {
    auto& stalled = cold(pe).stalled;
    if (!stalled) stalled = std::make_unique<PeCold::StalledQueues>();
    pe.stalled |= ColorMask{1} << entry.flit.color;
    (*stalled)[entry.flit.color].push_back(std::move(entry));
  }
  void handle_task_start(Shard& shard, const Event& event);
  void deliver_to_ramp(Shard& shard, PeHot& pe, const Flit& flit, f64 t);
  void feed_recv_descriptors(Shard& shard, PeHot& pe, Color color, f64 t);
  void run_task(Shard& shard, PeHot& pe, Color color, f64 t);

  // PeContext backends (called from FabricPeContext during a task).
  void ctx_send(Shard& shard, PeHot& pe, Color color, Dsd src,
                ColorMask advance_after, Color completion, f64& cursor);
  void ctx_send_control(Shard& shard, PeHot& pe, Color color, ColorMask advance,
                        f64& cursor);
  void ctx_recv(Shard& shard, PeHot& pe, Color color, Dsd dst, Color completion,
                f64 cursor);
  void ctx_activate(Shard& shard, PeHot& pe, Color color, f64 cursor);
  void ctx_mark_phase(Shard& shard, PeHot& pe, u8 phase, f64 cursor);
  void ctx_note_progress(Shard& shard, PeHot& pe, u64 iteration, f64 value,
                         f64 cursor);

  void emit_trace(Shard& shard, TraceEvent event, f64 t, const PeHot& pe,
                  Color color, u32 words) {
    if (trace_)
      shard.trace.push_back(PendingTrace{TraceRecord{event, t, pe.coord, color, words},
                                         pe.index, cold(pe).trace_seq++});
  }

  i64 width_;
  i64 height_;
  TraceSink trace_;
  telemetry::FabricCollector* telemetry_ = nullptr; // non-owning; null = off
  telemetry::HostProfiler* host_prof_ = nullptr;    // non-owning; null = off
  FaultPlan faults_{};
  u64 injected_data_messages_ = 0;
  TimingParams timing_;
  PeMemoryParams mem_params_;
  // Payload pools (one per shard) outlive everything holding PayloadRefs
  // (PEs' parked flits, shard queues): keep them declared first.
  std::vector<std::unique_ptr<PayloadPool>> payload_pools_;
  std::vector<PeHot> pes_;
  std::vector<PeCold> cold_;
  // The distinct streams the PEs run, in order of first use; keeps every
  // PeHot::stream alive.
  std::vector<std::shared_ptr<const bc::Program>> streams_;
  ShardGrid grid_;    // the constructor's layout request
  u32 tile_rows_ = 1; // shard layout: tile grid dimensions
  u32 tile_cols_ = 1;
  std::vector<u32> row_tile_; // PE row -> tile row
  std::vector<u32> col_tile_; // PE col -> tile col
  std::vector<Shard> shards_;
  ChannelLookahead lookahead_;
  std::vector<std::vector<u32>> worker_shards_; // worker -> owned shard ids
  // Transitively propagated emission bounds (compute_horizons scratch):
  // reach_[s][d] bounds when anything can next cross out of shard s
  // through side d, accounting for cascades arriving from elsewhere in the
  // tile graph (min-plus fixed point over directed boundary edges).
  std::vector<std::array<f64, 4>> reach_;
  bool horizons_valid_ = false; // stored horizons match the current bounds
  std::vector<PendingTrace> trace_pending_; // gathered, in trace order
  std::unique_ptr<FabricWorkerPool> pool_; // persists across run() calls
  // The running fast-forward, and the same pointer while it records a
  // period (null otherwise): every recording hook tests ff_rec_.
  FastForward* ff_ = nullptr;
  FastForward* ff_rec_ = nullptr;
  bool fast_forward_ = true;
  u64 replayed_periods_ = 0;
  u32 threads_ = 1;
  u64 last_run_rounds_ = 0;
  f64 now_ = 0;
  FabricStats stats_;
  bool loaded_ = false;
};

} // namespace fvdf::wse
