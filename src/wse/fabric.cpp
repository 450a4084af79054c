#include "wse/fabric.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <optional>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/collector.hpp"
#include "telemetry/host_profiler.hpp"
#include "wse/bytecode_interp.hpp"
#include "wse/fast_forward.hpp"

// Telemetry hot-path hooks: a null-pointer test per site when compiled in,
// nothing at all under -DFVDF_TELEMETRY=OFF. `stmt` may use `collector`
// (the bound telemetry::FabricCollector&).
#ifdef FVDF_TELEMETRY_DISABLED
#define FVDF_TELEM(stmt) ((void)0)
#else
#define FVDF_TELEM(stmt)                                                       \
  do {                                                                         \
    if (telemetry_ != nullptr) {                                               \
      telemetry::FabricCollector& collector = *telemetry_;                     \
      stmt;                                                                    \
    }                                                                          \
  } while (0)
#endif

// Host-profiler hooks: same compile-out discipline as FVDF_TELEM. `stmt`
// may use `hprof` (the attached telemetry::HostProfiler&).
#ifdef FVDF_TELEMETRY_DISABLED
#define FVDF_HPROF(stmt) ((void)0)
#else
#define FVDF_HPROF(stmt)                                                       \
  do {                                                                         \
    if (host_prof_ != nullptr) {                                               \
      telemetry::HostProfiler& hprof = *host_prof_;                            \
      stmt;                                                                    \
    }                                                                          \
  } while (0)
#endif

namespace fvdf::wse {

namespace {
constexpr std::size_t link_slot(Dir dir) { return static_cast<std::size_t>(dir); }
constexpr f64 kInfCycles = std::numeric_limits<f64>::infinity();
// Worker requests far beyond the hardware's parallelism lose more to
// barrier latency than the extra shards can win back; degrade to the best
// smaller configuration. The cap keeps multi-worker engine paths exercised
// on small CI hosts. Its basis (~13% lost at 8 workers) was measured on a
// one-hardware-thread host, where every extra worker is oversubscribed; it
// has not been re-measured on a host with more cores.
constexpr u32 kMaxOversubscribedWorkers = 4;
// Trace records a one-shard window buffers before releasing a batch.
constexpr std::size_t kTraceReleaseBatch = 4096;
} // namespace

/// PeContext implementation handed to program handlers for the duration of
/// one task execution.
class FabricPeContext final : public PeContext {
public:
  FabricPeContext(Fabric& fabric, Fabric::Shard& shard, Fabric::PeHot& pe,
                  Fabric::PeCold& cold, f64& cursor)
      : fabric_(fabric), shard_(shard), pe_(pe), memory_(cold.memory),
        cursor_(cursor), engine_(cold.memory, cold.counters, fabric.timing(), cursor) {}

  PeMemory& memory() override { return memory_; }
  DsdEngine& dsd() override { return engine_; }

  void send(Color color, Dsd src, ColorMask advance_after, Color completion) override {
    fabric_.ctx_send(shard_, pe_, color, src, advance_after, completion, cursor_);
  }

  void send_control(Color color, ColorMask advance) override {
    note(FastForward::OpKind::SendControl, color, advance);
    fabric_.ctx_send_control(shard_, pe_, color, advance, cursor_);
  }

  void recv(Color color, Dsd dst, Color completion) override {
    note(FastForward::OpKind::Recv, color, 0, dst, completion);
    fabric_.ctx_recv(shard_, pe_, color, dst, completion, cursor_);
  }

  void activate(Color color) override {
    note(FastForward::OpKind::Activate, color);
    fabric_.ctx_activate(shard_, pe_, color, cursor_);
  }

  void advance_local(ColorMask mask) override {
    note(FastForward::OpKind::Advance, kInvalidColor, mask);
    fabric_.advance_and_release(shard_, pe_, mask, cursor_);
  }

  void mark_phase(u8 phase) override {
    fabric_.ctx_mark_phase(shard_, pe_, phase, cursor_);
  }

  void note_progress(u64 iteration, f64 value) override {
    note(FastForward::OpKind::Progress);
    fabric_.ctx_note_progress(shard_, pe_, iteration, value, cursor_);
  }

  void halt() override {
    note(FastForward::OpKind::Halt);
    if (!pe_.halted) {
      pe_.halted = true;
      ++shard_.halted;
    }
  }

private:
  // Records the call for the fast-forward while it records a period.
  void note(FastForward::OpKind kind, Color color = kInvalidColor, u32 arg = 0,
            Dsd dsd = {}, Color completion = kInvalidColor) {
    if (fabric_.ff_rec_ != nullptr)
      fabric_.ff_rec_->record(
          FastForward::Op{cursor_, dsd, pe_.index, arg, kind, color, completion});
  }

  Fabric& fabric_;
  Fabric::Shard& shard_;
  Fabric::PeHot& pe_;
  PeMemory& memory_;
  f64& cursor_;
  DsdEngine engine_;
};

Fabric::Fabric(i64 width, i64 height, TimingParams timing, PeMemoryParams mem,
               ShardGrid grid)
    : width_(width), height_(height), timing_(timing), mem_params_(mem),
      grid_(grid) {
  FVDF_CHECK_MSG(width >= 1 && height >= 1, "fabric dims must be positive");
  FVDF_CHECK_MSG(width <= kMaxPes / height,
                 width << "x" << height << " fabric exceeds the event order "
                       "key's 2^24 PEs");
  const auto count = static_cast<std::size_t>(width * height);
  pes_.resize(count);
  cold_.reserve(count);
  for (i64 y = 0; y < height; ++y)
    for (i64 x = 0; x < width; ++x) {
      PeHot& pe = pes_[pe_index(x, y)];
      pe.coord = PeCoord{x, y};
      pe.index = pe_index(x, y);
      pe.router.set_coord(pe.coord);
      cold_.emplace_back(mem_params_);
    }

  apply_layout();
}

void Fabric::apply_layout() {
  // Rectangular tile shards (wse/shard_layout.hpp): a tensor product of
  // row and column bands chosen by the area/perimeter cost model (or the
  // explicit override). Row-major tile ids, so a 1D row-strip layout is
  // the degenerate tile_cols == 1 case with identical ids to the old
  // engine.
  const ShardLayout layout = choose_shard_layout(
      width_, height_, resolve_shard_grid(grid_, threads_));
  tile_rows_ = layout.tile_rows;
  tile_cols_ = layout.tile_cols;
  // Shard holds atomics (SpscChannel) and is neither copyable nor movable:
  // size the vector once per layout, never resize it.
  shards_ = std::vector<Shard>(layout.tiles());
  row_tile_.resize(static_cast<std::size_t>(height_));
  col_tile_.resize(static_cast<std::size_t>(width_));
  for (u32 tr = 0; tr < tile_rows_; ++tr)
    for (i64 row = layout.row_splits[tr]; row < layout.row_splits[tr + 1]; ++row)
      row_tile_[static_cast<std::size_t>(row)] = tr;
  for (u32 tc = 0; tc < tile_cols_; ++tc)
    for (i64 col = layout.col_splits[tc]; col < layout.col_splits[tc + 1]; ++col)
      col_tile_[static_cast<std::size_t>(col)] = tc;
  payload_pools_.clear();
  payload_pools_.reserve(shards_.size());
  for (u32 s = 0; s < static_cast<u32>(shards_.size()); ++s) {
    Shard& shard = shards_[s];
    shard.id = s;
    shard.tile_r = s / tile_cols_;
    shard.tile_c = s % tile_cols_;
    shard.row_begin = layout.row_splits[shard.tile_r];
    shard.row_end = layout.row_splits[shard.tile_r + 1];
    shard.col_begin = layout.col_splits[shard.tile_c];
    shard.col_end = layout.col_splits[shard.tile_c + 1];
    FVDF_CHECK_MSG(shard.row_end > shard.row_begin &&
                       shard.col_end > shard.col_begin,
                   "degenerate shard partition: empty tile " << s);
    payload_pools_.push_back(std::make_unique<PayloadPool>());
    shard.payloads = payload_pools_.back().get();
  }
  // Default lookahead: every existing boundary crossing-capable with no
  // minimum batch; absent sides marked non-crossing.
  lookahead_.out.assign(shards_.size(), {});
  for (Shard& shard : shards_)
    for (std::size_t side = 0; side < 4; ++side)
      if (neighbor_shard(shard, side) < 0)
        lookahead_.out[shard.id][side] = ChannelLookahead::Edge{false, 0};
  if (telemetry_ != nullptr) telemetry_->bind(width_, height_, shard_count());
}

Fabric::~Fabric() = default;

void Fabric::set_threads(u32 threads) {
  const u32 before = threads_;
  threads_ = threads == 0 ? usable_cpus() : threads;
  if (!loaded_ && resolve_shard_grid(grid_, before) !=
                      resolve_shard_grid(grid_, threads_))
    apply_layout();
}

void Fabric::set_channel_lookahead(ChannelLookahead table) {
  FVDF_CHECK_MSG(table.out.size() == shards_.size(),
                 "channel-lookahead table has " << table.out.size()
                                                << " shards, fabric has "
                                                << shards_.size());
  for (const Shard& shard : shards_)
    for (std::size_t side = 0; side < 4; ++side) {
      const ChannelLookahead::Edge& edge = table.out[shard.id][side];
      FVDF_CHECK_MSG(edge.min_batch_cycles >= 0, "negative channel lookahead");
      if (neighbor_shard(shard, side) < 0)
        FVDF_CHECK_MSG(!edge.crosses,
                       "lookahead claims a crossing over the fabric edge of "
                       "shard " << shard.id);
    }
  lookahead_ = std::move(table);
}

void Fabric::set_telemetry(telemetry::FabricCollector* collector) {
  telemetry_ = (collector != nullptr && collector->enabled()) ? collector : nullptr;
  if (telemetry_ != nullptr) telemetry_->bind(width_, height_, shard_count());
}

std::vector<const bc::Program*> Fabric::distinct_bytecode_programs() const {
  std::vector<const bc::Program*> programs;
  programs.reserve(streams_.size());
  for (const auto& stream : streams_) programs.push_back(stream.get());
  return programs;
}

void Fabric::load(const ProgramFactory& factory) {
  FVDF_CHECK_MSG(!loaded_, "fabric already loaded");
  loaded_ = true;
  for (PeHot& pe : pes_) {
    // The image is applied, then dropped: the fabric keeps only the stream.
    const std::unique_ptr<PeProgram> program =
        instantiate(factory, ImageSite{pe.coord, width_, height_, mem_params_});
    const PeImage& image = program->image();
    for (const auto& [color, config] : image.routes)
      pe.router.configure(color, config);
    cold(pe).memory.assign(image.allocations, image.arena);
    pe.stream = image.program.get();
    pe.run_entry = image.run_entry;
    if (std::find(streams_.begin(), streams_.end(), image.program) == streams_.end())
      streams_.push_back(image.program);
    Event event;
    event.kind = EventKind::TaskStart;
    event.pe_index = pe.index;
    event.color = kInvalidColor; // sentinel: the start task
    event.t = 0;
    stamp(pe, event);
    enqueue_local(shard_of(event.pe_index), std::move(event));
  }
}

void Fabric::enqueue_local(Shard& shard, Event&& event) {
  shard.events.push(std::move(event));
}

void Fabric::push_event(Shard& from, Event&& event) {
  Shard& dest = shard_of(event.pe_index);
  if (&dest == &from) {
    enqueue_local(from, std::move(event));
    return;
  }
  // Only link hops cross shards, and links connect cardinal neighbors, so
  // every crossing lands in an edge-adjacent tile (one tile-coordinate
  // step, never a diagonal); appending in emission order is what makes the
  // merge's tie-break (source shard, emission index) exact.
  std::size_t side;
  if (dest.tile_c == from.tile_c)
    side = dest.tile_r == from.tile_r + 1 ? cardinal_index(Dir::South)
                                          : cardinal_index(Dir::North);
  else
    side = dest.tile_c == from.tile_c + 1 ? cardinal_index(Dir::East)
                                          : cardinal_index(Dir::West);
  FVDF_CHECK_MSG(neighbor_shard(from, side) == static_cast<i64>(dest.id),
                 "cross-shard event skipped a tile: " << from.id << " -> "
                                                      << dest.id);
  SpscChannel& channel = from.out[side];
  const PayloadRef payload = std::move(event.flit.data);
  channel.word_counts.push_back(payload ? static_cast<u32>(payload->size()) : 0);
  if (payload)
    channel.words.insert(channel.words.end(), payload->begin(), payload->end());
  channel.slots.push_back(std::move(event));
}

Fabric::RunResult Fabric::run(f64 max_cycles) {
  FVDF_CHECK_MSG(loaded_, "run() before load()");
  RunResult result;

  // Fault schedules count injected messages fabric-globally; pinning the
  // run to one worker keeps that count order deterministic.
  const bool faults_active =
      faults_.drop_message_index != 0 || faults_.corrupt_message_index != 0;
  // Workers beyond the shard count would own no shard, and workers far
  // beyond the hardware's parallelism cost more in barrier latency than
  // they win (kMaxOversubscribedWorkers). The clamp (like every scheduling
  // decision here) is invisible in the results.
  const u32 hw = usable_cpus();
  const u32 workers =
      faults_active ? 1
                    : std::min({threads_, shard_count(),
                                std::max(hw, kMaxOversubscribedWorkers)});
  const bool parallel = workers > 1;
  if (parallel && (!pool_ || pool_->size() != workers)) {
    // Workers own contiguous 2D blocks of the tile grid
    // (assign_shard_blocks). The assignment affects locality only — the
    // round schedule, and therefore every result, is identical under any.
    worker_shards_ = assign_shard_blocks(tile_rows_, tile_cols_, workers);
    pool_ = std::make_unique<FabricWorkerPool>(workers);
  }

#ifndef FVDF_TELEMETRY_DISABLED
  // Arm the host profiler for this run: the wall clock starts here (worker
  // 0 opens in Drive, covering the bound pass below), the shard layout is
  // exported for per-tile attribution, and the installed lookahead table
  // is snapshotted so the stall attribution can be read against the
  // windows actually in force.
  if (host_prof_ != nullptr) {
    host_prof_->begin_run(workers, shard_count(), threads_);
    std::vector<telemetry::HostTileRect> rects;
    rects.reserve(shards_.size());
    for (const Shard& shard : shards_)
      rects.push_back(telemetry::HostTileRect{shard.row_begin, shard.row_end,
                                              shard.col_begin, shard.col_end});
    host_prof_->set_layout(tile_rows_, tile_cols_, std::move(rects));
    std::vector<telemetry::HostLookaheadEdge> edges;
    for (const Shard& shard : shards_)
      for (std::size_t side = 0; side < 4; ++side) {
        const i64 nb = neighbor_shard(shard, side);
        if (nb < 0) continue;
        const ChannelLookahead::Edge& edge = lookahead_.out[shard.id][side];
        edges.push_back(telemetry::HostLookaheadEdge{
            shard.id, static_cast<u32>(nb),
            static_cast<u8>(side), edge.crosses, edge.min_batch_cycles});
      }
    host_prof_->set_lookahead(std::move(edges));
  }
  if (parallel) pool_->set_profiler(host_prof_);
#endif

  // Steady-state fast-forward (wse/fast_forward.hpp): one shard, and no
  // observer that needs every event — a trace sink, a fault plan or a
  // Trace-level collector.
  std::optional<FastForward> fast_forward;
  if (fast_forward_ && shards_.size() == 1 && !trace_ && !faults_active &&
      (telemetry_ == nullptr || telemetry_->level() != telemetry::Level::Trace))
    fast_forward.emplace(*this, max_cycles);

  last_run_rounds_ = 0;
  // Force a fresh bound pass: timing parameters and the lookahead table may
  // have changed since the cached bounds were computed.
  horizons_valid_ = false;
  for (Shard& shard : shards_) {
    shard.dirty = true;
    update_shard_bounds(shard);
  }

  // Note: the loop drains the queues even after every PE has halted —
  // in-flight wavelets keep moving through the fabric (and into the stats)
  // exactly as they would on hardware; tasks on halted PEs are ignored.
  try {
    for (;;) {
      f64 tmin = kInfCycles;
      for (const Shard& shard : shards_) tmin = std::min(tmin, shard.tmin);
      // After the merge every pending event sits in a queue, so no record
      // below the global minimum can still appear.
      if (trace_) release_traces(tmin);
      if (tmin == kInfCycles) break; // drained
      if (tmin > max_cycles) {
        result.hit_cycle_limit = true;
        break;
      }
      compute_horizons(tmin);
      ++last_run_rounds_;

      if (parallel) {
        pool_->run_round([&](u32 worker, u32 phase) {
          for (u32 s : worker_shards_[worker]) {
            if (phase == 0)
              round_phase_a(shards_[s], max_cycles);
            else
              round_phase_b(shards_[s]);
          }
        });
      } else {
#ifndef FVDF_TELEMETRY_DISABLED
        if (host_prof_ != nullptr) {
          // Serial engine, same timeline taxonomy: phase A is Run, phase B
          // is Merge, everything between rounds is Drive. No barriers, no
          // parks.
          telemetry::HostWorkerTimeline& timeline = host_prof_->timeline(0);
          timeline.enter(telemetry::HostState::Run, host_prof_->now());
          for (Shard& shard : shards_) round_phase_a(shard, max_cycles);
          timeline.enter(telemetry::HostState::Merge, host_prof_->now());
          for (Shard& shard : shards_) round_phase_b(shard);
          timeline.enter(telemetry::HostState::Drive, host_prof_->now());
        } else {
          for (Shard& shard : shards_) round_phase_a(shard, max_cycles);
          for (Shard& shard : shards_) round_phase_b(shard);
        }
#else
        for (Shard& shard : shards_) round_phase_a(shard, max_cycles);
        for (Shard& shard : shards_) round_phase_b(shard);
#endif
      }
      FVDF_HPROF(hprof.accumulate_round());
    }
  } catch (...) {
    // Surface whatever the window produced before the throw (kernel
    // FVDF_CHECKs propagate to the caller, as in the serial engine).
    if (trace_) release_traces(kInfCycles);
    FVDF_HPROF(hprof.end_run());
    throw;
  }
  // A cycle-limited run stops with events pending; what it traced is
  // complete up to the limit, and a later run() continues after it.
  if (trace_) release_traces(kInfCycles);
  FVDF_HPROF(hprof.end_run());

  stats_ = FabricStats{};
  now_ = 0;
  i64 halted = 0;
  for (const Shard& shard : shards_) {
    stats_.messages_sent += shard.stats.messages_sent;
    stats_.wavelet_hops += shard.stats.wavelet_hops;
    stats_.word_hops += shard.stats.word_hops;
    stats_.words_delivered += shard.stats.words_delivered;
    stats_.words_dropped += shard.stats.words_dropped;
    stats_.control_wavelets += shard.stats.control_wavelets;
    stats_.tasks_run += shard.stats.tasks_run;
    stats_.events_processed += shard.stats.events_processed;
    stats_.flits_stalled += shard.stats.flits_stalled;
    now_ = std::max(now_, shard.now);
    halted += shard.halted;
  }
  result.cycles = now_;
  result.all_halted = halted == static_cast<i64>(pes_.size());
  return result;
}

void Fabric::compute_horizons(f64 tmin_global) {
  // A shard may process everything strictly below the earliest cycle at
  // which a neighbor's pending work could possibly place a wavelet across
  // their shared boundary (the neighbor's emission bound, maintained by
  // update_shard_bounds). Horizons are a function of the event state, the
  // geometry and the lookahead table only — never of the worker count —
  // which is the determinism argument in one sentence.
  const std::size_t n = shards_.size();
  // Quiet-neighborhood fast path: bounds are the only engine input that
  // moves between rounds (geometry and the lookahead table are fixed for
  // the duration of a run), so when no shard's tmin or bounds changed the
  // stored horizons are still exactly right — skip the fixed point. Purely
  // a recomputation saving: the reused values are bit-identical to what a
  // full pass would produce, at any thread count.
  bool any_changed = !horizons_valid_;
  for (Shard& shard : shards_) {
    any_changed |= shard.bounds_changed;
    shard.bounds_changed = false;
  }
  if (any_changed) {
    const f64 hop = timing_.hop_latency_cycles;
    // Per-shard emission bounds only see the shard's own queue, but
    // causality chains hop tile to tile: an event two tiles away can cross
    // into this one after cascading through a neighbor. Propagate bounds
    // transitively over the directed tile-boundary graph with a min-plus
    // fixed point: reach_[s][d] bounds when anything can next cross out of
    // shard s through side d — either s's own pending work (the emission
    // bound), or a cascade entering s through some other side e and
    // traversing the tile (at least one hop per row or column spanned,
    // plus the outgoing boundary's minimum batch). U-turns (e == d's
    // opposite entry, i.e. re-crossing the same boundary back) are
    // excluded: a wavelet that enters through side e cannot leave through
    // e's own boundary edge without a reflection, which cardinal routing
    // forbids within the window. Without the propagation, a drained tile
    // would report an infinite bound and let its far neighbor run ahead of
    // a cascade still working its way across the grid (e.g. the all-reduce
    // column walk, which empties every other shard).
    reach_.assign(n, {kInfCycles, kInfCycles, kInfCycles, kInfCycles});
    for (std::size_t i = 0; i < n; ++i) {
      const Shard& shard = shards_[i];
      for (std::size_t d = 0; d < 4; ++d)
        if (neighbor_shard(shard, d) >= 0 && lookahead_.out[i][d].crosses)
          reach_[i][d] = shard.bound[d];
    }
    // Relaxation: Bellman-Ford over the directed boundary edges. Distances
    // only decrease and every simple path has < 4n edges; the changed flag
    // exits as soon as a sweep is a no-op (typically 2-3 sweeps).
    for (std::size_t iter = 0; iter < 4 * n; ++iter) {
      bool changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        const Shard& shard = shards_[i];
        for (std::size_t d = 0; d < 4; ++d) {
          if (neighbor_shard(shard, d) < 0 || !lookahead_.out[i][d].crosses)
            continue; // no such directed boundary edge
          // Entering through side e (from neighbor nb's opposite boundary)
          // and leaving through side d spans the tile's rows (vertical
          // pass-through), its columns (horizontal), or a single boundary
          // PE hop (perpendicular turn — and the U-turn echo, e == d: the
          // router cannot reflect a wavelet, but an arrival's trailing
          // control can release a parked flit pointed straight back across
          // the boundary it came from, one hop away, with no task dispatch
          // in between; excluding this path is exactly the cross-round echo
          // that broke serial equivalence in the 1D engine).
          for (std::size_t e = 0; e < 4; ++e) {
            const i64 nb = neighbor_shard(shard, e);
            if (nb < 0) continue;
            const f64 inbound =
                reach_[static_cast<std::size_t>(nb)][opposite_cardinal(e)];
            if (inbound == kInfCycles) continue;
            f64 span;
            if (e == opposite_cardinal(d))
              span = (d == cardinal_index(Dir::North) ||
                      d == cardinal_index(Dir::South))
                         ? static_cast<f64>(shard.row_end - shard.row_begin)
                         : static_cast<f64>(shard.col_end - shard.col_begin);
            else
              span = 1; // perpendicular turn or U-turn echo: one hop
            const f64 via =
                inbound + span * hop + lookahead_.out[i][d].min_batch_cycles;
            if (via < reach_[i][d]) {
              reach_[i][d] = via;
              changed = true;
            }
          }
        }
      }
      if (!changed) break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      Shard& shard = shards_[i];
      f64 horizon = kInfCycles;
      for (std::size_t e = 0; e < 4; ++e) {
        const i64 nb = neighbor_shard(shard, e);
        if (nb < 0) continue;
        horizon = std::min(
            horizon, reach_[static_cast<std::size_t>(nb)][opposite_cardinal(e)]);
      }
      shard.horizon = horizon;
    }
    horizons_valid_ = true;
  }
  bool progress = false;
  for (const Shard& shard : shards_) progress |= shard.tmin < shard.horizon;
  if (progress) return;
  // Degenerate timing (zero hop latency) can pin every bound to the global
  // minimum. Processing the globally earliest event is always safe; open
  // the window a representable sliver for exactly the shards that hold it.
  // The bump is a function of the event state alone (still deterministic),
  // and it leaves the stored horizons stale — invalidate them.
  const f64 bumped = std::nextafter(tmin_global, kInfCycles);
  for (Shard& shard : shards_)
    if (shard.tmin == tmin_global) shard.horizon = std::max(shard.horizon, bumped);
  horizons_valid_ = false;
}

void Fabric::round_phase_a(Shard& shard, f64 max_cycles) {
#ifndef FVDF_TELEMETRY_DISABLED
  if (host_prof_ != nullptr) {
    // Stall classification: a shard either worked (window admitted events),
    // was starved (queue empty — no local work exists), or was closed out by
    // its lookahead window. The last case splits in phase B on whether
    // inbound traffic actually arrived (backpressure) or the installed
    // table was simply conservative (window-limited). Exactly one bin per
    // shard per round, so the bins sum to the round count.
    telemetry::HostShardStats& hs = host_prof_->shard(shard.id);
    const bool starved = shard.events.empty();
    const u64 before = shard.stats.events_processed;
    const f64 t0 = host_prof_->now();
    process_window(shard, shard.horizon, max_cycles);
    const f64 busy = host_prof_->now() - t0;
    const u64 delta = shard.stats.events_processed - before;
    hs.last_round_busy_seconds = busy;
    hs.last_round_events = delta;
    hs.busy_seconds += busy;
    hs.events += delta;
    if (delta > 0)
      ++hs.rounds_worked;
    else if (starved)
      ++hs.rounds_starved;
    else
      hs.pending_limited = true; // resolved against inbound in phase B
    for (SpscChannel& channel : shard.out) {
      hs.outbound_events += channel.slots.size();
      channel.publish();
    }
    return;
  }
#endif
  process_window(shard, shard.horizon, max_cycles);
  for (SpscChannel& channel : shard.out) channel.publish();
}

void Fabric::round_phase_b(Shard& shard) {
  const u32 inbound = merge_inbound(shard);
  update_shard_bounds(shard);
#ifndef FVDF_TELEMETRY_DISABLED
  if (host_prof_ != nullptr) {
    telemetry::HostShardStats& hs = host_prof_->shard(shard.id);
    hs.inbound_events += inbound;
    if (hs.pending_limited) {
      hs.pending_limited = false;
      if (inbound > 0)
        ++hs.rounds_backpressure;
      else
        ++hs.rounds_window_limited;
    }
  }
#else
  (void)inbound;
#endif
}

void Fabric::process_window(Shard& shard, f64 horizon, f64 max_cycles) {
  // A one-shard run is a single window: release its trace records as it
  // goes, below the queue top (no later event is earlier), so the buffer
  // stays bounded. Multi-shard windows wait for the barrier's watermark.
  const bool stream_trace = trace_ && shards_.size() == 1;
  bool any = false;
  while (!shard.events.empty()) {
    const Event& top = shard.events.top();
    if (top.t >= horizon || top.t > max_cycles) break;
    if (stream_trace && shard.trace.size() >= kTraceReleaseBatch)
      release_traces(top.t);
    Event event = shard.events.pop();
    shard.now = std::max(shard.now, event.t);
    ++shard.stats.events_processed;
    any = true;
    switch (event.kind) {
    case EventKind::FlitArrive: handle_flit_arrive(shard, std::move(event)); break;
    case EventKind::TaskStart:
      handle_task_start(shard, event);
      if (ff_ != nullptr && ff_->at_boundary()) ff_->on_boundary(event.t);
      break;
    }
  }
  // A shard idle up to its horizon leaves the queue untouched: its bounds
  // stay valid and phase B skips the rescan entirely (adaptive fast path).
  if (any) shard.dirty = true;
}

u32 Fabric::merge_inbound(Shard& dest) {
  // Gather order is irrelevant to results: the queue orders by the full
  // (t, order) key, which is unique per event and stamped at emission.
  u32 total = 0;
  for (std::size_t side = 0; side < 4; ++side) {
    const i64 nb = neighbor_shard(dest, side);
    if (nb < 0) continue;
    // The neighbor's channel pointing back at us: its side opposite ours.
    SpscChannel& channel =
        shards_[static_cast<std::size_t>(nb)].out[opposite_cardinal(side)];
    const u32 count = channel.published.load(std::memory_order_acquire);
    if (count == 0) continue;
    const f32* words = channel.words.data();
    for (u32 i = 0; i < count; ++i) {
      Event& event = channel.slots[i];
      if (const u32 length = channel.word_counts[i]; length != 0) {
        PayloadRef payload = dest.payloads->acquire(length);
        payload.mutate().assign(words, words + length);
        words += length;
        event.flit.data = std::move(payload);
      }
      dest.events.push(std::move(event));
    }
    channel.slots.clear();
    channel.word_counts.clear();
    channel.words.clear();
    channel.published.store(0, std::memory_order_relaxed);
    total += count;
  }
  if (total > 0) dest.dirty = true;
  return total;
}

void Fabric::update_shard_bounds(Shard& shard) {
  if (!shard.dirty) return;
  shard.dirty = false;
  const f64 old_tmin = shard.tmin;
  const std::array<f64, 4> old_bound = shard.bound;
  shard.tmin = shard.events.empty() ? kInfCycles : shard.events.top().t;

  std::array<ChannelLookahead::Edge, 4> edge;
  bool any_crossing = false;
  for (std::size_t d = 0; d < 4; ++d) {
    edge[d] = neighbor_shard(shard, d) >= 0
                  ? lookahead_.out[shard.id][d]
                  : ChannelLookahead::Edge{false, 0};
    any_crossing |= edge[d].crosses;
  }
  std::array<f64, 4> bound = {kInfCycles, kInfCycles, kInfCycles, kInfCycles};
  if (!shard.events.empty() && any_crossing) {
    const f64 hop = timing_.hop_latency_cycles;
    const f64 dispatch = timing_.task_dispatch_cycles;
    // Emission bound of one pending event toward a boundary `d` link-hops
    // away whose slowest-possible crossing takes min_batch link cycles.
    // Every causal chain out of the event either re-forwards its own flit
    // (one hop_latency + its own batch time per hop), releases a parked
    // flit via its trailing control (batch unknown, but >= the boundary
    // minimum when it crosses), or passes through a task dispatch before
    // any new wavelet exists. Conservative in every case; see
    // docs/simulator.md for the induction.
    const auto emission_bound = [&](const Event& e, f64 d, f64 min_batch,
                                    f64 own_batch) {
      f64 c = e.t + d * hop + min_batch;
      if (e.kind == EventKind::TaskStart) return c + dispatch;
      if (e.flit.advance_after != 0) return c;
      return c + std::min(std::max(d * own_batch - min_batch, 0.0), dispatch);
    };
    // No contribution can undercut the earliest event crossing the nearest
    // row or column: once every wanted bound touches its floor the scan
    // can stop.
    std::array<f64, 4> floor_at;
    std::array<bool, 4> want;
    u32 wanted = 0;
    for (std::size_t d = 0; d < 4; ++d) {
      floor_at[d] = shard.tmin + hop + edge[d].min_batch_cycles;
      want[d] = edge[d].crosses;
      wanted += want[d] ? 1u : 0u;
    }
    shard.events.visit([&](const Event& e) {
      const i64 row = e.pe_index / width_;
      const i64 col = e.pe_index % width_;
      const f64 own_batch =
          e.kind == EventKind::FlitArrive && e.flit.data
              ? static_cast<f64>(e.flit.data->size()) / timing_.words_per_cycle_link
              : 0;
      // Link hops from the event's PE to just across each boundary.
      const std::array<f64, 4> dist = {
          static_cast<f64>(row - shard.row_begin + 1), // North
          static_cast<f64>(shard.col_end - col),       // East
          static_cast<f64>(shard.row_end - row),       // South
          static_cast<f64>(col - shard.col_begin + 1), // West
      };
      for (std::size_t d = 0; d < 4; ++d) {
        if (!want[d]) continue;
        bound[d] = std::min(
            bound[d],
            emission_bound(e, dist[d], edge[d].min_batch_cycles, own_batch));
        if (bound[d] <= floor_at[d]) {
          want[d] = false;
          --wanted;
        }
      }
      return wanted > 0;
    });
  }
  shard.bound = bound;
  // Feed the quiet-neighborhood detector (compute_horizons): a rescan that
  // lands on identical values leaves the horizon inputs untouched.
  if (shard.tmin != old_tmin || shard.bound != old_bound)
    shard.bounds_changed = true;
}

void Fabric::release_traces(f64 watermark) {
  const auto trace_order = [](const PendingTrace& a, const PendingTrace& b) {
    if (a.record.cycles != b.record.cycles) return a.record.cycles < b.record.cycles;
    if (a.pe != b.pe) return a.pe < b.pe;
    return a.seq < b.seq;
  };
  // Gather the shards' new records behind the sorted remainder of the last
  // release, sort them and merge the two runs.
  const auto held = static_cast<std::ptrdiff_t>(trace_pending_.size());
  for (Shard& shard : shards_) {
    trace_pending_.insert(trace_pending_.end(), shard.trace.begin(),
                          shard.trace.end());
    shard.trace.clear();
  }
  std::sort(trace_pending_.begin() + held, trace_pending_.end(), trace_order);
  std::inplace_merge(trace_pending_.begin(), trace_pending_.begin() + held,
                     trace_pending_.end(), trace_order);
  const auto cut = std::partition_point(
      trace_pending_.begin(), trace_pending_.end(),
      [watermark](const PendingTrace& p) { return p.record.cycles < watermark; });
  for (auto it = trace_pending_.begin(); it != cut; ++it) trace_(it->record);
  trace_pending_.erase(trace_pending_.begin(), cut);
}

void Fabric::advance_and_release(Shard& shard, PeHot& pe, ColorMask mask, f64 t) {
  pe.router.advance(mask);
  for (ColorMask bits = mask & kRoutableColorMask; bits != 0; bits &= bits - 1) {
    const Color color = static_cast<Color>(std::countr_zero(bits));
    const ColorMask bit = ColorMask{1} << color;
    // Read per color: a dispatch below can re-enter this function and
    // park a flit on a later color of the same mask.
    if ((pe.stalled & bit) == 0) continue;
    auto& parked = (*cold(pe).stalled)[color];
    // Flits the new position accepts re-dispatch in FIFO order; the rest
    // re-park directly — never through the event queue — so a switch
    // program cycling through rejecting positions cannot inflate
    // events_processed or the trace volume.
    // Dispatching may advance switches again and re-enter this function,
    // so walk a detached queue.
    Fifo<StalledFlit> retry;
    retry.swap(parked);
    while (!retry.empty()) {
      StalledFlit entry = std::move(retry.front());
      retry.pop_front();
      if (!pe.router.accepts(color, entry.from)) {
        park(pe, std::move(entry));
        continue;
      }
      FVDF_TELEM({
        collector.activity(pe.index).stall_cycles += t - entry.parked_at;
        if (ff_rec_ != nullptr) ff_rec_->record_stall_release(pe.index, t - entry.parked_at);
      });
      dispatch_flit(shard, pe, entry.from, std::move(entry.flit), t);
    }
    // Hand the drained buffer back so the color's next stall reuses it.
    if (parked.empty()) {
      parked.swap(retry);
      pe.stalled &= ~bit;
    }
  }
}

void Fabric::handle_flit_arrive(Shard& shard, Event&& event) {
  PeHot& pe = at(event.pe_index);
  Flit& flit = event.flit;
  // Backpressure: a wavelet whose arrival link is not in the color's
  // current rx set waits on that link until the switch advances.
  if (!pe.router.accepts(flit.color, event.from)) {
    ++shard.stats.flits_stalled;
    emit_trace(shard, TraceEvent::FlitStalled, event.t, pe, flit.color,
               flit.data ? static_cast<u32>(flit.data->size()) : 0);
    FVDF_TELEM(++collector.activity(event.pe_index).stalls);
    park(pe, StalledFlit{event.from, std::move(flit), event.t});
    return;
  }
  dispatch_flit(shard, pe, event.from, std::move(flit), event.t);
}

void Fabric::dispatch_flit(Shard& shard, PeHot& pe, Dir from, Flit&& flit, f64 t) {
  const DirMask tx = pe.router.route(flit.color, from);
  const u64 words = flit.data ? flit.data->size() : 0;
  const f64 batch_cycles = static_cast<f64>(words) / timing_.words_per_cycle_link;

  if (tx.contains(Dir::Ramp)) deliver_to_ramp(shard, pe, flit, t);

  // A null route (empty tx, the edge-clipped form of an off-fabric
  // transmit) sinks the wavelet here; account its words like an edge drop
  // so traffic identities (delivered + dropped) are route-shape agnostic.
  if (tx.empty()) shard.stats.words_dropped += words;

  for (Dir dir : kCardinalDirs) {
    if (!tx.contains(dir)) continue;
    const auto nb = neighbor(pe.coord, dir, width_, height_);
    if (!nb) {
      shard.stats.words_dropped += words;
      continue;
    }
    f64& free_at = pe.link_free_at[link_slot(dir)];
    const f64 start = std::max(t, free_at);
    free_at = start + batch_cycles;
    Event forward;
    forward.kind = EventKind::FlitArrive;
    forward.pe_index = pe_index(nb->x, nb->y);
    forward.from = arrival_side(dir);
    forward.flit = flit; // payload refcount bump, no copy of the words
    forward.t = start + timing_.hop_latency_cycles + batch_cycles;
    stamp(pe, forward);
    push_event(shard, std::move(forward));
    ++shard.stats.wavelet_hops;
    shard.stats.word_hops += words;
    FVDF_TELEM({
      telemetry::PeActivity& a = collector.activity(pe.index);
      a.tx_words[link_slot(dir)] += words;
      ++a.tx_messages[link_slot(dir)];
    });
    emit_trace(shard, TraceEvent::LinkHop, t, pe, flit.color,
               static_cast<u32>(words));
  }

  // The trailing control wavelet advances this router *after* the data was
  // routed under the pre-advance switch position — and may release flits
  // that were stalled waiting for exactly this advance.
  if (flit.advance_after != 0) {
    const ColorMask advance = flit.advance_after;
    const Color color = flit.color;
    flit = Flit{}; // release the payload before re-dispatching parked flits
    advance_and_release(shard, pe, advance, t);
    ++shard.stats.control_wavelets;
    emit_trace(shard, TraceEvent::SwitchAdvance, t, pe, color, 0);
  }
}

void Fabric::deliver_to_ramp(Shard& shard, PeHot& pe, const Flit& flit, f64 t) {
  if (!flit.data) return; // control-only wavelets carry no payload
  const std::vector<f32>& words = *flit.data;
  if (ff_rec_ != nullptr) ff_rec_->record_delivery(pe.index, flit.color, &words);
  cold(pe).inbox[flit.color].append(words.data(), words.size());
  emit_trace(shard, TraceEvent::RampDelivery, t, pe, flit.color,
             static_cast<u32>(words.size()));
  feed_recv_descriptors(shard, pe, flit.color, t);
}

void Fabric::feed_recv_descriptors(Shard& shard, PeHot& pe, Color color, f64 t) {
  PeCold& state = cold(pe);
  auto& inbox = state.inbox[color];
  auto& queue = state.recv_queues[color];
  while (!queue.empty() && !inbox.empty()) {
    RecvDesc& desc = queue.front();
    const u32 want = desc.dst.length - desc.filled;
    const u32 take = static_cast<u32>(
        std::min<std::size_t>(want, inbox.size()));
    if (take > 0) {
      if (ff_rec_ != nullptr)
        ff_rec_->record_store(pe.index, color, desc.dst.drop(desc.filled), take);
      const f32* words = inbox.data();
      if (desc.dst.stride == 1) {
        state.memory.store_words(desc.dst.offset + desc.filled, words, take);
      } else {
        for (u32 i = 0; i < take; ++i) {
          const i64 word = static_cast<i64>(desc.dst.offset) +
                           static_cast<i64>(desc.filled + i) * desc.dst.stride;
          state.memory.store(static_cast<u32>(word), words[i]);
        }
      }
      inbox.consume(take);
      desc.filled += take;
      state.counters.record(Opcode::FMOV, take, /*fabric_loads=*/take, 0);
      shard.stats.words_delivered += take;
      FVDF_TELEM(collector.activity(pe.index).rx_words += take);
    }
    if (desc.filled == desc.dst.length) {
      Event event;
      event.kind = EventKind::TaskStart;
      event.pe_index = pe.index;
      event.color = desc.completion;
      event.t = t;
      stamp(pe, event);
      push_event(shard, std::move(event));
      queue.pop_front();
    } else {
      break; // inbox drained, descriptor still hungry
    }
  }
}

void Fabric::handle_task_start(Shard& shard, const Event& event) {
  PeHot& pe = at(event.pe_index);
  if (pe.halted) return;
  if (pe.busy_until > event.t) {
    Event retry = event;
    retry.t = pe.busy_until;
    stamp(pe, retry); // a fresh emission: re-keyed at its new time
    push_event(shard, std::move(retry));
    return;
  }
  run_task(shard, pe, event.color, event.t);
}

void Fabric::run_task(Shard& shard, PeHot& pe, Color color, f64 t) {
  f64 cursor = t + timing_.task_dispatch_cycles;
  FabricPeContext ctx(*this, shard, pe, cold(pe), cursor);
  if (ff_rec_ != nullptr)
    ff_rec_->record({t, {}, pe.index, 0, FastForward::OpKind::TaskBegin, color});
  ++shard.stats.tasks_run;
  emit_trace(shard, TraceEvent::TaskRun, t, pe, color, 0);
  const bc::Program& program = *pe.stream;
  bc::VmState& vm = pe.vm;
  if (color == kInvalidColor) {
    // The start task: load() applied the image, so only the stream's
    // entry block is left to run.
    if (pe.run_entry) bc::run(ctx, vm, program, program.entry);
  } else {
    const u16 pc = vm.handler[color];
    FVDF_CHECK_MSG(pc != bc::kNoPc, "PE (" << pe.coord.x << ", " << pe.coord.y
                                            << "): task color "
                                            << static_cast<int>(color)
                                            << " activated with no bound handler");
#ifndef FVDF_TELEMETRY_DISABLED
    // Profiled runs dispatch through the sampling instantiation of the
    // interpreter (one countdown decrement per instruction); unprofiled
    // runs keep the default instantiation, which contains no sampling code.
    if (host_prof_ != nullptr)
      bc::run(ctx, vm, program, pc, &host_prof_->pc_sampler(shard.id));
    else
      bc::run(ctx, vm, program, pc);
#else
    bc::run(ctx, vm, program, pc);
#endif
  }
  if (ff_rec_ != nullptr)
    ff_rec_->record({cursor, {}, pe.index, 0, FastForward::OpKind::TaskEnd});
  pe.busy_until = cursor;
  shard.now = std::max(shard.now, cursor);
  FVDF_TELEM({
    telemetry::PeActivity& a = collector.activity(pe.index);
    ++a.tasks;
    a.busy_cycles += cursor - t;
    collector.observe_task_cycles(shard.id, cursor - t);
  });
}

void Fabric::ctx_send(Shard& shard, PeHot& pe, Color color, Dsd src,
                      ColorMask advance_after, Color completion, f64& cursor) {
  check_routable(color);
  FVDF_CHECK_MSG(src.length > 0, "empty send");
  PeCold& state = cold(pe);
  PayloadRef payload = shard.payloads->acquire(src.length);
  {
    std::vector<f32>& words = payload.mutate();
    if (src.stride == 1) {
      words.resize(src.length);
      state.memory.load_words(src.offset, words.data(), src.length);
    } else {
      for (u32 i = 0; i < src.length; ++i) {
        const i64 word =
            static_cast<i64>(src.offset) + static_cast<i64>(i) * src.stride;
        words.push_back(state.memory.load(static_cast<u32>(word)));
      }
    }
  }
  state.counters.record(Opcode::FMOV, src.length, 0, /*fabric_stores=*/src.length);
  if (ff_rec_ != nullptr)
    ff_rec_->record_send({cursor, src, pe.index, advance_after,
                          FastForward::OpKind::Send, color, completion},
                         &*payload);

  // Fault injection (deterministic, counted over data messages; runs with
  // a single worker — see run()).
  if (faults_.drop_message_index != 0 || faults_.corrupt_message_index != 0) {
    ++injected_data_messages_;
    if (injected_data_messages_ == faults_.drop_message_index) {
      emit_trace(shard, TraceEvent::FaultDrop, cursor, pe, color, src.length);
      // The message vanishes on the link; the send "completes" locally (the
      // sender cannot tell), but no receiver will ever see the data.
      cursor += timing_.send_setup_cycles;
      ++shard.stats.messages_sent;
      if (completion != kInvalidColor) ctx_activate(shard, pe, completion, cursor);
      return;
    }
    if (injected_data_messages_ == faults_.corrupt_message_index) {
      emit_trace(shard, TraceEvent::FaultCorrupt, cursor, pe, color,
                 src.length);
      std::vector<f32>& words = payload.mutate();
      if (!words.empty()) {
        u32 bits;
        std::memcpy(&bits, words.data(), 4);
        bits ^= (1u << (faults_.corrupt_bit & 31));
        std::memcpy(words.data(), &bits, 4);
      }
    }
  }

  emit_trace(shard, TraceEvent::MessageInjected, cursor, pe, color,
             src.length);
  cursor += timing_.send_setup_cycles;
  f64& ramp_free = pe.link_free_at[link_slot(Dir::Ramp)];
  const f64 start = std::max(cursor, ramp_free);
  const f64 batch_cycles = static_cast<f64>(src.length) / timing_.words_per_cycle_link;
  ramp_free = start + batch_cycles;

  Event event;
  event.kind = EventKind::FlitArrive;
  event.pe_index = pe.index;
  event.from = Dir::Ramp;
  event.flit = Flit{std::move(payload), advance_after, color};
  event.t = start + batch_cycles;
  stamp(pe, event);
  push_event(shard, std::move(event));
  ++shard.stats.messages_sent;
  if (advance_after != 0) ++shard.stats.control_wavelets;
  FVDF_TELEM({
    telemetry::PeActivity& a = collector.activity(pe.index);
    a.tx_words[link_slot(Dir::Ramp)] += src.length;
    ++a.tx_messages[link_slot(Dir::Ramp)];
  });

  if (completion != kInvalidColor) {
    Event done;
    done.kind = EventKind::TaskStart;
    done.pe_index = pe.index;
    done.color = completion;
    done.t = start + batch_cycles;
    stamp(pe, done);
    push_event(shard, std::move(done));
  }
}

void Fabric::ctx_send_control(Shard& shard, PeHot& pe, Color color, ColorMask advance,
                              f64& cursor) {
  check_routable(color);
  FVDF_CHECK(advance != 0);
  cursor += timing_.send_setup_cycles;
  f64& ramp_free = pe.link_free_at[link_slot(Dir::Ramp)];
  const f64 start = std::max(cursor, ramp_free);
  ramp_free = start + 1.0;

  Event event;
  event.kind = EventKind::FlitArrive;
  event.pe_index = pe.index;
  event.from = Dir::Ramp;
  event.flit = Flit{PayloadRef{}, advance, color};
  event.t = start + 1.0;
  stamp(pe, event);
  push_event(shard, std::move(event));
  ++shard.stats.messages_sent;
  FVDF_TELEM(++collector.activity(pe.index).tx_messages[link_slot(Dir::Ramp)]);
}

void Fabric::ctx_recv(Shard& shard, PeHot& pe, Color color, Dsd dst, Color completion,
                      f64 cursor) {
  check_routable(color);
  check_valid(completion);
  FVDF_CHECK_MSG(dst.length > 0, "empty receive");
  cold(pe).recv_queues[color].push_back(RecvDesc{dst, 0, completion});
  // Words that raced ahead of the descriptor are sitting in the inbox.
  feed_recv_descriptors(shard, pe, color, cursor);
}

void Fabric::ctx_activate(Shard& shard, PeHot& pe, Color color, f64 cursor) {
  check_valid(color);
  Event event;
  event.kind = EventKind::TaskStart;
  event.pe_index = pe.index;
  event.color = color;
  event.t = cursor;
  stamp(pe, event);
  push_event(shard, std::move(event));
}

void Fabric::ctx_mark_phase(Shard& shard, PeHot& pe, u8 phase, f64 cursor) {
  (void)shard;
  (void)pe;
  (void)phase;
  (void)cursor;
  FVDF_TELEM({
    const i64 idx = pe.index;
    if (collector.samples_pe(idx)) collector.mark_phase(shard.id, idx, phase, cursor);
  });
}

void Fabric::ctx_note_progress(Shard& shard, PeHot& pe, u64 iteration, f64 value,
                               f64 cursor) {
  (void)shard;
  (void)iteration;
  (void)value;
  (void)cursor;
  // PE (0,0)'s progress report ends a solver period.
  if (ff_ != nullptr && pe.index == 0) ff_->note_boundary();
  FVDF_TELEM(collector.note_progress(shard.id, pe.index,
                                     iteration, value, cursor));
}

void Fabric::check_host_coord(i64 x, i64 y) const {
  FVDF_CHECK_MSG(x >= 0 && x < width_ && y >= 0 && y < height_,
                 "PE coordinate (" << x << ", " << y << ") outside the "
                                   << width_ << "x" << height_ << " fabric");
}

PeMemory& Fabric::pe_memory(i64 x, i64 y) {
  check_host_coord(x, y);
  return cold_[pe_index(x, y)].memory;
}

const Router& Fabric::pe_router(i64 x, i64 y) const {
  check_host_coord(x, y);
  return pes_[pe_index(x, y)].router;
}

const OpCounters& Fabric::pe_counters(i64 x, i64 y) const {
  check_host_coord(x, y);
  return cold_[pe_index(x, y)].counters;
}

OpCounters Fabric::total_counters() const {
  OpCounters total;
  for (const PeCold& pe : cold_) total += pe.counters;
  return total;
}

} // namespace fvdf::wse
