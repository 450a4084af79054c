#include "wse/fast_forward.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "telemetry/host_profiler.hpp"
#include "wse/bytecode_interp.hpp"

namespace fvdf::wse {

namespace {

// Occupancy (link_free_at, busy_until) at or before the boundary: every
// later event and cursor is at or after it, so its value no longer matters.
constexpr f64 kPast = -1.0;
// Every time a replay relies on is a multiple of 2^-16 cycle below 2^37
// cycles, so any sum of two of them is exact in f64's 53 bits.
constexpr int kGridBits = 16;
constexpr f64 kTimeLimit = 0x1p37;
constexpr u64 kNoSlot = 0xffffffffu;
constexpr u64 kPeEnd = ~u64{0};

bool on_grid(f64 v) {
  if (!(v >= 0 && v < kTimeLimit)) return false;
  const f64 scaled = std::ldexp(v, kGridBits);
  return scaled == std::trunc(scaled);
}

/// Thrown when a replayed task leaves the recorded path.
struct Diverged {};

FabricStats operator-(const FabricStats& a, const FabricStats& b) {
  return {a.messages_sent - b.messages_sent,     a.wavelet_hops - b.wavelet_hops,
          a.word_hops - b.word_hops,             a.words_delivered - b.words_delivered,
          a.words_dropped - b.words_dropped,     a.control_wavelets - b.control_wavelets,
          a.tasks_run - b.tasks_run,             a.events_processed - b.events_processed,
          a.flits_stalled - b.flits_stalled};
}

void operator+=(FabricStats& a, const FabricStats& b) {
  a.messages_sent += b.messages_sent;
  a.wavelet_hops += b.wavelet_hops;
  a.word_hops += b.word_hops;
  a.words_delivered += b.words_delivered;
  a.words_dropped += b.words_dropped;
  a.control_wavelets += b.control_wavelets;
  a.tasks_run += b.tasks_run;
  a.events_processed += b.events_processed;
  a.flits_stalled += b.flits_stalled;
}

/// The integer activity fields (the f64 ones replay exactly instead).
telemetry::PeActivity activity_delta(const telemetry::PeActivity& a,
                                     const telemetry::PeActivity& b) {
  telemetry::PeActivity d;
  for (u32 l = 0; l < telemetry::kPeLinks; ++l) {
    d.tx_words[l] = a.tx_words[l] - b.tx_words[l];
    d.tx_messages[l] = a.tx_messages[l] - b.tx_messages[l];
  }
  d.rx_words = a.rx_words - b.rx_words;
  d.stalls = a.stalls - b.stalls;
  d.tasks = a.tasks - b.tasks;
  return d;
}

void add_activity(telemetry::PeActivity& a, const telemetry::PeActivity& d) {
  for (u32 l = 0; l < telemetry::kPeLinks; ++l) {
    a.tx_words[l] += d.tx_words[l];
    a.tx_messages[l] += d.tx_messages[l];
  }
  a.rx_words += d.rx_words;
  a.stalls += d.stalls;
  a.tasks += d.tasks;
}

} // namespace

/// The PeContext a replayed task runs against: each call must match the
/// next recorded op, shifted by the period count, or the replay diverges.
class FastForward::ReplayContext final : public PeContext {
public:
  ReplayContext(FastForward& ff, Fabric::PeHot& pe, f64& cursor, const Op* next,
                f64 shift)
      : ff_(ff), fabric_(ff.fabric_), pe_(pe), cold_(fabric_.cold_[pe.index]),
        cursor_(cursor), next_(next), shift_(shift),
        engine_(cold_.memory, cold_.counters, fabric_.timing_, cursor) {}

  const Op* next() const { return next_; }

  PeMemory& memory() override { return cold_.memory; }
  DsdEngine& dsd() override { return engine_; }

  void send(Color color, Dsd src, ColorMask advance_after, Color completion) override {
    const Op& op = expect(OpKind::Send);
    if (op.color != color || op.arg != advance_after || op.completion != completion ||
        !same(op.dsd, src))
      throw Diverged{};
    f32* words = ff_.words_.data() + ff_.send_at_;
    ff_.send_at_ += src.length;
    if (src.stride == 1) {
      cold_.memory.load_words(src.offset, words, src.length);
    } else {
      for (u32 i = 0; i < src.length; ++i)
        words[i] = cold_.memory.load(static_cast<u32>(
            static_cast<i64>(src.offset) + static_cast<i64>(i) * src.stride));
    }
    cursor_ += fabric_.timing_.send_setup_cycles;
  }

  void send_control(Color color, ColorMask advance) override {
    const Op& op = expect(OpKind::SendControl);
    if (op.color != color || op.arg != advance) throw Diverged{};
    cursor_ += fabric_.timing_.send_setup_cycles;
  }

  void recv(Color color, Dsd dst, Color completion) override {
    const Op& op = expect(OpKind::Recv);
    if (op.color != color || op.completion != completion || !same(op.dsd, dst))
      throw Diverged{};
    stores(); // words that were already waiting in the inbox
  }

  void activate(Color color) override {
    if (expect(OpKind::Activate).color != color) throw Diverged{};
  }

  void advance_local(ColorMask mask) override {
    if (expect(OpKind::Advance).arg != mask) throw Diverged{};
    stores(); // flits the advance released onto this PE's ramp
  }

  void halt() override { throw Diverged{}; }

  // Phase marks steer no schedule, so the record leaves them out.
  void mark_phase(u8 phase) override {
#ifndef FVDF_TELEMETRY_DISABLED
    if (telemetry::FabricCollector* c = fabric_.telemetry_;
        c != nullptr && c->samples_pe(pe_.index))
      c->mark_phase(0, pe_.index, phase, cursor_);
#else
    (void)phase;
#endif
  }

  void note_progress(u64 iteration, f64 value) override {
    expect(OpKind::Progress);
#ifndef FVDF_TELEMETRY_DISABLED
    if (telemetry::FabricCollector* c = fabric_.telemetry_; c != nullptr)
      c->note_progress(0, pe_.index, iteration, value, cursor_);
#else
    (void)iteration;
    (void)value;
#endif
  }

private:
  static bool same(Dsd a, Dsd b) {
    return a.offset == b.offset && a.length == b.length && a.stride == b.stride;
  }

  const Op& expect(OpKind kind) {
    const Op& op = *next_;
    if (op.kind != kind || op.t + shift_ != cursor_) throw Diverged{};
    ++next_;
    return op;
  }

  void stores() {
    for (; next_->kind == OpKind::Store; ++next_) ff_.store(*next_);
  }

  FastForward& ff_;
  Fabric& fabric_;
  Fabric::PeHot& pe_;
  Fabric::PeCold& cold_;
  f64& cursor_;
  const Op* next_;
  f64 shift_;
  DsdEngine engine_;
};

FastForward::FastForward(Fabric& fabric, f64 max_cycles)
    : fabric_(fabric), shard_(fabric.shards_.front()), max_cycles_(max_cycles) {
  fabric_.ff_ = this;
}

FastForward::~FastForward() {
  fabric_.ff_ = nullptr;
  fabric_.ff_rec_ = nullptr;
}

void FastForward::record_send(const Op& op, Payload payload) {
  ops_.push_back(op);
  payload_at_[payload] = words_end_;
  words_end_ += op.dsd.length;
}

void FastForward::record_delivery(u32 pe, Color color, Payload payload) {
  const auto it = payload_at_.find(payload);
  if (it == payload_at_.end()) {
    valid_ = false;
    return;
  }
  inbox_words_[pe].push_back(Span{it->second, static_cast<u32>(payload->size()), color});
}

void FastForward::record_store(u32 pe, Color color, Dsd dst, u32 count) {
  // The inbox hands out its words in arrival order, so they come from the
  // spans that joined it, oldest first.
  std::vector<Span>& spans = inbox_words_[pe];
  u32 done = 0;
  for (Span& span : spans) {
    if (done == count) break;
    if (span.color != color) continue;
    const u32 take = std::min(count - done, span.count);
    const u32 offset = static_cast<u32>(static_cast<i64>(dst.offset) +
                                        static_cast<i64>(done) * dst.stride);
    ops_.push_back(Op{0, Dsd{offset, take, dst.stride}, pe, span.at, OpKind::Store});
    done += take;
    span.at += take;
    span.count -= take;
  }
  std::erase_if(spans, [](const Span& span) { return span.count == 0; });
  if (done != count) valid_ = false;
}

void FastForward::on_boundary(f64 t) {
  boundary_ = false;
  if (done_) return;
  Boundary boundary = capture(t);
  if (recording_) {
    recording_ = false;
    fabric_.ff_rec_ = nullptr;
    if (valid_ && repeats(start_, boundary)) {
      done_ = true;
      replay(std::move(boundary));
      return;
    }
  }
  if (++boundaries_ >= kMaxBoundaries) {
    done_ = true;
    return;
  }
  start_recording(std::move(boundary));
}

FastForward::Boundary FastForward::capture(f64 t) const {
  const Fabric& fabric = fabric_;
  Boundary b;
  b.t = t;
  b.now = shard_.now;
  b.stats = shard_.stats;
#ifndef FVDF_TELEMETRY_DISABLED
  if (fabric.telemetry_ != nullptr) b.activity = fabric.telemetry_->activities();
#endif
  const auto flit_words = [&b](const Fabric::Flit& flit) {
    u64 slot = kNoSlot;
    u64 length = 0;
    if (flit.data) {
      const Payload payload = &*flit.data;
      const auto [it, inserted] =
          b.slot_of.emplace(payload, static_cast<u32>(b.carries.size()));
      if (inserted) b.carries.push_back(payload);
      slot = it->second;
      length = payload->size();
    }
    b.words.push_back(u64{flit.advance_after} | u64{flit.color} << 32);
    b.words.push_back(length | slot << 32);
  };

  // Pending events, in pop order. An event's emission index is kept
  // relative to its emitter's counter: every PE's counter advances by a
  // fixed count per period.
  std::vector<const Event*> events;
  shard_.events.visit([&events](const Event& e) {
    events.push_back(&e);
    return true;
  });
  std::sort(events.begin(), events.end(), [](const Event* x, const Event* y) {
    return x->t != y->t ? x->t < y->t : x->order < y->order;
  });
  b.words.push_back(events.size());
  constexpr u64 kSeqMask = (u64{1} << Fabric::kEmitSeqBits) - 1;
  for (const Event* e : events) {
    const u64 emitter = e->order >> Fabric::kEmitSeqBits;
    b.times.push_back(e->t);
    b.words.push_back(u64{e->pe_index} | u64{static_cast<u8>(e->kind)} << 32 |
                      u64{static_cast<u8>(e->from)} << 40 | u64{e->color} << 48);
    b.words.push_back(emitter << Fabric::kEmitSeqBits |
                      (fabric.pes_[emitter].emit_seq - (e->order & kSeqMask)));
    flit_words(e->flit);
  }

  for (const Fabric::PeHot& pe : fabric.pes_) {
    const Fabric::PeCold& cold = fabric.cold_[pe.index];
    for (const f64 v : pe.link_free_at) b.times.push_back(v > t ? v : kPast);
    b.times.push_back(pe.busy_until > t ? pe.busy_until : kPast);
    b.emit_seq.push_back(pe.emit_seq);
    b.words.push_back(u64{pe.halted} | u64{pe.stalled} << 8);
    u64 packed = 0;
    for (Color c = 0; c < kNumRoutableColors; ++c) {
      const u64 position = pe.router.is_configured(c) ? pe.router.position(c) : 0xff;
      packed |= position << (8 * (c % 8));
      if (c % 8 == 7) {
        b.words.push_back(packed);
        packed = 0;
      }
    }
    const bc::VmState& vm = pe.vm;
    for (const u32 u : vm.u) b.words.push_back(u);
    b.words.push_back(u64{vm.cont[0]} | u64{vm.cont[1]} << 16 | u64{vm.cont[2]} << 32 |
                      u64{vm.cont[3]} << 48);
    for (std::size_t h = 0; h < vm.handler.size(); h += 4) {
      u64 word = 0;
      for (std::size_t j = h; j < std::min(h + 4, vm.handler.size()); ++j)
        word |= u64{vm.handler[j]} << (16 * (j - h));
      b.words.push_back(word);
    }
    for (Color c = 0; c < kNumRoutableColors; ++c) {
      const auto& inbox = cold.inbox[c];
      const auto& queue = cold.recv_queues[c];
      const std::size_t parked =
          (pe.stalled >> c & 1u) != 0 ? (*cold.stalled)[c].size() : 0;
      if (inbox.empty() && queue.empty() && parked == 0) continue;
      if (!inbox.empty())
        b.inboxes.push_back({pe.index, c, static_cast<u32>(inbox.size())});
      b.words.push_back(u64{c} | u64{queue.size()} << 8 | u64{parked} << 32);
      b.words.push_back(inbox.size());
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const Fabric::RecvDesc& desc = queue.data()[i];
        b.words.push_back(u64{desc.dst.offset} | u64{desc.dst.length} << 32);
        b.words.push_back(u64{static_cast<u32>(desc.dst.stride)} |
                          u64{desc.filled} << 32);
        b.words.push_back(desc.completion);
      }
      for (std::size_t i = 0; i < parked; ++i) {
        const Fabric::StalledFlit& flit = (*cold.stalled)[c].data()[i];
        b.words.push_back(static_cast<u8>(flit.from));
        flit_words(flit.flit);
        b.times.push_back(flit.parked_at);
      }
    }
    b.words.push_back(kPeEnd);
  }
  b.times.push_back(shard_.now);
  b.words.push_back(static_cast<u64>(shard_.halted));
  return b;
}

bool FastForward::repeats(const Boundary& start, const Boundary& end) const {
  const f64 shift = end.t - start.t;
  if (!(shift > 0) || !on_grid(shift) || start.words != end.words ||
      start.times.size() != end.times.size())
    return false;
  for (std::size_t i = 0; i < start.times.size(); ++i) {
    const f64 a = start.times[i], b = end.times[i];
    if (a == kPast || b == kPast) {
      if (a != b) return false;
    } else if (!on_grid(a) || !on_grid(b) || b != a + shift) {
      return false;
    }
  }
  return true;
}

void FastForward::start_recording(Boundary boundary) {
  start_ = std::move(boundary);
  ops_.clear();
  payload_at_.clear();
  inbox_words_.assign(fabric_.pes_.size(), {});
  u32 at = 0;
  for (const Payload payload : start_.carries) {
    payload_at_[payload] = at;
    at += static_cast<u32>(payload->size());
  }
  for (const Inbox& held : start_.inboxes) {
    inbox_words_[held.pe].push_back(Span{at, held.words, held.color});
    at += held.words;
  }
  staged_at_ = at;
  words_end_ = at;
  stall_releases_.clear();
  valid_ = true;
  recording_ = true;
  fabric_.ff_rec_ = this;
}

void FastForward::replay(Boundary end) {
  const TimingParams& timing = fabric_.timing_;
  const std::size_t pes = fabric_.pes_.size();
  // Exactness: the recorded times, the link batch times the fabric adds to
  // them and the shift all lie on the grid, and the template's tasks start
  // from bound handlers.
  shift_ = end.t - start_.t;
  max_time_ = end.t;
  bool exact = on_grid(timing.hop_latency_cycles);
  for (const Op& op : ops_) {
    if (op.kind == OpKind::Store) continue;
    exact = exact && on_grid(op.t);
    max_time_ = std::max(max_time_, op.t);
    if (op.kind == OpKind::TaskBegin) exact = exact && is_valid(op.color);
    if (op.kind == OpKind::Send)
      exact = exact && on_grid(static_cast<f64>(op.dsd.length) /
                               timing.words_per_cycle_link);
  }
  for (const f64 v : end.times) max_time_ = std::max(max_time_, v);
  // Where the next period's carries come from: the payloads alive at the
  // end boundary, then the words waiting in its inboxes.
  carry_copies_.clear();
  u32 to = 0;
  for (const Payload payload : end.carries) {
    const auto it = payload_at_.find(payload);
    if (it == payload_at_.end()) return;
    const u32 count = static_cast<u32>(payload->size());
    carry_copies_.push_back(Copy{to, it->second, count});
    to += count;
  }
  for (const Inbox& held : end.inboxes) {
    u32 count = 0;
    for (const Span& span : inbox_words_[held.pe]) {
      if (span.color != held.color) continue;
      carry_copies_.push_back(Copy{to + count, span.at, span.count});
      count += span.count;
    }
    if (count != held.words) return;
    to += count;
  }
  if (!exact || to != staged_at_) return;

  seq_delta_.resize(pes);
  for (std::size_t p = 0; p < pes; ++p) seq_delta_[p] = end.emit_seq[p] - start_.emit_seq[p];
  const u64 max_delta = *std::max_element(seq_delta_.begin(), seq_delta_.end());
  const u64 max_seq = *std::max_element(end.emit_seq.begin(), end.emit_seq.end());
  stats_delta_ = end.stats - start_.stats;
  activity_delta_.clear();
  for (std::size_t p = 0; p < end.activity.size(); ++p)
    activity_delta_.emplace_back(static_cast<u32>(p),
                                 activity_delta(end.activity[p], start_.activity[p]));
  // The replay needs nothing more from the two encodings.
  start_ = Boundary{};
  end.words = {};
  end.times = {};
  end.emit_seq = {};
  end.activity = {};

  // The first replayed period's carries: the live payloads and inbox words.
  words_.assign(words_end_, 0.0f);
  words_next_.assign(words_end_, 0.0f);
  {
    f32* at = words_.data();
    for (const Payload payload : end.carries)
      at = std::copy(payload->begin(), payload->end(), at);
    for (const Inbox& held : end.inboxes) {
      const auto& inbox = fabric_.cold_[held.pe].inbox[held.color];
      at = std::copy(inbox.data(), inbox.data() + inbox.size(), at);
    }
  }
  // Each Store's destination, checked once; each PE's first op; the
  // per-PE message words.
  store_to_.clear();
  std::vector<std::array<u64, 2>> fmov(pes, {0, 0});
  std::vector<bool> touched(pes, false);
  for (Op& op : ops_) {
    if (op.kind == OpKind::Send) fmov[op.pe][0] += op.dsd.length;
    if (op.kind != OpKind::TaskBegin && op.kind != OpKind::Store) continue;
    op.first = !touched[op.pe];
    touched[op.pe] = true;
    if (op.kind != OpKind::Store) continue;
    fmov[op.pe][1] += op.dsd.length;
    PeMemory& memory = fabric_.cold_[op.pe].memory;
    const i64 last = static_cast<i64>(op.dsd.offset) +
                     static_cast<i64>(op.dsd.length - 1) * op.dsd.stride;
    if (std::min<i64>(op.dsd.offset, last) < 0 ||
        (std::max<i64>(op.dsd.offset, last) + 1) * 4 >
            static_cast<i64>(memory.used_bytes()))
      return;
    store_to_.push_back(memory.word_ptr(op.dsd.offset));
  }
  fmov_words_.clear();
  for (std::size_t p = 0; p < pes; ++p)
    if (fmov[p][0] != 0 || fmov[p][1] != 0) fmov_words_.push_back({p, fmov[p][0], fmov[p][1]});
  arena_offset_.assign(1, 0);
  for (std::size_t p = 0; p < pes; ++p)
    arena_offset_.push_back(arena_offset_.back() +
                            static_cast<u32>(fabric_.cold_[p].memory.used_bytes()));
  snap_.arenas.resize(arena_offset_.back());
  snap_.vms.resize(pes);
  snap_.counters.resize(pes);
  snap_.saved.assign(pes, 0);
  end_ = std::move(end);
  base_events_ = shard_.events.take_all();

  for (;;) {
    const f64 shift = static_cast<f64>(period_ + 1) * shift_;
    if (end_.t + shift > max_cycles_ || max_time_ + shift >= kTimeLimit ||
        max_seq + (period_ + 1) * max_delta >= u64{1} << Fabric::kEmitSeqBits)
      break;
#ifndef FVDF_TELEMETRY_DISABLED
    if (fabric_.telemetry_ != nullptr)
      snap_.collector = std::make_unique<telemetry::FabricCollector::Checkpoint>(
          fabric_.telemetry_->checkpoint());
#endif
    try {
      replay_period(shift);
    } catch (...) {
      // Off the recorded path: the full simulation redoes this period from
      // its start and meets the same branch, or the same error.
      restore_snapshot();
      break;
    }
    commit_period();
    ++period_;
    ++fabric_.replayed_periods_;
  }
  materialize(period_);
}

void FastForward::save(u32 pe) {
  snap_.saved[pe] = period_ + 1;
  const Fabric::PeCold& cold = fabric_.cold_[pe];
  std::memcpy(snap_.arenas.data() + arena_offset_[pe], cold.memory.contents().data(),
              cold.memory.used_bytes());
  snap_.vms[pe] = fabric_.pes_[pe].vm;
  snap_.counters[pe] = cold.counters;
}

void FastForward::store(const Op& op) {
  if (op.first) save(op.pe);
  f32* to = store_to_[store_next_++];
  const f32* words = words_.data() + op.arg;
  if (op.dsd.stride == 1) {
    std::memcpy(to, words, op.dsd.length * sizeof(f32));
  } else {
    for (u32 i = 0; i < op.dsd.length; ++i)
      to[static_cast<i64>(i) * op.dsd.stride] = words[i];
  }
}

void FastForward::replay_period(f64 shift) {
  const TimingParams& timing = fabric_.timing_;
  send_at_ = staged_at_;
  store_next_ = 0;
  const Op* op = ops_.data();
  const Op* const last = op + ops_.size();
  while (op != last) {
    if (op->kind == OpKind::Store) {
      store(*op);
      ++op;
      continue;
    }
    if (op->first) save(op->pe);
    Fabric::PeHot& pe = fabric_.pes_[op->pe];
    const f64 t = op->t + shift;
    f64 cursor = t + timing.task_dispatch_cycles;
    ReplayContext ctx(*this, pe, cursor, op + 1, shift);
    const u16 pc = pe.vm.handler[op->color];
    if (pc == bc::kNoPc) throw Diverged{};
#ifndef FVDF_TELEMETRY_DISABLED
    if (fabric_.host_prof_ != nullptr)
      bc::run(ctx, pe.vm, *pe.stream, pc, &fabric_.host_prof_->pc_sampler(0));
    else
      bc::run(ctx, pe.vm, *pe.stream, pc);
#else
    bc::run(ctx, pe.vm, *pe.stream, pc);
#endif
    op = ctx.next();
    if (op->kind != OpKind::TaskEnd || op->t + shift != cursor) throw Diverged{};
    ++op;
#ifndef FVDF_TELEMETRY_DISABLED
    if (telemetry::FabricCollector* c = fabric_.telemetry_; c != nullptr) {
      c->activity(pe.index).busy_cycles += cursor - t;
      c->observe_task_cycles(0, cursor - t);
    }
#endif
  }
}

void FastForward::commit_period() {
  shard_.stats += stats_delta_;
  for (const auto& [pe, sent, received] : fmov_words_) {
    OpCounters& counters = fabric_.cold_[pe].counters;
    if (sent != 0) counters.record(Opcode::FMOV, sent, 0, /*fabric_stores=*/sent);
    if (received != 0)
      counters.record(Opcode::FMOV, received, /*fabric_loads=*/received, 0);
  }
#ifndef FVDF_TELEMETRY_DISABLED
  if (telemetry::FabricCollector* c = fabric_.telemetry_; c != nullptr) {
    for (const auto& [pe, delta] : activity_delta_) add_activity(c->activity(pe), delta);
    for (const auto& [pe, cycles] : stall_releases_) c->activity(pe).stall_cycles += cycles;
  }
#endif
  for (const Copy& copy : carry_copies_)
    std::memcpy(words_next_.data() + copy.to, words_.data() + copy.from,
                copy.count * sizeof(f32));
  words_.swap(words_next_);
}

void FastForward::restore_snapshot() {
  for (std::size_t p = 0; p < fabric_.pes_.size(); ++p) {
    if (snap_.saved[p] != period_ + 1) continue;
    Fabric::PeCold& cold = fabric_.cold_[p];
    cold.memory.overwrite(snap_.arenas.data() + arena_offset_[p]);
    fabric_.pes_[p].vm = snap_.vms[p];
    cold.counters = snap_.counters[p];
  }
#ifndef FVDF_TELEMETRY_DISABLED
  if (snap_.collector) fabric_.telemetry_->restore(*snap_.collector);
#endif
}

void FastForward::materialize(u64 periods) {
  const f64 shift = static_cast<f64>(periods) * shift_;
  // One fresh payload per carry slot, shared by every flit that held it,
  // and the inbox words, from the current period's carries.
  std::vector<PayloadRef> refs;
  const f32* words = words_.data();
  for (const Payload payload : end_.carries) {
    PayloadRef ref = shard_.payloads->acquire(payload->size());
    ref.mutate().assign(words, words + payload->size());
    words += payload->size();
    refs.push_back(std::move(ref));
  }
  for (const Inbox& held : end_.inboxes) {
    auto& inbox = fabric_.cold_[held.pe].inbox[held.color];
    inbox.clear();
    inbox.append(words, held.words);
    words += held.words;
  }
  const auto refill = [&](Fabric::Flit& flit) {
    if (flit.data) flit.data = refs[end_.slot_of.at(&*flit.data)];
  };
  for (Fabric::PeHot& pe : fabric_.pes_) {
    for (f64& v : pe.link_free_at)
      if (v > end_.t) v += shift;
    if (pe.busy_until > end_.t) pe.busy_until += shift;
    pe.emit_seq += periods * seq_delta_[pe.index];
    if (pe.stalled == 0) continue;
    for (auto& parked : *fabric_.cold_[pe.index].stalled)
      for (std::size_t i = 0; i < parked.size(); ++i) {
        Fabric::StalledFlit& flit = parked.data()[i];
        flit.parked_at += shift;
        refill(flit.flit);
      }
  }
  for (Event& event : base_events_) {
    event.t += shift;
    event.order += periods * seq_delta_[event.order >> Fabric::kEmitSeqBits];
    refill(event.flit);
    shard_.events.push(std::move(event));
  }
  base_events_.clear();
  shard_.now = end_.now + shift;
}

} // namespace fvdf::wse
