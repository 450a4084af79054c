#include "analysis/abstract_interp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "wse/memory.hpp"

namespace fvdf::analysis {

using wse::Dsd;
using wse::TimingParams;
using wse::bc::Instr;
using wse::bc::Op;
using wse::bc::Program;

namespace {

constexpr f64 kInf = std::numeric_limits<f64>::infinity();

void push_unique(std::vector<u32>& v, u32 value) {
  if (std::find(v.begin(), v.end(), value) == v.end()) v.push_back(value);
}

// ---------------------------------------------------------------------------
// Charged-cost model. Mirrors what bytecode_interp.hpp charges through
// DsdEngine for one execution of the instruction: vector ops charge once
// with the destination length, charged scalars charge a length-1 op,
// FIXD charges 4 unit FMOVs per pinned entry (2 byte loads + load +
// store) and ZDIR 3. Everything else (register math, fabric calls,
// control flow) is uncharged on the task cursor.
// ---------------------------------------------------------------------------

struct InstrCost {
  f64 cycles = 0;
  u64 charged = 0; // number of DsdEngine charge calls
};

f64 one_charge(const TimingParams& t, Opcode op, u64 elements) {
  return t.compute_scale *
         (t.op_issue_cycles +
          static_cast<f64>(elements) * t.cycles_per_element(op));
}

InstrCost instr_cost(const Program& p, const Instr& ins,
                     const TimingParams& t) {
  auto len = [&](u32 idx) -> u64 {
    return idx < p.dsds.size() ? p.dsds[idx].length : 0;
  };
  switch (ins.op) {
  case Op::VMOV: case Op::VMOVI:
    return {one_charge(t, Opcode::FMOV, len(ins.a)), 1};
  case Op::VADD:
    return {one_charge(t, Opcode::FADD, len(ins.a)), 1};
  case Op::VSUB:
    return {one_charge(t, Opcode::FSUB, len(ins.a)), 1};
  case Op::VMUL: case Op::VMULI: case Op::VMULR:
    return {one_charge(t, Opcode::FMUL, len(ins.a)), 1};
  case Op::VNEG:
    return {one_charge(t, Opcode::FNEG, len(ins.a)), 1};
  case Op::VMAC: case Op::VMACI: case Op::VMACR:
    return {one_charge(t, Opcode::FMA, len(ins.a)), 1};
  case Op::VDOT:
    return {one_charge(t, Opcode::FMA, len(ins.b)), 1};
  case Op::SADD:
    return {one_charge(t, Opcode::FADD, 1), 1};
  case Op::SMUL: case Op::SMULI:
    return {one_charge(t, Opcode::FMUL, 1), 1};
  case Op::LODS: case Op::STOS:
    return {one_charge(t, Opcode::FMOV, 1), 1};
  case Op::FIXD:
    return {static_cast<f64>(ins.d) * 4.0 * one_charge(t, Opcode::FMOV, 1),
            4ull * ins.d};
  case Op::ZDIR:
    return {static_cast<f64>(ins.d) * 3.0 * one_charge(t, Opcode::FMOV, 1),
            3ull * ins.d};
  default:
    return {0, 0};
  }
}

// ---------------------------------------------------------------------------
// Word spans.
// ---------------------------------------------------------------------------

struct Span {
  i64 lo = 0;
  i64 hi = -1; // inclusive; hi < lo means empty
  bool empty() const { return hi < lo; }
  bool overlaps(const Span& o) const {
    return !empty() && !o.empty() && lo <= o.hi && o.lo <= hi;
  }
};

Span dsd_span(const Program& p, u32 idx) {
  if (idx >= p.dsds.size()) return {};
  const Dsd& d = p.dsds[idx];
  if (d.length == 0) return {};
  const i64 first = static_cast<i64>(d.offset);
  const i64 last =
      first + static_cast<i64>(d.length - 1) * static_cast<i64>(d.stride);
  return {std::min(first, last), std::max(first, last)};
}

struct Analyzer {
  Analyzer(const Program& program, const AnalysisParams& params_,
           ProgramAnalysis& out_)
      : p(program), params(params_), out(out_) {}

  const Program& p;
  const AnalysisParams& params;
  ProgramAnalysis& out;
  u32 limit = 0; // arena size in words

  std::vector<InstrCost> block_cost;   // full cost per block
  std::vector<std::vector<u32>> preds; // predecessor block ids

  void defect(BcAnalysis analysis, BcSeverity sev, u32 pc,
              const std::string& message) {
    out.defects.push_back(BcDefect{analysis, sev, pc, message});
  }

  // --- pass 1: structural -------------------------------------------------

  void check_control_flow() {
    for (const CfgBlock& b : out.cfg.blocks) {
      if (b.reachable && b.falls_off_end) {
        std::ostringstream os;
        os << "execution can run past the end of the "
           << p.code.size() << "-instruction stream (no RET on this path)";
        defect(BcAnalysis::ControlFlow, BcSeverity::Error, b.last, os.str());
      }
    }
  }

  // --- pass 2: register liveness -------------------------------------------

  void check_liveness() {
    std::array<bool, wse::bc::kNumFRegs> f_def{}, f_read{};
    std::array<bool, wse::bc::kNumURegs> u_set{}, u_dec{};
    std::array<bool, wse::bc::kNumCRegs> c_jind{};
    auto def = [&](u32 r) { if (r < wse::bc::kNumFRegs) f_def[r] = true; };
    auto read = [&](u32 r) { if (r < wse::bc::kNumFRegs) f_read[r] = true; };

    for (u32 pc = 0; pc < p.code.size(); ++pc) {
      if (!out.cfg.pc_reachable(pc)) continue;
      const Instr& ins = p.code[pc];
      switch (ins.op) {
      case Op::VMULR: case Op::VMACR: read(ins.d); break;
      case Op::VDOT: def(ins.a); break;
      case Op::SADD: case Op::SMUL: case Op::UMUL: case Op::USUB:
        def(ins.a); read(ins.b); read(ins.c); break;
      case Op::SMULI: case Op::MOVR: case Op::UMULI: case Op::UNEG:
      case Op::URCP: case Op::UDIVI:
        def(ins.a); read(ins.b); break;
      case Op::LODS: case Op::UMOVI: case Op::UK2F: def(ins.a); break;
      case Op::STOS: case Op::RSTORE: case Op::CHKPOS: case Op::PROG:
      case Op::JTOL:
        read(ins.a); break;
      case Op::JGTR: read(ins.a); read(ins.b); break;
      case Op::SETU:
        if (ins.a < wse::bc::kNumURegs) u_set[ins.a] = true;
        break;
      case Op::DECJNZ: case Op::DECRET:
        if (ins.a < wse::bc::kNumURegs) u_dec[ins.a] = true;
        break;
      case Op::JIND:
        if (ins.a < wse::bc::kNumCRegs) c_jind[ins.a] = true;
        break;
      default: break;
      }
    }

    // pc-accurate use-before-def errors, and def-site dead stores.
    for (u32 pc = 0; pc < p.code.size(); ++pc) {
      if (!out.cfg.pc_reachable(pc)) continue;
      const Instr& ins = p.code[pc];
      std::ostringstream os;
      switch (ins.op) {
      case Op::JIND:
        if (ins.a < wse::bc::kNumCRegs &&
            out.cfg.cont_targets[ins.a].empty()) {
          os << "JIND through continuation cont" << static_cast<u32>(ins.a)
             << " that no reachable SETC ever arms (jumps to pc 0)";
          defect(BcAnalysis::RegisterLiveness, BcSeverity::Error, pc,
                 os.str());
        }
        break;
      case Op::DECJNZ: case Op::DECRET:
        if (ins.a < wse::bc::kNumURegs && !u_set[ins.a]) {
          os << wse::bc::to_string(ins.op) << " on counter u"
             << static_cast<u32>(ins.a)
             << " that no reachable SETU ever initializes (first decrement "
                "wraps the u32 to 0xffffffff)";
          defect(BcAnalysis::RegisterLiveness, BcSeverity::Error, pc,
                 os.str());
        }
        break;
      case Op::SETC:
        if (ins.a < wse::bc::kNumCRegs && !c_jind[ins.a]) {
          os << "dead store: continuation cont" << static_cast<u32>(ins.a)
             << " is armed but no reachable JIND ever jumps through it";
          defect(BcAnalysis::RegisterLiveness, BcSeverity::Warning, pc,
                 os.str());
        }
        break;
      case Op::SETU:
        if (ins.a < wse::bc::kNumURegs && !u_dec[ins.a]) {
          os << "dead store: counter u" << static_cast<u32>(ins.a)
             << " is initialized but never decremented by reachable code";
          defect(BcAnalysis::RegisterLiveness, BcSeverity::Warning, pc,
                 os.str());
        }
        break;
      default: break;
      }
    }
  }

  // --- pass 3: memory bounds ------------------------------------------------

  void check_span(u32 pc, const char* what, u32 idx) {
    const Span s = dsd_span(p, idx);
    if (s.empty()) return; // empty or out-of-table (lint reports the latter)
    if (s.lo < 0 || s.hi >= static_cast<i64>(limit)) {
      const Dsd& d = p.dsds[idx];
      std::ostringstream os;
      os << wse::bc::to_string(p.code[pc].op) << " " << what << " dsd" << idx
         << " covers words [" << s.lo << ".." << s.hi << "] (offset "
         << d.offset << ", length " << d.length << ", stride " << d.stride
         << "), outside the " << limit << "-word PE arena";
      defect(BcAnalysis::MemoryBounds, BcSeverity::Error, pc, os.str());
    }
  }

  void check_word(u32 pc, u32 word) {
    if (word >= limit) {
      std::ostringstream os;
      os << wse::bc::to_string(p.code[pc].op) << " word offset " << word
         << " outside the " << limit << "-word PE arena";
      defect(BcAnalysis::MemoryBounds, BcSeverity::Error, pc, os.str());
    }
  }

  void check_list(u32 pc, u32 byte_off, u32 count) {
    if (count == 0) return;
    if (static_cast<u64>(byte_off) + 2ull * count >
        static_cast<u64>(limit) * 4) {
      std::ostringstream os;
      os << wse::bc::to_string(p.code[pc].op) << " index list bytes ["
         << byte_off << ".." << byte_off + 2 * count - 1 << "] outside the "
         << limit * 4 << "-byte PE arena";
      defect(BcAnalysis::MemoryBounds, BcSeverity::Error, pc, os.str());
    }
  }

  void check_memory_bounds() {
    for (u32 pc = 0; pc < p.code.size(); ++pc) {
      if (!out.cfg.pc_reachable(pc)) continue;
      const Instr& ins = p.code[pc];
      switch (ins.op) {
      case Op::VMOVI:
        check_span(pc, "dst", ins.a);
        break;
      case Op::VMOV: case Op::VMULI: case Op::VMULR: case Op::VNEG:
        check_span(pc, "dst", ins.a);
        check_span(pc, "src", ins.b);
        break;
      case Op::VADD: case Op::VSUB: case Op::VMUL:
      case Op::VMACI: case Op::VMACR:
        check_span(pc, "dst", ins.a);
        check_span(pc, "src", ins.b);
        check_span(pc, "src", ins.c);
        break;
      case Op::VMAC:
        check_span(pc, "dst", ins.a);
        check_span(pc, "src", ins.b);
        check_span(pc, "src", ins.c);
        check_span(pc, "src", ins.d);
        break;
      case Op::VDOT:
        check_span(pc, "src", ins.b);
        check_span(pc, "src", ins.c);
        break;
      case Op::LODS: case Op::STOS: case Op::RSTORE:
        check_word(pc, ins.imm.u);
        break;
      case Op::FIXD:
        check_span(pc, "src", ins.a);
        check_span(pc, "dst", ins.b);
        check_list(pc, ins.imm.u, ins.d);
        break;
      case Op::ZDIR:
        check_span(pc, "span", ins.a);
        check_list(pc, ins.imm.u, ins.d);
        break;
      case Op::SEND: case Op::RECV:
        check_span(pc, "buffer", ins.b);
        break;
      default: break;
      }
    }
  }

  // --- pass 4: in-flight SEND/RECV overlap ----------------------------------
  //
  // Forward may-dataflow within an activation: after a SEND the modeled
  // hardware streams dsd[b] out asynchronously, so writing any word of
  // that span before the activation ends races the microthread (the
  // simulator gathers at send time and would silently diverge from
  // silicon). A registered RECV's buffer is likewise owned by the fabric
  // until its completion fires — which is necessarily a *later*
  // activation, so any same-activation access to it is a hazard. State
  // is a bitmask of in-flight send/recv sites, unioned over predecessor
  // blocks until fixed point, then reported in one deterministic pass.

  struct FlightSite {
    u32 pc = 0;
    u8 color = 0;
    Span span;
    bool is_recv = false;
  };

  void check_inflight_overlap() {
    std::vector<FlightSite> sites;
    std::vector<u32> site_of_pc(p.code.size(), 0xffffffffu);
    for (u32 pc = 0; pc < p.code.size(); ++pc) {
      if (!out.cfg.pc_reachable(pc)) continue;
      const Instr& ins = p.code[pc];
      if (ins.op != Op::SEND && ins.op != Op::RECV) continue;
      if (sites.size() >= 64) break; // mask width; far beyond shipped sizes
      site_of_pc[pc] = static_cast<u32>(sites.size());
      sites.push_back(FlightSite{pc, ins.a, dsd_span(p, ins.b),
                                 ins.op == Op::RECV});
    }
    if (sites.empty()) return;

    const auto nblocks = out.cfg.blocks.size();
    std::vector<u64> in(nblocks, 0);
    // Fixed point: transfer adds site bits; RET kills the state (no succ).
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t b = 0; b < nblocks; ++b) {
        const CfgBlock& block = out.cfg.blocks[b];
        if (!block.reachable) continue;
        u64 state = in[b];
        for (u32 pc = block.first; pc <= block.last; ++pc)
          if (site_of_pc[pc] != 0xffffffffu) state |= 1ull << site_of_pc[pc];
        for (u32 s : block.succ)
          if ((in[s] | state) != in[s]) { in[s] |= state; changed = true; }
      }
    }

    // Reporting pass: walk each block once with its stable entry state.
    // Only *writes* are hazards. Reads are deterministic in the simulator:
    // an activation runs to completion at one event instant, so a pending
    // RECV cannot land mid-activation and a read of a sent buffer sees the
    // gathered value. A write to a pending RECV span is an Error (the
    // arrival order decides which value survives); a write to an in-flight
    // SEND span is a Warning — the simulator gathers the payload at send
    // time so results are unaffected, but on the modeled hardware the
    // asynchronous send microthread would race the overwrite.
    std::set<std::pair<u32, u32>> reported; // (pc, site)
    auto report = [&](u32 pc, u64 state, const Span& written) {
      if (written.empty()) return;
      for (u32 s = 0; s < sites.size(); ++s) {
        if (!(state & (1ull << s))) continue;
        const FlightSite& site = sites[s];
        if (site.pc == pc || !written.overlaps(site.span)) continue;
        if (!reported.insert({pc, s}).second) continue;
        std::ostringstream os;
        os << "write to words [" << written.lo << ".." << written.hi << "] ";
        if (site.is_recv)
          os << "overlaps the buffer registered by the RECV at pc " << site.pc
             << " (color " << static_cast<u32>(site.color)
             << ") before its completion: the arrival order decides which "
                "value survives";
        else
          os << "overlaps the in-flight buffer of the SEND at pc " << site.pc
             << " (color " << static_cast<u32>(site.color)
             << "): on hardware the asynchronous send microthread races the "
                "overwrite (the simulator gathers at send time)";
        defect(BcAnalysis::MemoryBounds,
               site.is_recv ? BcSeverity::Error : BcSeverity::Warning, pc,
               os.str());
      }
    };

    for (std::size_t b = 0; b < nblocks; ++b) {
      const CfgBlock& block = out.cfg.blocks[b];
      if (!block.reachable) continue;
      u64 state = in[b];
      for (u32 pc = block.first; pc <= block.last; ++pc) {
        const Instr& ins = p.code[pc];
        auto wr = [&](u32 idx) { report(pc, state, dsd_span(p, idx)); };
        switch (ins.op) {
        case Op::VMOV: case Op::VMOVI: case Op::VADD: case Op::VSUB:
        case Op::VMUL: case Op::VMULI: case Op::VMULR: case Op::VNEG:
        case Op::VMAC: case Op::VMACI: case Op::VMACR:
          wr(ins.a); break;
        case Op::STOS: case Op::RSTORE:
          report(pc, state, Span{ins.imm.u, ins.imm.u});
          break;
        case Op::FIXD: wr(ins.b); break;
        case Op::ZDIR: wr(ins.a); break;
        default: break;
        }
        if (site_of_pc[pc] != 0xffffffffu) state |= 1ull << site_of_pc[pc];
      }
    }
  }

  // --- pass 5: per-entry cost bounds + color flow ---------------------------

  void analyze_costs() {
    const auto nblocks = out.cfg.blocks.size();
    block_cost.assign(nblocks, InstrCost{});
    preds.assign(nblocks, {});
    for (std::size_t b = 0; b < nblocks; ++b) {
      const CfgBlock& block = out.cfg.blocks[b];
      for (u32 pc = block.first; pc <= block.last; ++pc) {
        const InstrCost c = instr_cost(p, p.code[pc], params.timing);
        block_cost[b].cycles += c.cycles;
        block_cost[b].charged += c.charged;
      }
      for (u32 s : block.succ) preds[s].push_back(static_cast<u32>(b));
    }

    // Per-color minimum charged cycles before the first SEND, minimized
    // over every entry point.
    std::array<f64, wse::kNumColors> best_pre{};
    best_pre.fill(kInf);

    std::set<u32> reported_loops;
    for (const CfgEntry& entry : out.cfg.entries)
      out.handlers.push_back(
          entry_cost(entry, best_pre, reported_loops));

    collect_color_flow(best_pre);
  }

  /// DFS from the entry block: classifies back edges, returns reverse
  /// postorder of the forward (DAG) subgraph.
  struct EntryGraph {
    std::vector<u32> order;                      // topological over DAG
    std::vector<std::pair<u32, u32>> back_edges; // (from, to)
    std::vector<u8> in_walk; // block visited from this entry
  };

  EntryGraph walk_entry(u32 entry_block) const {
    EntryGraph g;
    const auto nblocks = out.cfg.blocks.size();
    g.in_walk.assign(nblocks, 0);
    enum : u8 { White, Gray, Black };
    std::vector<u8> color(nblocks, White);
    struct Frame { u32 block; u32 next; };
    std::vector<Frame> stack{{entry_block, 0}};
    color[entry_block] = Gray;
    g.in_walk[entry_block] = 1;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const CfgBlock& block = out.cfg.blocks[f.block];
      if (f.next < block.succ.size()) {
        const u32 s = block.succ[f.next++];
        if (color[s] == White) {
          color[s] = Gray;
          g.in_walk[s] = 1;
          stack.push_back({s, 0});
        } else if (color[s] == Gray) {
          g.back_edges.push_back({f.block, s});
        }
      } else {
        color[f.block] = Black;
        g.order.push_back(f.block);
        stack.pop_back();
      }
    }
    std::reverse(g.order.begin(), g.order.end());
    return g;
  }

  /// Natural loop body of back edge latch->head: head plus every block
  /// that reaches the latch without passing through head.
  std::vector<u32> loop_body(u32 latch, u32 head) const {
    std::vector<u8> in_body(out.cfg.blocks.size(), 0);
    in_body[head] = 1;
    std::vector<u32> work;
    if (!in_body[latch]) { in_body[latch] = 1; work.push_back(latch); }
    while (!work.empty()) {
      const u32 b = work.back();
      work.pop_back();
      for (u32 q : preds[b])
        if (!in_body[q]) { in_body[q] = 1; work.push_back(q); }
    }
    std::vector<u32> body;
    for (u32 b = 0; b < in_body.size(); ++b)
      if (in_body[b]) body.push_back(b);
    return body;
  }

  /// Trip count of a DECJNZ back edge, provable only from a single
  /// positive SETU immediate outside the loop body. Returns 0 when the
  /// loop cannot be bounded (a defect is emitted at the latch pc).
  u64 bound_loop(u32 latch, u32 head, std::set<u32>& reported) {
    const CfgBlock& lb = out.cfg.blocks[latch];
    const Instr& term = p.code[lb.last];
    const auto fail = [&](const std::string& why) {
      if (reported.insert(lb.last).second)
        defect(BcAnalysis::CostBounds, BcSeverity::Error, lb.last, why);
      return 0ull;
    };
    if (term.op != Op::DECJNZ) {
      std::ostringstream os;
      os << "loop closed by " << wse::bc::to_string(term.op)
         << " cannot be statically bounded";
      return fail(os.str());
    }
    const u32 reg = term.a;
    const std::vector<u32> body = loop_body(latch, head);
    std::vector<u32> setu_values;
    bool setu_in_body = false;
    for (u32 pc = 0; pc < p.code.size(); ++pc) {
      if (!out.cfg.pc_reachable(pc)) continue;
      const Instr& ins = p.code[pc];
      if (ins.op != Op::SETU || ins.a != reg) continue;
      push_unique(setu_values, ins.imm.u);
      if (std::find(body.begin(), body.end(), out.cfg.block_of[pc]) !=
          body.end())
        setu_in_body = true;
    }
    std::ostringstream os;
    os << "unbounded DECJNZ loop on counter u" << reg << ": ";
    if (setu_values.empty()) {
      // Already an error from the liveness pass; still unbounded here.
      os << "no reachable SETU initializes it";
      return fail(os.str());
    }
    if (setu_in_body) {
      os << "a SETU inside the loop body re-initializes it every iteration";
      return fail(os.str());
    }
    if (setu_values.size() > 1) {
      os << setu_values.size()
         << " distinct SETU immediates reach it; trip count is not provable";
      return fail(os.str());
    }
    if (setu_values[0] == 0) {
      os << "SETU immediate 0 wraps to 0xffffffff on the first decrement";
      return fail(os.str());
    }
    return setu_values[0];
  }

  HandlerCost entry_cost(const CfgEntry& entry,
                         std::array<f64, wse::kNumColors>& best_pre,
                         std::set<u32>& reported_loops) {
    HandlerCost cost;
    cost.label = entry.label();
    cost.entry_pc = entry.pc;
    if (entry.block == kNoBlock) return cost;

    const EntryGraph g = walk_entry(entry.block);
    std::set<u64> back; // encoded back edges, skipped in DAG propagation
    f64 loop_extra_cycles = 0;
    u64 loop_extra_ops = 0;
    for (const auto& [latch, head] : g.back_edges) {
      back.insert(static_cast<u64>(latch) << 32 | head);
      const u64 trips = bound_loop(latch, head, reported_loops);
      if (trips == 0) {
        cost.bounded = false;
        continue;
      }
      for (u32 b : loop_body(latch, head)) {
        loop_extra_cycles +=
            static_cast<f64>(trips - 1) * block_cost[b].cycles;
        loop_extra_ops += (trips - 1) * block_cost[b].charged;
      }
    }

    // Shortest/longest-path over the forward DAG in topological order.
    const auto nblocks = out.cfg.blocks.size();
    std::vector<f64> min_in(nblocks, kInf), max_in(nblocks, -kInf);
    std::vector<u64> ops_min(nblocks, 0), ops_max(nblocks, 0);
    min_in[entry.block] = max_in[entry.block] = 0;
    f64 exit_min = kInf, exit_max = -kInf;
    u64 exit_ops_min = 0, exit_ops_max = 0;
    bool any_exit = false;
    for (u32 b : g.order) {
      if (min_in[b] == kInf) continue;
      const CfgBlock& block = out.cfg.blocks[b];
      const f64 out_min = min_in[b] + block_cost[b].cycles;
      const f64 out_max = max_in[b] + block_cost[b].cycles;
      const u64 out_ops_min = ops_min[b] + block_cost[b].charged;
      const u64 out_ops_max = ops_max[b] + block_cost[b].charged;

      // min_cycles_before_send: charged prefix inside the block.
      f64 prefix = 0;
      u64 prefix_ops = 0;
      f64 decret_prefix = kInf;
      u64 decret_prefix_ops = 0;
      for (u32 pc = block.first; pc <= block.last; ++pc) {
        const Instr& ins = p.code[pc];
        if (ins.op == Op::SEND || ins.op == Op::SENDC) {
          const u8 c = ins.a;
          if (c < wse::kNumColors)
            best_pre[c] = std::min(best_pre[c], min_in[b] + prefix);
        }
        const InstrCost ic = instr_cost(p, ins, params.timing);
        prefix += ic.cycles;
        prefix_ops += ic.charged;
        if (ins.op == Op::DECRET && decret_prefix == kInf) {
          decret_prefix = prefix;
          decret_prefix_ops = ops_min[b] + prefix_ops;
        }
      }

      const bool exits = block.ends_activation || block.falls_off_end ||
                         (p.code[block.last].op == Op::JIND &&
                          block.succ.empty());
      if (exits) {
        any_exit = true;
        if (out_min < exit_min) { exit_min = out_min; exit_ops_min = out_ops_min; }
        if (out_max > exit_max) { exit_max = out_max; exit_ops_max = out_ops_max; }
      }
      if (block.may_return && decret_prefix != kInf) {
        any_exit = true;
        const f64 early = min_in[b] + decret_prefix;
        if (early < exit_min) { exit_min = early; exit_ops_min = decret_prefix_ops; }
      }
      for (u32 s : block.succ) {
        if (back.count(static_cast<u64>(b) << 32 | s)) continue;
        if (out_min < min_in[s]) { min_in[s] = out_min; ops_min[s] = out_ops_min; }
        if (out_max > max_in[s]) { max_in[s] = out_max; ops_max[s] = out_ops_max; }
      }
    }

    if (any_exit) {
      cost.min_cycles = exit_min;
      cost.min_charged_ops = exit_ops_min;
      if (cost.bounded) {
        cost.max_cycles = exit_max + loop_extra_cycles;
        cost.max_charged_ops = exit_ops_max + loop_extra_ops;
      }
    } else {
      cost.bounded = false; // every path loops forever (defect already filed)
    }
    return cost;
  }

  void collect_color_flow(const std::array<f64, wse::kNumColors>& best_pre) {
    std::array<u32, wse::kNumColors> min_words{};
    min_words.fill(0xffffffffu);
    for (u32 pc = 0; pc < p.code.size(); ++pc) {
      if (!out.cfg.pc_reachable(pc)) continue;
      const Instr& ins = p.code[pc];
      if (ins.a >= wse::kNumColors) continue;
      ColorFlow& flow = out.colors[ins.a];
      switch (ins.op) {
      case Op::SEND: {
        flow.sends = true;
        const u32 words =
            ins.b < p.dsds.size() ? p.dsds[ins.b].length : 0;
        push_unique(flow.send_lengths, words);
        flow.send_sites += 1;
        flow.send_words_total += words;
        min_words[ins.a] = std::min(min_words[ins.a], words);
        break;
      }
      case Op::SENDC:
        flow.sends_control = true;
        min_words[ins.a] = 0; // control wavelet: weakest word bound
        break;
      case Op::RECV: {
        flow.recvs = true;
        const u32 words =
            ins.b < p.dsds.size() ? p.dsds[ins.b].length : 0;
        push_unique(flow.recv_lengths, words);
        break;
      }
      case Op::SETH:
        flow.task_handler = true;
        break;
      default: break;
      }
    }
    for (u32 c = 0; c < wse::kNumColors; ++c) {
      ColorFlow& flow = out.colors[c];
      if (flow.sends || flow.sends_control) {
        flow.min_send_words = min_words[c] == 0xffffffffu ? 0 : min_words[c];
        flow.min_cycles_before_send =
            best_pre[c] == kInf ? 0 : best_pre[c];
      }
    }
  }

  void run() {
    out.cfg = build_cfg(p);
    limit = params.memory_limit_words;
    if (limit == 0) {
      const wse::PeMemoryParams defaults;
      limit = static_cast<u32>(
          (defaults.capacity_bytes - defaults.reserved_bytes) / 4);
    }
    check_control_flow();
    check_liveness();
    check_memory_bounds();
    check_inflight_overlap();
    analyze_costs();
    std::stable_sort(out.defects.begin(), out.defects.end(),
                     [](const BcDefect& a, const BcDefect& b) {
                       return a.pc < b.pc;
                     });
  }
};

} // namespace

const char* to_string(BcAnalysis analysis) {
  switch (analysis) {
  case BcAnalysis::ControlFlow: return "bytecode-control-flow";
  case BcAnalysis::MemoryBounds: return "bytecode-memory";
  case BcAnalysis::RegisterLiveness: return "bytecode-liveness";
  case BcAnalysis::CostBounds: return "bytecode-cost";
  }
  return "?";
}

const char* to_string(BcSeverity severity) {
  return severity == BcSeverity::Error ? "error" : "warning";
}

std::string BcDefect::format() const {
  std::ostringstream os;
  os << to_string(severity) << " [" << to_string(analysis) << "] pc " << pc
     << ": " << message;
  return os.str();
}

u64 ProgramAnalysis::error_count() const {
  u64 n = 0;
  for (const BcDefect& d : defects)
    if (d.severity == BcSeverity::Error) ++n;
  return n;
}

u64 ProgramAnalysis::warning_count() const {
  return defects.size() - error_count();
}

std::string ProgramAnalysis::summary(const std::string& program_name) const {
  std::ostringstream os;
  os << "bytecode \"" << program_name << "\": " << cfg.blocks.size()
     << " block(s), " << cfg.entries.size() << " entry point(s), "
     << cfg.reachable_instructions << " reachable instruction(s); "
     << error_count() << " error(s), " << warning_count() << " warning(s)\n";
  for (const HandlerCost& h : handlers) {
    os << "  " << h.label << " @ pc " << h.entry_pc << ": cycles ["
       << h.min_cycles << ", ";
    if (h.bounded)
      os << h.max_cycles;
    else
      os << "unbounded";
    os << "], charged ops [" << h.min_charged_ops << ", ";
    if (h.bounded)
      os << h.max_charged_ops;
    else
      os << "unbounded";
    os << "]\n";
  }
  for (u32 c = 0; c < wse::kNumColors; ++c) {
    const ColorFlow& flow = colors[c];
    if (!flow.sends && !flow.sends_control && !flow.recvs &&
        !flow.task_handler)
      continue;
    os << "  c" << c << ":";
    if (flow.sends)
      os << " send >=" << flow.min_send_words << "w (>="
         << flow.min_cycles_before_send << " cycles to first send)";
    if (flow.sends_control) os << " send-control";
    if (flow.recvs) {
      os << " recv {";
      for (std::size_t i = 0; i < flow.recv_lengths.size(); ++i)
        os << (i ? "," : "") << flow.recv_lengths[i];
      os << "}";
    }
    if (flow.task_handler) os << " handler";
    os << "\n";
  }
  for (const BcDefect& d : defects) os << "  " << d.format() << "\n";
  return os.str();
}

ProgramAnalysis analyze_program(const Program& program,
                                const AnalysisParams& params) {
  ProgramAnalysis out;
  Analyzer analyzer{program, params, out};
  analyzer.run();
  return out;
}

} // namespace fvdf::analysis
