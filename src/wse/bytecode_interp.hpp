#pragma once
// The bytecode interpreter loop.
//
// Header-only template so the fabric can instantiate it against its
// concrete (final) PeContext implementation: every ctx.dsd()/ctx.send()
// call devirtualizes.
//
// Charged instructions map 1:1 onto DsdEngine calls, so cycle cursors,
// op counters and scheduled events follow the instruction stream exactly;
// golden digests in the tests pin the resulting solver bits.

#include <cstddef>
#include <type_traits>

#include "common/error.hpp"
#include "wse/bytecode.hpp"

namespace fvdf::wse::bc {

/// Interprets `program` starting at `pc` until RET (or a DECRET join
/// that has not reached zero). Call with the handler pc for the task
/// color being activated, or with `program.entry` at startup.
///
/// `Sampler` is the host profiler's pc-sampling hook (see
/// telemetry/host_profiler.hpp): any type with `u32 countdown`, `u32
/// period` and `record(const void* program, std::size_t code_size, u32
/// pc)`. The default std::nullptr_t instantiation — the one every
/// unprofiled call site gets — contains no sampling code at all, so the
/// hot dispatch loop is unchanged unless a profiler is attached.
template <typename Ctx, typename Sampler = std::nullptr_t>
void run(Ctx& ctx, VmState& st, const Program& program, u16 pc,
         Sampler* sampler = nullptr) {
  auto& e = ctx.dsd();
  const Instr* const code = program.code.data();
  const Dsd* const D = program.dsds.data();
  for (;;) {
    if constexpr (!std::is_same_v<Sampler, std::nullptr_t>) {
      if (sampler != nullptr && --sampler->countdown == 0) {
        sampler->countdown = sampler->period;
        sampler->record(&program, program.code.size(), pc);
      }
    }
    const Instr& ins = code[pc++];
    switch (ins.op) {
    case Op::VMOV: e.fmovs(D[ins.a], D[ins.b]); break;
    case Op::VMOVI: e.fmovs_imm(D[ins.a], ins.imm.f); break;
    case Op::VADD: e.fadds(D[ins.a], D[ins.b], D[ins.c]); break;
    case Op::VSUB: e.fsubs(D[ins.a], D[ins.b], D[ins.c]); break;
    case Op::VMUL: e.fmuls(D[ins.a], D[ins.b], D[ins.c]); break;
    case Op::VMULI: e.fmuls_imm(D[ins.a], D[ins.b], ins.imm.f); break;
    case Op::VMULR: e.fmuls_imm(D[ins.a], D[ins.b], st.f[ins.d]); break;
    case Op::VNEG: e.fnegs(D[ins.a], D[ins.b]); break;
    case Op::VMAC: e.fmacs(D[ins.a], D[ins.b], D[ins.c], D[ins.d]); break;
    case Op::VMACI: e.fmacs_imm(D[ins.a], D[ins.b], D[ins.c], ins.imm.f); break;
    case Op::VMACR: e.fmacs_imm(D[ins.a], D[ins.b], D[ins.c], st.f[ins.d]); break;
    case Op::VDOT: st.f[ins.a] = e.fdots(D[ins.b], D[ins.c]); break;

    case Op::SADD: st.f[ins.a] = e.fadds_scalar(st.f[ins.b], st.f[ins.c]); break;
    case Op::SMUL: st.f[ins.a] = e.fmuls_scalar(st.f[ins.b], st.f[ins.c]); break;
    case Op::SMULI: st.f[ins.a] = e.fmuls_scalar(st.f[ins.b], ins.imm.f); break;
    case Op::LODS: st.f[ins.a] = e.load(ins.imm.u); break;
    case Op::STOS: e.store(ins.imm.u, st.f[ins.a]); break;

    case Op::MOVR: st.f[ins.a] = st.f[ins.b]; break;
    case Op::UMOVI: st.f[ins.a] = ins.imm.f; break;
    case Op::UMUL: st.f[ins.a] = st.f[ins.b] * st.f[ins.c]; break;
    case Op::UMULI: st.f[ins.a] = ins.imm.f * st.f[ins.b]; break;
    case Op::USUB: st.f[ins.a] = st.f[ins.b] - st.f[ins.c]; break;
    case Op::UNEG: st.f[ins.a] = -st.f[ins.b]; break;
    case Op::URCP: st.f[ins.a] = 1.0f / st.f[ins.b]; break;
    case Op::UDIVI: st.f[ins.a] = st.f[ins.b] / ins.imm.f; break;
    case Op::UK2F: st.f[ins.a] = static_cast<f32>(st.k); break;
    case Op::RSTORE: ctx.memory().store(ins.imm.u, st.f[ins.a]); break;

    case Op::FIXD: {
      const Dsd x = D[ins.a];
      const Dsd q = D[ins.b];
      const u32 list = ins.imm.u;
      for (u32 i = 0; i < ins.d; ++i) {
        const u32 lo = e.load_byte(list + 2 * i);
        const u32 hi = e.load_byte(list + 2 * i + 1);
        const u32 z = lo | (hi << 8);
        const f32 v = e.load(x.offset + z);
        e.store(q.offset + z, v);
      }
      break;
    }
    case Op::ZDIR: {
      const Dsd span = D[ins.a];
      const u32 list = ins.imm.u;
      for (u32 i = 0; i < ins.d; ++i) {
        const u32 lo = e.load_byte(list + 2 * i);
        const u32 hi = e.load_byte(list + 2 * i + 1);
        e.store(span.offset + (lo | (hi << 8)), 0.0f);
      }
      break;
    }

    case Op::SEND: ctx.send(ins.a, D[ins.b], ins.imm.u, ins.c); break;
    case Op::SENDC: ctx.send_control(ins.a, ins.imm.u); break;
    case Op::RECV: ctx.recv(ins.a, D[ins.b], ins.c); break;
    case Op::ACT: ctx.activate(ins.a); break;
    case Op::ADVL: ctx.advance_local(ins.imm.u); break;
    case Op::HALT: ctx.halt(); break;

    case Op::PHASE: ctx.mark_phase(ins.a); break;
    case Op::PROG:
      ctx.note_progress(st.k + ins.b, static_cast<f64>(st.f[ins.a]));
      break;

    case Op::JMP: pc = static_cast<u16>(ins.d); break;
    case Op::JTOL:
      if (st.f[ins.a] < ins.imm.f || st.f[ins.a] == 0.0f) {
        pc = static_cast<u16>(ins.d);
      }
      break;
    case Op::JGTR:
      if (st.f[ins.a] > st.f[ins.b]) pc = static_cast<u16>(ins.d);
      break;
    case Op::JKGE:
      if (st.k >= program.consts[ins.imm.u]) pc = static_cast<u16>(ins.d);
      break;
    case Op::DECJNZ:
      if (--st.u[ins.a] != 0) pc = static_cast<u16>(ins.d);
      break;
    case Op::DECRET:
      if (--st.u[ins.a] != 0) return;
      break;
    case Op::SETU: st.u[ins.a] = ins.imm.u; break;
    case Op::KINC: ++st.k; break;
    case Op::CHKPOS:
      FVDF_CHECK_MSG(st.f[ins.a] > 0.0f,
                     "x^T Jx = " << st.f[ins.a] << " is not positive");
      break;
    case Op::SETH: st.handler[ins.a] = static_cast<u16>(ins.d); break;
    case Op::SETC: st.cont[ins.a] = static_cast<u16>(ins.d); break;
    case Op::JIND: pc = st.cont[ins.a]; break;
    case Op::RET: return;

    case Op::kCount:
      FVDF_CHECK_MSG(false, "bytecode: invalid opcode at pc " << (pc - 1));
    }
  }
}

} // namespace fvdf::wse::bc
