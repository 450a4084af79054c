#pragma once
// The flat PE bytecode ISA (docs/simulator.md, "Bytecode ISA").
//
// A PE program's event-driven control flow — the CG/Chebyshev drivers
// plus the Table-I collectives — is lowered at build time into one flat
// instruction stream per PE. Every dynamic decision a task makes per
// wavelet (which handler, which halo step, which done-continuation) is
// either resolved statically at lowering time (coordinate parity, fabric
// edges, flux mode) or encoded in a handful of VM registers (iteration
// counter, residuals, pending counts, continuation program counters). The
// fabric then executes tasks through a tight interpreter loop
// (bytecode_interp.hpp) with no virtual call per event.
//
// The instruction stream is the single artifact the rest of the stack
// attributes against: derive_manifest() reconstructs the verifier/
// lookahead ProgramManifest from it, lint_program() statically checks the
// encoding, and disassemble() prints it for fabric_lint --dump-program.
//
// Execution model: a task activation on color c starts interpretation at
// VmState::handler[c] and runs until RET/HALT (or DECRET's early return).
// Charged instructions call DsdEngine entry points, so cycle cursors and
// op counters follow the instruction order; that order, and therefore
// every solver result, is pinned by golden digests in the tests.

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "wse/color.hpp"
#include "wse/dsd.hpp"

namespace fvdf::wse {

/// Static summary of a PE program's communication behavior, consumed by
/// the fabric verifier and the channel-lookahead planner (src/analysis/).
/// A program's routes are all in its image (wse/program.hpp), and its
/// sends and receives are all in its instruction stream: derive_manifest()
/// reads them off it.
struct ProgramManifest {
  ColorSet injects = 0;   // colors this PE may send on (ramp injections)
  ColorSet handles = 0;   // colors consumed here: a recv or a bound handler
  ColorSet activates = 0; // colors this PE may activate (incl. completions)
  ColorMask advances = 0; // routable colors advanced (control or local)
  // Lower bound on the data words of any message this PE injects on a
  // routable color (meaningful only where the matching `injects` bit is
  // set). 0 — the default, and what send_control implies — claims nothing,
  // which is always safe; a nonzero bound lets the lookahead planner
  // charge the link-batch time of the smallest possible crossing message
  // to a shard boundary. Record through declare_inject so the bound and
  // the inject bit stay consistent.
  std::array<u16, kNumRoutableColors> min_inject_words{};

  /// Declares an injection on `color` whose messages always carry at least
  /// `min_words` data words (use 0 for control wavelets or unknown sizes).
  /// Repeat declarations keep the weakest bound.
  ProgramManifest& declare_inject(Color color, u32 min_words) {
    check_routable(color);
    const u16 words =
        static_cast<u16>(std::min<u32>(min_words, u16(0xffff)));
    min_inject_words[color] = color_set_contains(injects, color)
                                  ? std::min(min_inject_words[color], words)
                                  : words;
    injects |= color_set_bit(color);
    return *this;
  }
};

} // namespace fvdf::wse

namespace fvdf::wse::bc {

/// Opcodes. Field conventions (see Instr): `a`,`b`,`c` are u8 operands
/// (registers, colors, DSD-table indices), `d` is a u32 wide operand
/// (branch target, 4th DSD index, f-register for *R forms, loop count),
/// `imm` is an f32 or u32 immediate.
enum class Op : u8 {
  // --- DSD vector ops (charged through DsdEngine; a/b/c(/d) index the
  // program's DSD table) ---
  VMOV,  // dsd[a] <- dsd[b]                       (fmovs)
  VMOVI, // dsd[a] <- imm.f                        (fmovs_imm)
  VADD,  // dsd[a] <- dsd[b] + dsd[c]              (fadds)
  VSUB,  // dsd[a] <- dsd[b] - dsd[c]              (fsubs)
  VMUL,  // dsd[a] <- dsd[b] * dsd[c]              (fmuls)
  VMULI, // dsd[a] <- dsd[b] * imm.f               (fmuls_imm)
  VMULR, // dsd[a] <- dsd[b] * f[d]                (fmuls_imm, runtime scalar)
  VNEG,  // dsd[a] <- -dsd[b]                      (fnegs)
  VMAC,  // dsd[a] <- dsd[b] + dsd[c] * dsd[d]     (fmacs)
  VMACI, // dsd[a] <- dsd[b] + dsd[c] * imm.f      (fmacs_imm)
  VMACR, // dsd[a] <- dsd[b] + dsd[c] * f[d]       (fmacs_imm, runtime scalar)
  VDOT,  // f[a] <- dot(dsd[b], dsd[c])            (fdots)

  // --- charged scalar ops (length-1 vector semantics) ---
  SADD,  // f[a] <- f[b] + f[c]                    (fadds_scalar)
  SMUL,  // f[a] <- f[b] * f[c]                    (fmuls_scalar)
  SMULI, // f[a] <- f[b] * imm.f                   (fmuls_scalar)
  LODS,  // f[a] <- mem[imm.u]                     (DsdEngine::load)
  STOS,  // mem[imm.u] <- f[a]                     (DsdEngine::store)

  // --- uncharged register/host ops (scalar host math between charged
  // ops) ---
  MOVR,  // f[a] <- f[b]
  UMOVI, // f[a] <- imm.f
  UMUL,  // f[a] <- f[b] * f[c]
  UMULI, // f[a] <- imm.f * f[b]
  USUB,  // f[a] <- f[b] - f[c]
  UNEG,  // f[a] <- -f[b]
  URCP,  // f[a] <- 1.0f / f[b]
  UDIVI, // f[a] <- f[b] / imm.f
  UK2F,  // f[a] <- (f32)k
  RSTORE,// mem[imm.u] <- f[a]  (raw PeMemory store, uncharged result write)

  // --- Dirichlet macro-ops (charged per entry: 2 byte loads + a
  // load/store per pinned row) ---
  FIXD,  // for d entries at byte imm.u: dsd[b].mem[z] <- dsd[a].mem[z]
  ZDIR,  // for d entries at byte imm.u: dsd[a].mem[z] <- 0

  // --- fabric ops ---
  SEND,  // send(color a, dsd[b], advance_after=imm.u, completion=c)
  SENDC, // send_control(color a, advance=imm.u)
  RECV,  // recv(color a, dsd[b], completion=c)
  ACT,   // activate(color a)
  ADVL,  // advance_local(imm.u)
  HALT,  // ctx.halt()

  // --- telemetry ---
  PHASE, // mark_phase(a)
  PROG,  // note_progress(k + b, f[a])

  // --- control flow ---
  JMP,    // pc <- d
  JTOL,   // if (f[a] < imm.f || f[a] == 0) pc <- d   (convergence test)
  JGTR,   // if (f[a] > f[b]) pc <- d                 (divergence test)
  JKGE,   // if (k >= consts[imm.u]) pc <- d          (iteration limit)
  DECJNZ, // if (--u[a] != 0) pc <- d
  DECRET, // if (--u[a] != 0) return                  (collective join)
  SETU,   // u[a] <- imm.u
  KINC,   // ++k
  CHKPOS, // FVDF_CHECK(f[a] > 0)  ("x^T Jx is not positive")
  SETH,   // handler[color a] <- d  (bind/rebind a task-color handler)
  SETC,   // cont[a] <- d           (set a continuation register)
  JIND,   // pc <- cont[a]          (indirect jump through a continuation)
  RET,    // end of task

  kCount
};

const char* to_string(Op op);

/// One 12-byte instruction.
struct Instr {
  Op op = Op::RET;
  u8 a = 0, b = 0, c = 0;
  u32 d = 0;
  union {
    f32 f;
    u32 u;
  } imm{};
};
static_assert(sizeof(Instr) == 12);

constexpr u16 kNoPc = 0xffff;

constexpr u32 kNumFRegs = 16; // f32 registers
constexpr u32 kNumURegs = 4;  // u32 counters (halo pending, probe countdown)
constexpr u32 kNumCRegs = 4;  // continuation program counters

/// Per-PE mutable interpreter state. Persists across task activations —
/// it holds everything a program keeps between tasks (residuals, the
/// iteration counter, join counts, continuation pcs, handler bindings).
struct VmState {
  std::array<f32, kNumFRegs> f{};
  std::array<u32, kNumURegs> u{};
  std::array<u16, kNumCRegs> cont{};
  u64 k = 0;
  std::array<u16, kNumColors> handler{};

  VmState() { handler.fill(kNoPc); }
};

/// A lowered, immutable per-PE program. PEs with identical lowering keys
/// (parity, edges, config) share one Program through a shared_ptr.
struct Program {
  std::string name;
  std::vector<Instr> code;
  std::vector<Dsd> dsds;   // DSD operand table
  std::vector<u64> consts; // u64 constants (iteration limits)
  u16 entry = 0;           // pc the start task interprets at cycle 0
};

/// Reconstructs the static communication manifest from the instruction
/// stream: SEND/SENDC declare injections (with the DSD length as the
/// word bound) and advances, RECV declares handles + completions, ACT
/// declares activations, ADVL declares local advances, and a SETH-bound
/// task color is declared handled and activatable. This is what the
/// verifier consumes for every program — the stream is the source of
/// truth, not a hand-kept list.
ProgramManifest derive_manifest(const Program& program);

/// Static well-formedness check of the encoding itself: branch targets,
/// handler bindings and the entry point must land inside the stream,
/// operand indices must be inside the DSD/const/register tables, colors
/// must be valid, and the stream must be RET/HALT-terminated. Returns a
/// list of human-readable defects (empty = clean).
std::vector<std::string> lint_program(const Program& program);

/// Human-readable disassembly (fabric_lint --dump-program). One line per
/// instruction: "  12  SEND    c1 dsd3[len=8] adv=0x2 done=24".
std::string disassemble(const Program& program);

/// Incremental program assembler with labels and forward references.
class Builder {
public:
  using Label = u32;

  explicit Builder(std::string name) { program_.name = std::move(name); }

  Label make_label();
  void bind(Label label);
  u16 here() const { return static_cast<u16>(program_.code.size()); }

  /// Interns a DSD operand (deduplicated) and returns its table index.
  u8 dsd(Dsd d);
  /// Interns a u64 constant and returns its table index.
  u32 konst(u64 value);

  // Raw emit; the typed helpers below cover every op the lowerings use.
  void emit(Instr instr) { program_.code.push_back(instr); }

  void vmov(u8 dst, u8 src) { emit({Op::VMOV, dst, src, 0, 0, {}}); }
  void vmovi(u8 dst, f32 v) { emit(fimm(Op::VMOVI, dst, 0, 0, 0, v)); }
  void vadd(u8 dst, u8 a, u8 b) { emit({Op::VADD, dst, a, b, 0, {}}); }
  void vsub(u8 dst, u8 a, u8 b) { emit({Op::VSUB, dst, a, b, 0, {}}); }
  void vmul(u8 dst, u8 a, u8 b) { emit({Op::VMUL, dst, a, b, 0, {}}); }
  void vmuli(u8 dst, u8 a, f32 v) { emit(fimm(Op::VMULI, dst, a, 0, 0, v)); }
  void vmulr(u8 dst, u8 a, u8 freg) { emit({Op::VMULR, dst, a, 0, freg, {}}); }
  void vneg(u8 dst, u8 a) { emit({Op::VNEG, dst, a, 0, 0, {}}); }
  void vmac(u8 dst, u8 acc, u8 a, u8 b) { emit({Op::VMAC, dst, acc, a, b, {}}); }
  void vmaci(u8 dst, u8 acc, u8 a, f32 v) { emit(fimm(Op::VMACI, dst, acc, a, 0, v)); }
  void vmacr(u8 dst, u8 acc, u8 a, u8 freg) { emit({Op::VMACR, dst, acc, a, freg, {}}); }
  void vdot(u8 freg, u8 a, u8 b) { emit({Op::VDOT, freg, a, b, 0, {}}); }

  void sadd(u8 dst, u8 a, u8 b) { emit({Op::SADD, dst, a, b, 0, {}}); }
  void smul(u8 dst, u8 a, u8 b) { emit({Op::SMUL, dst, a, b, 0, {}}); }
  void smuli(u8 dst, u8 a, f32 v) { emit(fimm(Op::SMULI, dst, a, 0, 0, v)); }
  void lods(u8 freg, u32 word_offset) { emit(uimm(Op::LODS, freg, word_offset)); }
  void stos(u8 freg, u32 word_offset) { emit(uimm(Op::STOS, freg, word_offset)); }

  void movr(u8 dst, u8 src) { emit({Op::MOVR, dst, src, 0, 0, {}}); }
  void umovi(u8 dst, f32 v) { emit(fimm(Op::UMOVI, dst, 0, 0, 0, v)); }
  void umul(u8 dst, u8 a, u8 b) { emit({Op::UMUL, dst, a, b, 0, {}}); }
  void umuli(u8 dst, u8 a, f32 v) { emit(fimm(Op::UMULI, dst, a, 0, 0, v)); }
  void usub(u8 dst, u8 a, u8 b) { emit({Op::USUB, dst, a, b, 0, {}}); }
  void uneg(u8 dst, u8 a) { emit({Op::UNEG, dst, a, 0, 0, {}}); }
  void urcp(u8 dst, u8 a) { emit({Op::URCP, dst, a, 0, 0, {}}); }
  void udivi(u8 dst, u8 a, f32 v) { emit(fimm(Op::UDIVI, dst, a, 0, 0, v)); }
  void uk2f(u8 dst) { emit({Op::UK2F, dst, 0, 0, 0, {}}); }
  void rstore(u8 freg, u32 word_offset) { emit(uimm(Op::RSTORE, freg, word_offset)); }

  void fixd(u8 x_dsd, u8 q_dsd, u32 count, u32 byte_offset) {
    emit(uimm(Op::FIXD, x_dsd, byte_offset, q_dsd, 0, count));
  }
  void zdir(u8 span_dsd, u32 count, u32 byte_offset) {
    emit(uimm(Op::ZDIR, span_dsd, byte_offset, 0, 0, count));
  }

  void send(Color color, u8 dsd_idx, ColorMask advance_after = 0,
            Color completion = kInvalidColor) {
    emit(uimm(Op::SEND, color, advance_after, dsd_idx, completion));
  }
  void send_control(Color color, ColorMask advance) {
    emit(uimm(Op::SENDC, color, advance));
  }
  void recv(Color color, u8 dsd_idx, Color completion) {
    emit({Op::RECV, color, dsd_idx, completion, 0, {}});
  }
  void act(Color color) { emit({Op::ACT, color, 0, 0, 0, {}}); }
  void advl(ColorMask mask) { emit(uimm(Op::ADVL, 0, mask)); }
  void halt() { emit({Op::HALT, 0, 0, 0, 0, {}}); }

  void phase(u8 p) { emit({Op::PHASE, p, 0, 0, 0, {}}); }
  void progress(u8 freg, u8 k_offset) { emit({Op::PROG, freg, k_offset, 0, 0, {}}); }

  void jmp(Label l) { branch(Op::JMP, 0, 0, 0, l); }
  void jtol(u8 freg, f32 tolerance, Label l) {
    branch_f(Op::JTOL, freg, tolerance, l);
  }
  void jgtr(u8 a, u8 b, Label l) { branch(Op::JGTR, a, b, 0, l); }
  void jkge(u32 const_idx, Label l) { branch_u(Op::JKGE, 0, const_idx, l); }
  void decjnz(u8 ureg, Label l) { branch(Op::DECJNZ, ureg, 0, 0, l); }
  void decret(u8 ureg) { emit({Op::DECRET, ureg, 0, 0, 0, {}}); }
  void setu(u8 ureg, u32 value) { emit(uimm(Op::SETU, ureg, value)); }
  void kinc() { emit({Op::KINC, 0, 0, 0, 0, {}}); }
  void chkpos(u8 freg) { emit({Op::CHKPOS, freg, 0, 0, 0, {}}); }
  void seth(Color color, Label l) { branch(Op::SETH, color, 0, 0, l); }
  void setc(u8 creg, Label l) { branch(Op::SETC, creg, 0, 0, l); }
  void jind(u8 creg) { emit({Op::JIND, creg, 0, 0, 0, {}}); }
  void ret() { emit({Op::RET, 0, 0, 0, 0, {}}); }

  void set_entry(Label l);

  /// Resolves every label reference and returns the finished program.
  /// Throws fvdf::Error on unbound labels or table overflows.
  Program finish();

private:
  static Instr fimm(Op op, u8 a, u8 b, u8 c, u32 d, f32 v) {
    Instr i{op, a, b, c, d, {}};
    i.imm.f = v;
    return i;
  }
  static Instr uimm(Op op, u8 a, u32 v, u8 b = 0, u8 c = 0, u32 d = 0) {
    Instr i{op, a, b, c, d, {}};
    i.imm.u = v;
    return i;
  }
  void branch(Op op, u8 a, u8 b, u8 c, Label l);
  void branch_f(Op op, u8 a, f32 v, Label l);
  void branch_u(Op op, u8 a, u32 v, Label l);

  Program program_;
  std::vector<i64> label_pc_;            // -1 = unbound
  std::vector<std::pair<u32, Label>> fixups_; // (instr index, label) for field d
  i64 entry_label_ = -1;
};

} // namespace fvdf::wse::bc
