#pragma once
// Static fabric-program verifier (docs/static_verification.md).
//
// Given the fabric geometry and a ProgramFactory, the verifier reads every
// PE's image (wse/program.hpp) — its route table, its allocated bytes and
// its stream; nothing runs — and proves six properties of the resulting
// device program:
//
//   1. Route completeness  — every injected wavelet reaches switch
//      positions that accept it at every hop, and no route exits the
//      fabric edge (an off-edge transmit must be an explicit null route).
//   2. Deadlock freedom    — the per-color channel-dependency graph over
//      (PE, arrival link) nodes is acyclic (Dally & Seitz); a violation is
//      reported as a human-readable cycle walk.
//   3. Delivery liveness   — every color a traced route delivers to a ramp
//      has a recv/task handler on that PE, and every activated task color
//      is handled.
//   4. Switch liveness     — multi-position colors have an advance source,
//      and advance targets that saturate without ring_mode are flagged.
//   5. Memory budget       — every PE's static allocations fit the 48 KiB
//      arena; the report carries the fabric-wide high-water mark.
//   6. Bytecode semantics  — over every program's flat instruction stream
//      (PeProgram::bytecode), the abstract interpreter
//      (abstract_interp.hpp) proves memory bounds, register liveness and
//      static cost bounds per distinct program, and a whole-fabric
//      send/recv balance pass proves per-color conservation: every
//      routed delivery site consumes exactly the message lengths its
//      injectors send, with exact per-round word and word-hop volumes
//      cross-checkable against telemetry.
//
// A program's routes are all in its image, and its sends and receives are
// all in its stream: the verifier installs the routes into model routers
// and takes each PE's communication facts from the ProgramManifest derived
// from the stream (wse::bc::derive_manifest). Approximation, documented
// and deliberate: every configured switch position is considered
// reachable, and the stream's injections are traced regardless of when
// the program would issue them.

#include <string>
#include <vector>

#include "common/types.hpp"
#include "wse/color.hpp"
#include "wse/fabric.hpp"
#include "wse/geometry.hpp"
#include "wse/program.hpp"

namespace fvdf::analysis {

enum class Check : u8 {
  Instantiation,     // the image failed to build or apply (not an overflow)
  RouteCompleteness, // check 1
  DeadlockFreedom,   // check 2
  DeliveryLiveness,  // check 3
  SwitchLiveness,    // check 4
  MemoryBudget,      // check 5
  // Bytecode abstract interpretation (abstract_interp.hpp), one check
  // per analysis; diagnostics carry the pc and the program name.
  BytecodeControlFlow,
  BytecodeMemory,
  BytecodeLiveness,
  BytecodeCost,
  // Whole-fabric per-color send/recv conservation (check 6): every word
  // injected on a color is consumed at every routed delivery site.
  SendRecvBalance,
};

const char* to_string(Check check);

enum class Severity : u8 { Warning, Error };

struct Diagnostic {
  Check check = Check::Instantiation;
  Severity severity = Severity::Error;
  wse::PeCoord pe{};                    // primary location
  wse::Color color = wse::kInvalidColor; // kInvalidColor when not color-specific
  i64 pc = -1; // bytecode pc for Bytecode* checks, -1 otherwise
  std::string message;

  /// "error[deadlock-freedom] color 5 at PE (1, 0): ..." one-liner.
  std::string format() const;
};

/// Per-routable-color static traffic summary from the balance check.
/// `words_per_round` is the exact number of data words all injectors send
/// in one full pass over their reachable code; `word_hops_per_round`
/// multiplies each injector's volume by its routed link-hop count — the
/// static prediction of the telemetry `word_hops` counter per round.
/// `exact` is false when a router's accepting positions diverge (the
/// position over-approximation makes hop totals an upper bound) or the
/// fabric is too large for the hop totals to be computed.
struct ColorBalance {
  wse::Color color = 0;
  u32 injectors = 0;
  u32 delivery_sites = 0;
  u64 words_per_round = 0;
  u64 word_hops_per_round = 0;
  bool exact = true;
};

struct VerifyReport {
  i64 width = 0;
  i64 height = 0;
  std::vector<Diagnostic> diagnostics;
  std::vector<ColorBalance> balance; // colors with traffic, ascending

  // Coverage / scale counters.
  u64 colors_traced = 0;     // routable colors with at least one injection
  u64 routes_checked = 0;    // (PE, arrival-link) states visited by the trace
  u64 null_route_sinks = 0;  // traced positions that deliberately discard
  u64 cdg_nodes = 0;         // channel-dependency graph size, all colors
  u64 cdg_edges = 0;
  u64 bytecode_programs = 0; // distinct bytecode programs abstractly interpreted

  // Memory budget summary (check 5).
  u64 memory_capacity_bytes = 0;   // per-PE arena capacity
  u64 memory_reserved_bytes = 0;   // program text + stack model
  u64 memory_high_water_bytes = 0; // largest per-PE static allocation total
  wse::PeCoord memory_high_water_pe{};

  u64 error_count() const;
  u64 warning_count() const;
  bool ok() const { return error_count() == 0; }

  /// Multi-line human-readable report (fabric_lint's output).
  std::string summary() const;
};

/// Verifies `factory` against a width x height fabric without running it.
/// Never throws on program defects — they become diagnostics; throws only
/// on misuse (non-positive dimensions).
VerifyReport verify_program(i64 width, i64 height,
                            const wse::ProgramFactory& factory,
                            wse::PeMemoryParams mem = {});

} // namespace fvdf::analysis
