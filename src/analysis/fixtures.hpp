#pragma once
// Verification fixtures: complete device programs for the static verifier
// (src/analysis/verifier.hpp) and its tests.
//
// The known-good programs drive the four shipped CSL collectives — the
// halo exchange, the all-reduce, the eastward exchange and the any-source
// broadcast — lowered through their csl emitters, exactly the way the
// solver runs its collectives, and must verify clean on any fabric shape.
// Each seeded-defect program violates exactly one check and exists so
// tests (and fabric_lint demos) can assert the verifier rejects it with
// the right diagnostic.

#include "wse/geometry.hpp"
#include "wse/program.hpp"

namespace fvdf::analysis::fixtures {

// --- known-good: one driver per shipped CSL collective ---

/// Table-I four-step halo exchange, one round, nz-word columns.
wse::ProgramFactory halo_program(u32 nz = 4);

/// Three-phase whole-fabric all-reduce contributing 1.0 per PE.
wse::ProgramFactory allreduce_program();

/// Fig.-4 eastward exchange (single color, two-position ring).
wse::ProgramFactory eastward_program(u32 block = 4);

/// Any-source broadcast rooted at `source`.
wse::ProgramFactory any_source_program(wse::PeCoord source, u32 block = 4);

// --- seeded defects (each trips exactly one verifier check) ---
// The routing defects' injections are data-less SENDCs in a task handler
// that is bound but never activated: the stream declares them (with a
// zero-word bound) without the program having to run.

/// Chain route whose final transmit exits the east fabric edge
/// (route-completeness error). Any width >= 1.
wse::ProgramFactory edge_route_defect();

/// Two-PE credit cycle: PE (0,0) forwards east, PE (1,0) forwards the same
/// color back west (deadlock-freedom error). Use on a 2x1 fabric.
wse::ProgramFactory credit_cycle_defect();

/// PE (0,0) sends to PE (1,0)'s ramp, which has no recv or task handler
/// (delivery-liveness error). Use on a 2x1 fabric.
wse::ProgramFactory missing_handler_defect();

/// Allocates one f32 array larger than the whole PE arena
/// (memory-budget error on every PE).
wse::ProgramFactory arena_overflow_defect();

// --- seeded bytecode defects (each trips one abstract-interpreter pass
// or the send/recv balance check; see abstract_interp.hpp and
// verifier.hpp check 6). Every program lints clean at the encoding level
// — the defects are semantic, visible only to the abstract interpreter.
// Their images do not run the stream's entry block (the
// PeProgram(program, setup) form): only the static passes read them.

/// 1x1: the program's only DSD span ends far outside the PE arena
/// (bytecode-memory error at pc 0).
wse::ProgramFactory bc_oob_span_defect();

/// 1x1: entry JINDs through a continuation register no reachable SETC
/// ever arms (bytecode-liveness error at pc 0).
wse::ProgramFactory bc_unset_continuation_defect();

/// 1x1: a DECJNZ loop whose counter is initialized to 0 — the first
/// decrement wraps the u32, an effectively unbounded loop
/// (bytecode-cost error).
wse::ProgramFactory bc_unbounded_loop_defect();

/// 1x1 self-delivery: the program overwrites a word of a buffer whose
/// SEND is still in flight in the same activation (bytecode-memory
/// warning: the simulator gathers at send time; hardware would race).
wse::ProgramFactory bc_send_overlap_defect();

/// 2x1: PE (0,0) sends 8-word messages east, PE (1,0)'s only reachable
/// RECV on that color takes 6 words (send-recv-balance error).
wse::ProgramFactory bc_unbalanced_send_defect();

} // namespace fvdf::analysis::fixtures
