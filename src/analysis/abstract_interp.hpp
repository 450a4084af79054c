#pragma once
// Fixed-point abstract interpretation over a flat bytecode program.
//
// analyze_program runs three analyses over the CFG built by cfg.hpp and
// returns pc-accurate defects plus exported summaries:
//
//  1. Memory bounds — interval analysis: every DSD operand's
//     base+stride×length word span, every LODS/STOS/RSTORE word offset,
//     and every FIXD/ZDIR byte-list span is checked against the PE
//     memory budget; a forward may-dataflow pass additionally flags
//     writes that overlap a buffer registered by a pending asynchronous
//     RECV (an Error: the arrival order decides which value survives)
//     or referenced by an in-flight SEND (a Warning: the simulator
//     gathers the payload at send time so results are unaffected, but
//     the modeled hardware streams the buffer out asynchronously and
//     would race the overwrite). Reads are never hazards — an
//     activation runs to completion at one event instant, so they are
//     deterministic.
//  2. Register liveness / use-before-def — JIND through a continuation
//     register that no reachable SETC ever arms, DECJNZ/DECRET on a
//     counter no reachable SETU ever initializes (the first decrement
//     wraps the u32 to 0xffffffff: an effectively unbounded loop), f
//     registers read before any reachable definition, and dead stores.
//  3. Static cost bounds — per entry point (program start, every task
//     handler, every continuation) an interval of charged DSD-engine
//     cycles and charged-op counts for one activation, with loop trip
//     counts bounded through SETU immediates; loops that cannot be
//     statically bounded are defects. Per-color minimum send words and
//     minimum charged cycles before the first SEND are exported so the
//     lookahead planner can derive its batch floors from the reachable
//     code rather than from every SEND in the stream.
//
// The lattice is deliberately simple: reachability is the only
// fixed-point component shared by all analyses (build_cfg computes it);
// the send-overlap pass iterates a union lattice of in-flight
// send/recv sites per basic block until stable. All analyses are
// conservative: a clean report proves the property for every execution
// the interpreter (bytecode_interp.hpp) can take.

#include <array>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "common/types.hpp"
#include "wse/timing.hpp"

namespace fvdf::analysis {

enum class BcAnalysis : u8 {
  ControlFlow,      // execution can fall off the end of the stream
  MemoryBounds,     // span/offset outside the PE arena, send overlap
  RegisterLiveness, // use-before-def, dead stores
  CostBounds,       // statically unbounded loops
};

const char* to_string(BcAnalysis analysis);

enum class BcSeverity : u8 { Warning, Error };

const char* to_string(BcSeverity severity);

struct BcDefect {
  BcAnalysis analysis = BcAnalysis::MemoryBounds;
  BcSeverity severity = BcSeverity::Error;
  u32 pc = 0;
  std::string message;

  std::string format() const; // "error [bytecode-memory] pc 12: ..."
};

/// Charged-cost interval for one activation from one entry point.
struct HandlerCost {
  std::string label;    // CfgEntry::label()
  u32 entry_pc = 0;
  bool bounded = true;  // false when a loop trip count is not provable
  f64 min_cycles = 0;   // charged DSD-engine cycles, shortest activation
  f64 max_cycles = 0;   // longest activation (valid only when bounded)
  u64 min_charged_ops = 0;
  u64 max_charged_ops = 0;
};

/// Per-color static dataflow summary, derived from reachable code only.
struct ColorFlow {
  bool sends = false;         // some reachable SEND injects on this color
  bool sends_control = false; // some reachable SENDC (control wavelet)
  bool recvs = false;         // some reachable RECV registers a sink
  bool task_handler = false;  // some reachable SETH binds a handler
  u32 min_send_words = 0;     // smallest reachable SEND span (words)
  u32 send_sites = 0;         // number of reachable SEND instructions
  u64 send_words_total = 0;   // sum of their lengths: the exact data-word
                              // volume of one full pass over the code
  f64 min_cycles_before_send = 0; // least charged cycles on any path from
                                  // an entry to the first SEND on color
  std::vector<u32> send_lengths;  // distinct reachable SEND lengths
  std::vector<u32> recv_lengths;  // distinct reachable RECV lengths
};

struct ProgramAnalysis {
  Cfg cfg;
  std::vector<BcDefect> defects;
  std::vector<HandlerCost> handlers; // one per CFG entry point
  std::array<ColorFlow, wse::kNumColors> colors{};

  u64 error_count() const;
  u64 warning_count() const;
  bool ok() const { return error_count() == 0; }
  /// Multi-line human-readable report (fabric_lint --deep).
  std::string summary(const std::string& program_name) const;
};

struct AnalysisParams {
  /// Word budget for span checks; 0 means the allocatable words of a
  /// default-parameter PeMemory (48 KiB minus the reserved arena).
  u32 memory_limit_words = 0;
  /// Timing model used to price charged ops (must match the engine's).
  wse::TimingParams timing{};
};

ProgramAnalysis analyze_program(const wse::bc::Program& program,
                                const AnalysisParams& params = {});

} // namespace fvdf::analysis
