#pragma once
// Post-run annotation of host-profiler pc histograms.
//
// The host profiler (telemetry/host_profiler.hpp) samples bytecode pcs
// keyed by program address — telemetry sits below wse in the link order,
// so it cannot name a program or know what an Op is. This analysis-layer
// pass closes the loop after a run: it walks the fabric's distinct loaded
// bytecode programs and attaches to each sampled key the program name, the
// per-pc opcode mnemonic, and a per-pc *solver phase* label obtained by
// propagating the Op::PHASE markers forward over the control-flow graph
// (analysis/cfg.hpp). The profiler's hot-spot table then reads
// "cg_fused pc 112 VMAC flux" instead of a bare address.
//
// core::solve_dataflow* runs this automatically when
// DataflowConfig::host_profiler is set; tools driving a raw Fabric call it
// by hand after run().

#include <vector>

#include "common/types.hpp"

namespace fvdf::telemetry {
class HostProfiler;
}

namespace fvdf::wse {
class Fabric;
namespace bc {
struct Program;
}
} // namespace fvdf::wse

namespace fvdf::analysis {

/// Per-pc phase labels that are not concrete telemetry::Phase ids:
/// a pc executed before any PHASE marker of its activation runs under
/// whatever phase the previous activation left active (the phase register
/// survives across task activations, which a per-program analysis cannot
/// see) — "inherited"; a pc whose joining paths carry different phases is
/// "mixed".
constexpr u8 kPhaseInherited = 0xff;
constexpr u8 kPhaseMixed = 0xfe;

/// Forward dataflow of the Op::PHASE marker over build_cfg(program):
/// the program entry seeds Phase::Setup, handler/continuation entries seed
/// "inherited", PHASE instructions overwrite, and joins meet (equal keeps,
/// unequal degrades to kPhaseMixed; "inherited" is the meet identity).
/// Returns one value per pc: a telemetry::Phase id, kPhaseInherited or
/// kPhaseMixed. Unreachable pcs read kPhaseInherited.
std::vector<u8> bytecode_phase_map(const wse::bc::Program& program);

/// Human-readable label for a bytecode_phase_map value.
const char* phase_label(u8 value);

/// Annotates every program key the profiler sampled with name, opcode
/// mnemonics and CFG-propagated phase labels, reading the fabric's loaded
/// programs (wse::Fabric::distinct_bytecode_programs). Call after run();
/// a no-op when the profiler captured nothing.
void annotate_host_profile(telemetry::HostProfiler& profiler,
                           const wse::Fabric& fabric);

} // namespace fvdf::analysis
