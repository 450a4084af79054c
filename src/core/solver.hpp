#pragma once
// Host-side driver for the dataflow FV solver: builds a simulated fabric
// shaped like the mesh's X-Y footprint (one PE per column, Sec. III-A),
// marshals the per-PE columns, runs the fabric to completion, and reads
// the solution back — the moral equivalent of the SDK host program that
// schedules work on the CS-2 ("the server is only used to schedule the
// workload", Sec. V-A).

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "analysis/verifier.hpp"
#include "common/types.hpp"
#include "core/mapping.hpp"
#include "fv/problem.hpp"
#include "perf/opcount.hpp"
#include "solver/chebyshev.hpp"
#include "wse/fabric.hpp"

namespace fvdf::telemetry {
class Session;
class HostProfiler;
}

namespace fvdf::core {

/// Cross-solve artifact reuse for long-lived callers (the serve daemon,
/// transient step loops): one CaseArtifacts shared by every solve of one
/// *identical* solver configuration memoizes the lowered bytecode
/// programs and the planned channel-lookahead tables, so repeat solves
/// skip lowering and lookahead planning. Reuse never changes results:
/// lowering and planning are deterministic, so a cached artifact is
/// byte-identical to the one a fresh solve would rebuild (tested).
///
/// Sharing across *different* scalar configs (tolerance, max_iterations,
/// flux mode, jacobi, diagonal_shift, memory/timing params) is NOT safe —
/// lowered programs embed them as immediates. DataflowConfig::initial_field
/// is uploaded into each PE's image and never lowered, so solves that
/// differ only in the initial field (the steps of one transient run, repeat
/// service requests) may share artifacts freely.
class ProgramCache; // core/bytecode_program.hpp

struct CaseArtifacts {
  /// Created on first use by solve_dataflow* (ProgramCache is an
  /// implementation detail of the device programs).
  std::shared_ptr<ProgramCache> programs;

  /// Planned lookahead tables keyed by the realized tile grid
  /// (tile_rows, tile_cols) — the layout is a function of geometry, the
  /// ShardGrid override and whether more than one worker runs it, so one
  /// entry per distinct layout.
  std::mutex mutex;
  std::map<std::pair<u32, u32>, wse::ChannelLookahead> lookahead;
};

struct DataflowConfig {
  FluxMode flux_mode = FluxMode::Fused;
  u64 max_iterations = 10'000;
  f32 tolerance = 0.0f; // epsilon on the global r^T r (0 = run to max)
  bool jx_only = false; // Algorithm-2 scaling mode (halo + flux only)
  // Extensions over the paper's plain-CG kernel:
  bool jacobi_precondition = false; // device-side Jacobi PCG
  f32 diagonal_shift = 0.0f;        // backward-Euler accumulation term
  // Per-cell initial pressure (global layout) overriding the problem's
  // uniform interior guess — the previous time level in transient solves.
  // Must satisfy the Dirichlet values. Empty = use problem defaults.
  std::vector<f64> initial_field;
  wse::TimingParams timing{};
  wse::PeMemoryParams memory{};
  f64 max_cycles = 1e15; // simulation safety net
  // Simulator worker threads (0 = usable CPUs). Purely a host-side
  // execution knob: results are bitwise identical at any value.
  u32 sim_threads = 1;
  // Simulator shard-layout override ({0,0} = the engine's cost model; see
  // wse::ShardGrid — {0,1} forces the 1D row-strip layout, {1,1} a single
  // serial shard). Host-side execution knob: results are bitwise identical
  // under any layout (tested); benchmarks use it to compare layouts.
  wse::ShardGrid shard_grid{};
  // Steady-state fast-forward (wse/fast_forward.hpp): a one-shard run
  // replays repeating iterations instead of simulating each. Results are
  // bitwise identical either way; the switch exists so tests can compare.
  bool fast_forward = true;
  // Run the static fabric verifier (src/analysis/) over the device program
  // before starting the event loop; throws fvdf::Error with the full
  // diagnostic report if any check fails. Costs one extra program
  // instantiation per PE — well under 5% of a solve.
  bool verify_preflight = false;
  // Optional observability: a telemetry session (telemetry/session.hpp)
  // collects per-PE/per-link activity, phase spans and residual history
  // during the run and is finalized before solve_dataflow returns. The
  // caller owns it; nullptr (the default) costs one pointer test per
  // instrumentation site.
  telemetry::Session* telemetry = nullptr;
  // Optional host-side execution profiler (telemetry/host_profiler.hpp):
  // observes the *simulator* — worker timelines, shard stall attribution,
  // bytecode pc hot spots, critical-path speedup bound — over wall-clock
  // time. Caller owns it; attaching it never changes results or the
  // deterministic telemetry bundle. solve_dataflow annotates the sampled
  // programs (analysis::annotate_host_profile) before returning.
  telemetry::HostProfiler* host_profiler = nullptr;
  // Optional cross-solve artifact reuse; see CaseArtifacts for the
  // sharing contract. nullptr = per-solve artifacts (the prior behavior).
  // Never changes results.
  std::shared_ptr<CaseArtifacts> artifacts;
};

struct DataflowResult {
  // Global-layout fields (X innermost, Z outermost), one entry per cell.
  std::vector<f32> delta;    // CG solution (pressure update)
  std::vector<f32> pressure; // p0 + delta

  u64 iterations = 0;
  bool converged = false;
  f32 final_rr = 0.0f;
  // Global r^T r after each device-side reduction, in iteration order —
  // populated only when DataflowConfig::telemetry is attached (the device
  // reports it through PeContext::note_progress on PE (0,0)).
  std::vector<f64> residual_history;

  f64 device_cycles = 0;
  f64 device_seconds = 0;
  wse::FabricStats fabric;
  OpCounters counters; // aggregated over all PEs
  // Solver periods (iterations; Chebyshev probe intervals) the fabric's
  // steady-state fast-forward replayed rather than simulated.
  u64 replayed_periods = 0;
};

/// Runs the full device solve. Fabric dimensions = (mesh.nx, mesh.ny);
/// column depth = mesh.nz. Throws fvdf::Error if the column does not fit
/// in PE memory (see core/mapping.hpp for the layout budget).
DataflowResult solve_dataflow(const FlowProblem& problem,
                              const DataflowConfig& config = {});

/// Chebyshev iteration on the device (extension; see solver/chebyshev.hpp):
/// no per-iteration all-reduce — the whole-fabric reduction runs only at
/// the periodic convergence probes, removing the perimeter-proportional
/// cost Table III attributes to CG's dot products. `bounds` must bracket
/// the operator spectrum (host-estimated via estimate_spectral_bounds).
struct ChebyshevDeviceConfig {
  FluxMode flux_mode = FluxMode::Fused;
  u64 max_iterations = 50'000;
  f32 tolerance = 0.0f;
  u32 check_every = 16;
  SpectralBounds bounds{};
  f32 diagonal_shift = 0.0f;
  std::vector<f64> initial_field;
  wse::TimingParams timing{};
  wse::PeMemoryParams memory{};
  f64 max_cycles = 1e15;
  u32 sim_threads = 1;           // see DataflowConfig::sim_threads
  wse::ShardGrid shard_grid{};   // see DataflowConfig::shard_grid
  bool verify_preflight = false; // see DataflowConfig::verify_preflight
  telemetry::Session* telemetry = nullptr; // see DataflowConfig::telemetry
  telemetry::HostProfiler* host_profiler = nullptr; // see DataflowConfig
  std::shared_ptr<CaseArtifacts> artifacts; // see DataflowConfig::artifacts
};

DataflowResult solve_dataflow_chebyshev(const FlowProblem& problem,
                                        const ChebyshevDeviceConfig& config);

/// Statically verifies the CG (resp. Chebyshev) device program that
/// solve_dataflow would load — route completeness, deadlock freedom,
/// delivery and switch liveness, memory budget — without running the event
/// loop. Returns the full report; never throws on program defects.
analysis::VerifyReport verify_dataflow(const FlowProblem& problem,
                                       const DataflowConfig& config = {});
analysis::VerifyReport verify_dataflow_chebyshev(
    const FlowProblem& problem, const ChebyshevDeviceConfig& config);

/// The channel-lookahead table for the CG device program a solve would
/// load, read from the bytecode's reachable SEND instructions. The shard
/// layout is the one `config.shard_grid` and `config.sim_threads` would
/// produce; with a single shard the table carries no crossing edges.
struct LookaheadPlan {
  u32 shard_count = 0;
  u32 tile_rows = 1;
  u32 tile_cols = 1;
  wse::ChannelLookahead bytecode;
};

LookaheadPlan plan_dataflow_lookahead(const FlowProblem& problem,
                                      const DataflowConfig& config = {});

/// Transient backward-Euler simulation with every linear solve executed on
/// the simulated dataflow device (one `solve_dataflow` per step, with the
/// accumulation term as the device kernel's diagonal shift). Extension
/// over the paper; see solver/transient.hpp for the formulation and the
/// host reference this is validated against.
struct DataflowTransientResult {
  std::vector<f32> pressure;            // final field
  std::vector<u64> iterations_per_step; // device CG iterations per step
  bool all_converged = true;
  f64 total_device_seconds = 0;
  i64 steps_completed = 0; // == steps unless on_step stopped the run
  bool interrupted = false;
};

/// Called after every completed transient step with the 0-based step
/// index and that step's solve result (result.pressure is the state the
/// next step starts from). Return false to stop stepping — the transient
/// result then reports interrupted=true and carries the state so far.
/// Long-running callers (the serve daemon, signal-aware drivers) use
/// this for progress streaming, checkpointing and graceful interruption.
using TransientStepFn = std::function<bool(i64 step, const DataflowResult&)>;

DataflowTransientResult solve_transient_dataflow(const FlowProblem& problem,
                                                 f64 dt, i64 steps, f64 porosity,
                                                 f64 total_compressibility,
                                                 DataflowConfig config = {},
                                                 const TransientStepFn& on_step = {});

/// Builds the per-PE init data for PE (x, y) — exposed for tests. `minv`
/// is the global inverse-diagonal array when Jacobi preconditioning is on
/// (nullptr otherwise). `diagonal_shift` folds the backward-Euler
/// accumulation term into the preconditioner diagonal.
PeInit build_pe_init(const FlowProblem& problem, const DiscreteSystem<f32>& sys,
                     i64 x, i64 y, FluxMode mode,
                     const std::vector<f32>* minv = nullptr,
                     const std::vector<f64>* p0_override = nullptr);

} // namespace fvdf::core
