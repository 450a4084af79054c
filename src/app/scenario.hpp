#pragma once
// Config-driven simulation scenarios: the glue between an INI file and the
// solver stack, used by the production-style drivers (tools/fvdf_sim and
// the tools/fvdf_serve daemon) and unit-tested directly. A scenario
// describes mesh, geomodel, wells, solver backend (host CG / host
// Jacobi-PCG / simulated dataflow device), an optional backward-Euler
// transient schedule, and output artifacts (VTK, checkpoint, terminal
// heatmap).
//
// Schema (all keys, defaults in parentheses):
//   [mesh]      nx, ny, nz (8); dx, dy, dz (1.0)
//   [perm]      kind = homogeneous|layered|lognormal|channelized
//               value (1.0) | low/high/thickness | sigma/seed/smoothing |
//               background/channel/count/seed
//   [wells]     injector_kind = pressure|rate (pressure);
//               injector_pressure (1.0), producer_pressure (0.0);
//               rate (1.0, total over the injector column, rate kind only)
//   [solver]    backend = host|host-pcg|dataflow (host-pcg),
//               tolerance (1e-18), max_iterations (100000),
//               sim_threads (1; 0 = usable CPUs),
//               verify (false; dataflow only: static program verification
//               before the run — see docs/static_verification.md)
//   [transient] enabled (false), dt (1.0), steps (10),
//               porosity (0.2), compressibility (1e-2),
//               resume (unset; checkpoint path to continue from — the
//               file must carry matching grid dims, a "pressure" field
//               and the "transient_step" counter run_scenario writes)
//   [output]    vtk (unset), checkpoint (unset), heatmap (false),
//               host_profile (unset; dataflow only: directory for the
//               host-side profiler bundle — see docs/observability.md,
//               "Host profiling")

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "fv/problem.hpp"

namespace fvdf::core {
struct CaseArtifacts;
}
namespace fvdf::telemetry {
class Session;
}

namespace fvdf::app {

enum class Backend : u8 { HostCg, HostPcg, Dataflow };

const char* to_string(Backend backend);

struct Scenario {
  // Shared so long-lived callers (the serve daemon's content-addressed
  // cache) can reuse one built problem — mesh, permeability and
  // transmissibilities — across many runs of the same case.
  std::shared_ptr<const FlowProblem> problem;

  Backend backend = Backend::HostPcg;
  f64 tolerance = 1e-18;
  u64 max_iterations = 100'000;
  // Worker threads for the dataflow fabric simulator (0 = the usable
  // CPUs, 1 = serial). Never changes results — see docs/simulator.md,
  // "Parallel execution model".
  u32 sim_threads = 1;
  // Dataflow backend only: run the static fabric verifier as a pre-flight
  // before every device solve (docs/static_verification.md).
  bool verify = false;

  bool transient = false;
  f64 dt = 1.0;
  i64 steps = 10;
  f64 porosity = 0.2;
  f64 compressibility = 1e-2;
  // Transient only: resume from this checkpoint (written by a previous
  // interrupted run of the *same* case — grid dims are validated, and
  // "transient_step" picks up the step counter where it left off).
  std::string resume_path;

  std::string vtk_path;
  std::string checkpoint_path;
  bool heatmap = false;
  // Dataflow backend only: attach the host-side execution profiler and
  // write host_profile.json + host_trace.json into this directory. For
  // transient runs the profile covers the last step's solve. Never changes
  // results (docs/observability.md, "Host profiling").
  std::string host_profile_dir;
};

/// Builds just the flow problem (mesh + geomodel + wells) from a parsed
/// config — the expensive, cacheable part of scenario_from_config. Throws
/// fvdf::Error with the offending key on any invalid setting.
std::shared_ptr<const FlowProblem> problem_from_config(const Config& config);

/// Builds a scenario from a parsed config. Throws fvdf::Error with the
/// offending key on any invalid setting; rejects unknown keys (typos must
/// not silently fall back to defaults). The second overload reuses an
/// already-built problem (the serve daemon's cache) instead of building
/// one; the caller is responsible for `problem` matching the config.
Scenario scenario_from_config(const Config& config);
Scenario scenario_from_config(const Config& config,
                              std::shared_ptr<const FlowProblem> problem);

/// Canonical solve-relevant parameter text for a case config: every key
/// that changes solve *results or compiled artifacts* — mesh, geomodel,
/// wells, backend, tolerances, transient schedule — resolved against the
/// schema defaults and emitted in a fixed order. Execution knobs that
/// never change results (solver.sim_threads, solver.verify, all output.*
/// keys, transient.resume) are excluded, so two spellings of the same
/// case canonicalize identically. This is the preimage of the serve
/// daemon's content-addressed cache key (docs/serving.md).
std::string canonical_case_text(const Config& config);

/// FNV-1a 64 of canonical_case_text, as 16 hex digits.
std::string case_fingerprint(const Config& config);

/// Optional long-lived-caller hooks for run_scenario. All fields default
/// to "off"; none of them ever changes solve results.
struct RunHooks {
  /// Transient runs only: called after every completed backward-Euler
  /// step with the global 0-based step index (resume offset included),
  /// the total step count, that step's linear iterations and the updated
  /// field. Return false to stop after this step — the outcome then
  /// reports interrupted=true, and a checkpoint (if configured) records
  /// the state so a later run can resume. Drivers route SIGINT/SIGTERM
  /// here so a kill finishes the current step and checkpoints instead of
  /// dying mid-write.
  std::function<bool(i64 step, i64 total_steps, u64 iterations,
                     const std::vector<f64>& state)>
      on_step;
  /// Cross-run compiled-artifact reuse (dataflow backend; see
  /// core::CaseArtifacts for the sharing contract).
  std::shared_ptr<core::CaseArtifacts> artifacts;
  /// Skip the verify preflight even when scenario.verify is set — the
  /// caller holds a cached VerifyReport proving this exact case clean.
  bool skip_verify = false;
  /// Steady dataflow runs: attach this telemetry session to the solve so
  /// the outcome carries the device-reported residual history. Caller
  /// owns the session; it is finalized by the solve.
  telemetry::Session* telemetry = nullptr;
};

struct ScenarioOutcome {
  bool converged = false;
  u64 iterations = 0; // total across steps for transient runs
  f64 residual_norm = 0;
  std::vector<f64> pressure;
  // Transient bookkeeping: completed global step count, and whether
  // RunHooks::on_step stopped the run before scenario.steps.
  i64 steps_completed = 0;
  bool interrupted = false;
  // Device-reported residual history (steady dataflow with
  // RunHooks::telemetry attached; empty otherwise).
  std::vector<f64> residual_history;
};

/// Runs the scenario, writes its artifacts, and logs a human summary.
ScenarioOutcome run_scenario(const Scenario& scenario, std::ostream& log,
                             const RunHooks* hooks = nullptr);

} // namespace fvdf::app
