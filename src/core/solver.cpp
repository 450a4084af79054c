#include "core/solver.hpp"

#include "analysis/host_annotate.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "core/bytecode_program.hpp"
#include "core/chebyshev_program.hpp"
#include "core/pe_program.hpp"
#include "fv/diagonal.hpp"
#include "telemetry/session.hpp"

namespace fvdf::core {

namespace {

// Face coefficient for cell (x,y,z) toward the given fabric direction:
// Upsilon (raw) or Upsilon * lambda_avg (fused). Fabric directions:
// West = x-1, East = x+1, South = y+1, North = y-1 (paper orientation).
struct CoefBuilder {
  const DiscreteSystem<f32>& sys;
  FluxMode mode;

  f32 lateral(i64 x, i64 y, i64 z, i64 dx, i64 dy) const {
    const i64 nx = sys.nx, ny = sys.ny;
    const i64 xn = x + dx, yn = y + dy;
    if (xn < 0 || xn >= nx || yn < 0 || yn >= ny) return 0.0f;
    f32 ups;
    if (dx != 0) {
      const i64 lo_x = std::min(x, xn);
      ups = sys.tx[static_cast<std::size_t>((z * ny + y) * (nx - 1) + lo_x)];
    } else {
      const i64 lo_y = std::min(y, yn);
      ups = sys.ty[static_cast<std::size_t>((z * (ny - 1) + lo_y) * nx + x)];
    }
    if (mode == FluxMode::OnTheFly) return ups;
    const auto k = static_cast<std::size_t>((z * ny + y) * nx + x);
    const auto l = static_cast<std::size_t>((z * ny + yn) * nx + xn);
    return ups * 0.5f * (sys.lambda[k] + sys.lambda[l]);
  }

  f32 vertical(i64 x, i64 y, i64 z) const {
    // Between (x,y,z) and (x,y,z+1).
    const i64 nx = sys.nx, ny = sys.ny;
    const f32 ups = sys.tz[static_cast<std::size_t>((z * ny + y) * nx + x)];
    if (mode == FluxMode::OnTheFly) return ups;
    const auto k = static_cast<std::size_t>((z * ny + y) * nx + x);
    const auto l = static_cast<std::size_t>(((z + 1) * ny + y) * nx + x);
    return ups * 0.5f * (sys.lambda[k] + sys.lambda[l]);
  }
};

} // namespace

PeInit build_pe_init(const FlowProblem& problem, const DiscreteSystem<f32>& sys,
                     i64 x, i64 y, FluxMode mode, const std::vector<f32>* minv,
                     const std::vector<f64>* p0_override) {
  const i64 nx = sys.nx, ny = sys.ny, nz = sys.nz;
  FVDF_CHECK(x >= 0 && x < nx && y >= 0 && y < ny);
  const CoefBuilder coef{sys, mode};

  PeInit init;
  init.cw.resize(static_cast<std::size_t>(nz));
  init.ce.resize(static_cast<std::size_t>(nz));
  init.cs.resize(static_cast<std::size_t>(nz));
  init.cn.resize(static_cast<std::size_t>(nz));
  if (nz > 1) init.cz.resize(static_cast<std::size_t>(nz - 1));
  init.p0.resize(static_cast<std::size_t>(nz));
  if (mode == FluxMode::OnTheFly) init.lambda.resize(static_cast<std::size_t>(nz));
  if (minv) init.minv.resize(static_cast<std::size_t>(nz));
  if (!sys.source.empty()) init.source.resize(static_cast<std::size_t>(nz));

  const std::vector<f64> p0 =
      p0_override ? *p0_override : problem.initial_pressure();
  FVDF_CHECK(p0.size() == static_cast<std::size_t>(sys.cell_count()));
  for (i64 z = 0; z < nz; ++z) {
    const auto zi = static_cast<std::size_t>(z);
    const auto k = static_cast<std::size_t>((z * ny + y) * nx + x);
    init.cw[zi] = coef.lateral(x, y, z, -1, 0);
    init.ce[zi] = coef.lateral(x, y, z, +1, 0);
    init.cs[zi] = coef.lateral(x, y, z, 0, +1); // fabric south = y+1
    init.cn[zi] = coef.lateral(x, y, z, 0, -1); // fabric north = y-1
    if (z < nz - 1) init.cz[zi] = coef.vertical(x, y, z);
    init.p0[zi] = static_cast<f32>(p0[k]);
    if (mode == FluxMode::OnTheFly) init.lambda[zi] = sys.lambda[k];
    if (minv) init.minv[zi] = (*minv)[k];
    if (!sys.source.empty()) init.source[zi] = sys.source[k];
    if (sys.dirichlet[k]) init.dirichlet_z.push_back(static_cast<u16>(z));
  }
  return init;
}

namespace {

// Shared host-side readback: walks every PE, re-plans its layout, and
// copies the solution delta + result scalars out of the arena.
DataflowResult read_back(wse::Fabric& fabric, const wse::Fabric::RunResult& run,
                         const FlowProblem& problem, const DiscreteSystem<f32>& sys,
                         FluxMode flux_mode, bool jacobi,
                         const wse::PeMemoryParams& mem_params,
                         const std::vector<f64>& initial_field) {
  const auto& mesh = problem.mesh();
  const i64 nx = mesh.nx(), ny = mesh.ny(), nz = mesh.nz();

  DataflowResult result;
  result.device_cycles = run.cycles;
  result.device_seconds = fabric.seconds(run.cycles);
  result.fabric = fabric.stats();
  result.counters = fabric.total_counters();

  const auto n = static_cast<std::size_t>(mesh.cell_count());
  result.delta.assign(n, 0.0f);
  result.pressure.assign(n, 0.0f);
  const std::vector<f64> p0 =
      initial_field.empty() ? problem.initial_pressure() : initial_field;

  bool first = true;
  for (i64 y = 0; y < ny; ++y) {
    for (i64 x = 0; x < nx; ++x) {
      u32 dcount = 0;
      for (i64 z = 0; z < nz; ++z)
        if (sys.dirichlet[static_cast<std::size_t>((z * ny + y) * nx + x)]) ++dcount;
      wse::PeMemory probe(mem_params.capacity_bytes, mem_params.reserved_bytes);
      const PeLayout layout = PeLayout::plan(probe, static_cast<u32>(nz), flux_mode,
                                             dcount, jacobi, !sys.source.empty());

      auto& mem = fabric.pe_memory(x, y);
      for (i64 z = 0; z < nz; ++z) {
        const auto k = static_cast<std::size_t>((z * ny + y) * nx + x);
        const f32 dz = mem.load(layout.ysol.offset_words + static_cast<u32>(z));
        result.delta[k] = dz;
        result.pressure[k] = static_cast<f32>(p0[k]) + dz;
      }
      if (first) {
        result.iterations = static_cast<u64>(mem.load(layout.result.offset_words));
        result.converged = mem.load(layout.result.offset_words + 1) != 0.0f;
        result.final_rr = mem.load(layout.result.offset_words + 2);
        first = false;
      }
    }
  }
  return result;
}

// Hooks the session's collector (and, at Level::Trace, its raw-event
// recorder) into the fabric. A session at Level::Off attaches nothing.
void attach_telemetry(wse::Fabric& fabric, telemetry::Session* session) {
  if (session == nullptr) return;
  fabric.set_telemetry(&session->collector());
  if (session->config().level == telemetry::Level::Trace) {
    fabric.set_trace([session](const wse::TraceRecord& record) {
      session->record_event(wse::to_string(record.event), record.cycles,
                            record.at.x, record.at.y, record.color,
                            record.words);
    });
  }
}

// Freezes the session after the run and copies the device-reported
// residual history into the result.
void finalize_telemetry(telemetry::Session* session,
                        const wse::Fabric::RunResult& run,
                        DataflowResult& result) {
  if (session == nullptr || !session->collector().enabled()) return;
  telemetry::RunInfo info;
  info.total_cycles = run.cycles;
  info.seconds = result.device_seconds;
  info.messages_sent = result.fabric.messages_sent;
  info.wavelet_hops = result.fabric.wavelet_hops;
  info.word_hops = result.fabric.word_hops;
  info.words_delivered = result.fabric.words_delivered;
  info.words_dropped = result.fabric.words_dropped;
  info.control_wavelets = result.fabric.control_wavelets;
  info.tasks_run = result.fabric.tasks_run;
  info.events_processed = result.fabric.events_processed;
  info.flits_stalled = result.fabric.flits_stalled;
  info.iterations = result.iterations;
  info.converged = result.converged;
  session->finalize(info);
  result.residual_history.reserve(session->collector().progress().size());
  for (const telemetry::ProgressSample& sample : session->collector().progress())
    result.residual_history.push_back(sample.value);
}

} // namespace

namespace {

/// Host-side state the CG program factory reads from (kept alive by the
/// caller for the factory's lifetime).
struct CgSetup {
  DiscreteSystem<f32> sys;
  std::vector<f32> minv; // Jacobi inverse diagonal; empty when off
  std::vector<f64> p0;   // initial field, materialized once per solve
};

CgSetup prepare_cg(const FlowProblem& problem, const DataflowConfig& config) {
  CgSetup setup{problem.discretize<f32>(), {}, {}};
  // Materialize the initial field once: build_pe_init is called per PE per
  // pass (verify + lookahead + load), and problem.initial_pressure()
  // allocates and fills a full cell-count vector each call.
  setup.p0 = config.initial_field.empty() ? problem.initial_pressure()
                                          : config.initial_field;
  // Jacobi preconditioner diagonal, with the backward-Euler shift folded
  // in (Dirichlet rows have diag 1 and take no shift).
  if (config.jacobi_precondition) {
    setup.minv = jacobian_diagonal(setup.sys);
    for (std::size_t i = 0; i < setup.minv.size(); ++i) {
      if (!setup.sys.dirichlet[i]) setup.minv[i] += config.diagonal_shift;
      FVDF_CHECK_MSG(setup.minv[i] > 0.0f, "non-positive diagonal at cell " << i);
      setup.minv[i] = 1.0f / setup.minv[i];
    }
  }
  return setup;
}

/// The bytecode-program cache a solve's factory hands every PE: the
/// caller's cross-solve CaseArtifacts cache when provided (created there
/// on first use), else a fresh per-solve cache — either way all PEs of a
/// solve share the handful of lowered programs (one per fabric-position
/// shape).
std::shared_ptr<ProgramCache>
solve_program_cache(const std::shared_ptr<CaseArtifacts>& artifacts) {
  if (!artifacts) return std::make_shared<ProgramCache>();
  static std::mutex init_mutex;
  std::lock_guard<std::mutex> lock(init_mutex);
  if (!artifacts->programs) artifacts->programs = std::make_shared<ProgramCache>();
  return artifacts->programs;
}

/// Lookahead planning with the CaseArtifacts memo: the planner is a
/// deterministic function of the program and the realized tile grid, so a
/// cached table is byte-identical to a fresh plan for the same fabric. A
/// one-shard fabric (every one-worker run with the automatic layout) has
/// no boundary to plan.
void install_lookahead(wse::Fabric& fabric, const wse::ProgramFactory& factory,
                       const std::shared_ptr<CaseArtifacts>& artifacts) {
  if (fabric.shard_count() <= 1) return;
  if (!artifacts) {
    fabric.set_channel_lookahead(fabric.plan_channel_lookahead(factory));
    return;
  }
  const std::pair<u32, u32> key{fabric.tile_rows(), fabric.tile_cols()};
  {
    std::lock_guard<std::mutex> lock(artifacts->mutex);
    const auto it = artifacts->lookahead.find(key);
    if (it != artifacts->lookahead.end()) {
      fabric.set_channel_lookahead(it->second);
      return;
    }
  }
  wse::ChannelLookahead table = fabric.plan_channel_lookahead(factory);
  fabric.set_channel_lookahead(table);
  std::lock_guard<std::mutex> lock(artifacts->mutex);
  artifacts->lookahead.emplace(key, std::move(table));
}

wse::ProgramFactory cg_factory(const FlowProblem& problem,
                               const DataflowConfig& config,
                               const CgSetup& setup) {
  auto cache = config.engine == SimEngine::Bytecode
                   ? solve_program_cache(config.artifacts)
                   : nullptr;
  return [&problem, &config, &setup,
          cache = std::move(cache)](wse::PeCoord coord)
             -> std::unique_ptr<wse::PeProgram> {
    CgPeConfig pe_config;
    pe_config.nz = static_cast<u32>(problem.mesh().nz());
    pe_config.mode = config.flux_mode;
    pe_config.max_iterations = config.max_iterations;
    pe_config.tolerance = config.tolerance;
    pe_config.jx_only = config.jx_only;
    pe_config.jacobi = config.jacobi_precondition;
    pe_config.diagonal_shift = config.diagonal_shift;
    pe_config.init = build_pe_init(problem, setup.sys, coord.x, coord.y,
                                   config.flux_mode,
                                   config.jacobi_precondition ? &setup.minv
                                                              : nullptr,
                                   &setup.p0);
    if (cache)
      return std::make_unique<BytecodeCgProgram>(
          std::move(pe_config), coord, problem.mesh().nx(),
          problem.mesh().ny(), config.memory, cache);
    return std::make_unique<CgPeProgram>(std::move(pe_config));
  };
}

} // namespace

DataflowResult solve_dataflow(const FlowProblem& problem, const DataflowConfig& config) {
  const auto& mesh = problem.mesh();
  const i64 nx = mesh.nx(), ny = mesh.ny(), nz = mesh.nz();
  FVDF_CHECK_MSG(nz <= 0xffff, "column depth exceeds u16 Dirichlet index range");

  const CgSetup setup = prepare_cg(problem, config);
  const auto& sys = setup.sys;
  const wse::ProgramFactory factory = cg_factory(problem, config, setup);

  wse::Fabric fabric(nx, ny, config.timing, config.memory, config.shard_grid);
  fabric.set_threads(config.sim_threads);
  if (config.verify_preflight) {
    const analysis::VerifyReport report = fabric.verify(factory);
    FVDF_CHECK_MSG(report.ok(),
                   "static verification rejected the CG device program:\n"
                       << report.summary());
  }
  install_lookahead(fabric, factory, config.artifacts);
  attach_telemetry(fabric, config.telemetry);
  fabric.set_host_profiler(config.host_profiler);
  fabric.load(factory);

  const auto run = fabric.run(config.max_cycles);
  if (config.host_profiler != nullptr)
    analysis::annotate_host_profile(*config.host_profiler, fabric);
  FVDF_CHECK_MSG(run.all_halted,
                 "dataflow solve did not complete: " << (run.hit_cycle_limit
                                                             ? "cycle limit hit"
                                                             : "fabric deadlocked"));

  DataflowResult result =
      read_back(fabric, run, problem, sys, config.flux_mode,
                config.jacobi_precondition, config.memory, config.initial_field);
  finalize_telemetry(config.telemetry, run, result);
  FVDF_LOG(Debug) << "dataflow solve: " << result.iterations << " iterations, "
                  << (result.converged ? "converged" : "NOT converged")
                  << ", device time " << result.device_seconds << " s";
  return result;
}

namespace {

/// Host-side state the Chebyshev factory reads from (see CgSetup).
struct ChebSetup {
  DiscreteSystem<f32> sys;
  std::vector<f64> p0;
};

ChebSetup prepare_chebyshev(const FlowProblem& problem,
                            const ChebyshevDeviceConfig& config) {
  ChebSetup setup{problem.discretize<f32>(), {}};
  setup.p0 = config.initial_field.empty() ? problem.initial_pressure()
                                          : config.initial_field;
  return setup;
}

wse::ProgramFactory chebyshev_factory(const FlowProblem& problem,
                                      const ChebyshevDeviceConfig& config,
                                      const ChebSetup& setup) {
  const DiscreteSystem<f32>& sys = setup.sys;
  auto cache = config.engine == SimEngine::Bytecode
                   ? solve_program_cache(config.artifacts)
                   : nullptr;
  return [&problem, &config, &sys, &setup,
          cache = std::move(cache)](wse::PeCoord coord)
             -> std::unique_ptr<wse::PeProgram> {
    ChebyshevPeConfig pe_config;
    pe_config.nz = static_cast<u32>(problem.mesh().nz());
    pe_config.mode = config.flux_mode;
    pe_config.max_iterations = config.max_iterations;
    pe_config.tolerance = config.tolerance;
    pe_config.check_every = config.check_every;
    pe_config.lambda_min = static_cast<f32>(config.bounds.lambda_min);
    pe_config.lambda_max = static_cast<f32>(config.bounds.lambda_max);
    pe_config.diagonal_shift = config.diagonal_shift;
    pe_config.init = build_pe_init(problem, sys, coord.x, coord.y, config.flux_mode,
                                   nullptr, &setup.p0);
    if (cache)
      return std::make_unique<BytecodeChebyshevProgram>(
          std::move(pe_config), coord, problem.mesh().nx(),
          problem.mesh().ny(), config.memory, cache);
    return std::make_unique<ChebyshevPeProgram>(std::move(pe_config));
  };
}

} // namespace

DataflowResult solve_dataflow_chebyshev(const FlowProblem& problem,
                                        const ChebyshevDeviceConfig& config) {
  const auto& mesh = problem.mesh();
  FVDF_CHECK_MSG(mesh.nz() <= 0xffff, "column depth exceeds u16 index range");
  const ChebSetup setup = prepare_chebyshev(problem, config);
  const auto& sys = setup.sys;
  const wse::ProgramFactory factory = chebyshev_factory(problem, config, setup);

  wse::Fabric fabric(mesh.nx(), mesh.ny(), config.timing, config.memory,
                     config.shard_grid);
  fabric.set_threads(config.sim_threads);
  if (config.verify_preflight) {
    const analysis::VerifyReport report = fabric.verify(factory);
    FVDF_CHECK_MSG(
        report.ok(),
        "static verification rejected the Chebyshev device program:\n"
            << report.summary());
  }
  install_lookahead(fabric, factory, config.artifacts);
  attach_telemetry(fabric, config.telemetry);
  fabric.set_host_profiler(config.host_profiler);
  fabric.load(factory);

  const auto run = fabric.run(config.max_cycles);
  if (config.host_profiler != nullptr)
    analysis::annotate_host_profile(*config.host_profiler, fabric);
  FVDF_CHECK_MSG(run.all_halted, "Chebyshev device solve did not complete");
  DataflowResult result =
      read_back(fabric, run, problem, sys, config.flux_mode, /*jacobi=*/false,
                config.memory, config.initial_field);
  finalize_telemetry(config.telemetry, run, result);
  return result;
}

analysis::VerifyReport verify_dataflow(const FlowProblem& problem,
                                       const DataflowConfig& config) {
  const auto& mesh = problem.mesh();
  FVDF_CHECK_MSG(mesh.nz() <= 0xffff, "column depth exceeds u16 index range");
  const CgSetup setup = prepare_cg(problem, config);
  return analysis::verify_program(mesh.nx(), mesh.ny(),
                                  cg_factory(problem, config, setup),
                                  config.memory);
}

LookaheadPlan plan_dataflow_lookahead(const FlowProblem& problem,
                                      const DataflowConfig& config) {
  const auto& mesh = problem.mesh();
  FVDF_CHECK_MSG(mesh.nz() <= 0xffff, "column depth exceeds u16 index range");
  const CgSetup setup = prepare_cg(problem, config);
  const wse::ProgramFactory factory = cg_factory(problem, config, setup);
  wse::Fabric fabric(mesh.nx(), mesh.ny(), config.timing, config.memory,
                     config.shard_grid);
  fabric.set_threads(config.sim_threads);
  LookaheadPlan plan;
  plan.shard_count = static_cast<u32>(fabric.shard_count());
  plan.tile_rows = fabric.tile_rows();
  plan.tile_cols = fabric.tile_cols();
  plan.bytecode =
      fabric.plan_channel_lookahead(factory, wse::LookaheadSource::Bytecode);
  plan.manifest = fabric.plan_channel_lookahead(
      factory, wse::LookaheadSource::ManifestOnly);
  return plan;
}

analysis::VerifyReport verify_dataflow_chebyshev(
    const FlowProblem& problem, const ChebyshevDeviceConfig& config) {
  const auto& mesh = problem.mesh();
  FVDF_CHECK_MSG(mesh.nz() <= 0xffff, "column depth exceeds u16 index range");
  const ChebSetup setup = prepare_chebyshev(problem, config);
  return analysis::verify_program(mesh.nx(), mesh.ny(),
                                  chebyshev_factory(problem, config, setup),
                                  config.memory);
}

DataflowTransientResult solve_transient_dataflow(const FlowProblem& problem,
                                                 f64 dt, i64 steps, f64 porosity,
                                                 f64 total_compressibility,
                                                 DataflowConfig config,
                                                 const TransientStepFn& on_step) {
  FVDF_CHECK(dt > 0 && steps >= 1);
  const f64 sigma =
      porosity * total_compressibility * problem.mesh().cell_volume() / dt;
  config.diagonal_shift = static_cast<f32>(sigma);
  config.jx_only = false;
  // Every step solves the same lowered programs against a new initial
  // field, so the steps of one run always share artifacts — the caller's
  // cross-run cache when provided, else a run-local one.
  if (!config.artifacts) config.artifacts = std::make_shared<CaseArtifacts>();

  DataflowTransientResult result;
  std::vector<f64> state = config.initial_field.empty()
                               ? problem.initial_pressure()
                               : config.initial_field;
  for (i64 step = 0; step < steps; ++step) {
    config.initial_field = state;
    const DataflowResult solve = solve_dataflow(problem, config);
    result.iterations_per_step.push_back(solve.iterations);
    result.all_converged = result.all_converged && solve.converged;
    result.total_device_seconds += solve.device_seconds;
    for (std::size_t i = 0; i < state.size(); ++i)
      state[i] = static_cast<f64>(solve.pressure[i]);
    result.pressure = solve.pressure;
    result.steps_completed = step + 1;
    if (on_step && !on_step(step, solve)) {
      result.interrupted = step + 1 < steps;
      break;
    }
  }
  return result;
}

} // namespace fvdf::core
