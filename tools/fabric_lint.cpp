// fabric_lint — static verification of WSE device programs from the
// command line (docs/static_verification.md). Modes:
//
//   ./tools/fabric_lint                       # built-in suite: the four
//                                             # shipped CSL collectives
//   ./tools/fabric_lint --fabric 40x40        # same suite, other shape
//   ./tools/fabric_lint --scenario case.ini   # the device program a
//                                             # dataflow scenario would load
//   ./tools/fabric_lint --deep                # suite + every CG/Chebyshev
//                                             # device-program variant, with
//                                             # full bytecode abstract
//                                             # interpretation + balance
//   ./tools/fabric_lint --demo-defects        # seeded-defect programs, to
//                                             # see the diagnostics fire
//   ./tools/fabric_lint --dump-program        # disassemble every distinct
//                                             # CG/Chebyshev bytecode program
//                                             # the fabric would load
//   ./tools/fabric_lint --dump-cfg            # control-flow graph + per-
//                                             # handler cost bounds instead
//
// `--format json` switches suite/scenario/deep/demo output to one JSON
// object with a findings array (program, check, severity, pe, color, pc,
// message) for CI consumption.
//
// Exit status: 0 when every verified program is clean (for --demo-defects:
// when every defect is correctly rejected), 1 on verification errors, 2 on
// usage / setup errors.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/abstract_interp.hpp"
#include "analysis/fixtures.hpp"
#include "analysis/verifier.hpp"
#include "app/scenario.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "core/bytecode_program.hpp"
#include "core/solver.hpp"
#include "fv/problem.hpp"
#include "telemetry/json.hpp"
#include "wse/bytecode.hpp"

using namespace fvdf;

namespace {

void usage() {
  std::cerr
      << "usage: fabric_lint [--fabric WxH] [--nz N] [--format json]\n"
         "       fabric_lint --scenario <case.ini> [--format json]\n"
         "       fabric_lint --deep [--fabric WxH] [--nz N] [--format json]\n"
         "       fabric_lint --demo-defects [--format json]\n"
         "       fabric_lint --dump-program [--fabric WxH] [--nz N]\n"
         "       fabric_lint --dump-cfg [--fabric WxH] [--nz N]\n";
}

// ---------- JSON output (--format json) ----------

/// One finding row of the JSON report: the diagnostic plus which lint
/// target (program under verification) produced it.
struct JsonSink {
  bool enabled = false;
  std::ostringstream rows;
  u64 count = 0;

  void add(const std::string& target, const analysis::Diagnostic& diag) {
    if (!enabled) return;
    telemetry::JsonWriter row;
    row.begin_object()
        .kv("program", target)
        .kv("check", analysis::to_string(diag.check))
        .kv("severity",
            diag.severity == analysis::Severity::Error ? "error" : "warning");
    row.key("pe").begin_array().value(diag.pe.x).value(diag.pe.y).end_array();
    row.kv("color", static_cast<i32>(diag.color))
        .kv("pc", diag.pc)
        .kv("message", diag.message)
        .end_object();
    rows << (count++ ? ",\n" : "\n") << "    " << row.take();
  }

  void finish(bool ok, u64 programs) const {
    std::cout << "{\n  \"ok\": " << (ok ? "true" : "false")
              << ",\n  \"programs_verified\": " << programs
              << ",\n  \"findings\": [" << rows.str()
              << (count ? "\n  " : "") << "]\n}\n";
  }
};

/// Verifies one named program; prints its report (human mode) or appends
/// findings (JSON mode); returns ok().
bool lint(const std::string& name, i64 width, i64 height,
          const wse::ProgramFactory& factory, JsonSink& json) {
  const auto report = analysis::verify_program(width, height, factory);
  if (json.enabled) {
    for (const auto& diag : report.diagnostics) json.add(name, diag);
  } else {
    std::cout << "--- " << name << " on " << width << "x" << height
              << " ---\n" << report.summary() << '\n';
  }
  return report.ok();
}

bool lint_collectives(i64 width, i64 height, u32 nz, JsonSink& json,
                      u64& programs) {
  namespace fx = analysis::fixtures;
  bool ok = true;
  ok &= lint("halo exchange", width, height, fx::halo_program(nz), json);
  ok &= lint("all-reduce", width, height, fx::allreduce_program(), json);
  ok &= lint("eastward exchange", width, height, fx::eastward_program(nz),
             json);
  const wse::PeCoord source{width / 2, height / 2};
  ok &= lint("any-source broadcast (root " + std::to_string(source.x) + "," +
                 std::to_string(source.y) + ")",
             width, height, fx::any_source_program(source, nz), json);
  programs += 4;
  return ok;
}

int lint_suite(i64 width, i64 height, u32 nz, JsonSink& json) {
  u64 programs = 0;
  const bool ok = lint_collectives(width, height, nz, json, programs);
  if (json.enabled) {
    json.finish(ok, programs);
  } else {
    std::cout << (ok ? "fabric_lint: all programs verified clean\n"
                     : "fabric_lint: FAIL — see diagnostics above\n");
  }
  return ok ? 0 : 1;
}

// ---------- --deep: every shipped device-program variant ----------

/// Verifies the four collectives plus every CG / Chebyshev device-program
/// variant the solver can load — both flux modes, Jacobi on and off — on a
/// heterogeneous problem (Dirichlet wells, lognormal permeability), so the
/// sweep covers every lowering shape: coordinate parities, fabric edges
/// and Dirichlet columns. "Clean" means zero errors; the known
/// send-overlap hardware-faithfulness warnings are reported but don't
/// gate (see docs/static_verification.md).
int lint_deep(i64 width, i64 height, u32 nz, JsonSink& json) {
  u64 programs = 0;
  bool ok = lint_collectives(width, height, nz, json, programs);

  const auto problem = FlowProblem::quarter_five_spot(
      width, height, nz, /*seed=*/3, /*dirichlet_fraction=*/0.8);
  struct CgVariant {
    const char* name;
    core::FluxMode mode;
    bool jacobi;
  };
  const CgVariant cg_variants[] = {
      {"cg fused", core::FluxMode::Fused, false},
      {"cg on-the-fly", core::FluxMode::OnTheFly, false},
      {"cg fused + jacobi", core::FluxMode::Fused, true},
      {"cg on-the-fly + jacobi", core::FluxMode::OnTheFly, true},
  };
  for (const auto& variant : cg_variants) {
    core::DataflowConfig config;
    config.flux_mode = variant.mode;
    config.jacobi_precondition = variant.jacobi;
    config.tolerance = 1e-6f;
    const auto report = core::verify_dataflow(problem, config);
    ++programs;
    if (json.enabled) {
      for (const auto& diag : report.diagnostics) json.add(variant.name, diag);
    } else {
      std::cout << "--- " << variant.name << " on " << width << "x" << height
                << " (nz " << nz << ") ---\n" << report.summary() << '\n';
    }
    ok &= report.ok();
  }

  const struct {
    const char* name;
    core::FluxMode mode;
  } cheb_variants[] = {
      {"chebyshev fused", core::FluxMode::Fused},
      {"chebyshev on-the-fly", core::FluxMode::OnTheFly},
  };
  for (const auto& variant : cheb_variants) {
    core::ChebyshevDeviceConfig config;
    config.flux_mode = variant.mode;
    config.tolerance = 1e-6f;
    config.bounds = {0.05, 12.0};
    const auto report = core::verify_dataflow_chebyshev(problem, config);
    ++programs;
    if (json.enabled) {
      for (const auto& diag : report.diagnostics) json.add(variant.name, diag);
    } else {
      std::cout << "--- " << variant.name << " on " << width << "x" << height
                << " (nz " << nz << ") ---\n" << report.summary() << '\n';
    }
    ok &= report.ok();
  }

  if (json.enabled) {
    json.finish(ok, programs);
  } else {
    std::cout << (ok ? "fabric_lint: all programs verified clean (deep)\n"
                     : "fabric_lint: FAIL — see diagnostics above\n");
  }
  return ok ? 0 : 1;
}

int lint_scenario(const std::string& path, JsonSink& json) {
  const auto config = Config::parse_file(path);
  const auto scenario = app::scenario_from_config(config);
  if (scenario.backend != app::Backend::Dataflow) {
    std::cerr << "error: scenario backend is " << to_string(scenario.backend)
              << "; only dataflow scenarios have a device program to verify\n";
    return 2;
  }
  core::DataflowConfig device;
  device.tolerance = static_cast<f32>(scenario.tolerance);
  device.max_iterations = scenario.max_iterations;
  device.jacobi_precondition = scenario.transient;
  const auto report = core::verify_dataflow(*scenario.problem, device);
  if (json.enabled) {
    for (const auto& diag : report.diagnostics)
      json.add("CG device program (" + path + ")", diag);
    json.finish(report.ok(), 1);
  } else {
    std::cout << "--- CG device program for " << path << " ---\n"
              << report.summary() << '\n';
  }
  return report.ok() ? 0 : 1;
}

/// Each seeded defect must be rejected — and by at least one diagnostic of
/// its advertised check and severity — for the demo to "pass".
int demo_defects(JsonSink& json) {
  namespace fx = analysis::fixtures;
  struct Demo {
    const char* name;
    analysis::Check check;
    analysis::Severity severity;
    i64 width, height;
    wse::ProgramFactory factory;
  };
  const Demo demos[] = {
      {"edge route", analysis::Check::RouteCompleteness,
       analysis::Severity::Error, 3, 1, fx::edge_route_defect()},
      {"credit cycle", analysis::Check::DeadlockFreedom,
       analysis::Severity::Error, 2, 1, fx::credit_cycle_defect()},
      {"missing handler", analysis::Check::DeliveryLiveness,
       analysis::Severity::Error, 2, 1, fx::missing_handler_defect()},
      {"arena overflow", analysis::Check::MemoryBudget,
       analysis::Severity::Error, 1, 1, fx::arena_overflow_defect()},
      {"bytecode out-of-bounds span", analysis::Check::BytecodeMemory,
       analysis::Severity::Error, 1, 1, fx::bc_oob_span_defect()},
      {"bytecode unset continuation", analysis::Check::BytecodeLiveness,
       analysis::Severity::Error, 1, 1, fx::bc_unset_continuation_defect()},
      {"bytecode unbounded loop", analysis::Check::BytecodeCost,
       analysis::Severity::Error, 1, 1, fx::bc_unbounded_loop_defect()},
      {"bytecode send overlap", analysis::Check::BytecodeMemory,
       analysis::Severity::Warning, 1, 1, fx::bc_send_overlap_defect()},
      {"bytecode unbalanced send", analysis::Check::SendRecvBalance,
       analysis::Severity::Error, 2, 1, fx::bc_unbalanced_send_defect()},
  };
  bool ok = true;
  u64 programs = 0;
  for (const auto& demo : demos) {
    const auto report =
        analysis::verify_program(demo.width, demo.height, demo.factory);
    ++programs;
    if (json.enabled) {
      for (const auto& diag : report.diagnostics)
        json.add(std::string("seeded defect: ") + demo.name, diag);
    } else {
      std::cout << "--- seeded defect: " << demo.name << " ---\n"
                << report.summary() << '\n';
    }
    bool tripped = false;
    for (const auto& diag : report.diagnostics)
      tripped |= diag.check == demo.check && diag.severity == demo.severity;
    if (!tripped) {
      std::cout << "UNEXPECTED: defect was not rejected by "
                << analysis::to_string(demo.check) << '\n';
      ok = false;
    }
  }
  if (json.enabled) {
    json.finish(ok, programs);
  } else {
    std::cout << (ok ? "fabric_lint: all seeded defects correctly rejected\n"
                     : "fabric_lint: FAIL — a defect slipped through\n");
  }
  return ok ? 0 : 1;
}

/// Disassembles (or, with `cfg`, dumps the control-flow graph and
/// per-handler cost bounds of) every distinct bytecode program a WxH
/// solve would load. PEs whose lowering inputs coincide share one Program
/// (the same ProgramCache::key_for dedup the solver uses), so the dump
/// lists each shape once with a representative coordinate. Static lint
/// diagnostics for the encoding itself gate the exit status.
int dump_programs(i64 width, i64 height, u32 nz, bool cfg) {
  const wse::PeMemoryParams mem;
  bool ok = true;

  struct Lowering {
    const char* name;
    std::function<std::shared_ptr<const wse::bc::Program>(
        const core::LoweringSite&)> lower;
  };
  core::CgPeConfig cg;
  cg.nz = nz;
  cg.tolerance = 1e-6f;
  core::ChebyshevPeConfig cheb;
  cheb.nz = nz;
  cheb.tolerance = 1e-6f;
  cheb.lambda_min = 0.05f;
  cheb.lambda_max = 12.0f;
  const Lowering lowerings[] = {
      {"cg", [&](const core::LoweringSite& s) { return core::lower_cg(cg, s); }},
      {"chebyshev", [&](const core::LoweringSite& s) {
         return core::lower_chebyshev(cheb, s);
       }}};

  for (const auto& lowering : lowerings) {
    std::map<core::ProgramCache::Key, wse::PeCoord> distinct;
    for (i64 y = 0; y < height; ++y)
      for (i64 x = 0; x < width; ++x) {
        const auto site = core::plan_site({x, y}, width, height, mem, nz,
                                          core::FluxMode::Fused,
                                          /*dirichlet_count=*/0,
                                          /*jacobi=*/false,
                                          /*with_source=*/false);
        distinct.emplace(core::ProgramCache::key_for(site), site.coord);
      }
    for (const auto& [key, coord] : distinct) {
      const auto site = core::plan_site(coord, width, height, mem, nz,
                                        core::FluxMode::Fused, 0, false, false);
      const auto program = lowering.lower(site);
      std::cout << "--- " << lowering.name << " bytecode @ PE (" << coord.x
                << ", " << coord.y << ") on " << width << "x" << height
                << " ---\n";
      if (cfg) {
        const auto analysis = analysis::analyze_program(*program);
        std::cout << analysis::dump_cfg(analysis.cfg, *program)
                  << analysis.summary(program->name);
      } else {
        std::cout << wse::bc::disassemble(*program);
      }
      const auto issues = wse::bc::lint_program(*program);
      for (const auto& issue : issues) std::cout << "lint: " << issue << '\n';
      ok &= issues.empty();
      std::cout << '\n';
    }
    std::cout << lowering.name << ": " << distinct.size()
              << " distinct program(s) on " << width << "x" << height << "\n\n";
  }
  std::cout << (ok ? "fabric_lint: all dumped programs lint clean\n"
                   : "fabric_lint: FAIL — lint diagnostics above\n");
  return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  i64 width = 4;
  i64 height = 4;
  i64 nz = 8;
  std::string scenario_path;
  std::string format;
  bool defects = false;
  bool dump = false;
  bool dump_cfg = false;
  bool deep = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fabric" && i + 1 < argc) {
      const char* text = argv[++i];
      if (!parse_extent(text, width, height)) {
        std::cerr << "error: --fabric expects WxH with W, H >= 1, got '" << text
                  << "'\n";
        usage();
        return 2;
      }
    } else if (arg == "--nz" && i + 1 < argc) {
      const char* text = argv[++i];
      if (!parse_whole(text, nz) || nz < 1) {
        std::cerr << "error: --nz expects a depth >= 1, got '" << text << "'\n";
        usage();
        return 2;
      }
    } else if (arg == "--scenario" && i + 1 < argc) {
      scenario_path = argv[++i];
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
      if (format != "json" && format != "text") {
        std::cerr << "error: --format expects json or text\n";
        return 2;
      }
    } else if (arg == "--demo-defects") {
      defects = true;
    } else if (arg == "--dump-program") {
      dump = true;
    } else if (arg == "--dump-cfg") {
      dump_cfg = true;
    } else if (arg == "--deep") {
      deep = true;
    } else {
      usage();
      return 2;
    }
  }
  JsonSink json;
  json.enabled = format == "json";
  try {
    if (defects) return demo_defects(json);
    if (dump || dump_cfg) {
      return dump_programs(width, height, static_cast<u32>(nz), dump_cfg);
    }
    if (!scenario_path.empty()) return lint_scenario(scenario_path, json);
    if (deep) return lint_deep(width, height, static_cast<u32>(nz), json);
    return lint_suite(width, height, static_cast<u32>(nz), json);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
