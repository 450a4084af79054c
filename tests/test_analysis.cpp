// Static fabric-program verifier tests (src/analysis/): every shipped CSL
// collective verifies clean across fabric shapes (including degenerate
// ones), each seeded defect is rejected with exactly the diagnostic its
// check advertises, and the solver-facing entry points (verify_dataflow,
// Fabric::verify, the solve_dataflow pre-flight) agree with the simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "analysis/abstract_interp.hpp"
#include "analysis/cfg.hpp"
#include "analysis/fixtures.hpp"
#include "analysis/lookahead.hpp"
#include "analysis/verifier.hpp"
#include "common/error.hpp"
#include "core/bytecode_program.hpp"
#include "core/solver.hpp"
#include "fv/operator.hpp"
#include "fv/problem.hpp"
#include "solver/chebyshev.hpp"
#include "wse/bytecode.hpp"
#include "wse/fabric.hpp"
#include "wse/router.hpp"

#include "golden_digest.hpp"

namespace fvdf {
namespace {

using analysis::Check;
using analysis::Diagnostic;
using analysis::Severity;
using analysis::VerifyReport;
using analysis::verify_program;
namespace fixtures = analysis::fixtures;

bool has_error(const VerifyReport& report, Check check,
               const std::string& needle) {
  for (const Diagnostic& diag : report.diagnostics)
    if (diag.check == check && diag.severity == Severity::Error &&
        diag.message.find(needle) != std::string::npos)
      return true;
  return false;
}

// ---------- known-good collectives across fabric shapes ----------

struct Shape {
  i64 width, height;
};
// Degenerate rows/columns and single PEs are exactly where edge clipping
// and the width/height guards in the manifests can go wrong.
constexpr Shape kShapes[] = {{1, 1}, {2, 1}, {1, 2}, {4, 1},
                             {1, 4}, {2, 2}, {3, 5}, {8, 8}};

TEST(VerifyCollectives, HaloExchangeCleanOnAllShapes) {
  for (const auto [w, h] : kShapes) {
    const auto report = verify_program(w, h, fixtures::halo_program(6));
    EXPECT_TRUE(report.ok()) << w << "x" << h << ":\n" << report.summary();
  }
}

TEST(VerifyCollectives, AllReduceCleanOnAllShapes) {
  for (const auto [w, h] : kShapes) {
    const auto report = verify_program(w, h, fixtures::allreduce_program());
    EXPECT_TRUE(report.ok()) << w << "x" << h << ":\n" << report.summary();
  }
}

TEST(VerifyCollectives, EastwardExchangeCleanOnAllShapes) {
  for (const auto [w, h] : kShapes) {
    const auto report = verify_program(w, h, fixtures::eastward_program());
    EXPECT_TRUE(report.ok()) << w << "x" << h << ":\n" << report.summary();
    EXPECT_GT(report.bytecode_programs, 0u) << w << "x" << h;
  }
}

TEST(VerifyCollectives, AnySourceCleanOnAllShapesAndRoots) {
  for (const auto [w, h] : kShapes) {
    for (const wse::PeCoord root :
         {wse::PeCoord{0, 0}, wse::PeCoord{w - 1, h - 1},
          wse::PeCoord{w / 2, h / 2}}) {
      const auto report =
          verify_program(w, h, fixtures::any_source_program(root));
      EXPECT_TRUE(report.ok()) << w << "x" << h << " root (" << root.x << ", "
                               << root.y << "):\n" << report.summary();
      EXPECT_GT(report.bytecode_programs, 0u) << w << "x" << h;
    }
  }
}

TEST(VerifyCollectives, ReportCountsCoverTheFabric) {
  const auto report = verify_program(4, 4, fixtures::halo_program(4));
  EXPECT_EQ(report.width, 4);
  EXPECT_EQ(report.height, 4);
  // Four halo colors injected everywhere; the trace walks real state.
  EXPECT_EQ(report.colors_traced, 4u);
  EXPECT_GT(report.routes_checked, 0u);
  EXPECT_GT(report.cdg_nodes, 0u);
  // Edge-clipped sends become deliberate null-route sinks, not errors.
  EXPECT_GT(report.null_route_sinks, 0u);
  EXPECT_GT(report.memory_high_water_bytes, 0u);
  EXPECT_LE(report.memory_high_water_bytes,
            report.memory_capacity_bytes - report.memory_reserved_bytes);
}

// ---------- seeded defects: one specific diagnostic each ----------

TEST(VerifyDefects, EdgeRouteExitsFabric) {
  const auto report = verify_program(3, 1, fixtures::edge_route_defect());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_error(report, Check::RouteCompleteness,
                        "exits the East fabric edge at PE (2, 0)"))
      << report.summary();
}

TEST(VerifyDefects, CreditCycleReportsCycleWalk) {
  const auto report = verify_program(2, 1, fixtures::credit_cycle_defect());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_error(report, Check::DeadlockFreedom,
                        "channel-dependency cycle on color 5"))
      << report.summary();
  // The walk names both PEs and the exit directions of the cycle.
  EXPECT_TRUE(has_error(report, Check::DeadlockFreedom,
                        "PE (1, 0) --West--> PE (0, 0) --East--> PE (1, 0)"))
      << report.summary();
}

TEST(VerifyDefects, MissingHandlerAtDeliveryPe) {
  const auto report = verify_program(2, 1, fixtures::missing_handler_defect());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_error(report, Check::DeliveryLiveness,
                        "no recv or task handler"))
      << report.summary();
}

TEST(VerifyDefects, ArenaOverflowIsMemoryBudget) {
  const auto report = verify_program(1, 1, fixtures::arena_overflow_defect());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_error(report, Check::MemoryBudget, "PE memory overflow"))
      << report.summary();
  // The overflow is reported per PE, not silently re-thrown.
  EXPECT_EQ(report.error_count(), 1u);
}

TEST(VerifyDefects, DefectsScaleWithFabric) {
  // On a wider fabric the missing-handler defect fires on every odd column.
  const auto report = verify_program(4, 2, fixtures::missing_handler_defect());
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.error_count(), 4u) << report.summary();
}

// ---------- custom programs: switch liveness + diagnostics plumbing ----------

/// Two switch positions but nobody ever advances the color; the
/// injection is a control wavelet in a handler that never runs.
std::unique_ptr<wse::PeProgram> stuck_switch_program() {
  return std::make_unique<wse::PeProgram>([](wse::ImageBuilder& ctx) {
    wse::ColorConfig config;
    config.positions = {
        wse::SwitchPosition{wse::DirMask::of(wse::Dir::Ramp), {}},
        wse::SwitchPosition{wse::DirMask::of(wse::Dir::Ramp), {}}};
    ctx.configure_router(7, config);
    wse::bc::Builder b("stuck-switch");
    const auto handler = b.make_label();
    b.seth(24, handler);
    b.ret();
    b.bind(handler);
    b.send_control(7, 0);
    b.ret();
    return std::make_shared<const wse::bc::Program>(b.finish());
  });
}

TEST(VerifySwitchLiveness, UnadvancedMultiPositionColorIsAnError) {
  const auto report = verify_program(
      1, 1, [](wse::PeCoord) { return stuck_switch_program(); });
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_error(report, Check::SwitchLiveness, "advance"))
      << report.summary();
}

TEST(VerifyDiagnostics, FormatNamesCheckColorAndPe) {
  const auto report = verify_program(2, 1, fixtures::credit_cycle_defect());
  ASSERT_FALSE(report.diagnostics.empty());
  const std::string line = report.diagnostics.front().format();
  EXPECT_NE(line.find("error[deadlock-freedom]"), std::string::npos) << line;
  EXPECT_NE(line.find("color 5"), std::string::npos) << line;
  EXPECT_NE(line.find("at PE ("), std::string::npos) << line;
}

TEST(VerifyDiagnostics, SummaryLeadsWithVerdict) {
  const auto good = verify_program(2, 2, fixtures::allreduce_program());
  EXPECT_EQ(good.summary().find("fabric verify 2x2: OK"), 0u);
  const auto bad = verify_program(1, 1, fixtures::arena_overflow_defect());
  EXPECT_EQ(bad.summary().find("fabric verify 1x1: FAIL"), 0u);
}

TEST(VerifyApi, RejectsNonPositiveFabric) {
  EXPECT_THROW(verify_program(0, 4, fixtures::allreduce_program()), Error);
  EXPECT_THROW(verify_program(4, -1, fixtures::allreduce_program()), Error);
}

// ---------- solver-facing entry points ----------

TEST(VerifyFabricMember, MatchesFreeFunction) {
  const wse::Fabric fabric(3, 2);
  const auto via_member = fabric.verify(fixtures::halo_program(4));
  const auto via_free = verify_program(3, 2, fixtures::halo_program(4));
  EXPECT_TRUE(via_member.ok()) << via_member.summary();
  EXPECT_EQ(via_member.routes_checked, via_free.routes_checked);
  EXPECT_EQ(via_member.cdg_edges, via_free.cdg_edges);
  EXPECT_EQ(via_member.memory_high_water_bytes,
            via_free.memory_high_water_bytes);
}

TEST(VerifyDataflow, CgDeviceProgramIsClean) {
  const auto problem = FlowProblem::quarter_five_spot(6, 5, 4, /*seed=*/3, 0.8);
  for (const bool jacobi : {false, true}) {
    core::DataflowConfig config;
    config.jacobi_precondition = jacobi;
    const auto report = core::verify_dataflow(problem, config);
    EXPECT_TRUE(report.ok()) << "jacobi=" << jacobi << ":\n" << report.summary();
    EXPECT_GT(report.colors_traced, 0u);
  }
}

TEST(VerifyDataflow, ChebyshevDeviceProgramIsClean) {
  const auto problem = FlowProblem::quarter_five_spot(5, 4, 4, /*seed=*/9, 0.8);
  const auto sys = problem.discretize<f64>();
  const MatrixFreeOperator<f64> op(sys);
  core::ChebyshevDeviceConfig config;
  config.bounds = estimate_spectral_bounds<f64>(
      [&](const f64* in, f64* out) { op.apply(in, out); },
      static_cast<std::size_t>(sys.cell_count()));
  const auto report = core::verify_dataflow_chebyshev(problem, config);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(VerifyDataflow, PreflightDoesNotChangeTheSolve) {
  const auto problem = FlowProblem::quarter_five_spot(4, 4, 4, /*seed=*/5, 0.8);
  core::DataflowConfig plain;
  plain.tolerance = 1e-10f;
  core::DataflowConfig checked = plain;
  checked.verify_preflight = true;
  const auto a = core::solve_dataflow(problem, plain);
  const auto b = core::solve_dataflow(problem, checked);
  ASSERT_TRUE(b.converged);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.final_rr, b.final_rr);
  EXPECT_EQ(a.delta, b.delta);
}

// ---------- bytecode static layer: lint, manifests, disassembly ----------

namespace bc = wse::bc;

core::CgPeConfig cg_config(u32 nz) {
  core::CgPeConfig config;
  config.nz = nz;
  config.tolerance = 1e-6f;
  config.init.p0.resize(nz, 0.0f);
  return config;
}

core::ChebyshevPeConfig chebyshev_config(u32 nz) {
  core::ChebyshevPeConfig config;
  config.nz = nz;
  config.tolerance = 1e-6f;
  config.lambda_min = 0.05f;
  config.lambda_max = 12.0f;
  config.init.p0.resize(nz, 0.0f);
  return config;
}

core::LoweringSite site_at(wse::PeCoord coord, i64 w, i64 h, u32 nz) {
  return core::plan_site(coord, w, h, wse::PeMemoryParams{}, nz,
                         core::FluxMode::Fused, /*dirichlet_count=*/0,
                         /*jacobi=*/false, /*with_source=*/false);
}

// The wavelet-bearing facts (injections, switch advances, message widths)
// must agree exactly — they drive route checks and the lookahead planner.
TEST(BytecodeStatic, LoweredProgramsLintCleanOnAllShapes) {
  constexpr u32 nz = 5;
  const auto cg = cg_config(nz);
  const auto cheb = chebyshev_config(nz);
  for (const auto [w, h] : kShapes) {
    for (const wse::PeCoord coord :
         {wse::PeCoord{0, 0}, wse::PeCoord{w - 1, h - 1},
          wse::PeCoord{w / 2, h / 2}}) {
      const auto site = site_at(coord, w, h, nz);
      const auto issues = bc::lint_program(*core::lower_cg(cg, site));
      EXPECT_TRUE(issues.empty())
          << w << "x" << h << " cg: " << issues.front();
      const auto cheb_issues =
          bc::lint_program(*core::lower_chebyshev(cheb, site));
      EXPECT_TRUE(cheb_issues.empty())
          << w << "x" << h << " chebyshev: " << cheb_issues.front();
    }
  }
}

// The derived manifest is what the verifier and the lookahead planner
// consume: a frozen digest per shape pins it at every PE, including the
// minimum message widths.
void digest_manifest(golden::Digest& d, const wse::ProgramManifest& m) {
  d.add(m.injects).add(m.handles).add(m.activates).add(m.advances);
  for (const u16 words : m.min_inject_words) d.add(words);
}

TEST(BytecodeStatic, DerivedManifestsMatchGolden) {
  constexpr u32 nz = 4;
  const auto cg = cg_config(nz);
  const auto cheb = chebyshev_config(nz);
  const char* const kDigests[] = {
      // one per kShapes entry; CG and Chebyshev share their collectives
      "d0852720ce15a360", "daf4ef19b73e0f01", "738a4ab3090738b5",
      "0a870edfab5c1f2a", "6152228bac4887c1", "bb83d4f0617e0135",
      "411ddad24d66316e", "c23dc24d9936d9d9",
  };
  static_assert(std::size(kDigests) == std::size(kShapes));
  for (std::size_t i = 0; i < std::size(kShapes); ++i) {
    const auto [w, h] = kShapes[i];
    golden::Digest cg_digest, cheb_digest;
    for (i64 y = 0; y < h; ++y)
      for (i64 x = 0; x < w; ++x) {
        const auto site = site_at({x, y}, w, h, nz);
        digest_manifest(cg_digest,
                        bc::derive_manifest(*core::lower_cg(cg, site)));
        digest_manifest(cheb_digest,
                        bc::derive_manifest(*core::lower_chebyshev(cheb, site)));
      }
    EXPECT_EQ(cg_digest.hex(), kDigests[i]) << w << "x" << h << " cg";
    EXPECT_EQ(cheb_digest.hex(), kDigests[i]) << w << "x" << h << " chebyshev";
  }
}

TEST(BytecodeStatic, DisassemblyListsEveryInstruction) {
  const auto site = site_at({1, 1}, 3, 3, 4);
  const auto program = core::lower_cg(cg_config(4), site);
  const std::string text = bc::disassemble(*program);
  // Header line plus one line per instruction.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            program->code.size() + 1);
  EXPECT_NE(text.find("program \"cg\""), std::string::npos);
  for (const char* mnemonic : {"SEND", "RECV", "VDOT", "VMAC", "JTOL", "HALT"})
    EXPECT_NE(text.find(mnemonic), std::string::npos) << mnemonic;
}

TEST(BytecodeStatic, LintFlagsCorruptedEncodings) {
  const auto site = site_at({1, 1}, 3, 3, 4);
  const auto clean = core::lower_cg(cg_config(4), site);

  bc::Program empty;
  empty.name = "empty";
  ASSERT_FALSE(bc::lint_program(empty).empty());

  bc::Program bad_entry = *clean;
  bad_entry.entry = static_cast<u16>(bad_entry.code.size());
  EXPECT_FALSE(bc::lint_program(bad_entry).empty());

  bc::Program bad_branch = *clean;
  for (auto& ins : bad_branch.code)
    if (ins.op == bc::Op::JMP) {
      ins.d = 0xfffe;
      break;
    }
  EXPECT_FALSE(bc::lint_program(bad_branch).empty());

  bc::Program bad_dsd = *clean;
  for (auto& ins : bad_dsd.code)
    if (ins.op == bc::Op::VDOT) {
      ins.b = static_cast<u8>(bad_dsd.dsds.size());
      break;
    }
  EXPECT_FALSE(bc::lint_program(bad_dsd).empty());
}

// ---------- bytecode control-flow graph ----------

TEST(BytecodeCfg, CoversEveryPcOfALoweredProgram) {
  const auto site = site_at({1, 1}, 3, 3, 4);
  const auto program = core::lower_cg(cg_config(4), site);
  const auto cfg = analysis::build_cfg(*program);
  ASSERT_FALSE(cfg.blocks.empty());
  ASSERT_EQ(cfg.block_of.size(), program->code.size());
  // Every pc belongs to exactly the block whose range covers it, and the
  // blocks partition the stream in ascending pc order.
  for (u32 b = 0; b < cfg.blocks.size(); ++b) {
    const auto& block = cfg.blocks[b];
    ASSERT_LE(block.first, block.last);
    for (u32 pc = block.first; pc <= block.last; ++pc)
      EXPECT_EQ(cfg.block_of[pc], b) << "pc " << pc;
    for (const u32 s : block.succ) EXPECT_LT(s, cfg.blocks.size());
  }
  // The lowered solver has the program entry plus task handlers and
  // continuations, and no dead code.
  EXPECT_GT(cfg.entries.size(), 1u);
  bool has_start = false, has_handler = false;
  for (const auto& e : cfg.entries) {
    has_start |= e.kind == analysis::CfgEntry::Kind::Start;
    has_handler |= e.kind == analysis::CfgEntry::Kind::Handler;
    EXPECT_TRUE(cfg.pc_reachable(e.pc)) << e.label();
    EXPECT_NE(e.block, analysis::kNoBlock) << e.label();
  }
  EXPECT_TRUE(has_start);
  EXPECT_TRUE(has_handler);
  EXPECT_EQ(cfg.reachable_instructions, program->code.size());
}

TEST(BytecodeCfg, DumpNamesProgramEntriesAndBlocks) {
  const auto site = site_at({0, 0}, 2, 2, 4);
  const auto program = core::lower_cg(cg_config(4), site);
  const auto cfg = analysis::build_cfg(*program);
  const std::string text = analysis::dump_cfg(cfg, *program);
  EXPECT_NE(text.find("cfg \"cg\""), std::string::npos) << text;
  EXPECT_NE(text.find("entry"), std::string::npos);
  EXPECT_NE(text.find("handler c"), std::string::npos);
  EXPECT_NE(text.find("block"), std::string::npos);
}

// ---------- abstract interpreter: unit programs ----------

bool has_defect(const analysis::ProgramAnalysis& a, analysis::BcAnalysis pass,
                analysis::BcSeverity severity, u32 pc,
                const std::string& needle) {
  for (const auto& d : a.defects)
    if (d.analysis == pass && d.severity == severity && d.pc == pc &&
        d.message.find(needle) != std::string::npos)
      return true;
  return false;
}

TEST(BytecodeAbstractInterp, FallingOffTheStreamIsAControlFlowError) {
  bc::Program p;
  p.name = "fall-off";
  bc::Instr ins{};
  ins.op = bc::Op::SETU;
  ins.imm.u = 1;
  p.code.push_back(ins);
  const auto a = analysis::analyze_program(p);
  EXPECT_FALSE(a.ok());
  EXPECT_TRUE(has_defect(a, analysis::BcAnalysis::ControlFlow,
                         analysis::BcSeverity::Error, 0, "run past the end"))
      << a.summary(p.name);
}

TEST(BytecodeAbstractInterp, SpanCheckedAgainstTheMemoryLimit) {
  bc::Builder b("span");
  const u8 d = b.dsd(wse::Dsd{0, 4, 1}); // words [0..3]
  b.vmovi(d, 0.0f);
  b.ret();
  const auto program = b.finish();
  analysis::AnalysisParams fits;
  fits.memory_limit_words = 4;
  EXPECT_TRUE(analysis::analyze_program(program, fits).ok());
  analysis::AnalysisParams tight;
  tight.memory_limit_words = 3;
  const auto a = analysis::analyze_program(program, tight);
  EXPECT_FALSE(a.ok());
  EXPECT_TRUE(has_defect(a, analysis::BcAnalysis::MemoryBounds,
                         analysis::BcSeverity::Error, 0, ""))
      << a.summary("span");
}

TEST(BytecodeAbstractInterp, SetuBoundedLoopHasAFiniteCostInterval) {
  auto build = [](u32 trips) {
    bc::Builder b("loop");
    b.setu(0, trips);
    const auto loop = b.make_label();
    b.bind(loop);
    b.sadd(0, 0, 0);
    b.decjnz(0, loop);
    b.ret();
    return b.finish();
  };
  const auto three = analysis::analyze_program(build(3));
  EXPECT_TRUE(three.defects.empty()) << three.summary("loop");
  ASSERT_FALSE(three.handlers.empty());
  const auto& h3 = three.handlers.front();
  EXPECT_EQ(h3.label, "entry");
  EXPECT_TRUE(h3.bounded);
  EXPECT_GE(h3.min_charged_ops, 1u);
  EXPECT_GT(h3.max_charged_ops, h3.min_charged_ops);
  EXPECT_LE(h3.min_cycles, h3.max_cycles);
  EXPECT_GT(h3.max_cycles, 0.0);
  // With one trip the shortest and longest activations coincide.
  const auto one = analysis::analyze_program(build(1));
  ASSERT_FALSE(one.handlers.empty());
  EXPECT_TRUE(one.handlers.front().bounded);
  EXPECT_EQ(one.handlers.front().min_charged_ops,
            one.handlers.front().max_charged_ops);
  EXPECT_LT(one.handlers.front().max_cycles, h3.max_cycles);
}

TEST(BytecodeAbstractInterp, DeadCounterStoreIsAWarningNotAnError) {
  bc::Builder b("dead-counter");
  b.setu(1, 4); // never decremented by any reachable DECJNZ/DECRET
  b.ret();
  const auto a = analysis::analyze_program(b.finish());
  EXPECT_TRUE(a.ok());
  EXPECT_EQ(a.warning_count(), 1u) << a.summary("dead-counter");
  EXPECT_TRUE(has_defect(a, analysis::BcAnalysis::RegisterLiveness,
                         analysis::BcSeverity::Warning, 0,
                         "dead store: counter u1"))
      << a.summary("dead-counter");
}

TEST(BytecodeAbstractInterp, ColorFlowSummarizesReachableSendsAndRecvs) {
  bc::Builder b("flow");
  const u8 out5 = b.dsd(wse::Dsd{0, 5, 1});
  const u8 in7 = b.dsd(wse::Dsd{8, 7, 1});
  b.send(2, out5);
  b.recv(4, in7, wse::kInvalidColor);
  b.ret();
  analysis::AnalysisParams params;
  params.memory_limit_words = 16;
  const auto a = analysis::analyze_program(b.finish(), params);
  EXPECT_TRUE(a.ok()) << a.summary("flow");
  EXPECT_TRUE(a.colors[2].sends);
  EXPECT_EQ(a.colors[2].send_sites, 1u);
  EXPECT_EQ(a.colors[2].min_send_words, 5u);
  EXPECT_EQ(a.colors[2].send_words_total, 5u);
  EXPECT_EQ(a.colors[2].send_lengths, std::vector<u32>{5});
  EXPECT_TRUE(a.colors[4].recvs);
  EXPECT_EQ(a.colors[4].recv_lengths, std::vector<u32>{7});
  EXPECT_FALSE(a.colors[3].sends);
  EXPECT_FALSE(a.colors[3].recvs);
}

TEST(BytecodeAbstractInterp, ShippedCgAnalyzesCleanWithBoundedHandlers) {
  const auto site = site_at({1, 1}, 3, 3, 4);
  const auto program = core::lower_cg(cg_config(4), site);
  const auto a = analysis::analyze_program(*program);
  EXPECT_EQ(a.error_count(), 0u) << a.summary(program->name);
  ASSERT_FALSE(a.handlers.empty());
  for (const auto& h : a.handlers) {
    EXPECT_TRUE(h.bounded) << h.label;
    EXPECT_LE(h.min_cycles, h.max_cycles) << h.label;
    EXPECT_LE(h.min_charged_ops, h.max_charged_ops) << h.label;
  }
  // The solver demonstrably injects: exported minimum send words feed the
  // lookahead planner and must be at least one word per sending color.
  u32 sending = 0;
  for (const auto& c : a.colors)
    if (c.sends) {
      ++sending;
      EXPECT_GE(c.min_send_words, 1u);
      EXPECT_GE(c.send_words_total, c.min_send_words);
    }
  EXPECT_GT(sending, 0u);
}

// ---------- seeded bytecode defects through the verifier (pc-accurate) ----------

const Diagnostic* find_diag(const VerifyReport& report, Check check) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.check == check) return &d;
  return nullptr;
}

TEST(BytecodeDefects, OobSpanReportedAtPcZero) {
  const auto report = verify_program(1, 1, fixtures::bc_oob_span_defect());
  EXPECT_FALSE(report.ok());
  const auto* d = find_diag(report, Check::BytecodeMemory);
  ASSERT_NE(d, nullptr) << report.summary();
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->pc, 0);
  EXPECT_NE(d->message.find("bc-oob-span"), std::string::npos) << d->message;
}

TEST(BytecodeDefects, UnsetContinuationReportedAtPcZero) {
  const auto report =
      verify_program(1, 1, fixtures::bc_unset_continuation_defect());
  EXPECT_FALSE(report.ok());
  const auto* d = find_diag(report, Check::BytecodeLiveness);
  ASSERT_NE(d, nullptr) << report.summary();
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->pc, 0);
  EXPECT_NE(d->message.find("cont0"), std::string::npos) << d->message;
}

TEST(BytecodeDefects, ZeroCounterLoopIsUnboundedAtTheLatch) {
  const auto report = verify_program(1, 1, fixtures::bc_unbounded_loop_defect());
  EXPECT_FALSE(report.ok());
  const auto* d = find_diag(report, Check::BytecodeCost);
  ASSERT_NE(d, nullptr) << report.summary();
  EXPECT_EQ(d->severity, Severity::Error);
  EXPECT_EQ(d->pc, 2); // the DECJNZ latch
  EXPECT_NE(d->message.find("wraps"), std::string::npos) << d->message;
}

TEST(BytecodeDefects, SendOverlapIsAWarningAtTheStore) {
  const auto report = verify_program(1, 1, fixtures::bc_send_overlap_defect());
  // Hardware-faithfulness warning: the simulator gathers at send time, so
  // the defect must not gate verification.
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GE(report.warning_count(), 1u);
  const auto* d = find_diag(report, Check::BytecodeMemory);
  ASSERT_NE(d, nullptr) << report.summary();
  EXPECT_EQ(d->severity, Severity::Warning);
  EXPECT_EQ(d->pc, 3); // the STOS into the in-flight payload
  EXPECT_NE(d->message.find("SEND"), std::string::npos) << d->message;
}

TEST(BytecodeDefects, UnbalancedLengthsFailBalanceAtTheReceiver) {
  const auto report =
      verify_program(2, 1, fixtures::bc_unbalanced_send_defect());
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_error(report, Check::SendRecvBalance, "registered lengths"))
      << report.summary();
  const auto* d = find_diag(report, Check::SendRecvBalance);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->pe.x, 1);
  EXPECT_EQ(d->pe.y, 0);
  EXPECT_EQ(d->color, 5);
}

// ---------- deep verification of the shipped solvers ----------

TEST(BytecodeDeep, ShippedSolversVerifyCleanOnRepresentativeShapes) {
  constexpr Shape kDeep[] = {{2, 2}, {3, 5}, {8, 8}};
  for (const auto [w, h] : kDeep) {
    const auto problem =
        FlowProblem::quarter_five_spot(w, h, 4, /*seed=*/3, 0.8);
    const auto cg = core::verify_dataflow(problem, core::DataflowConfig{});
    EXPECT_EQ(cg.error_count(), 0u) << w << "x" << h << ":\n" << cg.summary();
    EXPECT_GT(cg.bytecode_programs, 0u);
    // Anything that remains must be the documented send-overlap
    // hardware-faithfulness warning class, nothing else.
    for (const Diagnostic& d : cg.diagnostics) {
      EXPECT_EQ(d.severity, Severity::Warning) << d.format();
      EXPECT_EQ(d.check, Check::BytecodeMemory) << d.format();
      EXPECT_NE(d.message.find("SEND"), std::string::npos) << d.format();
    }
    core::ChebyshevDeviceConfig cheb;
    cheb.bounds = {0.05, 12.0};
    const auto cb = core::verify_dataflow_chebyshev(problem, cheb);
    EXPECT_EQ(cb.error_count(), 0u) << w << "x" << h << ":\n" << cb.summary();
    EXPECT_GT(cb.bytecode_programs, 0u);
  }
}

TEST(BytecodeDeep, BalanceSummariesCoverEveryTrafficColor) {
  const auto problem = FlowProblem::quarter_five_spot(4, 4, 4, /*seed=*/3, 0.8);
  const auto report = core::verify_dataflow(problem, core::DataflowConfig{});
  ASSERT_EQ(report.error_count(), 0u) << report.summary();
  ASSERT_FALSE(report.balance.empty());
  bool exact_with_volume = false;
  for (const auto& b : report.balance) {
    EXPECT_GT(b.injectors, 0u) << "color " << static_cast<int>(b.color);
    EXPECT_GT(b.delivery_sites, 0u) << "color " << static_cast<int>(b.color);
    exact_with_volume |= b.exact && b.words_per_round > 0;
  }
  EXPECT_TRUE(exact_with_volume);
  // The summary text carries the counters fabric_lint prints.
  const std::string text = report.summary();
  EXPECT_NE(text.find("balance: color"), std::string::npos) << text;
  EXPECT_NE(text.find("abstractly interpreted"), std::string::npos) << text;
}

// ---------- bytecode-derived lookahead windows ----------

TEST(BytecodeLookahead, WindowsMatchGolden) {
  const auto problem = FlowProblem::quarter_five_spot(8, 8, 4, /*seed=*/3, 0.8);
  core::DataflowConfig config;
  config.sim_threads = 4;
  const auto plan = core::plan_dataflow_lookahead(problem, config);
  // The frozen per-edge table, shard-major with sides N, E, S, W
  // (wse::cardinal_index order): {crosses, min_batch_cycles}.
  const wse::ChannelLookahead::Edge kGolden[][4] = {
      {{false, 0}, {true, 1}, {true, 1}, {false, 0}},
      {{false, 0}, {false, 0}, {true, 1}, {true, 1}},
      {{true, 1}, {true, 1}, {false, 0}, {false, 0}},
      {{true, 1}, {false, 0}, {false, 0}, {true, 1}},
  };
  ASSERT_EQ(plan.shard_count, std::size(kGolden));
  ASSERT_EQ(plan.tile_rows * plan.tile_cols, plan.shard_count);
  ASSERT_EQ(plan.bytecode.out.size(), plan.shard_count);
  for (u32 s = 0; s < plan.shard_count; ++s)
    for (std::size_t d = 0; d < 4; ++d) {
      const auto& edge = plan.bytecode.out[s][d];
      EXPECT_EQ(edge.crosses, kGolden[s][d].crosses)
          << "shard " << s << " side " << d;
      EXPECT_EQ(edge.min_batch_cycles, kGolden[s][d].min_batch_cycles)
          << "shard " << s << " side " << d;
    }
}

// ---------- per-PE programs: the analysis caches key by the stream ----------
// Each PE below gets its own freshly built stream, freed with its program
// as the pass moves on; the next PE's stream may land at the same
// address. The caches hold every stream for the whole pass, so a reused
// address never inherits another program's analysis.

// A fresh per-PE stream whose entry block never runs, on a 16-word arena.
std::unique_ptr<wse::PeProgram> fresh_program(const char* name,
                                              bool oob_store) {
  bc::Builder b(name);
  if (oob_store) b.vmovi(b.dsd(wse::Dsd{100000, 4, 1}), 0.0f);
  b.ret();
  return std::make_unique<wse::PeProgram>(
      std::make_shared<const bc::Program>(b.finish()),
      [](wse::ImageBuilder& ctx) { ctx.memory().alloc_f32("buf", 16); });
}

TEST(VerifyCaches, FreshPerPeProgramsAreEachAnalyzed) {
  const auto report = verify_program(2, 1, [](wse::PeCoord coord) {
    return coord.x == 0 ? fresh_program("quiet", false)
                        : fresh_program("oob", true);
  });
  EXPECT_EQ(report.bytecode_programs, 2u) << report.summary();
  EXPECT_EQ(report.error_count(), 1u) << report.summary();
  const auto* d = find_diag(report, Check::BytecodeMemory);
  ASSERT_NE(d, nullptr) << report.summary();
  EXPECT_EQ(d->pe.x, 1);
  EXPECT_NE(d->message.find("program \"oob\""), std::string::npos) << d->message;
}

TEST(LookaheadCaches, FreshInjectorAfterAQuietProgramStillCrosses) {
  // 2x1 fabric, one shard per column. PE (1,0)'s only send to the west
  // sits in a handler its entry block binds but never runs, so the planner
  // learns of it from the stream alone — not from the recorded start.
  constexpr wse::Color kData = 0;
  constexpr u32 kWords = 4;
  const wse::ProgramFactory factory = [](wse::PeCoord coord) {
    if (coord.x == 0) return fresh_program("quiet", false);
    return std::make_unique<wse::PeProgram>([](wse::ImageBuilder& ctx) {
      wse::ColorConfig west;
      west.positions = {wse::SwitchPosition{wse::DirMask::of(wse::Dir::Ramp),
                                            wse::DirMask::of(wse::Dir::West)}};
      ctx.configure_router(kData, west);
      bc::Builder b("injector");
      const u8 src = b.dsd(wse::dsd(ctx.memory().alloc_f32("src", kWords)));
      const auto handler = b.make_label();
      b.seth(24, handler);
      b.ret();
      b.bind(handler);
      b.send(kData, src);
      b.ret();
      return std::make_shared<const bc::Program>(b.finish());
    });
  };
  const wse::TimingParams timing;
  const auto table = analysis::plan_channel_lookahead(
      2, 1, {{0, 1, 0, 1}, {0, 1, 1, 2}}, 1, 2, factory, timing);
  ASSERT_EQ(table.out.size(), 2u);
  const auto west = wse::cardinal_index(wse::Dir::West);
  const auto east = wse::cardinal_index(wse::Dir::East);
  EXPECT_TRUE(table.out[1][west].crosses);
  EXPECT_EQ(table.out[1][west].min_batch_cycles,
            kWords / timing.words_per_cycle_link);
  EXPECT_FALSE(table.out[0][east].crosses); // PE (0,0) injects nothing
}

// ---------- lint: register operands per encoding ----------

TEST(BytecodeStatic, LintFlagsEveryRegisterOperandClass) {
  auto instr = [](bc::Op op, u8 a, u8 b, u8 c, u32 d) {
    bc::Instr ins{};
    ins.op = op;
    ins.a = a;
    ins.b = b;
    ins.c = c;
    ins.d = d;
    return ins;
  };
  struct BadEncoding {
    const char* label;
    bc::Instr ins;
    const char* needle;
  };
  const BadEncoding cases[] = {
      {"sadd-dest", instr(bc::Op::SADD, 16, 0, 0, 0), "f-register f16"},
      {"sadd-rhs", instr(bc::Op::SADD, 0, 0, 16, 0), "f-register f16"},
      {"vdot-dest", instr(bc::Op::VDOT, 16, 0, 0, 0), "f-register f16"},
      {"lods-dest", instr(bc::Op::LODS, 16, 0, 0, 0), "f-register f16"},
      {"movr-src", instr(bc::Op::MOVR, 0, 16, 0, 0), "f-register f16"},
      {"umovi-dest", instr(bc::Op::UMOVI, 16, 0, 0, 0), "f-register f16"},
      {"jtol-operand", instr(bc::Op::JTOL, 16, 0, 0, 1), "f-register f16"},
      {"jgtr-rhs", instr(bc::Op::JGTR, 0, 16, 0, 1), "f-register f16"},
      {"smuli-src", instr(bc::Op::SMULI, 0, 16, 0, 0), "f-register f16"},
      {"usub-rhs", instr(bc::Op::USUB, 0, 0, 16, 0), "f-register f16"},
      {"urcp-src", instr(bc::Op::URCP, 0, 16, 0, 0), "f-register f16"},
      {"uk2f-dest", instr(bc::Op::UK2F, 16, 0, 0, 0), "f-register f16"},
      {"chkpos-operand", instr(bc::Op::CHKPOS, 16, 0, 0, 0), "f-register f16"},
      {"vmulr-scale", instr(bc::Op::VMULR, 0, 0, 0, 16), "f-register f16"},
      {"vmacr-scale", instr(bc::Op::VMACR, 0, 0, 0, 16), "f-register f16"},
      {"decjnz-counter", instr(bc::Op::DECJNZ, 4, 0, 0, 1), "u-register u4"},
      {"decret-counter", instr(bc::Op::DECRET, 4, 0, 0, 0), "u-register u4"},
      {"setu-counter", instr(bc::Op::SETU, 4, 0, 0, 0), "u-register u4"},
      {"setc-register", instr(bc::Op::SETC, 4, 0, 0, 1),
       "continuation register cont4"},
      {"jind-register", instr(bc::Op::JIND, 4, 0, 0, 0),
       "continuation register cont4"},
  };
  for (const auto& bad : cases) {
    bc::Program p;
    p.name = bad.label;
    p.dsds.push_back(wse::Dsd{0, 1, 1});
    p.code.push_back(bad.ins);
    bc::Instr ret{};
    ret.op = bc::Op::RET;
    p.code.push_back(ret);
    const auto issues = bc::lint_program(p);
    bool found = false;
    for (const auto& issue : issues)
      found |= issue.find(bad.needle) != std::string::npos;
    EXPECT_TRUE(found) << bad.label << ": "
                       << (issues.empty() ? "lint reported nothing"
                                          : issues.front());
  }
  // A JKGE against a constant the pool does not hold.
  bc::Program p;
  p.name = "jkge-const";
  bc::Instr jkge{};
  jkge.op = bc::Op::JKGE;
  jkge.d = 1;
  jkge.imm.u = 5;
  p.code.push_back(jkge);
  bc::Instr ret{};
  ret.op = bc::Op::RET;
  p.code.push_back(ret);
  const auto issues = bc::lint_program(p);
  bool found = false;
  for (const auto& issue : issues)
    found |= issue.find("constant index 5 out of range") != std::string::npos;
  EXPECT_TRUE(found);
}

} // namespace
} // namespace fvdf
