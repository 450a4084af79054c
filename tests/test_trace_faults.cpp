// Observability and failure injection: the trace facility records the
// fabric's event stream; injected faults (dropped / corrupted messages)
// are *detected* — a dropped halo deadlocks the completion protocol
// instead of silently computing garbage, and corrupted payloads are caught
// by the host-side numerical validation. Also: the any-source broadcast
// component (paper future work).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>
#include <string>

#include "core/bytecode_program.hpp"
#include "core/solver.hpp"
#include "core/validation.hpp"
#include "csl/any_source.hpp"
#include "csl/lowering.hpp"
#include "fv/problem.hpp"
#include "solver/pressure_solve.hpp"
#include "wse/bytecode.hpp"
#include "wse/fabric.hpp"
#include "wse/trace.hpp"

#include "golden_digest.hpp"

namespace fvdf {
namespace {

using core::DataflowConfig;

// Loads the CG solver program into a caller-owned fabric so tests can
// instrument it (trace sinks, fault plans) before running.
void load_solver(wse::Fabric& fabric, const FlowProblem& problem,
                 u64 max_iterations) {
  const auto& mesh = problem.mesh();
  const auto sys = problem.discretize<f32>();
  const auto cache = std::make_shared<core::ProgramCache>();
  fabric.load([&](wse::PeCoord coord) -> std::unique_ptr<wse::PeProgram> {
    core::CgPeConfig config;
    config.nz = static_cast<u32>(mesh.nz());
    config.max_iterations = max_iterations;
    config.tolerance = 0.0f;
    config.init = core::build_pe_init(problem, sys, coord.x, coord.y,
                                      core::FluxMode::Fused);
    return std::make_unique<core::BytecodeCgProgram>(
        std::move(config), coord, mesh.nx(), mesh.ny(), wse::PeMemoryParams{},
        cache);
  });
}

// ---------- tracing ----------

TEST(Trace, RecordsEveryEventCategoryOfASolve) {
  const auto problem = FlowProblem::homogeneous_column(3, 3, 4);
  wse::Fabric fabric(3, 3);
  load_solver(fabric, problem, 3);
  wse::TraceBuffer buffer;
  fabric.set_trace(buffer.sink());
  ASSERT_TRUE(fabric.run().all_halted);

  EXPECT_GT(buffer.count(wse::TraceEvent::MessageInjected), 0u);
  EXPECT_GT(buffer.count(wse::TraceEvent::LinkHop), 0u);
  EXPECT_GT(buffer.count(wse::TraceEvent::RampDelivery), 0u);
  EXPECT_GT(buffer.count(wse::TraceEvent::TaskRun), 0u);
  EXPECT_GT(buffer.count(wse::TraceEvent::SwitchAdvance), 0u);
  EXPECT_EQ(buffer.count(wse::TraceEvent::FaultDrop), 0u);
  EXPECT_GE(buffer.total(), buffer.records().size());
}

TEST(Trace, TimesAreMonotonePerPe) {
  const auto problem = FlowProblem::homogeneous_column(2, 2, 3);
  wse::Fabric fabric(2, 2);
  load_solver(fabric, problem, 2);
  wse::TraceBuffer buffer;
  fabric.set_trace(buffer.sink());
  ASSERT_TRUE(fabric.run().all_halted);
  // TaskRun events on one PE never go back in time.
  std::map<std::pair<i64, i64>, f64> last;
  for (const auto& record : buffer.records()) {
    if (record.event != wse::TraceEvent::TaskRun) continue;
    auto& prev = last[{record.at.x, record.at.y}];
    EXPECT_GE(record.cycles, prev);
    prev = record.cycles;
  }
}

TEST(Trace, BufferRespectsCapacity) {
  const auto problem = FlowProblem::homogeneous_column(3, 3, 4);
  wse::Fabric fabric(3, 3);
  load_solver(fabric, problem, 4);
  wse::TraceBuffer buffer(/*capacity=*/100);
  fabric.set_trace(buffer.sink());
  ASSERT_TRUE(fabric.run().all_halted);
  EXPECT_EQ(buffer.records().size(), 100u);
  EXPECT_GT(buffer.total(), 100u); // counted even when not stored
}

TEST(Trace, SummaryListsCategories) {
  wse::TraceBuffer buffer;
  buffer.sink()({wse::TraceEvent::LinkHop, 1.0, {0, 0}, 3, 8});
  const std::string summary = buffer.summary();
  EXPECT_NE(summary.find("hop=1"), std::string::npos);
}

// ---------- fault injection ----------

TEST(Faults, DroppedHaloMessageDeadlocksInsteadOfCorrupting) {
  const auto problem = FlowProblem::homogeneous_column(3, 3, 4);
  wse::Fabric fabric(3, 3);
  load_solver(fabric, problem, 5);
  wse::FaultPlan plan;
  plan.drop_message_index = 7; // some message of the first halo exchange
  fabric.set_faults(plan);
  wse::TraceBuffer buffer;
  fabric.set_trace(buffer.sink());

  const auto result = fabric.run(/*max_cycles=*/2e6);
  // The completion-callback protocol starves: no silent wrong answer.
  EXPECT_FALSE(result.all_halted);
  EXPECT_EQ(buffer.count(wse::TraceEvent::FaultDrop), 1u);
}

TEST(Faults, EveryDropPositionIsDetectedLoudly) {
  // A dropped message anywhere in the protocol must never produce a clean
  // "all halted" run: either the completion protocol starves (deadlock) or
  // downstream state violates an FVDF_CHECK (a thrown error). Sweep the
  // drop position across the early protocol to cover halo data, reduce
  // partials and broadcasts.
  for (u64 drop = 1; drop <= 12; ++drop) {
    const auto problem = FlowProblem::homogeneous_column(3, 3, 4);
    wse::Fabric fabric(3, 3);
    load_solver(fabric, problem, 5);
    wse::FaultPlan plan;
    plan.drop_message_index = drop;
    fabric.set_faults(plan);
    bool detected = false;
    try {
      const auto result = fabric.run(1e6);
      detected = !result.all_halted;
    } catch (const Error&) {
      detected = true; // protocol-violation check fired: also loud
    }
    EXPECT_TRUE(detected) << "drop at message " << drop << " went unnoticed";
  }
}

TEST(Faults, CorruptedPayloadIsCaughtByValidation) {
  const auto problem = FlowProblem::quarter_five_spot(4, 4, 4, 77);
  // Clean reference result.
  DataflowConfig clean_config;
  clean_config.tolerance = 1e-13f;
  const auto clean = core::solve_dataflow(problem, clean_config);
  ASSERT_TRUE(clean.converged);
  const auto clean_report = core::compare_with_host(problem, clean, 1e-22);
  ASSERT_LT(clean_report.rel_l2_error, 1e-4);

  // Corrupt one halo word mid-solve (sign-bit flip makes it blatant) and
  // run a fixed number of iterations (a corrupted Krylov basis may stall
  // convergence entirely, which is itself a detection).
  wse::Fabric fabric(4, 4);
  load_solver(fabric, problem, clean.iterations);
  wse::FaultPlan plan;
  plan.corrupt_message_index = 40;
  // Bit 30 is the exponent MSB: even a 0.0 payload word becomes 2.0, so
  // the corruption is visible regardless of the word's value (a sign flip
  // of 0.0 would be a silent no-op).
  plan.corrupt_bit = 30;
  fabric.set_faults(plan);
  wse::TraceBuffer buffer;
  fabric.set_trace(buffer.sink());
  const auto run = fabric.run(1e9);
  ASSERT_TRUE(run.all_halted);
  EXPECT_EQ(buffer.count(wse::TraceEvent::FaultCorrupt), 1u);

  // Read back the corrupted solution through the standard layout.
  const auto sys = problem.discretize<f32>();
  const auto& mesh = problem.mesh();
  std::vector<f32> pressure(static_cast<std::size_t>(mesh.cell_count()));
  const std::vector<f64> p0 = problem.initial_pressure();
  for (i64 y = 0; y < mesh.ny(); ++y)
    for (i64 x = 0; x < mesh.nx(); ++x) {
      u32 dcount = 0;
      for (i64 z = 0; z < mesh.nz(); ++z)
        if (sys.dirichlet[static_cast<std::size_t>((z * mesh.ny() + y) * mesh.nx() + x)])
          ++dcount;
      wse::PeMemory probe;
      const auto layout = core::PeLayout::plan(probe, static_cast<u32>(mesh.nz()),
                                               core::FluxMode::Fused, dcount);
      for (i64 z = 0; z < mesh.nz(); ++z) {
        const auto k = static_cast<std::size_t>((z * mesh.ny() + y) * mesh.nx() + x);
        pressure[k] = static_cast<f32>(p0[k]) +
                      fabric.pe_memory(x, y).load(layout.ysol.offset_words +
                                                  static_cast<u32>(z));
      }
    }

  // The corrupted run must differ measurably from the f64 oracle.
  CgOptions host_options;
  host_options.tolerance = 1e-22;
  const auto host = solve_pressure_host(problem, host_options);
  f64 worst = 0;
  for (std::size_t i = 0; i < pressure.size(); ++i)
    worst = std::max(worst,
                     std::fabs(static_cast<f64>(pressure[i]) - host.pressure[i]));
  EXPECT_GT(worst, 1e-3) << "corruption went undetected";
}

// ---------- any-source broadcast ----------

// One any-source broadcast round of a `words`-word block rooted at
// `source`, lowered through csl::AnySourceEmitter, then halt.
wse::ProgramFactory broadcast_program(wse::PeCoord source, u32 words,
                                      wse::MemSpan* out) {
  return [=](wse::PeCoord) {
    return std::make_unique<wse::PeProgram>([=](wse::ImageBuilder& ctx) {
      csl::AnySourceBroadcast().configure(ctx, source);
      *out = ctx.memory().alloc_f32("block", words);
      const bool am_source = ctx.coord() == source;
      for (u32 i = 0; i < words; ++i)
        ctx.memory().store(out->offset_words + i,
                           am_source ? static_cast<f32>(1000 + i) : -1.0f);
      wse::bc::Builder b("any-source-test");
      csl::AnySourceEmitter bcast(b, ctx.coord(), ctx.fabric_width(),
                                  ctx.fabric_height(),
                                  {{}, source, wse::dsd(*out), /*cont_reg=*/0});
      const auto done = b.make_label();
      b.setc(0, done);
      bcast.emit_start();
      b.ret();
      b.bind(done);
      b.halt();
      b.ret();
      bcast.emit_handlers();
      return std::make_shared<const wse::bc::Program>(b.finish());
    });
  };
}

// One any-source broadcast of a `words`-word block, digested: the cycle
// total, every fabric statistic, every PE's block and the final switch
// positions of both flood colors.
std::string broadcast_digest(wse::Fabric& fabric, wse::PeCoord source,
                             u32 words) {
  wse::MemSpan block{};
  fabric.load(broadcast_program(source, words, &block));
  const auto run = fabric.run();
  EXPECT_TRUE(run.all_halted) << fabric.width() << "x" << fabric.height()
                              << " from (" << source.x << "," << source.y << ")";
  for (i64 y = 0; y < fabric.height(); ++y)
    for (i64 x = 0; x < fabric.width(); ++x)
      for (u32 i = 0; i < words; ++i)
        EXPECT_FLOAT_EQ(fabric.pe_memory(x, y).load(block.offset_words + i),
                        static_cast<f32>(1000 + i))
            << "PE(" << x << "," << y << ") word " << i;
  golden::Digest d;
  d.add(run.cycles).add(fabric.stats());
  for (i64 y = 0; y < fabric.height(); ++y)
    for (i64 x = 0; x < fabric.width(); ++x) {
      for (u32 i = 0; i < words; ++i)
        d.add(fabric.pe_memory(x, y).load(block.offset_words + i));
      const wse::Router& router = fabric.pe_router(x, y);
      for (const wse::Color c : {csl::kBcastAnyRow, csl::kBcastAnyCol})
        d.add(router.is_configured(c) ? router.position(c) : ~0u);
    }
  return d.hex();
}

struct BroadcastParam {
  i64 width, height, sx, sy;
  const char* digest;
};

void PrintTo(const BroadcastParam& p, std::ostream* os) {
  *os << p.width << "x" << p.height << " from (" << p.sx << "," << p.sy << ")";
}

class AnySourceShapes : public ::testing::TestWithParam<BroadcastParam> {};

TEST_P(AnySourceShapes, EveryPeReceivesTheBlock) {
  const auto [width, height, sx, sy, digest] = GetParam();
  wse::Fabric fabric(width, height);
  EXPECT_EQ(broadcast_digest(fabric, wse::PeCoord{sx, sy}, 6), digest)
      << width << "x" << height << " from (" << sx << "," << sy << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sources, AnySourceShapes,
    ::testing::Values(BroadcastParam{1, 1, 0, 0, "989b0c7631ea7115"},
                      BroadcastParam{4, 4, 0, 0, "dc9c2b80eb28768e"},
                      BroadcastParam{4, 4, 3, 3, "8a154a6b9fe9af0e"},
                      BroadcastParam{5, 3, 2, 1, "26d0e149bdf75a9e"},
                      BroadcastParam{3, 5, 1, 4, "057e3ea6709a27fa"},
                      BroadcastParam{1, 6, 0, 2, "c09be23ebd1a3abb"},
                      BroadcastParam{6, 1, 5, 0, "523c036347ba8a8b"},
                      BroadcastParam{7, 7, 3, 3, "b1339c2f0fd3cb68"}));

TEST(AnySourceBroadcast, HopCountMatchesManhattanOptimum) {
  // Total link hops of the flood = sum over PEs of nothing extra: each of
  // the W*H - 1 non-source PEs is reached over a shortest path, and each
  // link of the broadcast tree is traversed once per message.
  const i64 width = 5, height = 4;
  wse::Fabric fabric(width, height);
  EXPECT_EQ(broadcast_digest(fabric, wse::PeCoord{2, 1}, 3), "f347e0df6628a3b1");
  // Tree edges: (width-1) row edges + width * (height-1) column edges.
  const u64 expected_hops = static_cast<u64>(width - 1) + width * (height - 1);
  EXPECT_EQ(fabric.stats().wavelet_hops, expected_hops);
}

} // namespace
} // namespace fvdf
