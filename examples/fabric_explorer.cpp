// Fabric explorer: programming the simulated wafer-scale engine directly.
//
// This example is a guided tour of the device programming model the solver
// is built on — the level at which the paper's CSL code operates:
//   1. routers and colors: the Table-I four-step halo exchange, whose
//      switch-position rings are advanced by trailing control wavelets
//      (Listing 1), lowered by csl::HaloEmitter;
//   2. the whole-fabric all-reduce (Sec. III-C) summing one value per PE,
//      lowered by csl::ReduceEmitter;
//   3. DSD vector instructions with the instruction/traffic ledger that
//      backs Table V.
// Like the solver's device programs, the tour is one flat bytecode
// program per PE (wse/bytecode.hpp) written with the csl emitters.
//
//   ./examples/fabric_explorer [--width 6 --height 4 --nz 16]

#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "csl/allreduce.hpp"
#include "csl/halo.hpp"
#include "csl/lowering.hpp"
#include "wse/bytecode.hpp"
#include "wse/fabric.hpp"

using namespace fvdf;
using namespace fvdf::wse;

namespace {

// The PE program that runs the tour: exchange columns with the four
// neighbors, reduce a scalar across the fabric, then do some vector
// arithmetic with the result. The body writes this PE's image: routes,
// allocations, the uploaded column and the lowered stream. At cycle 0 the
// stream's entry block runs, and the fabric dispatches every later task
// into the stream. PE (0,0) reports where the all-reduce result lands (the
// same offset on every PE).
std::unique_ptr<PeProgram> tour_program(u32 nz, MemSpan* total_out) {
  return std::make_unique<PeProgram>([=](ImageBuilder& ctx) {
    csl::HaloExchange().configure(ctx);
    csl::AllReduce reduce;
    reduce.configure(ctx);

    const MemSpan column = ctx.memory().alloc_f32("column", nz);
    const MemSpan west = ctx.memory().alloc_f32("west", nz);
    csl::HaloEmitter::Spec halo_spec;
    halo_spec.column = dsd(column);
    halo_spec.west = dsd(west);
    for (Dsd* halo : {&halo_spec.east, &halo_spec.south, &halo_spec.north})
      *halo = dsd(ctx.memory().alloc_f32("halo", nz));
    const MemSpan ones = ctx.memory().alloc_f32("ones", nz);
    const MemSpan total = ctx.memory().alloc_f32("total", 1);
    if (ctx.coord() == PeCoord{0, 0}) *total_out = total;
    // Fill the column with this PE's linear id (a host upload, uncharged).
    const f32 id = static_cast<f32>(ctx.coord().y * ctx.fabric_width() + ctx.coord().x);
    for (u32 z = 0; z < nz; ++z) ctx.memory().store(column.offset_words + z, id);

    bc::Builder b("tour");
    csl::HaloEmitter halo(b, ctx.coord(), ctx.fabric_width(),
                          ctx.fabric_height(), halo_spec);
    csl::ReduceEmitter allreduce(
        b, ctx.coord(), ctx.fabric_width(), ctx.fabric_height(),
        {{}, reduce.slot_value().offset_words, reduce.slot_in().offset_words,
         /*cont_reg=*/1});
    const auto after_halo = b.make_label();
    const auto after_reduce = b.make_label();
    allreduce.emit_handler_bindings();
    // Step 1: the halo exchange; its last step continues at after_halo.
    b.setc(halo_spec.cont_reg, after_halo);
    halo.emit_start();
    b.ret();
    // Step 2: all-reduce the first word of the western neighbor's column
    // (the x=0 PE contributes its own id since it has no western neighbor).
    b.bind(after_halo);
    b.lods(0, ctx.coord().x == 0 ? column.offset_words : west.offset_words);
    b.setc(1, after_reduce);
    b.jmp(allreduce.start_label());
    // Step 3: vector arithmetic with the reduced value: column += total.
    b.bind(after_reduce);
    b.rstore(0, total.offset_words);
    b.vmovi(b.dsd(dsd(ones)), 1.0f);
    b.vmacr(b.dsd(dsd(column)), b.dsd(dsd(column)), b.dsd(dsd(ones)), 0);
    b.halt();
    b.ret();
    halo.emit_handlers();
    allreduce.emit_blocks();
    return std::make_shared<const bc::Program>(b.finish());
  });
}

} // namespace

int main(int argc, char** argv) {
  i64 width = 6, height = 4, nz = 16;
  CliParser cli("fabric_explorer", "tour of the simulated WSE programming model");
  cli.add_i64("width", &width, "fabric width (PEs)");
  cli.add_i64("height", &height, "fabric height (PEs)");
  cli.add_i64("nz", &nz, "words per PE column");
  if (!cli.parse(argc, argv)) return 0;

  Fabric fabric(width, height);
  MemSpan total{}; // the all-reduce result slot
  fabric.load([&](PeCoord) { return tour_program(static_cast<u32>(nz), &total); });
  const auto result = fabric.run();

  std::cout << "fabric " << width << "x" << height << ", " << nz
            << "-word columns: " << (result.all_halted ? "completed" : "STUCK")
            << " after " << fmt_count(static_cast<u64>(result.cycles))
            << " cycles (" << fmt_seconds(fabric.seconds(result.cycles)) << " at "
            << fabric.timing().clock_hz / 1e9 << " GHz)\n\n";

  const auto& stats = fabric.stats();
  Table table("Fabric statistics");
  table.set_header({"metric", "value"});
  table.add_row({"messages sent", fmt_count(stats.messages_sent)});
  table.add_row({"wavelet hops", fmt_count(stats.wavelet_hops)});
  table.add_row({"words delivered", fmt_count(stats.words_delivered)});
  table.add_row({"words dropped off-edge", fmt_count(stats.words_dropped)});
  table.add_row({"control wavelets", fmt_count(stats.control_wavelets)});
  table.add_row({"backpressure stalls", fmt_count(stats.flits_stalled)});
  table.add_row({"tasks run", fmt_count(stats.tasks_run)});
  std::cout << table << '\n';

  const OpCounters totals = fabric.total_counters();
  std::cout << "instruction ledger (all PEs): " << totals.summary() << '\n';

  // Every PE must hold the same reduced value: the sum over PEs of the id
  // of their western neighbor, or their own id on the x=0 column.
  f64 expected = 0;
  for (i64 y = 0; y < height; ++y)
    for (i64 x = 0; x < width; ++x)
      expected += static_cast<f64>(y * width + (x > 0 ? x - 1 : 0));
  bool agree = true;
  for (i64 y = 0; y < height; ++y)
    for (i64 x = 0; x < width; ++x)
      agree &= fabric.pe_memory(x, y).load(total.offset_words) ==
               static_cast<f32>(expected);
  std::cout << "all-reduce total: expected " << expected << ", PE(0,0) holds "
            << fabric.pe_memory(0, 0).load(total.offset_words)
            << (agree ? " (every PE agrees)" : " (PEs DISAGREE)") << "\n";
  return result.all_halted && agree ? 0 : 1;
}
