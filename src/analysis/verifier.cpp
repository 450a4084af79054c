#include "analysis/verifier.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>

#include "analysis/abstract_interp.hpp"
#include "common/error.hpp"
#include "wse/bytecode.hpp"
#include "wse/router.hpp"

namespace fvdf::analysis {

using wse::Color;
using wse::ColorSet;
using wse::Dir;
using wse::PeCoord;
using wse::ProgramManifest;

namespace {

std::string pe_str(PeCoord pe) {
  std::ostringstream os;
  os << "PE (" << pe.x << ", " << pe.y << ")";
  return os.str();
}

/// Everything the checks need per PE, after instantiation.
struct PeModel {
  PeCoord coord{};
  wse::Router router;
  ProgramManifest manifest{};
  u64 used_bytes = 0;
  bool usable = false; // the factory built the image and its routes apply
  // Abstract-interpretation result for this PE's bytecode (owned by the
  // Verifier's per-program cache); set exactly when `usable`.
  const ProgramAnalysis* bytecode = nullptr;
};

// Skip the O(P^2) per-injector hop-volume totals of the balance check
// beyond this many PEs (the length-matching balance errors are still
// checked).
constexpr u64 kVolumePeCap = 4096;

class Verifier {
public:
  Verifier(i64 width, i64 height, const wse::ProgramFactory& factory,
           wse::PeMemoryParams mem)
      : width_(width), height_(height), factory_(factory), mem_(mem) {
    FVDF_CHECK_MSG(width >= 1 && height >= 1, "fabric dims must be positive");
    report_.width = width;
    report_.height = height;
    report_.memory_capacity_bytes = mem.capacity_bytes;
    report_.memory_reserved_bytes = mem.reserved_bytes;
  }

  VerifyReport run() {
    instantiate();
    for (Color c = 0; c < wse::kNumRoutableColors; ++c) {
      trace_routes(c);
      find_cycles(c);
    }
    check_delivery();
    check_switch_liveness();
    check_balance();
    return std::move(report_);
  }

private:
  std::size_t index(PeCoord pe) const {
    return static_cast<std::size_t>(pe.y * width_ + pe.x);
  }
  std::size_t state_id(std::size_t pe, Dir from) const {
    return pe * 5 + static_cast<std::size_t>(from);
  }

  void diag(Check check, Severity severity, PeCoord pe, Color color,
            std::string message, i64 pc = -1) {
    report_.diagnostics.push_back(
        Diagnostic{check, severity, pe, color, pc, std::move(message)});
  }

  // --- instantiation (and check 5: memory budget) ---
  // Each PE's image gives its routes and its allocated bytes; an image
  // the factory cannot build (an arena overflow, say) or whose routes the
  // router rejects becomes a diagnostic.

  void instantiate() {
    pes_.resize(static_cast<std::size_t>(width_ * height_));
    for (i64 y = 0; y < height_; ++y) {
      for (i64 x = 0; x < width_; ++x) {
        const PeCoord coord{x, y};
        PeModel& model = pes_[index(coord)];
        model.coord = coord;
        model.router.set_coord(coord);
        std::unique_ptr<wse::PeProgram> program;
        try {
          program = wse::instantiate(factory_, {coord, width_, height_, mem_});
          for (const auto& [color, config] : program->image().routes)
            model.router.configure(color, config);
        } catch (const Error& e) {
          const std::string_view what(e.what());
          const bool oom = what.find("PE memory overflow") !=
                           std::string_view::npos;
          // First line only: the allocator appends a multi-line allocation
          // map that belongs in a debugger, not a lint report.
          diag(oom ? Check::MemoryBudget : Check::Instantiation,
               Severity::Error, coord, wse::kInvalidColor,
               std::string(what.substr(0, what.find('\n'))));
          continue;
        }
        model.used_bytes = program->image().used_bytes();
        const CachedProgram& cached =
            analyze_bytecode(program->shared_bytecode(), model);
        model.manifest = cached.manifest;
        model.bytecode = &cached.analysis;
        model.usable = true;
        if (model.used_bytes > report_.memory_high_water_bytes) {
          report_.memory_high_water_bytes = model.used_bytes;
          report_.memory_high_water_pe = coord;
        }
      }
    }
  }

  /// One analyzed stream: the abstract-interpretation result and the
  /// manifest derived from the instructions. The cache holds the stream
  /// itself for the whole pass, so no later PE's stream can reuse the
  /// address of a freed one and inherit its analysis.
  struct CachedProgram {
    std::shared_ptr<const wse::bc::Program> program;
    ProgramAnalysis analysis;
    ProgramManifest manifest;
  };

  /// Runs the abstract interpreter once per distinct Program (PEs with the
  /// same lowering share one instruction stream through the factory's
  /// program cache) and reports its defects at the first PE that loads it.
  const CachedProgram& analyze_bytecode(
      const std::shared_ptr<const wse::bc::Program>& program,
      const PeModel& model) {
    auto [it, fresh] = analyses_.try_emplace(program.get());
    if (fresh) {
      CachedProgram& entry = it->second;
      entry.program = program;
      AnalysisParams params;
      // The interpreter's load/store bounds check against the bytes the
      // program actually allocated, not the arena capacity.
      params.memory_limit_words = static_cast<u32>(model.used_bytes / 4);
      entry.analysis = analyze_program(*program, params);
      entry.manifest = wse::bc::derive_manifest(*program);
      ++report_.bytecode_programs;
      for (const BcDefect& defect : entry.analysis.defects) {
        Check check = Check::BytecodeMemory;
        switch (defect.analysis) {
        case BcAnalysis::ControlFlow: check = Check::BytecodeControlFlow; break;
        case BcAnalysis::MemoryBounds: check = Check::BytecodeMemory; break;
        case BcAnalysis::RegisterLiveness: check = Check::BytecodeLiveness; break;
        case BcAnalysis::CostBounds: check = Check::BytecodeCost; break;
        }
        diag(check,
             defect.severity == BcSeverity::Error ? Severity::Error
                                                  : Severity::Warning,
             model.coord, wse::kInvalidColor,
             "program \"" + program->name + "\": " + defect.message,
             static_cast<i64>(defect.pc));
      }
    }
    return it->second;
  }

  // --- check 1: route completeness (BFS over (PE, arrival link) states) ---

  /// Switch positions whose rx accepts `from`. Per the documented
  /// approximation, every configured position is considered reachable.
  static void accepting_positions(std::span<const wse::SwitchPosition> positions,
                                  Dir from,
                                  std::vector<const wse::SwitchPosition*>& out) {
    out.clear();
    for (const auto& pos : positions)
      if (pos.rx.contains(from)) out.push_back(&pos);
  }

  void trace_routes(Color color) {
    std::vector<std::size_t> sources;
    for (std::size_t i = 0; i < pes_.size(); ++i)
      if (pes_[i].usable && wse::color_set_contains(pes_[i].manifest.injects, color))
        sources.push_back(i);
    if (sources.empty()) return;
    ++report_.colors_traced;

    std::vector<u8> visited(pes_.size() * 5, 0);
    std::deque<std::pair<std::size_t, Dir>> queue;
    std::vector<const wse::SwitchPosition*> accepting;

    for (std::size_t src : sources) {
      const PeModel& pe = pes_[src];
      if (!pe.router.is_configured(color)) {
        diag(Check::RouteCompleteness, Severity::Error, pe.coord, color,
             "program injects on color " + std::to_string(color) +
                 " but no route is installed at " + pe_str(pe.coord));
        continue;
      }
      accepting_positions(pe.router.positions(color), Dir::Ramp, accepting);
      if (accepting.empty()) {
        diag(Check::RouteCompleteness, Severity::Error, pe.coord, color,
             "program injects on color " + std::to_string(color) + " at " +
                 pe_str(pe.coord) +
                 " but no switch position accepts the ramp");
        continue;
      }
      if (!visited[state_id(src, Dir::Ramp)]) {
        visited[state_id(src, Dir::Ramp)] = 1;
        queue.emplace_back(src, Dir::Ramp);
      }
    }

    while (!queue.empty()) {
      const auto [pe_idx, from] = queue.front();
      queue.pop_front();
      ++report_.routes_checked;
      const PeModel& pe = pes_[pe_idx];
      accepting_positions(pe.router.positions(color), from, accepting);
      if (accepting.empty()) {
        // A wavelet parked on this link stalls until a switch advance, but
        // no position of this color ever accepts the link: permanent stall.
        diag(Check::RouteCompleteness, Severity::Error, pe.coord, color,
             "wavelet on color " + std::to_string(color) + " arriving from " +
                 wse::to_string(from) + " at " + pe_str(pe.coord) +
                 " is accepted by no switch position (permanent stall)");
        continue;
      }
      for (const wse::SwitchPosition* pos : accepting) {
        if (pos->tx.empty()) ++report_.null_route_sinks;
        for (Dir dir : wse::kCardinalDirs) {
          if (!pos->tx.contains(dir)) continue;
          const auto nb = wse::neighbor(pe.coord, dir, width_, height_);
          if (!nb) {
            diag(Check::RouteCompleteness, Severity::Error, pe.coord, color,
                 "route for color " + std::to_string(color) + " exits the " +
                     wse::to_string(dir) + " fabric edge at " +
                     pe_str(pe.coord) +
                     " (clip the tx set to a null route if the drop is "
                     "intentional)");
            continue;
          }
          const std::size_t nb_idx = index(*nb);
          if (!pes_[nb_idx].router.is_configured(color)) {
            diag(Check::RouteCompleteness, Severity::Error, *nb, color,
                 "wavelet on color " + std::to_string(color) +
                     " arrives from " +
                     wse::to_string(wse::arrival_side(dir)) + " at " +
                     pe_str(*nb) + " which has no route installed (sent by " +
                     pe_str(pe.coord) + ")");
            continue;
          }
          const std::size_t state = state_id(nb_idx, wse::arrival_side(dir));
          if (!visited[state]) {
            visited[state] = 1;
            queue.emplace_back(nb_idx, wse::arrival_side(dir));
          }
        }
      }
    }
  }

  // --- check 2: deadlock freedom (Dally & Seitz channel-dependency graph).
  // Nodes are (PE, arrival link) channels of one color; an edge A -> B
  // means a wavelet occupying channel A requires channel B to drain. A
  // cycle is a credit deadlock the event loop could reach; the diagnostic
  // prints the full cycle walk. ---

  void find_cycles(Color color) {
    // Channel nodes: arrival links only (injection can always wait on the
    // ramp; it never holds fabric buffering).
    const std::size_t n = pes_.size() * 5;
    std::vector<u8> mark(n, 0); // 0 unvisited, 1 on stack, 2 done
    std::vector<const wse::SwitchPosition*> accepting;
    bool reported = false;
    u64 nodes_seen = 0;

    // Successors of channel (pe, from): every channel the wavelet may be
    // forwarded into under some reachable switch position.
    auto successors = [&](std::size_t pe_idx, Dir from,
                          std::vector<std::pair<std::size_t, Dir>>& out) {
      out.clear();
      const PeModel& pe = pes_[pe_idx];
      accepting_positions(pe.router.positions(color), from, accepting);
      for (const wse::SwitchPosition* pos : accepting) {
        for (Dir dir : wse::kCardinalDirs) {
          if (!pos->tx.contains(dir)) continue;
          const auto nb = wse::neighbor(pe.coord, dir, width_, height_);
          if (!nb || !pes_[index(*nb)].router.is_configured(color)) continue;
          out.emplace_back(index(*nb), wse::arrival_side(dir));
        }
      }
    };

    struct Frame {
      std::size_t pe_idx;
      Dir from;
      std::vector<std::pair<std::size_t, Dir>> next;
      std::size_t cursor = 0;
    };

    // Builds the human-readable cycle walk when the DFS finds a back edge
    // from the top of `stack` to the on-stack channel (back_pe, back_from):
    // "PE (1, 0) --West--> PE (0, 0) --East--> PE (1, 0)".
    auto report_cycle = [&](const std::vector<Frame>& stack,
                            std::size_t back_pe, Dir back_from) {
      std::size_t start = 0;
      while (start < stack.size() &&
             !(stack[start].pe_idx == back_pe && stack[start].from == back_from))
        ++start;
      std::ostringstream walk;
      walk << "credit deadlock: channel-dependency cycle on color "
           << static_cast<int>(color) << ": ";
      for (std::size_t i = start; i < stack.size(); ++i) {
        // The exit link toward the next channel is the mirror of that
        // channel's arrival side.
        const Dir next_from =
            i + 1 < stack.size() ? stack[i + 1].from : back_from;
        walk << pe_str(pes_[stack[i].pe_idx].coord) << " --"
             << wse::to_string(wse::arrival_side(next_from)) << "--> ";
      }
      walk << pe_str(pes_[back_pe].coord);
      diag(Check::DeadlockFreedom, Severity::Error,
           pes_[back_pe].coord, color, walk.str());
    };

    std::vector<Frame> stack;
    for (std::size_t root = 0; root < pes_.size() && !reported; ++root) {
      if (!pes_[root].router.is_configured(color)) continue;
      for (Dir from : wse::kAllDirs) {
        const std::size_t root_state = state_id(root, from);
        if (mark[root_state] != 0) continue;
        // Only consider channels some position actually accepts.
        accepting_positions(pes_[root].router.positions(color), from, accepting);
        if (accepting.empty()) continue;

        mark[root_state] = 1;
        stack.push_back(Frame{root, from, {}, 0});
        successors(root, from, stack.back().next);
        ++nodes_seen;
        while (!stack.empty()) {
          Frame& top = stack.back();
          if (top.cursor >= top.next.size()) {
            mark[state_id(top.pe_idx, top.from)] = 2;
            stack.pop_back();
            continue;
          }
          const auto [nb_idx, nb_from] = top.next[top.cursor++];
          ++report_.cdg_edges;
          const std::size_t nb_state = state_id(nb_idx, nb_from);
          if (mark[nb_state] == 1) {
            if (!reported) {
              report_cycle(stack, nb_idx, nb_from);
              reported = true;
            }
            continue;
          }
          if (mark[nb_state] != 0) continue;
          mark[nb_state] = 1;
          stack.push_back(Frame{nb_idx, nb_from, {}, 0});
          successors(nb_idx, nb_from, stack.back().next);
          ++nodes_seen;
        }
        if (reported) break;
      }
    }
    report_.cdg_nodes += nodes_seen;
  }

  // --- check 3: delivery liveness ---

  void check_delivery() {
    // Re-trace deliveries: cheap compared to keeping per-color bitsets
    // alive, and it keeps trace_routes single-purpose.
    for (Color c = 0; c < wse::kNumRoutableColors; ++c) {
      std::vector<u8> delivered(pes_.size(), 0);
      collect_deliveries(c, delivered);
      for (std::size_t i = 0; i < pes_.size(); ++i) {
        if (!delivered[i] || !pes_[i].usable) continue;
        if (!wse::color_set_contains(pes_[i].manifest.handles, c))
          diag(Check::DeliveryLiveness, Severity::Error, pes_[i].coord, c,
               "color " + std::to_string(c) + " is delivered to the ramp at " +
                   pe_str(pes_[i].coord) +
                   " but no recv or task handler consumes it");
      }
    }
    // Activated task colors must be handled on the activating PE (local
    // activation never crosses the fabric), and a handled local-only task
    // color with no activation source can never run.
    for (const PeModel& pe : pes_) {
      if (!pe.usable) continue;
      for (Color c = 0; c < wse::kNumColors; ++c) {
        const bool activated = wse::color_set_contains(pe.manifest.activates, c);
        const bool handled = wse::color_set_contains(pe.manifest.handles, c);
        if (activated && !handled)
          diag(Check::DeliveryLiveness, Severity::Error, pe.coord, c,
               "task color " + std::to_string(c) + " is activated at " +
                   pe_str(pe.coord) + " but has no handler");
        if (handled && !activated && wse::is_local_only(c))
          diag(Check::DeliveryLiveness, Severity::Warning, pe.coord, c,
               "local task color " + std::to_string(c) + " is handled at " +
                   pe_str(pe.coord) + " but nothing ever activates it");
      }
    }
  }

  void collect_deliveries(Color color, std::vector<u8>& delivered) {
    std::vector<u8> visited(pes_.size() * 5, 0);
    std::deque<std::pair<std::size_t, Dir>> queue;
    std::vector<const wse::SwitchPosition*> accepting;
    for (std::size_t i = 0; i < pes_.size(); ++i) {
      if (!pes_[i].usable ||
          !wse::color_set_contains(pes_[i].manifest.injects, color))
        continue;
      if (!pes_[i].router.is_configured(color)) continue;
      visited[state_id(i, Dir::Ramp)] = 1;
      queue.emplace_back(i, Dir::Ramp);
    }
    while (!queue.empty()) {
      const auto [pe_idx, from] = queue.front();
      queue.pop_front();
      const PeModel& pe = pes_[pe_idx];
      accepting_positions(pe.router.positions(color), from, accepting);
      for (const wse::SwitchPosition* pos : accepting) {
        if (pos->tx.contains(Dir::Ramp)) delivered[pe_idx] = 1;
        for (Dir dir : wse::kCardinalDirs) {
          if (!pos->tx.contains(dir)) continue;
          const auto nb = wse::neighbor(pe.coord, dir, width_, height_);
          if (!nb || !pes_[index(*nb)].router.is_configured(color)) continue;
          const std::size_t state = state_id(index(*nb), wse::arrival_side(dir));
          if (!visited[state]) {
            visited[state] = 1;
            queue.emplace_back(index(*nb), wse::arrival_side(dir));
          }
        }
      }
    }
  }

  // --- check 4: switch-position liveness ---

  void check_switch_liveness() {
    wse::ColorMask advanced_anywhere = 0;
    for (const PeModel& pe : pes_)
      advanced_anywhere |= pe.manifest.advances;

    for (const PeModel& pe : pes_) {
      for (Color c = 0; c < wse::kNumRoutableColors; ++c) {
        if (!pe.router.is_configured(c)) continue;
        const std::size_t positions = pe.router.positions(c).size();
        const bool multi = positions > 1;
        const bool advanced = (advanced_anywhere & wse::color_bit(c)) != 0;
        if (multi && !advanced)
          diag(Check::SwitchLiveness, Severity::Error, pe.coord, c,
               "color " + std::to_string(c) + " has " +
                   std::to_string(positions) +
                   " switch positions at " + pe_str(pe.coord) +
                   " but no program ever advances it: positions past 0 are "
                   "unreachable");
        if (multi && advanced && !pe.router.ring_mode(c))
          diag(Check::SwitchLiveness, Severity::Warning, pe.coord, c,
               "color " + std::to_string(c) + " at " + pe_str(pe.coord) +
                   " saturates at switch position " +
                   std::to_string(positions - 1) +
                   ": advanced without ring_mode, so it never returns to "
                   "position 0");
      }
    }
  }

  // --- check 6: whole-fabric send/recv balance ---
  //
  // Per routable color: every routed delivery site must consume every
  // message length its injectors send (a reachable RECV of that exact
  // length, or a SETH-bound task handler, which is wavelet-granular).
  // Alongside the conservation proof, the pass computes the exact static
  // traffic volume: one full pass over each injector's reachable code
  // sends `send_words_total` words, each crossing `route_hops` links —
  // the telemetry `word_hops` counter per round.

  void check_balance() {
    const bool totals = static_cast<u64>(width_) * static_cast<u64>(height_) <=
                        kVolumePeCap;
    for (Color c = 0; c < wse::kNumRoutableColors; ++c) {
      std::vector<std::size_t> injectors;
      for (std::size_t i = 0; i < pes_.size(); ++i)
        if (pes_[i].usable &&
            wse::color_set_contains(pes_[i].manifest.injects, c))
          injectors.push_back(i);
      if (injectors.empty()) continue;

      std::vector<u8> delivered(pes_.size(), 0);
      collect_deliveries(c, delivered);

      ColorBalance bal;
      bal.color = c;
      bal.injectors = static_cast<u32>(injectors.size());

      // Distinct data-message lengths proven from the injectors' bytecode.
      std::vector<u32> lengths;
      for (std::size_t i : injectors) {
        const ColorFlow& flow = pes_[i].bytecode->colors[c];
        for (u32 len : flow.send_lengths)
          if (std::find(lengths.begin(), lengths.end(), len) == lengths.end())
            lengths.push_back(len);
      }

      for (std::size_t d = 0; d < pes_.size(); ++d) {
        if (!delivered[d]) continue;
        ++bal.delivery_sites;
        const PeModel& rx = pes_[d];
        if (!rx.usable) continue;
        const ColorFlow& flow = rx.bytecode->colors[c];
        if (flow.task_handler) continue; // consumes any wavelet volume
        for (u32 len : lengths) {
          if (std::find(flow.recv_lengths.begin(), flow.recv_lengths.end(),
                        len) != flow.recv_lengths.end())
            continue;
          std::ostringstream os;
          os << "color " << static_cast<int>(c) << " delivers " << len
             << "-word messages to " << pe_str(rx.coord) << " but no "
             << "reachable RECV of that length (registered lengths: {";
          for (std::size_t k = 0; k < flow.recv_lengths.size(); ++k)
            os << (k ? "," : "") << flow.recv_lengths[k];
          os << "}) and no task handler consumes it";
          diag(Check::SendRecvBalance, Severity::Error, rx.coord, c, os.str());
        }
        // Control-only traffic (lengths empty) advances switches without
        // needing a consumer: nothing further to prove at this site.
      }

      if (totals) {
        for (std::size_t i : injectors) {
          const ColorFlow& flow = pes_[i].bytecode->colors[c];
          if (flow.send_words_total == 0) continue;
          bool exact = true;
          const u64 hops = route_hops(i, c, exact);
          bal.words_per_round += flow.send_words_total;
          bal.word_hops_per_round += hops * flow.send_words_total;
          bal.exact = bal.exact && exact;
        }
      } else {
        bal.exact = false;
      }
      report_.balance.push_back(bal);
    }
  }

  /// Number of fabric links one injector's routed multicast on `color`
  /// crosses. Each (PE, arrival-link) channel is expanded once; multiple
  /// accepting positions with identical tx sets forward once (teardown
  /// switch schedules), diverging tx sets make the count an upper bound
  /// and clear `exact`.
  u64 route_hops(std::size_t src, Color color, bool& exact) {
    if (!pes_[src].router.is_configured(color)) return 0;
    u64 hops = 0;
    std::vector<u8> visited(pes_.size() * 5, 0);
    std::deque<std::pair<std::size_t, Dir>> queue;
    std::vector<const wse::SwitchPosition*> accepting;
    visited[state_id(src, Dir::Ramp)] = 1;
    queue.emplace_back(src, Dir::Ramp);
    while (!queue.empty()) {
      const auto [pe_idx, from] = queue.front();
      queue.pop_front();
      const PeModel& pe = pes_[pe_idx];
      accepting_positions(pe.router.positions(color), from, accepting);
      if (accepting.empty()) continue; // stall: route check already errored
      for (std::size_t k = 1; k < accepting.size(); ++k) {
        for (Dir dir : wse::kAllDirs)
          if (accepting[k]->tx.contains(dir) !=
              accepting[0]->tx.contains(dir)) {
            exact = false;
            break;
          }
      }
      for (Dir dir : wse::kCardinalDirs) {
        bool forwards = false;
        for (const wse::SwitchPosition* pos : accepting)
          forwards |= pos->tx.contains(dir);
        if (!forwards) continue;
        const auto nb = wse::neighbor(pe.coord, dir, width_, height_);
        if (!nb || !pes_[index(*nb)].router.is_configured(color)) continue;
        ++hops;
        const std::size_t state = state_id(index(*nb), wse::arrival_side(dir));
        if (!visited[state]) {
          visited[state] = 1;
          queue.emplace_back(index(*nb), wse::arrival_side(dir));
        }
      }
    }
    return hops;
  }

  i64 width_;
  i64 height_;
  const wse::ProgramFactory& factory_;
  wse::PeMemoryParams mem_;
  std::vector<PeModel> pes_;
  std::map<const wse::bc::Program*, CachedProgram> analyses_;
  VerifyReport report_;
};

} // namespace

const char* to_string(Check check) {
  switch (check) {
  case Check::Instantiation: return "instantiation";
  case Check::RouteCompleteness: return "route-completeness";
  case Check::DeadlockFreedom: return "deadlock-freedom";
  case Check::DeliveryLiveness: return "delivery-liveness";
  case Check::SwitchLiveness: return "switch-liveness";
  case Check::MemoryBudget: return "memory-budget";
  case Check::BytecodeControlFlow: return "bytecode-control-flow";
  case Check::BytecodeMemory: return "bytecode-memory";
  case Check::BytecodeLiveness: return "bytecode-liveness";
  case Check::BytecodeCost: return "bytecode-cost";
  case Check::SendRecvBalance: return "send-recv-balance";
  }
  return "?";
}

std::string Diagnostic::format() const {
  std::ostringstream os;
  os << (severity == Severity::Error ? "error" : "warning") << '['
     << to_string(check) << "] ";
  if (color != wse::kInvalidColor) os << "color " << static_cast<int>(color) << ' ';
  if (pc >= 0) os << "pc " << pc << ' ';
  os << "at PE (" << pe.x << ", " << pe.y << "): " << message;
  return os.str();
}

u64 VerifyReport::error_count() const {
  u64 n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == Severity::Error) ++n;
  return n;
}

u64 VerifyReport::warning_count() const {
  u64 n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == Severity::Warning) ++n;
  return n;
}

std::string VerifyReport::summary() const {
  std::ostringstream os;
  os << "fabric verify " << width << "x" << height << ": "
     << (ok() ? "OK" : "FAIL") << " (" << error_count() << " error(s), "
     << warning_count() << " warning(s))\n";
  os << "  routes: " << colors_traced << " color(s) traced, "
     << routes_checked << " (PE, link) state(s), " << null_route_sinks
     << " null-route sink(s)\n";
  os << "  channel-dependency graph: " << cdg_nodes << " node(s), "
     << cdg_edges << " edge(s), acyclic unless reported\n";
  os << "  memory: high water " << memory_high_water_bytes << " / "
     << (memory_capacity_bytes - memory_reserved_bytes)
     << " allocatable bytes (capacity " << memory_capacity_bytes
     << ", reserved " << memory_reserved_bytes << ") at PE ("
     << memory_high_water_pe.x << ", " << memory_high_water_pe.y << ")\n";
  if (bytecode_programs > 0)
    os << "  bytecode: " << bytecode_programs
       << " distinct program(s) abstractly interpreted\n";
  for (const ColorBalance& b : balance) {
    os << "  balance: color " << static_cast<int>(b.color) << ": "
       << b.injectors << " injector(s) -> " << b.delivery_sites
       << " delivery site(s)";
    if (b.words_per_round > 0) {
      os << ", " << b.words_per_round << " word(s)/round, "
         << b.word_hops_per_round << " word-hop(s)/round";
      if (!b.exact) os << " (upper bound)";
    }
    os << '\n';
  }
  for (const Diagnostic& d : diagnostics) os << "  " << d.format() << '\n';
  return os.str();
}

VerifyReport verify_program(i64 width, i64 height,
                            const wse::ProgramFactory& factory,
                            wse::PeMemoryParams mem) {
  return Verifier(width, height, factory, mem).run();
}

} // namespace fvdf::analysis

namespace fvdf::wse {

analysis::VerifyReport Fabric::verify(const ProgramFactory& factory) const {
  return analysis::verify_program(width_, height_, factory, mem_params_);
}

} // namespace fvdf::wse
