#pragma once
// Static channel-lookahead planner for the parallel fabric engine.
//
// The engine partitions the PE grid into rectangular tile shards and, each
// window round, lets a shard run ahead of its neighbors up to the earliest
// cycle a neighbor could place a wavelet across their shared boundary.
// The dynamic half of that bound (per-event boundary distance x hop
// latency) the engine computes itself; this pass supplies the static half:
// for every *directed* tile boundary (shard s leaving through cardinal
// side d), *can* any configured route carry a wavelet across at all, and
// if so, what is the smallest link batch any crossing message can occupy?
//
// The pass reads every PE's image (wse/program.hpp) — nothing runs — and
// combines three facts:
//   1. which colors the boundary-row (or boundary-column) routers can
//      transmit across the boundary (Router::may_transmit over all switch
//      positions of the image's routes),
//   2. which colors any PE ever injects (the reachable SENDs of its
//      stream), and
//   3. the minimum words per injected color (the shortest reachable SEND).
// A boundary no injected color can cross is marked non-crossing, which
// decouples the two shards entirely. Soundness rests on what an image is:
// a PE's routes are all in its route table and its sends are all in its
// stream. The fabric's default table — every boundary crossing-capable
// at zero cost — is always safe.
//
// See docs/simulator.md ("Parallel execution model") for how the engine
// consumes the table and the full safety argument.

#include <vector>

#include "wse/fabric.hpp"
#include "wse/program.hpp"
#include "wse/timing.hpp"

namespace fvdf::analysis {

/// One shard's PE rectangle, rows [row_begin, row_end) x cols
/// [col_begin, col_end). Passed row-major in tile order (shard id
/// r * tile_cols + c), matching Fabric's layout.
struct ShardTile {
  i64 row_begin = 0;
  i64 row_end = 0;
  i64 col_begin = 0;
  i64 col_end = 0;
};

/// Computes the lookahead table for `factory` on the given tile layout
/// (`tiles.size() == tile_rows * tile_cols`, row-major). Falls back to the
/// fully conservative table (every existing boundary crossing at zero
/// minimum batch) if any PE's image fails to build or apply — the planner
/// never throws for program bugs; load()/verify() surface those.
///
/// Each program contributes the injected colors and minimum message words
/// of its *reachable* SEND/SENDC instructions (from the abstract
/// interpreter's per-color dataflow summary). `mem` sizes the arenas the
/// images are built for.
wse::ChannelLookahead
plan_channel_lookahead(i64 width, i64 height,
                       const std::vector<ShardTile>& tiles, u32 tile_rows,
                       u32 tile_cols, const wse::ProgramFactory& factory,
                       const wse::TimingParams& timing,
                       wse::PeMemoryParams mem = {});

} // namespace fvdf::analysis
