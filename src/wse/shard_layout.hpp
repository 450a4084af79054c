#pragma once
// Shard layout planning for the parallel fabric engine: how a width x
// height PE grid is partitioned into rectangular tiles, and how the tiles
// are split among worker threads (assign_shard_blocks).
//
// The partition is a tensor product of a row split and a column split
// (tile_rows x tile_cols rectangles), so every tile has at most four
// neighbors and the shard adjacency graph is a grid — which is what lets
// the engine's per-boundary channels, merge order and min-plus horizon
// propagation stay simple (wse/fabric.hpp). The layout is a pure function
// of the fabric geometry, an optional explicit override and one bit of the
// thread count — one worker or more (resolve_shard_grid). Results never
// depend on it: the engine's event order makes every layout bitwise
// equivalent.
//
// Cost model (choose_shard_layout): among all (tile_rows, tile_cols) with
// enough PEs per tile to amortize the per-round window bookkeeping, take
// the most tiles (parallelism first) and break ties by the smallest total
// boundary cut — (tile_rows-1)*width + (tile_cols-1)*height internal link
// columns/rows — i.e. the best area/perimeter ratio. Square-ish fabrics
// get square-ish tiles (128x128 -> 4x4 tiles of 32x32); narrow fabrics
// degenerate to the 1D strip layouts (1xN -> row strips, Nx1 -> column
// strips); tiny fabrics collapse to a single serial shard.

#include <vector>

#include "common/types.hpp"

namespace fvdf::wse {

/// Explicit shard-grid override for Fabric's constructor. A zero dimension
/// means "choose by the cost model"; a nonzero one is clamped to the
/// fabric extent but otherwise honored at any thread count (tests and
/// benchmarks use this to force the 1D layout {0 rows, 1 col}, a single
/// shard {1, 1}, or a specific tile grid). {0, 0} — the default — is
/// automatic: see resolve_shard_grid.
struct ShardGrid {
  u32 rows = 0;
  u32 cols = 0;

  bool operator==(const ShardGrid&) const = default;
};

/// The grid a fabric run by `workers` threads uses for the request `grid`:
/// the automatic layout is one shard ({1, 1}) at one worker — tiles would
/// only add window rounds, bound rescans and merges that no second thread
/// overlaps — and the full cost-model choice at two or more. Explicit
/// requests pass through unchanged.
inline ShardGrid resolve_shard_grid(ShardGrid grid, u32 workers) {
  return grid == ShardGrid{} && workers <= 1 ? ShardGrid{1, 1} : grid;
}

/// A planned tile partition: row_splits/col_splits are the band edges
/// (size tile_rows+1 / tile_cols+1, starting at 0 and ending at
/// height / width; every band is non-empty). Tile (r, c) — shard id
/// r * tile_cols + c — owns rows [row_splits[r], row_splits[r+1]) x
/// cols [col_splits[c], col_splits[c+1]).
struct ShardLayout {
  u32 tile_rows = 1;
  u32 tile_cols = 1;
  std::vector<i64> row_splits;
  std::vector<i64> col_splits;

  u32 tiles() const { return tile_rows * tile_cols; }
};

/// Upper bound on the spatial decomposition (and so on useful workers).
constexpr u32 kMaxShards = 16;

/// A tile must own at least this many PEs to be worth a window round's
/// bookkeeping; smaller fabrics get proportionally fewer shards, down to
/// one (serial). This is what makes shard_count() the *useful* worker
/// count the engine clamps to.
constexpr u32 kMinTilePes = 16;

/// Chooses the tile partition for a width x height fabric (see the cost
/// model above). Deterministic; never returns empty bands.
ShardLayout choose_shard_layout(i64 width, i64 height, ShardGrid grid = {});

/// Assigns the tiles of a tile_rows x tile_cols grid to `workers` workers
/// as contiguous 2D blocks: the worker grid is the factorization of the
/// worker count that fits the tile grid with the smallest cut (the same
/// rule as the tile layout), so a tile's neighbors are owned by the same
/// worker or by an adjacent one. When no factorization fits, the tiles
/// fall back to contiguous row-major runs. Every shard id appears exactly
/// once across the result and every worker owns at least one tile.
/// Requires 1 <= workers <= tile_rows * tile_cols. Results never depend on
/// the assignment: every one executes the same round schedule.
std::vector<std::vector<u32>> assign_shard_blocks(u32 tile_rows, u32 tile_cols,
                                                  u32 workers);

} // namespace fvdf::wse
