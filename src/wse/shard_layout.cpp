#include "wse/shard_layout.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace fvdf::wse {

namespace {

std::vector<i64> even_splits(i64 extent, u32 bands) {
  std::vector<i64> splits(bands + 1);
  for (u32 i = 0; i <= bands; ++i)
    splits[i] = extent * static_cast<i64>(i) / static_cast<i64>(bands);
  return splits;
}

/// Internal boundary cut of a (tr, tc) grid: tr-1 horizontal cuts of
/// `width` links each plus tc-1 vertical cuts of `height` links each. The
/// smaller the cut for a given tile count, the better the area/perimeter
/// ratio of the tiles.
i64 cut_links(u32 tr, u32 tc, i64 width, i64 height) {
  return static_cast<i64>(tr - 1) * width + static_cast<i64>(tc - 1) * height;
}

} // namespace

ShardLayout choose_shard_layout(i64 width, i64 height, ShardGrid grid) {
  FVDF_CHECK_MSG(width >= 1 && height >= 1, "fabric dims must be positive");
  const i64 area = width * height;
  // Tile-count budget: enough PEs per tile to amortize the per-round
  // bookkeeping, capped at kMaxShards. Explicit overrides may exceed it.
  const u32 budget = static_cast<u32>(std::clamp<i64>(
      area / kMinTilePes, 1, static_cast<i64>(kMaxShards)));

  u32 tile_rows = 0;
  u32 tile_cols = 0;
  const u32 forced_rows =
      grid.rows == 0 ? 0 : static_cast<u32>(std::min<i64>(grid.rows, height));
  const u32 forced_cols =
      grid.cols == 0 ? 0 : static_cast<u32>(std::min<i64>(grid.cols, width));
  if (forced_rows != 0 && forced_cols != 0) {
    tile_rows = forced_rows;
    tile_cols = forced_cols;
  } else if (forced_rows != 0 || forced_cols != 0) {
    // One dimension pinned: give the free dimension the rest of the
    // budget (parallelism first; the cut is fixed up to the free count).
    const u32 forced = forced_rows != 0 ? forced_rows : forced_cols;
    const i64 free_extent = forced_rows != 0 ? width : height;
    const u32 free = static_cast<u32>(std::clamp<i64>(
        budget / forced, 1, free_extent));
    tile_rows = forced_rows != 0 ? forced_rows : free;
    tile_cols = forced_cols != 0 ? forced_cols : free;
  } else {
    // Full cost model: maximize the tile count within the budget, then
    // minimize the boundary cut; remaining ties prefer the squarer grid
    // and finally the row-major (legacy strip) orientation.
    u32 best_tiles = 0;
    i64 best_cut = 0;
    for (u32 tr = 1; tr <= std::min<i64>(height, budget); ++tr) {
      for (u32 tc = 1; tc <= std::min<i64>(width, budget); ++tc) {
        const u32 tiles = tr * tc;
        if (tiles > budget) break;
        const i64 cut = cut_links(tr, tc, width, height);
        const bool better =
            tiles > best_tiles ||
            (tiles == best_tiles &&
             (cut < best_cut ||
              (cut == best_cut &&
               (std::max(tr, tc) < std::max(tile_rows, tile_cols) ||
                (std::max(tr, tc) == std::max(tile_rows, tile_cols) &&
                 tr > tile_rows)))));
        if (better) {
          best_tiles = tiles;
          best_cut = cut;
          tile_rows = tr;
          tile_cols = tc;
        }
      }
    }
  }

  FVDF_CHECK_MSG(tile_rows >= 1 && static_cast<i64>(tile_rows) <= height &&
                     tile_cols >= 1 && static_cast<i64>(tile_cols) <= width,
                 "degenerate shard grid " << tile_rows << "x" << tile_cols
                                          << " for " << width << "x" << height);

  ShardLayout layout;
  layout.tile_rows = tile_rows;
  layout.tile_cols = tile_cols;
  layout.row_splits = even_splits(height, tile_rows);
  layout.col_splits = even_splits(width, tile_cols);
  return layout;
}

std::vector<std::vector<u32>> assign_shard_blocks(u32 tile_rows, u32 tile_cols,
                                                  u32 workers) {
  const u32 tiles = tile_rows * tile_cols;
  FVDF_CHECK_MSG(workers >= 1 && workers <= tiles,
                 "shard blocks: " << workers << " workers for " << tiles
                                  << " tiles");
  std::vector<std::vector<u32>> owned(workers);

  // Worker grid: a (wr, wc) factorization of the worker count that fits
  // the tile grid, minimizing the inter-worker cut (same objective as the
  // tile layout itself, with tiles in place of PEs). Prime worker counts on
  // square grids often have no fitting factorization; fall back to
  // contiguous row-major runs, which still keep most neighbors together.
  u32 best_wr = 0;
  u32 best_wc = 0;
  i64 best_cut = 0;
  for (u32 wr = 1; wr <= std::min(workers, tile_rows); ++wr) {
    if (workers % wr != 0) continue;
    const u32 wc = workers / wr;
    if (wc > tile_cols) continue;
    const i64 cut = cut_links(wr, wc, tile_cols, tile_rows);
    if (best_wr == 0 || cut < best_cut) {
      best_wr = wr;
      best_wc = wc;
      best_cut = cut;
    }
  }
  if (best_wr != 0) {
    for (u32 a = 0; a < best_wr; ++a) {
      const u32 r0 = tile_rows * a / best_wr;
      const u32 r1 = tile_rows * (a + 1) / best_wr;
      for (u32 b = 0; b < best_wc; ++b) {
        const u32 c0 = tile_cols * b / best_wc;
        const u32 c1 = tile_cols * (b + 1) / best_wc;
        std::vector<u32>& mine = owned[a * best_wc + b];
        for (u32 r = r0; r < r1; ++r)
          for (u32 c = c0; c < c1; ++c) mine.push_back(r * tile_cols + c);
      }
    }
  } else {
    for (u32 w = 0; w < workers; ++w) {
      const u32 begin = tiles * w / workers;
      const u32 end = tiles * (w + 1) / workers;
      for (u32 s = begin; s < end; ++s) owned[w].push_back(s);
    }
  }
  return owned;
}

} // namespace fvdf::wse
