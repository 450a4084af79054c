#include "analysis/lookahead.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>

#include "analysis/abstract_interp.hpp"
#include "common/error.hpp"
#include "wse/bytecode.hpp"

namespace fvdf::analysis {

namespace {

using wse::ChannelLookahead;
using wse::Color;

/// Per-fabric injection summary: which colors carry traffic at all, and
/// the weakest word bound per color.
struct InjectSummary {
  wse::ColorSet injected = 0;
  std::array<u32, wse::kNumRoutableColors> min_words{};

  void add(Color c, u32 words) {
    min_words[c] = wse::color_set_contains(injected, c)
                       ? std::min(min_words[c], words)
                       : words;
    injected |= wse::color_set_bit(c);
  }

  /// Bytecode-derived injections: only colors a *reachable* SEND/SENDC can
  /// inject, at the smallest reachable message length. Never weaker than
  /// derive_manifest, which scans unreachable code too.
  void absorb(const ProgramAnalysis& analysis) {
    for (Color c = 0; c < wse::kNumRoutableColors; ++c) {
      const ColorFlow& flow = analysis.colors[c];
      if (flow.sends) add(c, flow.min_send_words);
      if (flow.sends_control) add(c, 0); // a control wavelet carries no words
    }
  }
};

/// Neighboring shard id across cardinal side `d`, or -1 at the tile-grid
/// edge (mirrors Fabric::neighbor_shard for row-major tile ids).
i64 tile_neighbor(u32 s, std::size_t d, u32 tile_rows, u32 tile_cols) {
  const u32 r = s / tile_cols;
  const u32 c = s % tile_cols;
  switch (d) {
  case wse::cardinal_index(wse::Dir::North):
    return r > 0 ? static_cast<i64>(s - tile_cols) : -1;
  case wse::cardinal_index(wse::Dir::East):
    return c + 1 < tile_cols ? static_cast<i64>(s + 1) : -1;
  case wse::cardinal_index(wse::Dir::South):
    return r + 1 < tile_rows ? static_cast<i64>(s + tile_cols) : -1;
  default:
    return c > 0 ? static_cast<i64>(s - 1) : -1;
  }
}

/// Every existing directed boundary crossing-capable at zero minimum
/// batch; absent sides non-crossing. Always safe to install.
ChannelLookahead conservative_table(u32 tile_rows, u32 tile_cols) {
  ChannelLookahead table;
  table.out.assign(static_cast<std::size_t>(tile_rows) * tile_cols, {});
  for (u32 s = 0; s < table.out.size(); ++s)
    for (std::size_t d = 0; d < 4; ++d)
      if (tile_neighbor(s, d, tile_rows, tile_cols) < 0)
        table.out[s][d] = ChannelLookahead::Edge{false, 0};
  return table;
}

} // namespace

wse::ChannelLookahead
plan_channel_lookahead(i64 width, i64 height,
                       const std::vector<ShardTile>& tiles, u32 tile_rows,
                       u32 tile_cols, const wse::ProgramFactory& factory,
                       const wse::TimingParams& timing,
                       wse::PeMemoryParams mem) {
  FVDF_CHECK_MSG(width >= 1 && height >= 1, "fabric dims must be positive");
  FVDF_CHECK_MSG(tile_rows >= 1 && tile_cols >= 1 &&
                     tiles.size() ==
                         static_cast<std::size_t>(tile_rows) * tile_cols,
                 "tile layout does not match its grid dimensions");
  if (tiles.size() == 1) return conservative_table(1, 1);

  // Read every PE's image: its routes go into a model router (for the
  // crossing scan), its stream into the injection summary through the
  // abstract interpreter's reachable-SEND facts. Analyses are cached per
  // distinct program; the cache holds each stream for the whole pass, so a
  // freed per-PE stream's address cannot be reused by a later PE's stream.
  std::vector<wse::Router> routers(static_cast<std::size_t>(width * height));
  std::map<const wse::bc::Program*,
           std::pair<std::shared_ptr<const wse::bc::Program>, ProgramAnalysis>>
      analyses;
  AnalysisParams analysis_params;
  analysis_params.timing = timing;
  InjectSummary injects;
  for (i64 y = 0; y < height; ++y) {
    for (i64 x = 0; x < width; ++x) {
      const wse::PeCoord coord{x, y};
      wse::Router& router = routers[static_cast<std::size_t>(y * width + x)];
      router.set_coord(coord);
      try {
        const std::unique_ptr<wse::PeProgram> program =
            wse::instantiate(factory, {coord, width, height, mem});
        for (const auto& [color, config] : program->image().routes)
          router.configure(color, config);
        const auto& bytecode = program->shared_bytecode();
        auto [it, fresh] = analyses.try_emplace(bytecode.get());
        if (fresh)
          it->second = {bytecode, analyze_program(*bytecode, analysis_params)};
        injects.absorb(it->second.second);
      } catch (const Error&) {
        // A PE that cannot instantiate leaves its routes unknown; claim
        // nothing (load()/verify() report the actual failure).
        return conservative_table(tile_rows, tile_cols);
      }
    }
  }

  // A wavelet leaves tile s through side d iff some router on the tile's
  // boundary row/column for that side can transmit toward d on a color
  // somebody injects. The smallest possible crossing batch is the weakest
  // word bound over those colors.
  ChannelLookahead table = conservative_table(tile_rows, tile_cols);
  const f64 wpc = timing.words_per_cycle_link;
  for (u32 s = 0; s < static_cast<u32>(tiles.size()); ++s) {
    const ShardTile& tile = tiles[s];
    FVDF_CHECK_MSG(tile.row_end > tile.row_begin &&
                       tile.col_end > tile.col_begin,
                   "empty tile " << s << " in shard layout");
    for (std::size_t d = 0; d < 4; ++d) {
      if (tile_neighbor(s, d, tile_rows, tile_cols) < 0) continue;
      const wse::Dir dir = wse::kCardinalDirs[d];
      // The strip of routers whose `dir` link crosses the boundary.
      i64 r0 = tile.row_begin;
      i64 r1 = tile.row_end;
      i64 c0 = tile.col_begin;
      i64 c1 = tile.col_end;
      switch (d) {
      case wse::cardinal_index(wse::Dir::North): r1 = r0 + 1; break;
      case wse::cardinal_index(wse::Dir::South): r0 = r1 - 1; break;
      case wse::cardinal_index(wse::Dir::East): c0 = c1 - 1; break;
      default: c1 = c0 + 1; break; // West
      }
      u32 min_words = std::numeric_limits<u32>::max();
      bool crosses = false;
      for (i64 y = r0; y < r1; ++y)
        for (i64 x = c0; x < c1; ++x) {
          const wse::Router& router =
              routers[static_cast<std::size_t>(y * width + x)];
          for (Color c = 0; c < wse::kNumRoutableColors; ++c) {
            if (!wse::color_set_contains(injects.injected, c)) continue;
            if (router.may_transmit(c, dir)) {
              crosses = true;
              min_words = std::min(min_words, injects.min_words[c]);
            }
          }
        }
      table.out[s][d] =
          crosses ? ChannelLookahead::Edge{
                        true, wpc > 0 ? static_cast<f64>(min_words) / wpc : 0}
                  : ChannelLookahead::Edge{false, 0};
    }
  }
  return table;
}

} // namespace fvdf::analysis

namespace fvdf::wse {

ChannelLookahead
Fabric::plan_channel_lookahead(const ProgramFactory& factory) const {
  std::vector<analysis::ShardTile> tiles;
  tiles.reserve(shards_.size());
  for (const Shard& shard : shards_)
    tiles.push_back(analysis::ShardTile{shard.row_begin, shard.row_end,
                                        shard.col_begin, shard.col_end});
  return analysis::plan_channel_lookahead(width_, height_, tiles, tile_rows_,
                                          tile_cols_, factory, timing_,
                                          mem_params_);
}

} // namespace fvdf::wse
