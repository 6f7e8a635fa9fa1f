#include "core/bit_matrix.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/frequency_hash.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"
#include "util/memory.hpp"
#include "util/sorted_ids.hpp"
#include "util/timer.hpp"

namespace bfhrf::core {
namespace {

const obs::Gauge g_universe_width = obs::gauge("bfhrf.matrix.universe_width");
const obs::Gauge g_density = obs::gauge("bfhrf.matrix.density");
const obs::Counter g_pairs = obs::counter("bfhrf.matrix.pairs");
const obs::Counter g_tiles = obs::counter("bfhrf.matrix.tiles");
const obs::Counter g_tiles_stolen = obs::counter("bfhrf.matrix.tiles_stolen");
const obs::Counter g_engine_dense = obs::counter("bfhrf.matrix.engine.dense");
const obs::Counter g_engine_sparse =
    obs::counter("bfhrf.matrix.engine.sparse");
const obs::Histogram g_encode_seconds =
    obs::histogram("bfhrf.matrix.encode.seconds");
const obs::Histogram g_tile_seconds =
    obs::histogram("bfhrf.matrix.tile.seconds");

/// One upper-triangle block of the matrix: rows [r0, r1) × cols [c0, c1),
/// cells restricted to j > i inside the block (diagonal blocks are
/// triangular).
struct Tile {
  std::uint32_t r0 = 0;
  std::uint32_t r1 = 0;
  std::uint32_t c0 = 0;
  std::uint32_t c1 = 0;
};

/// Rows per tile so that two row bands (the tile's rows and the streamed
/// column band) stay resident in a 256 KiB L2, clamped to [8, 256] and
/// shrunk further until the triangle yields enough tiles to balance the
/// lanes.
std::size_t auto_tile_rows(std::size_t r, std::size_t row_bytes,
                           std::size_t lanes) {
  constexpr std::size_t kL2Bytes = 256 * 1024;
  std::size_t tile_rows =
      (kL2Bytes / 2) / std::max<std::size_t>(row_bytes, 1);
  tile_rows = std::clamp<std::size_t>(tile_rows, 8, 256);
  auto tiles_for = [&](std::size_t tr) {
    const std::size_t blocks = (r + tr - 1) / tr;
    return blocks * (blocks + 1) / 2;
  };
  while (tile_rows > 8 && tiles_for(tile_rows) < 4 * lanes) {
    tile_rows /= 2;
  }
  return std::max<std::size_t>(tile_rows, 1);
}

std::vector<Tile> cut_tiles(std::size_t r, std::size_t tile_rows) {
  std::vector<Tile> tiles;
  for (std::size_t rb = 0; rb < r; rb += tile_rows) {
    const std::size_t r1 = std::min(r, rb + tile_rows);
    for (std::size_t cb = rb; cb < r; cb += tile_rows) {
      const std::size_t c1 = std::min(r, cb + tile_rows);
      tiles.push_back({static_cast<std::uint32_t>(rb),
                       static_cast<std::uint32_t>(r1),
                       static_cast<std::uint32_t>(cb),
                       static_cast<std::uint32_t>(c1)});
    }
  }
  return tiles;
}

/// Run every tile through `body` on parallel_for lanes, one tile per
/// claim in deal order: each lane takes the next tile the moment it frees
/// up, so a lane that drew cheap (near-diagonal, triangular) tiles takes
/// more of them. Each lane counts its claims; the tiles stolen are those
/// a lane ran past its fair share ⌈tiles/lanes⌉, so one lane steals none
/// and a balanced run steals close to none.
template <typename Body>
void run_tiles(const std::vector<Tile>& tiles, std::size_t threads,
               const Body& body) {
  g_tiles.inc(tiles.size());
  const std::size_t lanes = parallel::lane_count(tiles.size(), threads, 1);
  std::vector<std::size_t> claims(lanes, 0);
  parallel::parallel_for_ranked(
      0, tiles.size(), threads,
      [&](std::size_t lane, std::size_t index) {
        const util::WallTimer timer;
        body(tiles[index]);
        g_tile_seconds.observe(timer.seconds());
        ++claims[lane];
      },
      /*grain=*/1);
  const std::size_t fair = (tiles.size() + lanes - 1) / lanes;
  std::size_t stolen = 0;
  for (const std::size_t c : claims) {
    stolen += c > fair ? c - fair : 0;
  }
  g_tiles_stolen.inc(stolen);
}

}  // namespace

AllPairsEngine pick_bit_engine(const UniverseStats& stats,
                               const AllPairsOptions& opts) noexcept {
  if (opts.engine == AllPairsEngine::BitDense ||
      opts.engine == AllPairsEngine::BitSparse) {
    return opts.engine;
  }
  return stats.density() >= kDefaultDensityThreshold
             ? AllPairsEngine::BitDense
             : AllPairsEngine::BitSparse;
}

RfMatrix bit_matrix_rf(std::span<const phylo::BipartitionSet> sets,
                       const AllPairsOptions& opts,
                       UniverseStats* stats_out) {
  BFHRF_ASSERT(!sets.empty());
  const std::size_t r = sets.size();
  const std::size_t n_bits = sets.front().n_bits();
  const std::size_t threads = parallel::effective_threads(opts.threads);

  UniverseStats stats;
  stats.trees = r;
  for (const auto& s : sets) {
    stats.total_memberships += s.size();
  }

  // Universe pass: one FrequencyHash build over every tree's arena and
  // fingerprint column, sized by its keys: the table doubles as they
  // arrive, and a rehash never reorders the key arena, which appends keys
  // in first-insertion order, so each unique bipartition's key_index IS
  // its dense universe id in [0, U).
  const util::WallTimer encode_timer;
  FrequencyHash universe(n_bits);
  for (const auto& s : sets) {
    universe.add_many(s.arena_view().data(), s.size(), nullptr,
                      s.fingerprints().data());
  }
  stats.universe_width = universe.unique_count();
  g_universe_width.set(static_cast<double>(stats.universe_width));
  g_density.set(stats.density());
  if (stats_out != nullptr) {
    *stats_out = stats;
  }

  const AllPairsEngine engine = pick_bit_engine(stats, opts);
  const std::size_t universe_width = stats.universe_width;
  std::vector<std::uint32_t> d(r);
  for (std::size_t i = 0; i < r; ++i) {
    d[i] = static_cast<std::uint32_t>(sets[i].size());
  }

  RfMatrix matrix(r);

  if (engine == AllPairsEngine::BitDense) {
    g_engine_dense.inc();
    // One bit-row of U bits per tree, cache-line aligned so the popcount
    // kernels' wide loads never split lines.
    const std::size_t row_words = util::words_for_bits(universe_width);
    util::CacheAlignedVector<std::uint64_t> rows(r * row_words, 0);
    parallel::parallel_for(
        0, r, threads,
        [&](std::size_t i) {
          std::uint64_t* row = rows.data() + i * row_words;
          const auto& s = sets[i];
          for (std::size_t k = 0; k < s.size(); ++k) {
            const std::uint32_t id =
                universe.key_index_of(s[k], s.fingerprints()[k]);
            row[id >> 6] |= (std::uint64_t{1} << (id & 63));
          }
        },
        /*grain=*/4);
    g_encode_seconds.observe(encode_timer.seconds());

    const std::size_t tile_rows =
        auto_tile_rows(r, row_words * sizeof(std::uint64_t), threads);
    const std::uint64_t* base = rows.data();
    run_tiles(cut_tiles(r, tile_rows), threads, [&](const Tile& t) {
      for (std::size_t i = t.r0; i < t.r1; ++i) {
        const util::ConstWordSpan row_i{base + i * row_words, row_words};
        for (std::size_t j = std::max<std::size_t>(t.c0, i + 1); j < t.c1;
             ++j) {
          const util::ConstWordSpan row_j{base + j * row_words, row_words};
          const std::size_t shared = util::popcount_and(row_i, row_j);
          matrix.set(i, j,
                     d[i] + d[j] - 2 * static_cast<std::uint32_t>(shared));
        }
      }
    });
  } else {
    g_engine_sparse.inc();
    // One sorted id list per tree, all in a single flat arena.
    std::vector<std::size_t> offsets(r + 1, 0);
    for (std::size_t i = 0; i < r; ++i) {
      offsets[i + 1] = offsets[i] + sets[i].size();
    }
    std::vector<std::uint32_t> ids(
        static_cast<std::size_t>(stats.total_memberships));
    parallel::parallel_for(
        0, r, threads,
        [&](std::size_t i) {
          std::uint32_t* out = ids.data() + offsets[i];
          const auto& s = sets[i];
          for (std::size_t k = 0; k < s.size(); ++k) {
            out[k] = universe.key_index_of(s[k], s.fingerprints()[k]);
          }
          std::sort(out, out + s.size());
        },
        /*grain=*/4);
    g_encode_seconds.observe(encode_timer.seconds());

    const std::size_t mean_row_bytes =
        (static_cast<std::size_t>(stats.total_memberships) *
             sizeof(std::uint32_t) +
         r - 1) /
        r;
    const std::size_t tile_rows = auto_tile_rows(r, mean_row_bytes, threads);
    const auto ids_of = [&](std::size_t i) {
      return std::span<const std::uint32_t>{ids.data() + offsets[i],
                                            offsets[i + 1] - offsets[i]};
    };
    run_tiles(cut_tiles(r, tile_rows), threads, [&](const Tile& t) {
      for (std::size_t i = t.r0; i < t.r1; ++i) {
        const auto ids_i = ids_of(i);
        for (std::size_t j = std::max<std::size_t>(t.c0, i + 1); j < t.c1;
             ++j) {
          const std::size_t shared =
              util::intersect_count_sorted(ids_i, ids_of(j));
          matrix.set(i, j,
                     d[i] + d[j] - 2 * static_cast<std::uint32_t>(shared));
        }
      }
    });
  }

  g_pairs.inc(static_cast<std::uint64_t>(r) * (r - 1) / 2);
  return matrix;
}

}  // namespace bfhrf::core
