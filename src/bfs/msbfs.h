#ifndef HCPATH_BFS_MSBFS_H_
#define HCPATH_BFS_MSBFS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bfs/distance_map.h"
#include "graph/graph.h"
#include "util/thread_pool.h"

namespace hcpath {

/// Result of a multi-source BFS: one hop-capped distance map per source,
/// plus a dense array of the minimum distance to *any* source. The min
/// array backs the cheap kGlobalMin shared-pruning mode (DESIGN.md D3) and
/// the detection traversal's frontier filter.
struct MsBfsResult {
  /// per_source[i] holds dist(sources[i], v) for all v within caps[i] hops.
  std::vector<VertexDistMap> per_source;
  /// min_dist[v] = min_i { dist(sources[i], v) : dist <= caps[i] },
  /// kUnreachable if no source reaches v within its own cap. Honoring the
  /// per-source caps makes the array a pure function of the (source, cap)
  /// multiset — the property cache-served index builds rely on.
  std::vector<Hop> min_dist;
  /// Total vertices discovered across sources (with multiplicity).
  uint64_t total_discovered = 0;
};

/// Reusable |V|-sized working memory for MultiSourceBfs. A long-lived
/// caller (BatchContext / PathEngine) keeps one per concurrent build
/// direction and hands it back on every call, so sustained batch traffic
/// stops paying two |V|-sized allocations (plus one per parallel wave
/// slot) per index build. The scratch is owned exclusively by one
/// MultiSourceBfs call at a time; contents are re-initialized per call, so
/// results are identical to scratch-free runs.
struct MsBfsScratch {
  /// One discovery of a wave: `vertex` was first reached, at distance
  /// `dist`, by the wave slots set in `fresh`. `dist` sits in what would
  /// otherwise be padding.
  struct Discovery {
    VertexId vertex;
    Hop dist;
    uint64_t fresh;
  };
  static_assert(sizeof(Discovery) == 16);
  /// Per-vertex traversal state: the wave slots that have reached the
  /// vertex, and those reaching it on the level being expanded. Kept side
  /// by side because the inner loop tests one and sets the other for the
  /// same neighbor.
  struct VertexMasks {
    uint64_t seen;
    uint64_t next;
  };
  /// Working arrays of one running wave. `masks` is |V|-sized and left
  /// all-zero between waves; the rest is per-wave and keeps its capacity
  /// across waves and calls.
  struct WaveBuffers {
    std::vector<VertexMasks> masks;
    std::vector<VertexId> frontier;
    std::vector<VertexId> touched;
    /// Every discovery of the wave, in traversal order.
    std::vector<Discovery> log;
    /// The log counting-sorted by 1024-vertex block, and the block offsets
    /// that sort uses. The output maps are filled from this copy, so one
    /// block's writes stay within a small window of each map.
    std::vector<Discovery> by_block;
    std::vector<size_t> block_start;
    /// Per (slot, distance) discovery counts, from which each output map
    /// is sized once before it is filled.
    std::vector<size_t> count;
  };
  /// One parallel wave task's private working set.
  struct PerWave {
    WaveBuffers buf;
    std::vector<Hop> min_dist;  // accumulates across this slot's waves
    uint64_t discovered = 0;
  };
  /// Checked-out-and-recycled working sets for the wave-parallel build;
  /// grows to the peak wave concurrency and is then reused forever.
  std::vector<std::unique_ptr<PerWave>> wave_scratch;
  /// Sequential-path working set.
  WaveBuffers sequential;
};

/// Bit-parallel multi-source BFS after Then et al. (VLDB'15), the
/// "state-of-the-art multi-source BFSs [36]" the paper builds its index
/// with. Sources are processed in waves of up to 64; each vertex carries a
/// 64-bit "seen" mask and frontiers advance with word-wide OR/ANDNOT,
/// amortizing edge traversals across sources that explore overlapping
/// neighborhoods.
///
/// `caps[i]` is the per-source hop cap (typically the query's k); the wave
/// runs to the max cap of its 64 sources, and discoveries beyond a source's
/// own cap are discarded on output. Duplicate sources are deduplicated
/// internally and share one BFS.
///
/// When `pool` is non-null and more than one wave exists, waves run across
/// the pool's workers: each wave owns its scratch arrays and a private
/// min-dist accumulator, and per-source output maps are disjoint across
/// waves, so the result is bit-identical to the sequential run
/// (docs/PARALLELISM.md).
MsBfsResult MultiSourceBfs(const Graph& g,
                           const std::vector<VertexId>& sources,
                           const std::vector<Hop>& caps, Direction dir,
                           ThreadPool* pool = nullptr);

/// As above, but writes into `out` (per-source maps are recycled via
/// ClearKeepCapacity, so their backing storage survives across batches) and
/// borrows working memory from `scratch` when non-null. Either pointer may
/// be null; the convenience overload above forwards here.
void MultiSourceBfs(const Graph& g, const std::vector<VertexId>& sources,
                    const std::vector<Hop>& caps, Direction dir,
                    ThreadPool* pool, MsBfsScratch* scratch,
                    MsBfsResult* out);

}  // namespace hcpath

#endif  // HCPATH_BFS_MSBFS_H_
