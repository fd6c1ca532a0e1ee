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
/// array backs the detection traversal's frontier filter.
///
/// A source's map is a view on its wave's level masks (`wave_masks`) when
/// its wave is bit-sliced and the map reaches the density threshold, and a
/// hash map otherwise (see MultiSourceBfs for the rule).
struct MsBfsResult {
  /// per_source[i] holds dist(sources[i], v) for all v within caps[i] hops.
  std::vector<VertexDistMap> per_source;
  /// One level-major mask block per bit-sliced wave of the last build,
  /// shared with that wave's views. The next build over this result reuses
  /// a block once no view outside the result still holds it, and lets go
  /// of the others, so a view copied or moved out stays valid.
  std::vector<std::shared_ptr<std::vector<uint64_t>>> wave_masks;
  /// min_dist[v] = min_i { dist(sources[i], v) : dist <= caps[i] },
  /// kUnreachable if no source reaches v within its own cap. Honoring the
  /// per-source caps makes the array a pure function of the (source, cap)
  /// multiset — the property cache-served index builds rely on.
  std::vector<Hop> min_dist;
  /// Total vertices discovered across sources (with multiplicity).
  uint64_t total_discovered = 0;
  /// Levels expanded bottom-up, summed over waves (see MultiSourceBfs).
  /// Observability only: it depends on how sources fall into waves, so a
  /// cache-served build that runs fewer waves reports fewer.
  uint64_t bottom_up_levels = 0;
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
  /// `dist`, by the wave slots set in `fresh`. A (vertex, dist) pair is
  /// logged at most once per wave. After the traversal the log sizes the
  /// wave's outputs, fills its hash maps and min_dist, and carves the mask
  /// block's lower levels out of the seen masks. `dist` sits in what would
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
  /// An output that becomes a view on its wave slot's masks.
  struct ViewOutput {
    size_t out;   // index into per_source
    size_t slot;  // wave slot
    size_t size;  // entries within the output's cap
  };
  /// Working arrays of one running wave. `masks` is |V|-sized and left
  /// all-zero between waves; the rest is per-wave and keeps its capacity
  /// across waves and calls. The wave's outputs live in MsBfsResult, not
  /// here: its hash maps and its mask block.
  struct WaveBuffers {
    std::vector<VertexMasks> masks;
    std::vector<VertexId> frontier;
    std::vector<VertexId> touched;
    /// Every discovery of the wave, in traversal order, hence by distance;
    /// level_start[d] is the first discovery at distance d, and
    /// level_start[levels] the log's end.
    std::vector<Discovery> log;
    std::vector<size_t> level_start;
    /// Bit-sliced per (slot, distance) discovery counters: they give each
    /// output's size, hence its backing, and size each hash map once
    /// before it is filled.
    std::vector<uint64_t> planes;
    /// capped[d]: the slots with an output of cap >= d, i.e. those whose
    /// discoveries at distance d count towards min_dist.
    std::vector<uint64_t> capped;
    /// The outputs that become views.
    std::vector<ViewOutput> views;
  };
  /// One parallel wave task's private working set.
  struct PerWave {
    WaveBuffers buf;
    std::vector<Hop> min_dist;  // accumulates across this slot's waves
    uint64_t discovered = 0;
    uint64_t bottom_up_levels = 0;
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
/// Traversal direction. Each level is direction-optimizing (Beamer,
/// Asanović and Patterson, SC'12). A small frontier expands top-down: each
/// frontier vertex ORs its seen mask into its out-neighbours' masks. Once
/// the frontier holds at least |V|/64 vertices and its out-edges exceed
/// |E|/2, the level runs bottom-up instead: every vertex still missing a
/// slot that discovered something on the previous level ORs its
/// in-neighbours' seen masks (`Neighbors(v, Reverse(dir))`) and stops as
/// soon as it holds all such slots. Both directions find the same
/// (vertex, distance, slots) discoveries; only their order within a level
/// differs, which a hash map's slot layout alone can observe.
/// MsBfsResult::bottom_up_levels counts the bottom-up levels.
///
/// `caps[i]` is the per-source hop cap (typically the query's k); the wave
/// runs to the max cap of its 64 sources, and discoveries beyond a source's
/// own cap are discarded on output. Duplicate sources are deduplicated
/// internally and share one BFS.
///
/// Backing rule. An output is dense when it holds at least |V|/8 entries
/// (the VertexDistMap threshold). A wave with at least one dense output is
/// bit-sliced: it keeps one level-major block where bit i of
/// within[(d-1)·|V| + v] is set when slot i reaches v in at most d hops,
/// for d = 1..L, L being the largest cap among its dense outputs. Each
/// dense output is a view on its slot of that block; the wave's other
/// outputs are hash maps. A bit-sliced wave therefore costs 8·L bytes per
/// vertex (32 at k = 4) however many of its outputs are dense, against one
/// byte per vertex for each dense output stored as a flat array — and the
/// traversal already holds the masks, so no per-output fill is needed.
///
/// When `pool` is non-null and more than one wave exists, waves run across
/// the pool's workers: each wave owns its scratch arrays, a private
/// min-dist accumulator and its own mask block, and per-source output maps
/// are disjoint across waves, so the result is bit-identical to the
/// sequential run (docs/PARALLELISM.md).
MsBfsResult MultiSourceBfs(const Graph& g,
                           const std::vector<VertexId>& sources,
                           const std::vector<Hop>& caps, Direction dir,
                           ThreadPool* pool = nullptr);

/// As above, but writes into `out` (per-source maps are recycled via
/// ClearKeepCapacity, and mask blocks as MsBfsResult::wave_masks says, so
/// their storage survives across batches) and borrows working memory from
/// `scratch` when non-null. Either pointer may be null; the convenience
/// overload above forwards here.
void MultiSourceBfs(const Graph& g, const std::vector<VertexId>& sources,
                    const std::vector<Hop>& caps, Direction dir,
                    ThreadPool* pool, MsBfsScratch* scratch,
                    MsBfsResult* out);

}  // namespace hcpath

#endif  // HCPATH_BFS_MSBFS_H_
