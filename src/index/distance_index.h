#ifndef HCPATH_INDEX_DISTANCE_INDEX_H_
#define HCPATH_INDEX_DISTANCE_INDEX_H_

#include <cstdint>
#include <vector>

#include "bfs/msbfs.h"
#include "graph/graph.h"
#include "index/endpoint_cache.h"

namespace hcpath {

/// The PathEnum-style pruning index for a batch of queries (Section III of
/// the paper): for every query source s, dist_G(s, v) for all v within the
/// query's hop constraint, and for every target t, dist_Gr(t, v) likewise.
/// Built with two multi-source BFSs (Algorithm 1, lines 1-2).
///
/// Lookups drive Lemma 3.1 pruning: a neighbor v can extend a forward
/// prefix of length l for query (s, t, k) only if
///   dist_Gr(t, v) == dist_G(v, t) <= k - l - 1.
///
/// The index also exposes:
///  * Γ(q) / Γr(q) (Def 4.4) as the sorted key sets of the per-endpoint
///    maps, reused by query clustering exactly as the paper reuses the
///    index construction traversals;
///  * dense min-distance arrays over all sources/targets, used by the
///    detection traversal and by the kGlobalMin shared-pruning mode.
///
/// A DistanceIndex is designed to be *recycled*: Build() clears the
/// previous batch's maps in place (keeping their backing storage) instead
/// of reallocating, which is what lets a long-lived PathEngine run batch
/// after batch without per-batch index churn (docs/SERVICE.md).
class DistanceIndex {
 public:
  DistanceIndex() = default;

  /// Builds the index. `sources[i]` / `targets[i]` / `hops[i]` describe
  /// query i. Sources are BFS'd on G, targets on Gr, both capped at the
  /// query's hop constraint. With a pool, the forward and backward builds
  /// run concurrently and each shards its source waves across workers; the
  /// result is identical to the inline build without a pool
  /// (docs/PARALLELISM.md).
  ///
  /// With a `cache`, each unique (endpoint, direction, cap) key is probed
  /// first; hits are copied out of the cache instead of BFS'd, and maps
  /// built for misses are inserted for future batches. Served maps are
  /// content-identical to a fresh build, so batch output is unchanged
  /// (docs/SERVICE.md has the coherence argument); hit/miss totals for the
  /// last Build are exposed below. Probes and fills run strictly outside
  /// the parallel BFS section, on the calling thread.
  ///
  /// `graph_epoch` is the snapshot epoch `g` corresponds to on a dynamic
  /// graph (GraphStore / docs/DYNAMIC.md): probes only hit entries valid
  /// at that epoch and misses are inserted under it. Static callers leave
  /// the default 0.
  ///
  /// `fwd_scratch` / `bwd_scratch` optionally recycle the BFS working
  /// memory across builds (they must be distinct: the two directions run
  /// concurrently).
  void Build(const Graph& g, const std::vector<VertexId>& sources,
             const std::vector<VertexId>& targets,
             const std::vector<Hop>& hops, ThreadPool* pool = nullptr,
             EndpointDistanceCache* cache = nullptr,
             MsBfsScratch* fwd_scratch = nullptr,
             MsBfsScratch* bwd_scratch = nullptr, uint64_t graph_epoch = 0);

  size_t num_queries() const { return fwd_.per_source.size(); }

  /// Full distance map of source i (dist_G(source_i, v)).
  const VertexDistMap& FromSourceMap(size_t i) const {
    return fwd_.per_source[i];
  }
  /// Full distance map of target i (dist_G(v, target_i), built on Gr).
  const VertexDistMap& ToTargetMap(size_t i) const {
    return bwd_.per_source[i];
  }

  /// dist_G(source_i, v); kUnreachable beyond the cap.
  Hop DistFromSource(size_t i, VertexId v) const {
    return fwd_.per_source[i].Lookup(v);
  }
  /// dist_G(v, target_i) (computed on Gr); kUnreachable beyond the cap.
  Hop DistToTarget(size_t i, VertexId v) const {
    return bwd_.per_source[i].Lookup(v);
  }

  /// Γ(q_i): vertices within hops[i] of source i on G (sorted).
  const std::vector<VertexId>& Gamma(size_t i) const {
    return fwd_.per_source[i].SortedKeys();
  }
  /// Γr(q_i): vertices within hops[i] of target i on Gr (sorted).
  const std::vector<VertexId>& GammaR(size_t i) const {
    return bwd_.per_source[i].SortedKeys();
  }

  /// min_i dist_G(source_i, v) — dense, kUnreachable if none.
  const std::vector<Hop>& MinDistFromAnySource() const {
    return fwd_.min_dist;
  }
  /// min_i dist_G(v, target_i) — dense, kUnreachable if none.
  const std::vector<Hop>& MinDistToAnyTarget() const { return bwd_.min_dist; }

  /// Dense min-dist array that prunes searches in direction `dir`.
  const std::vector<Hop>& MinDistToOpposite(Direction dir) const {
    return dir == Direction::kForward ? bwd_.min_dist : fwd_.min_dist;
  }

  /// Seconds spent in the last Build() (the BuildIndex phase of Fig 9).
  double build_seconds() const { return build_seconds_; }

  /// Unique (endpoint, direction, cap) keys served from / missed in the
  /// distance cache during the last Build(); both zero without a cache.
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

  /// Map entries the last Build()'s BFSs produced, both directions
  /// (MsBfsResult::total_discovered). A cache-aware build counts its miss
  /// BFS alone, one output per unique missed key; served maps add nothing.
  uint64_t total_discovered() const {
    return fwd_.total_discovered + bwd_.total_discovered;
  }

  /// MS-BFS levels the last Build() expanded bottom-up, both directions
  /// (MsBfsResult::bottom_up_levels).
  uint64_t bottom_up_levels() const {
    return fwd_.bottom_up_levels + bwd_.bottom_up_levels;
  }

  /// Approximate heap bytes: the maps' own storage, the min-dist arrays,
  /// and each held MS-BFS mask block once (views on a block own no bytes).
  uint64_t MemoryBytes() const;

 private:
  struct DirectionPlan;
  void ProbeAndPlan(const Graph& g, EndpointDistanceCache* cache,
                    const std::vector<Hop>& hops, uint64_t graph_epoch,
                    DirectionPlan& plan);
  void CommitMisses(EndpointDistanceCache* cache, uint64_t graph_epoch,
                    DirectionPlan& plan);

  MsBfsResult fwd_;  // per-source maps on G + min-dist to any source
  MsBfsResult bwd_;  // per-target maps on Gr + min-dist to any target
  MsBfsResult miss_build_[2];  // recycled BFS outputs for cache misses
  double build_seconds_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
};

}  // namespace hcpath

#endif  // HCPATH_INDEX_DISTANCE_INDEX_H_
