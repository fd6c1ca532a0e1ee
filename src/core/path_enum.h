#ifndef HCPATH_CORE_PATH_ENUM_H_
#define HCPATH_CORE_PATH_ENUM_H_

#include "bfs/distance_map.h"
#include "core/join.h"
#include "core/path.h"
#include "core/query.h"
#include "core/search.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "util/epoch_stamp.h"
#include "util/status.h"

namespace hcpath {

/// Options for the single-query engine.
struct SingleQueryOptions {
  /// Optimized search order (the "+" variants in Section V): instead of the
  /// fixed ⌈k/2⌉/⌊k/2⌋ split, the forward/backward hop budgets are chosen
  /// from the per-level reach counts of the two endpoint BFS maps so the
  /// cheaper side absorbs more hops.
  bool optimized_order = false;
  uint64_t max_paths = 0;  ///< 0 = unlimited
};

/// Chooses the forward hop budget hf in [1, k] minimizing the estimated
/// bidirectional search cost; ties prefer the balanced split ⌈k/2⌉.
/// `to_target` maps v -> dist(v, t); `from_source` maps v -> dist(s, v).
Hop ChooseForwardBudget(const VertexDistMap& from_source,
                        const VertexDistMap& to_target, int k,
                        bool optimized_order);

/// PathEnum (Sun et al., SIGMOD'21), the paper's single-query
/// state-of-the-art baseline: builds a per-query distance index with two
/// hop-capped BFSs, then runs the bidirectional pruned DFS and the
/// concatenation join (Section III). Emits every HC-s-t path of `q` to
/// `sink` tagged with `query_index`.
Status PathEnumQuery(const Graph& g, const PathQuery& q,
                     const SingleQueryOptions& options, size_t query_index,
                     PathSink* sink, BatchStats* stats);

/// Core of Algorithm 1's per-query loop: enumerates `q` given prebuilt
/// endpoint distance maps (from a shared index or per-query BFSs).
/// `stamps` / `join_scratch` recycle the kernel working sets across
/// queries (BatchContext); nullptr falls back to per-thread scratch.
Status EnumerateWithMaps(const Graph& g, const PathQuery& q,
                         const VertexDistMap& from_source,
                         const VertexDistMap& to_target,
                         const SingleQueryOptions& options,
                         size_t query_index, PathSink* sink,
                         BatchStats* stats,
                         EpochStampPool* stamps = nullptr,
                         JoinScratchPool* join_scratch = nullptr);

}  // namespace hcpath

#endif  // HCPATH_CORE_PATH_ENUM_H_
