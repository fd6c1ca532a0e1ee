#ifndef HCPATH_CORE_SEARCH_H_
#define HCPATH_CORE_SEARCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bfs/distance_map.h"
#include "core/path.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "util/epoch_stamp.h"
#include "util/status.h"

namespace hcpath {

class ThreadPool;

/// One pruning constraint for a half search: a vertex u at suffix depth d
/// is admissible if dist(u) <= slack - d, where dist comes from the
/// opposite-endpoint distance map (Lemma 3.1). A shared HC-s path node
/// carries one entry per (transitively) sharing target; a single-query
/// search carries exactly one.
struct TargetSlack {
  const VertexDistMap* dist = nullptr;
  int slack = 0;
};

/// A materialized HC-s path result usable as a DFS shortcut: when the
/// search steps onto `vertex` with remaining budget <= `budget`, cached
/// paths are spliced instead of recursing (Algorithm 4 lines 22-23).
struct SearchDep {
  VertexId vertex = kInvalidVertex;
  Hop budget = 0;
  const PathSet* paths = nullptr;
};

/// Configuration of one HC-s path enumeration (Def 4.2): all simple paths
/// starting at `start` with at most `budget` hops in direction `dir`,
/// subject to index pruning.
struct HalfSearchSpec {
  VertexId start = kInvalidVertex;
  Hop budget = 0;
  Direction dir = Direction::kForward;

  /// Exact per-target pruning entries (Lemma 3.1); empty = no pruning.
  std::span<const TargetSlack> slacks;

  /// Optional shortcut table sorted by vertex id (BatchEnum only).
  std::span<const SearchDep> deps;

  /// When set, only paths that can participate in the canonical-split join
  /// are stored: length == budget, or ending at `store_target`. Used by the
  /// non-shared algorithms to avoid materializing useless prefixes.
  bool filter_for_join = false;
  VertexId store_target = kInvalidVertex;

  /// Abort with ResourceExhausted beyond this many stored paths (0 = off).
  uint64_t max_paths = 0;

  /// Optional intra-search parallelism: when set (and the budget is deep
  /// enough to amortize it), the root's first-level frontier is split into
  /// per-neighbor sub-searches scheduled on the pool, then sub-merged in
  /// neighbor order. Stored paths, their order, the work counters, and the
  /// success/error outcome are identical to the unsplit search; only the
  /// counter values of *failed* runs may differ (the unsplit search stops
  /// mid-subtree at the cap, sub-searches at their own boundary). This is
  /// the one failed-run exception to the counter identity across thread
  /// counts; it needs a budget of at least 3.
  ThreadPool* pool = nullptr;

  /// Optional recycled epoch-stamp tables (BatchContext::stamps) backing
  /// the O(1) on-path and splice-disjointness tests; nullptr falls back to
  /// a per-thread table. Pure scratch plumbing: the visit order, prune
  /// decisions, stored paths, and counters do not depend on it.
  EpochStampPool* stamps = nullptr;
};

/// Runs the recursive Search procedure (Algorithm 1 lines 9-13 /
/// Algorithm 4 lines 17-24) and appends every admissible path (including
/// the trivial path `(start)`) to `out`.
Status RunHalfSearch(const Graph& g, const HalfSearchSpec& spec,
                     PathSet* out, BatchStats* stats);

}  // namespace hcpath

#endif  // HCPATH_CORE_SEARCH_H_
