#ifndef HCPATH_CORE_SEARCH_H_
#define HCPATH_CORE_SEARCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bfs/distance_map.h"
#include "core/options.h"
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

/// Kernel-dispatch decisions of one (KernelMode, Graph) pair, resolved
/// once per batch (RunPipeline, the batch engines) instead of per half
/// search. A default-constructed value is the "unresolved" sentinel
/// (dfs_batch_cutover == 0, a value no mode produces); RunHalfSearch then
/// falls back to resolving from HalfSearchSpec::kernel, so one-shot
/// callers need not pre-resolve. The resolution is pure dispatch: every
/// (mode, graph) pair stores identical paths and counters either way.
struct ResolvedKernel {
  /// Adjacency blocks of >= this many vertices take the batched on-path
  /// probe; 0 = unresolved.
  size_t dfs_batch_cutover = 0;
  /// Cached suffixes of >= this many vertices take the batched splice
  /// disjointness probe.
  size_t splice_batch_cutover = 0;
  bool naive = false;     ///< KernelMode::kNaive: path-scan oracle
  bool prefetch = false;  ///< adjacency prefetch pays on this graph
  bool resolved() const { return dfs_batch_cutover != 0; }
};

/// Resolves `mode` against `g` (cutover thresholds, naive oracle flag,
/// prefetch gate). Cheap, but hot paths hoist it out of the per-search
/// setup: it runs once per pipeline call (docs/PERF.md "Kernel
/// dispatch").
ResolvedKernel ResolveKernel(KernelMode mode, const Graph& g);

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

  /// Exact per-target pruning entries; may be empty when `global_min` is
  /// set instead.
  std::span<const TargetSlack> slacks;

  /// Optional O(1) pruning: dense min-dist-to-any-opposite-endpoint array
  /// plus the max slack across sharing queries (SharedPruning::kGlobalMin).
  const std::vector<Hop>* global_min = nullptr;
  int global_max_slack = 0;

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
  /// success/error outcome are identical to pool == nullptr; only the
  /// counter values of *failed* runs may differ (the sequential search
  /// stops mid-subtree at the cap, sub-searches at their own boundary).
  ThreadPool* pool = nullptr;

  /// Optional recycled epoch-stamp tables (BatchContext::stamps) backing
  /// the O(1) on-path and splice-disjointness tests; nullptr falls back to
  /// a per-thread table. Pure scratch plumbing: the visit order, prune
  /// decisions, stored paths, and counters do not depend on it.
  EpochStampPool* stamps = nullptr;

  /// Probe-kernel selection for the on-path and splice disjointness tests;
  /// every mode stores identical paths and counters (see KernelMode).
  KernelMode kernel = KernelMode::kAuto;

  /// Pre-resolved dispatch for `kernel` on the search's graph. When left
  /// unresolved (the default), RunHalfSearch resolves it on entry; callers
  /// running many searches set it once via ResolveKernel to keep the
  /// mode switch and prefetch gate out of per-search setup.
  ResolvedKernel resolved;
};

/// Runs the recursive Search procedure (Algorithm 1 lines 9-13 /
/// Algorithm 4 lines 17-24) and appends every admissible path (including
/// the trivial path `(start)`) to `out`.
Status RunHalfSearch(const Graph& g, const HalfSearchSpec& spec,
                     PathSet* out, BatchStats* stats);

}  // namespace hcpath

#endif  // HCPATH_CORE_SEARCH_H_
