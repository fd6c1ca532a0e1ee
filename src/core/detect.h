#ifndef HCPATH_CORE_DETECT_H_
#define HCPATH_CORE_DETECT_H_

#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "core/sharing_graph.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "index/distance_index.h"

namespace hcpath {

/// Output of common HC-s path query detection for one cluster+direction.
struct DetectionResult {
  SharingGraph psi;
  /// root_of[i] = root node serving cluster member i (kNoNode when the
  /// member is skipped, e.g. its target is unreachable within k).
  std::vector<SharingGraph::NodeId> root_of;
};

/// DetectCommonQuery (Algorithm 3): synchronized descending-hop-budget
/// traversal over the cluster's HC-s path queries in direction `dir`
/// (DESIGN.md D4 documents the deviations from the paper's pseudocode).
///
/// * Roots are deduplicated per start vertex keeping the max budget; every
///   cluster member records which root serves it.
/// * When >= 2 nodes reach the same vertex with the same remaining budget,
///   a dominating node is created and linked (Fig 6).
/// * When a node reaches a vertex anchored by a node of >= remaining
///   budget, a reuse edge is added and the traversal stops there (Fig 5b).
/// * Frontier expansion is filtered by the batch-wide min-distance array so
///   detection never walks vertices no query can use.
///
/// `budgets[i]` is cluster member i's half budget in this direction
/// (⌈k/2⌉ forward / ⌊k/2⌋ backward, or the optimized split); `skip[i]`
/// marks members excluded from detection (unreachable queries).
DetectionResult DetectCommonQueries(
    const Graph& g, Direction dir, const std::vector<PathQuery>& queries,
    const std::vector<size_t>& cluster, const std::vector<Hop>& budgets,
    const std::vector<bool>& skip, const DistanceIndex& index,
    const BatchOptions& options, BatchStats* stats);

class ThreadPool;

/// Runs DetectCommonQueries for both directions of one cluster — the two
/// traversals read only immutable batch state, so with a non-null `pool`
/// they run as two concurrent sub-tasks (the first intra-cluster
/// parallelism stage), and without one the same code runs inline. Each
/// direction accumulates into a private BatchStats which is folded into
/// `stats` forward-first, so counter totals do not depend on the pool.
void DetectBothDirections(const Graph& g,
                          const std::vector<PathQuery>& queries,
                          const std::vector<size_t>& cluster,
                          const std::vector<Hop>& fwd_budgets,
                          const std::vector<Hop>& bwd_budgets,
                          const std::vector<bool>& skip,
                          const DistanceIndex& index,
                          const BatchOptions& options, ThreadPool* pool,
                          DetectionResult* fwd, DetectionResult* bwd,
                          BatchStats* stats);

}  // namespace hcpath

#endif  // HCPATH_CORE_DETECT_H_
