#ifndef HCPATH_CORE_CLUSTERING_H_
#define HCPATH_CORE_CLUSTERING_H_

#include <cstddef>
#include <vector>

#include "core/similarity.h"

namespace hcpath {

/// ClusterQuery (Algorithm 2): hierarchical agglomerative clustering of the
/// query batch under the group similarity δ (Def 4.6, average linkage).
/// Repeatedly merges the two clusters with the highest δ until no pair
/// exceeds γ. Returns clusters as lists of query indices; every query
/// appears in exactly one cluster. Deterministic: ties break toward the
/// smallest indices, i.e. each merge takes the row-major first pair of
/// maximal δ.
///
/// O(|Q|²) time and memory in the common case: each row keeps its first
/// maximal pair (the nearest-neighbour cache of Müllner, 2011), and a
/// merge rescans only the merged row and the rows whose cached pair it
/// touched; a full rescan of every pair per merge would cost O(|Q|³).
std::vector<std::vector<size_t>> ClusterQueries(const SimilarityMatrix& sim,
                                                double gamma);

}  // namespace hcpath

#endif  // HCPATH_CORE_CLUSTERING_H_
