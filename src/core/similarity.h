#ifndef HCPATH_CORE_SIMILARITY_H_
#define HCPATH_CORE_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/query.h"
#include "graph/graph.h"
#include "index/distance_index.h"
#include "util/bitset.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hcpath {

/// Symmetric matrix of pairwise HC-s-t path query similarities µ (Def 4.5).
class SimilarityMatrix {
 public:
  explicit SimilarityMatrix(size_t n) : n_(n), values_(n * n, 0.0) {
    for (size_t i = 0; i < n; ++i) values_[i * n + i] = 1.0;
  }

  size_t size() const { return n_; }
  double Get(size_t i, size_t j) const { return values_[i * n_ + j]; }
  void Set(size_t i, size_t j, double v) {
    values_[i * n_ + j] = v;
    values_[j * n_ + i] = v;
  }

  /// Average pairwise similarity µ_Q over distinct pairs (Exp-1); 0 when
  /// |Q| < 2.
  double Average() const;

 private:
  size_t n_;
  std::vector<double> values_;
};

/// Reusable working memory for ComputeSimilarityMatrix: per-query sketches
/// and the vertices bucketed by sketch hash in sketch mode, per-endpoint
/// bitsets in exact mode. A long-lived caller (BatchContext) passes the
/// same scratch every batch so the O(|Q|) outer vectors and the |V|-sized
/// arrays are recycled instead of reallocated; the computed matrix is
/// unaffected.
struct SimilarityScratch {
  std::vector<std::vector<uint64_t>> fwd_sketch, bwd_sketch;
  std::vector<size_t> fwd_size, bwd_size;
  std::vector<DynamicBitset> fwd_bits, bwd_bits;
  /// Vertices in ascending order of their sketch hash's top bits, and each
  /// bucket's end offset in that order; rebuilt by every call that
  /// sketches a dense map.
  std::vector<VertexId> hash_order;
  std::vector<uint32_t> hash_bucket_end;
};

/// µ(qA, qB): harmonic mean of the forward and backward neighborhood
/// overlap coefficients
///   o = |Γ(qA) ∩ Γ(qB)| / min(|Γ(qA)|, |Γ(qB)|),
/// 0 when either intersection is empty (DESIGN.md D7). The Γ sets come from
/// the batch index, reusing the BFS work exactly as the paper prescribes
/// ("we do not need to compute Γ(q) ... specialized for query clustering").
///
/// `mode` chooses exact bitset intersections or bottom-k minhash sketches
/// (Cohen & Kaplan, PODC'07). kAuto picks sketches once exact
/// intersections would cost |Q|²·|V|/64 > 10M word operations, which
/// covers any 100-query batch on a graph of >= ~64k vertices. Sketch mode
/// costs O(|S|) hashing per hash-backed Γ set S above 256 entries and
/// ~256·|V|/|S| <= 2048 probes per dense one (plus one O(|V|) bucketing
/// pass when any dense set needs a sketch), then O(256) per pair. A pair
/// whose smaller Γ set fits in one sketch (<= 256 entries) is scored
/// exactly by probing, and such sets get no sketch.
///
/// With a pool, the per-query set materialization and the O(|Q|^2) pair
/// loop run row-parallel; every pair is computed by exactly one task, so
/// the matrix is identical to the sequential one.
SimilarityMatrix ComputeSimilarityMatrix(const Graph& g,
                                         const std::vector<PathQuery>& queries,
                                         const DistanceIndex& index,
                                         SimilarityMode mode,
                                         ThreadPool* pool = nullptr,
                                         SimilarityScratch* scratch = nullptr);

/// Exact overlap coefficient of two sorted vertex sets (exposed for tests).
double OverlapCoefficient(const std::vector<VertexId>& a,
                          const std::vector<VertexId>& b);

}  // namespace hcpath

#endif  // HCPATH_CORE_SIMILARITY_H_
