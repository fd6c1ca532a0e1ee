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

/// Reusable working memory for ComputeSimilarityMatrix. A long-lived
/// caller (BatchContext) passes the same scratch every batch, so batches
/// of a steady size reuse its storage instead of reallocating it; the
/// computed matrix is unaffected.
///
/// Sketch mode keeps one Direction per Γ direction (sources on G, targets
/// on Gr), sized by the direction's R distinct Γ sets (R <= |Q|): at most
/// 256·R table entries of ⌈R/64⌉ mask words each, and R² overlaps. The
/// vertices in hash
/// order cost O(|V|) to build and depend only on |V|, so they are built
/// once per vertex count and kept across calls. Exact mode keeps
/// per-endpoint bitsets.
struct SimilarityScratch {
  struct Direction {
    /// Distinct Γ sets ("rows"): the row of each query, the first query
    /// of each row, and the query order sorted by key that numbers them.
    std::vector<uint32_t> row_of;
    std::vector<uint32_t> rows;
    std::vector<uint32_t> order;
    /// Bottom-k sketch of each row's Γ set above 256 entries (empty
    /// otherwise), and each row's set size.
    std::vector<std::vector<uint64_t>> sketch;
    std::vector<size_t> size;
    /// Key -> |Q|-bit membership mask table: open-addressing `slots` hold
    /// an entry id + 1 (0 = free); entry e has key keys[e] and mask words
    /// masks[e·words, (e+1)·words).
    std::vector<uint32_t> slots;
    std::vector<uint64_t> keys;
    std::vector<uint64_t> masks;
    /// The entry ids of each row's counted set, concatenated in row
    /// order, and each row's end offset in `members`.
    std::vector<uint32_t> members;
    std::vector<uint32_t> members_end;
    /// Bit-sliced intersection counters of one set against every set.
    std::vector<uint64_t> planes;
    /// Overlap coefficient of row pair a < b at a·R + b.
    std::vector<double> overlap;
    /// Exact mode: the Γ set as a |V|-bit set.
    std::vector<DynamicBitset> bits;
  };
  Direction fwd, bwd;
  /// The vertices [0, hash_order.size()) in ascending order of their
  /// sketch hash's top bits, and each bucket's end offset in that order.
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
/// covers any 100-query batch on a graph of >= ~64k vertices.
///
/// Sketch mode pays per distinct Γ set, not per query: a query's forward
/// set is fixed by (s, k) and its backward set by (t, k) (`index` must be
/// the batch index of `queries`, capped at each query's k), so queries
/// repeating a key share one sketch and one row of scores, and a pair
/// with equal keys scores exactly 1 (what scoring it would give). Over the
/// R distinct sets of one direction it costs O(|S|) hashing per
/// hash-backed set S above 256 entries and ~256·|V|/|S| <= 2048 probes
/// per dense one, plus one O(|V|) bucketing pass per graph (kept in the
/// scratch). It then scores all pairs of distinct sets at once, through a
/// key -> R-bit membership table whose masks feed bit-sliced counters (the
/// inverted-index all-pairs count of Bayardo, Ma & Srikant, WWW'07):
/// O(entries · R/64) word operations rather than work per pair, and
/// O(|Q|²) to expand the scores to the matrix. kAuto decides between the
/// modes on |Q|, not R.
///  * A pair whose smaller Γ set holds <= 256 entries is scored exactly.
///    The table holds the union U of the small sets' keys; each larger set
///    marks itself with one Contains probe per key of U; each small set
///    sums its keys' masks into 9 counter planes, which read out
///    |Γi ∩ Γj| for every j. Small sets get no sketch.
///  * A pair of larger sets compares their full 256-hash sketches. A hash
///    both hold is <= both last hashes, hence within the completeness
///    threshold τ, so the same count over a hash -> mask table is the
///    shared count; two binary searches per pair give each sketch's
///    entries within τ.
///
/// With a pool, the sketches of the distinct sets are built in parallel
/// and the two directions are scored as two tasks; every pair is scored by
/// one task alone, so the matrix is identical to the sequential one.
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
