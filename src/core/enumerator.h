#ifndef HCPATH_CORE_ENUMERATOR_H_
#define HCPATH_CORE_ENUMERATOR_H_

#include <vector>

#include "core/batch_context.h"
#include "core/options.h"
#include "core/path.h"
#include "core/query.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "util/status.h"

namespace hcpath {

/// Outcome of a batch run: per-query result counts plus phase timings and
/// work counters.
struct BatchResult {
  std::vector<uint64_t> path_counts;
  BatchStats stats;

  uint64_t TotalPaths() const {
    uint64_t total = 0;
    for (uint64_t c : path_counts) total += c;
    return total;
  }
};

/// The one pipeline entry point: every caller that runs a batch — the
/// BatchPathEnumerator facade, PathEngine's micro-batches, and each
/// sharded-service shard — goes through here, so a query takes the same
/// path whichever way it arrives. It owns, in this order:
///   1. option validation (BatchOptions::Validate);
///   2. whole-batch query validation, for all five algorithms — an
///      invalid query fails the batch before anything is emitted;
///   3. the algorithm switch, including the "+" variants' optimized
///      search order.
///
/// Every path streams to `sink` (required) in the deterministic emission
/// order; work counters and phase timings accumulate into `stats`
/// (nullable). `ctx` optionally supplies recycled per-batch state and the
/// cross-batch distance cache (see BatchContext); null gives a call-local
/// context with identical output. kPathEnum builds a per-query index and
/// ignores `ctx`.
Status RunPipeline(const Graph& g, const std::vector<PathQuery>& queries,
                   const BatchOptions& options, PathSink* sink,
                   BatchStats* stats, BatchContext* ctx = nullptr);

/// Unified façade over every algorithm in the library. Typical use:
///
///   BatchPathEnumerator enumerator(g);
///   BatchOptions opt;
///   opt.algorithm = Algorithm::kBatchEnumPlus;
///   auto result = enumerator.Run(queries, opt, &my_sink);
///
/// The sink is optional; pass nullptr to only count paths. The graph must
/// outlive the enumerator; assigning a rebuilt graph into the referenced
/// object between Run calls is fine, as the enumerator keeps nothing
/// derived from it.
///
/// Run recycles no per-batch state: it calls RunPipeline without a
/// BatchContext, so every Run builds a call-local one (index storage,
/// MS-BFS scratch, similarity hash order, kernel scratch, merge buffers)
/// and frees it on return. Callers serving sustained traffic use
/// PathEngine, which holds one context for its lifetime.
class BatchPathEnumerator {
 public:
  explicit BatchPathEnumerator(const Graph& g) : g_(g) {}

  /// Runs all `queries` with the algorithm selected in `options`, streaming
  /// every path to `sink` (when non-null) and returning per-query counts.
  StatusOr<BatchResult> Run(const std::vector<PathQuery>& queries,
                            const BatchOptions& options,
                            PathSink* sink = nullptr);

 private:
  const Graph& g_;
};

const char* AlgorithmName(Algorithm a);

/// Parses "pathenum", "basic", "basic+", "batch", "batch+" (as used by the
/// bench binaries' --algos flag).
StatusOr<Algorithm> ParseAlgorithm(const std::string& name);

}  // namespace hcpath

#endif  // HCPATH_CORE_ENUMERATOR_H_
