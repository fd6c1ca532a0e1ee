#ifndef HCPATH_CORE_ENUMERATOR_H_
#define HCPATH_CORE_ENUMERATOR_H_

#include <memory>
#include <vector>

#include "core/options.h"
#include "core/path.h"
#include "core/query.h"
#include "core/search.h"
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

/// Unified façade over every algorithm in the library. Typical use:
///
///   BatchPathEnumerator enumerator(g);
///   BatchOptions opt;
///   opt.algorithm = Algorithm::kBatchEnumPlus;
///   auto result = enumerator.Run(queries, opt, &my_sink);
///
/// The sink is optional; pass nullptr to only count paths. The graph must
/// outlive the enumerator.
///
/// Run recycles no per-batch state: the batch engines get no BatchContext,
/// so every Run builds a call-local one (index storage, MS-BFS scratch,
/// similarity hash order, kernel scratch, merge buffers) and frees it on
/// return. Only the remap and the kernel dispatch below persist across
/// Run calls. Callers serving sustained traffic use PathEngine, which
/// holds one context for its lifetime.
class BatchPathEnumerator {
 public:
  explicit BatchPathEnumerator(const Graph& g) : g_(g) {}

  /// Runs all `queries` with the algorithm selected in `options`, streaming
  /// every path to `sink` (when non-null) and returning per-query counts.
  ///
  /// Not thread-safe across concurrent Run calls on one enumerator (the
  /// remap cache below mutates); intra-batch parallelism lives in the
  /// engines. Lease one enumerator per concurrent caller.
  StatusOr<BatchResult> Run(const std::vector<PathQuery>& queries,
                            const BatchOptions& options,
                            PathSink* sink = nullptr);

 private:
  /// Returns the remap for `mode`, building it on first use and reusing
  /// it across Run calls. The renumbering is a per-graph index build
  /// (like loading), not a per-batch cost: a driver that holds one
  /// enumerator per graph pays it once, the same amortization PathEngine
  /// gets by building its remap at engine construction. Keyed on
  /// (mode, Graph::version()): a driver that assigns a rebuilt graph into
  /// the referenced object between Run calls gets a fresh remap instead of
  /// a silently stale renumbering of the dead graph.
  const GraphRemap& RemapFor(RemapMode mode);

  /// Kernel dispatch for (mode, run graph), resolved once and reused
  /// across Run calls — the same hoist as the remap cache, keyed the same
  /// way so a graph swap re-resolves the prefetch gate.
  const ResolvedKernel& KernelFor(KernelMode mode, const Graph& run_g);

  const Graph& g_;
  std::unique_ptr<GraphRemap> remap_cache_;
  RemapMode cached_mode_ = RemapMode::kNone;
  uint64_t cached_graph_version_ = 0;  ///< 0 = cache empty (versions are >= 1)
  ResolvedKernel kernel_cache_;
  KernelMode kernel_cache_mode_ = KernelMode::kAuto;
  uint64_t kernel_cache_graph_version_ = 0;  ///< 0 = cache empty
};

/// Sink adapter that translates every emitted path from a renumbered id
/// space (GraphRemap) back to original ids before forwarding. Interposed
/// by the remap-aware entry points (BatchPathEnumerator::Run, PathEngine)
/// between the engines and the caller's sink, so callers always observe
/// original ids regardless of BatchOptions::remap_mode. Forwards one path
/// per downstream OnPath call — the same per-path sequence the default
/// PathSink::OnPaths produces — so emission streams are byte-identical to
/// an un-remapped run. Not thread-safe (engine emission is serialized by
/// the input-order merge; see docs/PARALLELISM.md).
class TranslatingSink : public PathSink {
 public:
  TranslatingSink(const GraphRemap& remap, PathSink* downstream)
      : remap_(remap), downstream_(downstream) {}

  void OnPath(size_t query_index, PathView path) override {
    buf_.assign(path.begin(), path.end());
    for (VertexId& v : buf_) v = remap_.ToOriginal(v);
    downstream_->OnPath(query_index, buf_);
  }

 private:
  const GraphRemap& remap_;
  PathSink* downstream_;
  std::vector<VertexId> buf_;  ///< recycled translation buffer
};

const char* AlgorithmName(Algorithm a);

/// Parses "pathenum", "basic", "basic+", "batch", "batch+" (as used by the
/// bench binaries' --algos flag).
StatusOr<Algorithm> ParseAlgorithm(const std::string& name);

}  // namespace hcpath

#endif  // HCPATH_CORE_ENUMERATOR_H_
