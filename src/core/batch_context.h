#ifndef HCPATH_CORE_BATCH_CONTEXT_H_
#define HCPATH_CORE_BATCH_CONTEXT_H_

#include <memory>

#include "core/buffered_sink.h"
#include "core/join.h"
#include "core/similarity.h"
#include "index/distance_index.h"
#include "index/endpoint_cache.h"
#include "util/epoch_stamp.h"
#include "util/thread_pool.h"

namespace hcpath {

/// All recyclable per-batch state of the batch pipeline, gathered so a
/// long-lived owner (PathEngine, or any caller serving sustained traffic)
/// reuses it across batches instead of reallocating per RunBatchEnum /
/// RunBasicEnum call:
///
///  * `index` — the batch distance index; Build() clears its maps in place,
///    so map tables, dense arrays, and sorted-key caches survive;
///  * `fwd_bfs_scratch` / `bwd_bfs_scratch` — the |V|-sized MS-BFS working
///    sets for the two concurrent build directions;
///  * `similarity` — clustering scratch (sketches / bitsets);
///  * `sinks` — pooled BufferedSinks (path storage, run tables) for the
///    streaming ordered merge;
///  * `stamps` / `join_scratch` — pooled epoch-stamp tables and join
///    working sets for the enumeration hot-loop kernels (DFS on-path
///    test, splice/join disjointness, midpoint bucket index), leased one
///    per concurrently active kernel (docs/PERF.md);
///  * `join_groups` — the assembly's duplicate-query groups and their
///    joined path sets, leased one per cluster being assembled;
///  * `distance_cache` — optional non-owning pointer to a cross-batch
///    endpoint distance cache (the owner decides retention policy); index
///    builds probe it and feed BatchStats::distance_cache_{hits,misses}.
///
/// One-shot callers can pass nullptr everywhere and get a call-local
/// context — identical behavior, no reuse. Only callers that pass a ctx
/// to RunPipeline (PathEngine, the sharded service's shards) or to
/// RunBatchEnum / RunBasicEnum recycle; BatchPathEnumerator::Run passes
/// none, so each of its runs rebuilds all of the above. A BatchContext
/// must not be used by two batch runs concurrently; the engine
/// serializes batches.
class BatchContext {
 public:
  BatchContext() = default;
  BatchContext(const BatchContext&) = delete;
  BatchContext& operator=(const BatchContext&) = delete;

  DistanceIndex index;
  MsBfsScratch fwd_bfs_scratch;
  MsBfsScratch bwd_bfs_scratch;
  SimilarityScratch similarity;
  SinkPool sinks;
  EpochStampPool stamps;
  JoinScratchPool join_scratch;
  JoinGroupScratchPool join_groups;
  EndpointDistanceCache* distance_cache = nullptr;
  /// Snapshot epoch of the graph the current batch runs on (GraphStore /
  /// docs/DYNAMIC.md). The batch owner (PathEngine) sets it per batch from
  /// the batch's pinned snapshot before executing; index builds probe and
  /// fill the distance cache under this epoch. Static-graph callers leave
  /// the 0 default, which matches a cache that never sees an update.
  uint64_t graph_epoch = 0;

  /// The engine pool for `num_threads` compute threads, pinned in this
  /// context so repeated batches reuse one pool (ThreadPool::ForNumThreads
  /// semantics: nullptr = one compute thread, and every phase runs its
  /// pooled code inline). Re-resolves only when the requested thread count
  /// changes.
  ThreadPool* PoolFor(int num_threads);

 private:
  std::shared_ptr<ThreadPool> pool_;
  int pool_threads_ = 0;
  bool pool_resolved_ = false;
};

}  // namespace hcpath

#endif  // HCPATH_CORE_BATCH_CONTEXT_H_
