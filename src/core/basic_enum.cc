#include "core/basic_enum.h"

#include <memory>

#include "core/parallel_merge.h"
#include "core/path_enum.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hcpath {

void BuildBatchIndex(const Graph& g, const std::vector<PathQuery>& queries,
                     DistanceIndex* index, BatchStats* stats,
                     ThreadPool* pool, BatchContext* ctx) {
  std::vector<VertexId> sources, targets;
  std::vector<Hop> hops;
  sources.reserve(queries.size());
  targets.reserve(queries.size());
  hops.reserve(queries.size());
  for (const PathQuery& q : queries) {
    sources.push_back(q.s);
    targets.push_back(q.t);
    hops.push_back(static_cast<Hop>(q.k));
  }
  index->Build(g, sources, targets, hops, pool,
               ctx != nullptr ? ctx->distance_cache : nullptr,
               ctx != nullptr ? &ctx->fwd_bfs_scratch : nullptr,
               ctx != nullptr ? &ctx->bwd_bfs_scratch : nullptr,
               ctx != nullptr ? ctx->graph_epoch : 0);
  if (stats != nullptr) {
    stats->build_index_seconds += index->build_seconds();
    stats->distance_cache_hits += index->cache_hits();
    stats->distance_cache_misses += index->cache_misses();
    stats->bfs_bottom_up_levels += index->bottom_up_levels();
  }
}

Status RunBasicEnum(const Graph& g, const std::vector<PathQuery>& queries,
                    const BatchOptions& options, bool optimized_order,
                    PathSink* sink, BatchStats* stats, BatchContext* ctx) {
  HCPATH_RETURN_NOT_OK(options.Validate());
  HCPATH_RETURN_NOT_OK(ValidateQueries(g, queries));
  WallTimer total;

  // One-shot callers get a call-local context; a long-lived caller's ctx
  // recycles the index storage, BFS scratch, and merge buffers instead.
  BatchContext local_ctx;
  BatchContext& c = ctx != nullptr ? *ctx : local_ctx;
  ThreadPool* pool = c.PoolFor(options.num_threads);

  DistanceIndex& index = c.index;
  BuildBatchIndex(g, queries, &index, stats, pool, &c);

  SingleQueryOptions sq;
  sq.optimized_order = optimized_order;
  sq.max_paths = options.max_paths_per_query;

  double enum_seconds = 0;
  if (pool == nullptr) {
    // Sequential reference implementation.
    ScopedTimer timer(&enum_seconds);
    for (size_t i = 0; i < queries.size(); ++i) {
      HCPATH_RETURN_NOT_OK(EnumerateWithMaps(
          g, queries[i], index.FromSourceMap(i), index.ToTargetMap(i), sq, i,
          sink, stats, &c.stamps, &c.join_scratch));
    }
  } else {
    // Query-parallel: each query emits into its own private buffer and
    // accumulates its own stats; RunBufferedParallel streams the buffers
    // out in query order as they finish, so the downstream sink sees the
    // sequential emission stream and the counters match the sequential run
    // exactly, while peak buffering tracks in-flight queries only.
    ScopedTimer timer(&enum_seconds);
    MergeMetrics mm;
    Status st = RunBufferedParallel(
        *pool, queries.size(), sink, stats,
        [&](size_t i, PathSink* query_sink, BatchStats* query_stats) {
          return EnumerateWithMaps(g, queries[i], index.FromSourceMap(i),
                                   index.ToTargetMap(i), sq, i, query_sink,
                                   query_stats, &c.stamps, &c.join_scratch);
        },
        &mm, &c.sinks);
    FoldMergeMetrics(mm, stats);
    HCPATH_RETURN_NOT_OK(st);
  }
  if (stats != nullptr) {
    stats->enumerate_seconds += enum_seconds;
    stats->total_seconds += total.ElapsedSeconds();
  }
  return Status::OK();
}

}  // namespace hcpath
