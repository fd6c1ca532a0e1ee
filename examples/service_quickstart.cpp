// Minimal PathEngine walkthrough (docs/SERVICE.md): a long-lived engine
// serving a stream of hop-constrained path queries with micro-batch
// admission and the cross-batch endpoint distance cache.
//
//   ./build/service_quickstart [--vertices=20000] [--queries=256]

#include <cstdio>
#include <vector>

#include "hcpath/hcpath.h"
#include "util/flags.h"

using namespace hcpath;

int main(int argc, char** argv) {
  FlagSet flags;
  int64_t* vertices = flags.AddInt64("vertices", 20000, "graph size");
  int64_t* num_queries = flags.AddInt64("queries", 256, "stream length");
  int64_t* threads = flags.AddInt64("threads", 1, "engine compute threads");
  Status st = flags.Parse(argc, argv);
  if (st.code() == StatusCode::kNotFound) return 0;  // --help
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }

  Rng rng(42);
  Graph g = *GenerateBarabasiAlbert(static_cast<VertexId>(*vertices), 6, rng);

  // The engine outlives every request: it keeps the thread pool, the
  // recycled batch context, and the distance cache warm across batches.
  PathEngineOptions options;
  options.batch.num_threads = static_cast<int>(*threads);
  options.max_batch_size = 32;     // cut micro-batches at 32 queries...
  options.max_wait_seconds = 1e-3; // ...or whenever the engine is idle
  PathEngine engine(g, options);
  if (!engine.status().ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  // A skewed stream: one hot endpoint pair repeats, the rest are random —
  // the repeats are what the cross-batch distance cache feeds on.
  std::vector<std::future<QueryResult>> futures;
  for (int64_t i = 0; i < *num_queries; ++i) {
    PathQuery q;
    if (i % 3 == 0) {
      q = {1, 99, 5};  // hot
    } else {
      q.s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      q.t = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
      if (q.s == q.t) q.t = (q.t + 1) % g.NumVertices();
      q.k = 4;
    }
    futures.push_back(engine.Submit(q));
  }
  engine.Flush();

  uint64_t total_paths = 0, errors = 0;
  for (auto& f : futures) {
    QueryResult r = f.get();
    if (r.status.ok()) {
      total_paths += r.path_count;
    } else {
      ++errors;
    }
  }

  PathEngineStats stats = engine.GetStats();
  const uint64_t probes =
      stats.distance_cache_hits + stats.distance_cache_misses;
  std::printf(
      "served %llu queries in %llu micro-batches: %llu paths, %llu errors\n"
      "distance cache: %llu/%llu endpoint builds served warm (%.0f%%)\n",
      static_cast<unsigned long long>(stats.queries_completed),
      static_cast<unsigned long long>(stats.batches_run),
      static_cast<unsigned long long>(total_paths),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(stats.distance_cache_hits),
      static_cast<unsigned long long>(probes),
      probes > 0 ? 100.0 * static_cast<double>(stats.distance_cache_hits) /
                       static_cast<double>(probes)
                 : 0.0);
  return 0;
}
