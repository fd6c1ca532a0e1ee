// Exp-9: PathEngine service benchmark. Replays an open-loop stream of
// queries whose endpoints follow a power-law (Zipf) popularity — the skew
// that makes hot endpoints repeat across micro-batches — through one
// long-lived PathEngine, sweeping the micro-batch admission window, and
// emits one JSON object per (window, cache) config:
//
//   throughput (queries/s), p50/p95/p99 end-to-end latency, per-batch
//   index-build time, and the distance-cache hit rate.
//
// The cold configs (cache disabled) isolate what the cross-batch endpoint
// distance cache buys: on a skewed stream the warm runs must show
// distance_cache_hits > 0 and a lower avg_build_seconds_per_batch than
// their cold twins (the PR's acceptance criterion).
//
//   ./build/exp9_service --stream=2000 --endpoints=64 --zipf=1.1 \
//       --json=BENCH_service.json

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/generators.h"
#include "service/path_engine.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workload/query_gen.h"

using namespace hcpath;
using namespace hcpath::bench;

namespace {

/// Zipf-ish sampler over ranks [0, n): P(r) ~ 1 / (r + 1)^alpha.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double alpha) : cdf_(n) {
    double acc = 0;
    for (size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

double Percentile(std::vector<double> sorted_values, double p) {
  if (sorted_values.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_values.size() - 1));
  return sorted_values[idx];
}

struct StreamOutcome {
  double seconds = 0;
  uint64_t total_paths = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  PathEngineStats stats;
};

/// Replays the stream through a fresh engine; open loop (submit as fast as
/// admission accepts, never waiting for earlier queries).
StreamOutcome ReplayStream(const Graph& g, const std::vector<PathQuery>& stream,
                           const PathEngineOptions& opt) {
  StreamOutcome out;
  PathEngine engine(g, opt);
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(stream.size());
  WallTimer timer;
  for (const PathQuery& q : stream) futures.push_back(engine.Submit(q));
  engine.Flush();
  std::vector<double> latencies;
  latencies.reserve(stream.size());
  for (auto& f : futures) {
    QueryResult r = f.get();
    if (r.status.ok()) out.total_paths += r.path_count;
    latencies.push_back(r.wait_seconds + r.batch_seconds);
  }
  out.seconds = timer.ElapsedSeconds();
  std::sort(latencies.begin(), latencies.end());
  out.p50 = Percentile(latencies, 0.50);
  out.p95 = Percentile(latencies, 0.95);
  out.p99 = Percentile(latencies, 0.99);
  out.stats = engine.GetStats();
  return out;
}

void EmitJson(std::FILE* f, size_t window, bool cache, size_t stream_size,
              size_t endpoints, double zipf, int threads,
              const StreamOutcome& o) {
  const uint64_t probes =
      o.stats.distance_cache_hits + o.stats.distance_cache_misses;
  const double hit_rate =
      probes > 0 ? static_cast<double>(o.stats.distance_cache_hits) /
                       static_cast<double>(probes)
                 : 0;
  const double qps =
      o.seconds > 0 ? static_cast<double>(stream_size) / o.seconds : 0;
  const double build_per_batch =
      o.stats.batches_run > 0
          ? o.stats.batch_stats.build_index_seconds /
                static_cast<double>(o.stats.batches_run)
          : 0;
  std::fprintf(
      f,
      "{\"bench\":\"exp9_service\",\"window\":%zu,\"cache\":%s,"
      "\"stream\":%zu,\"endpoints\":%zu,\"zipf\":%.2f,\"threads\":%d,"
      "\"seconds\":%.6f,\"qps\":%.1f,\"paths\":%llu,"
      "\"p50_ms\":%.3f,\"p95_ms\":%.3f,\"p99_ms\":%.3f,"
      "\"batches\":%llu,\"size_cuts\":%llu,\"wait_cuts\":%llu,"
      "\"flush_cuts\":%llu,\"idle_cuts\":%llu,"
      "\"distance_cache_hits\":%llu,\"distance_cache_misses\":%llu,"
      "\"cache_hit_rate\":%.4f,\"bfs_bottom_up_levels\":%llu,"
      "\"join_index_rebuilds\":%llu,"
      "\"build_index_seconds\":%.6f,\"avg_build_seconds_per_batch\":%.8f}\n",
      window, cache ? "true" : "false", stream_size, endpoints, zipf,
      threads, o.seconds, qps,
      static_cast<unsigned long long>(o.total_paths), o.p50 * 1e3,
      o.p95 * 1e3, o.p99 * 1e3,
      static_cast<unsigned long long>(o.stats.batches_run),
      static_cast<unsigned long long>(o.stats.size_cuts),
      static_cast<unsigned long long>(o.stats.wait_cuts),
      static_cast<unsigned long long>(o.stats.flush_cuts),
      static_cast<unsigned long long>(o.stats.idle_cuts),
      static_cast<unsigned long long>(o.stats.distance_cache_hits),
      static_cast<unsigned long long>(o.stats.distance_cache_misses),
      hit_rate,
      static_cast<unsigned long long>(
          o.stats.batch_stats.bfs_bottom_up_levels),
      static_cast<unsigned long long>(
          o.stats.batch_stats.join_index_rebuilds),
      o.stats.batch_stats.build_index_seconds, build_per_batch);
}

}  // namespace

int main(int argc, char** argv) {
  CommonFlags cf;
  int64_t* stream_size = cf.flags.AddInt64("stream", 2000, "queries in the replayed stream");
  int64_t* endpoints = cf.flags.AddInt64("endpoints", 64, "distinct query templates in the pool");
  double* zipf = cf.flags.AddDouble("zipf", 1.1, "endpoint popularity skew (0 = uniform)");
  int64_t* vertices = cf.flags.AddInt64("vertices", 20000, "graph size");
  int64_t* k = cf.flags.AddInt64("k", 4, "hop constraint");
  double* max_wait_ms = cf.flags.AddDouble(
      "max_wait_ms", 0.5,
      "admission max_wait_seconds in ms (> 0: cut whenever idle; <= 0: "
      "size and flush cuts only)");
  std::string* json = cf.flags.AddString("json", "", "also append JSON here");
  ParseOrDie(cf, argc, argv);

  Rng grng(static_cast<uint64_t>(*cf.seed));
  auto g = GenerateSmallWorld(static_cast<VertexId>(*vertices), 6, 0.05,
                              grng);
  if (!g.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 g.status().ToString().c_str());
    return 1;
  }

  // Endpoint pool + Zipf-weighted stream over it.
  Rng qrng(static_cast<uint64_t>(*cf.seed) + 1);
  QueryGenOptions qopt;
  qopt.k_min = static_cast<int>(*k);
  qopt.k_max = static_cast<int>(*k);
  qopt.min_distance = 2;
  auto pool = GenerateRandomQueries(*g, static_cast<size_t>(*endpoints),
                                    qopt, qrng);
  if (!pool.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 pool.status().ToString().c_str());
    return 1;
  }
  ZipfSampler sampler(pool->size(), *zipf);
  std::vector<PathQuery> stream;
  stream.reserve(static_cast<size_t>(*stream_size));
  for (int64_t i = 0; i < *stream_size; ++i) {
    stream.push_back((*pool)[sampler.Sample(qrng)]);
  }
  std::fprintf(stderr,
               "[exp9] |V|=%lld stream=%zu pool=%zu zipf=%.2f threads=%lld\n",
               static_cast<long long>(*vertices), stream.size(),
               pool->size(), *zipf, static_cast<long long>(*cf.threads));

  std::FILE* jf = nullptr;
  if (!json->empty()) {
    jf = std::fopen(json->c_str(), "a");
    if (jf == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json->c_str());
      return 2;
    }
  }

  std::vector<size_t> windows = {1, 4, 16, 64};
  if (*cf.quick) windows = {4, 32};

  for (size_t window : windows) {
    for (bool cache : {false, true}) {
      PathEngineOptions opt;
      opt.batch = MakeBatchOptions(cf);
      opt.batch.max_paths_per_query = 5'000'000;
      opt.max_batch_size = window;
      opt.max_wait_seconds = *max_wait_ms / 1e3;
      opt.collect_paths = false;  // serving-style: count, don't materialize
      opt.enable_distance_cache = cache;
      StreamOutcome o = ReplayStream(*g, stream, opt);
      EmitJson(stdout, window, cache, stream.size(),
               static_cast<size_t>(*endpoints), *zipf,
               opt.batch.num_threads, o);
      if (jf != nullptr) {
        EmitJson(jf, window, cache, stream.size(),
                 static_cast<size_t>(*endpoints), *zipf,
                 opt.batch.num_threads, o);
      }
    }
  }
  if (jf != nullptr) std::fclose(jf);
  return 0;
}
