// Exp-8: thread-count sweep. Runs a fixed synthetic multi-cluster workload
// (64 near-duplicate query groups by default — the embarrassingly parallel
// structure Algorithm 2 exposes) across threads in {1, 2, 4, 8} and emits
// one machine-readable JSON object per (algorithm, threads) config so the
// BENCH_*.json trajectory can be tracked across PRs.
//
//   ./build/exp8_threads --clusters=64 --clones=4 --json=BENCH_threads.json
//
// --skew replaces the balanced workload with the adversarial shape for
// cluster-level parallelism: half the queries are clones of ONE pair (one
// giant cluster, placed last so the streaming merge can drain the tiny
// clusters while it runs) and half are unrelated singletons. Cluster-only
// scheduling serializes the giant cluster on one worker; the intra-cluster
// sub-tasks (docs/PARALLELISM.md) are what keep the speedup, and the JSON
// adds the streaming-merge fields (merge_peak_buffered_bytes, and
// merge_total_buffered_bytes = the bytes copied through merge buffers;
// items written through at the drain frontier add none) to track it.
//
//   ./build/exp8_threads --skew --clusters=64 --clones=4 --json=BENCH_skew.json

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "workload/query_gen.h"

using namespace hcpath;
using namespace hcpath::bench;

namespace {

StatusOr<std::vector<PathQuery>> MakeClusteredWorkload(
    const Graph& g, size_t clusters, size_t clones, int k, Rng& rng) {
  QueryGenOptions qopt;
  qopt.k_min = k;
  qopt.k_max = k;
  qopt.min_distance = 2;  // skip trivial one-hop queries
  auto base = GenerateRandomQueries(g, clusters, qopt, rng);
  if (!base.ok()) return base.status();
  // Interleave the clones so clustering has to regroup them (as a real
  // multi-user trace would arrive).
  std::vector<PathQuery> queries;
  for (size_t c = 0; c < clones; ++c) {
    for (const PathQuery& q : *base) queries.push_back(q);
  }
  return queries;
}

/// --skew workload: one giant near-duplicate group holding half the batch,
/// preceded by unrelated singleton queries (so the giant cluster is the
/// *last* cluster and tiny buffers drain while it runs).
StatusOr<std::vector<PathQuery>> MakeSkewedWorkload(const Graph& g,
                                                    size_t total, int k,
                                                    Rng& rng) {
  QueryGenOptions qopt;
  qopt.k_min = k;
  qopt.k_max = k;
  qopt.min_distance = 2;
  const size_t giant = total / 2;
  auto singles = GenerateRandomQueries(g, total - giant, qopt, rng);
  if (!singles.ok()) return singles.status();
  auto base = GenerateRandomQueries(g, 1, qopt, rng);
  if (!base.ok()) return base.status();
  std::vector<PathQuery> queries = *singles;
  for (size_t c = 0; c < giant; ++c) queries.push_back((*base)[0]);
  return queries;
}

void EmitJson(std::FILE* out, const std::string& algo, size_t clusters,
              size_t clones, bool skew, int threads, const RunOutcome& o,
              double baseline_seconds) {
  const double speedup =
      o.seconds > 0 && baseline_seconds > 0 ? baseline_seconds / o.seconds : 0;
  std::fprintf(
      out,
      "{\"bench\":\"exp8_threads\",\"algo\":\"%s\",\"clusters\":%zu,"
      "\"clones\":%zu,\"skew\":%s,\"threads\":%d,\"seconds\":%.6f,"
      "\"build_index_seconds\":%.6f,\"cluster_seconds\":%.6f,"
      "\"detect_seconds\":%.6f,\"enumerate_seconds\":%.6f,"
      "\"paths\":%llu,\"num_clusters\":%llu,"
      "\"merge_peak_buffered_bytes\":%llu,"
      "\"merge_total_buffered_bytes\":%llu,"
      "\"merge_streamed_items\":%llu,\"over_time\":%s,\"outcome\":\"%s\","
      "\"speedup_vs_1\":%.3f}\n",
      algo.c_str(), clusters, clones, skew ? "true" : "false", threads,
      o.seconds, o.stats.build_index_seconds, o.stats.cluster_seconds,
      o.stats.detect_seconds, o.stats.enumerate_seconds,
      static_cast<unsigned long long>(o.total_paths),
      static_cast<unsigned long long>(o.stats.num_clusters),
      static_cast<unsigned long long>(o.stats.merge_peak_buffered_bytes),
      static_cast<unsigned long long>(o.stats.merge_total_buffered_bytes),
      static_cast<unsigned long long>(o.stats.merge_streamed_items),
      o.over_time ? "true" : "false", o.ok() ? "ok" : FormatTime(o).c_str(),
      speedup);
}

}  // namespace

int main(int argc, char** argv) {
  CommonFlags cf;
  int64_t* clusters = cf.flags.AddInt64("clusters", 64, "query groups");
  int64_t* clones = cf.flags.AddInt64("clones", 4, "queries per group");
  int64_t* vertices = cf.flags.AddInt64("vertices", 20000, "graph size");
  int64_t* k = cf.flags.AddInt64("k", 4, "hop constraint");
  bool* skew = cf.flags.AddBool(
      "skew", false,
      "one giant cluster (half the batch) + unrelated singletons");
  std::string* json = cf.flags.AddString("json", "", "also append JSON here");
  ParseOrDie(cf, argc, argv);

  // Small-world rather than scale-free: hub-dominated graphs make every
  // query's Γ set overlap, which collapses the groups into a handful of
  // clusters and understates cluster parallelism.
  Rng grng(static_cast<uint64_t>(*cf.seed));
  auto g = GenerateSmallWorld(static_cast<VertexId>(*vertices), 6, 0.05,
                              grng);
  if (!g.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 g.status().ToString().c_str());
    return 1;
  }
  Rng qrng(static_cast<uint64_t>(*cf.seed) + 1);
  auto workload =
      *skew ? MakeSkewedWorkload(
                  *g,
                  static_cast<size_t>(*clusters) * static_cast<size_t>(*clones),
                  static_cast<int>(*k), qrng)
            : MakeClusteredWorkload(*g, static_cast<size_t>(*clusters),
                                    static_cast<size_t>(*clones),
                                    static_cast<int>(*k), qrng);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  const std::vector<PathQuery>& queries = *workload;
  if (*skew) {
    std::fprintf(stderr,
                 "[exp8] |V|=%lld |Q|=%zu (skew: 1 giant cluster of %zu + "
                 "%zu singletons)\n",
                 static_cast<long long>(*vertices), queries.size(),
                 queries.size() / 2, queries.size() - queries.size() / 2);
  } else {
    std::fprintf(stderr, "[exp8] |V|=%lld |Q|=%zu (%lld groups x %lld)\n",
                 static_cast<long long>(*vertices), queries.size(),
                 static_cast<long long>(*clusters),
                 static_cast<long long>(*clones));
  }

  std::FILE* jf = nullptr;
  if (!json->empty()) {
    jf = std::fopen(json->c_str(), "a");
    if (jf == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json->c_str());
      return 2;
    }
  }

  std::vector<int> sweep = {1, 2, 4, 8};
  if (*cf.quick) sweep = {1, 4};

  const struct {
    Algorithm algo;
    const char* name;
  } kAlgos[] = {{Algorithm::kBatchEnumPlus, "batch+"},
                {Algorithm::kBasicEnum, "basic"}};
  for (const auto& a : kAlgos) {
    double baseline = 0;
    for (int threads : sweep) {
      BatchOptions opt = MakeBatchOptions(cf);
      opt.num_threads = threads;
      opt.max_paths_per_query = 5'000'000;
      RunOutcome o =
          TimeAlgorithm(*g, queries, a.algo, opt, *cf.time_budget);
      if (threads == 1) baseline = o.seconds;
      EmitJson(stdout, a.name, static_cast<size_t>(*clusters),
               static_cast<size_t>(*clones), *skew, threads, o, baseline);
      if (jf != nullptr) {
        EmitJson(jf, a.name, static_cast<size_t>(*clusters),
                 static_cast<size_t>(*clones), *skew, threads, o, baseline);
      }
    }
  }
  if (jf != nullptr) std::fclose(jf);
  return 0;
}
