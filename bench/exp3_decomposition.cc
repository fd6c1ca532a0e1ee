// Exp-3 (Fig 9): processing time decomposition of BatchEnum+ into
// BuildIndex, ClusterQuery, IdentifySubquery and Enumeration.

#include <cstdio>

#include "bench_common.h"
#include "workload/dataset_registry.h"
#include "workload/similarity_gen.h"

using namespace hcpath;
using namespace hcpath::bench;

int main(int argc, char** argv) {
  CommonFlags cf;
  ParseOrDie(cf, argc, argv);
  auto csv = OpenCsv(*cf.csv);
  if (csv) {
    csv->Row("dataset", "build_index_s", "cluster_query_s",
             "identify_subquery_s", "enumeration_s", "total_s");
  }

  std::printf("Fig 9: BatchEnum+ time decomposition (|Q|=%lld)\n",
              static_cast<long long>(*cf.queries));
  std::printf("%-4s | %12s %13s %17s %13s %10s\n", "ds", "BuildIndex",
              "ClusterQuery", "IdentifySubquery", "Enumeration", "total");

  for (const std::string& name : ResolveDatasets(*cf.datasets)) {
    Graph g = LoadDataset(name, *cf.scale, *cf.seed);
    auto spec = *FindDataset(name);
    Rng rng(static_cast<uint64_t>(*cf.seed));
    // A moderately similar workload so every phase does real work.
    auto qs = GenerateQueriesWithSimilarity(
        g, static_cast<size_t>(*cf.queries), spec.bench_k_min,
        spec.bench_k_max, 0.5, rng);
    if (!qs.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   qs.status().ToString().c_str());
      continue;
    }
    BatchOptions opt = MakeBatchOptions(cf);
    opt.max_paths_per_query = 5'000'000;
    RunOutcome o = TimeAlgorithm(g, qs->queries, Algorithm::kBatchEnumPlus,
                                 opt, *cf.time_budget);
    if (!o.ok()) {
      std::printf("%-4s | %s\n", name.c_str(), FormatTime(o).c_str());
      continue;
    }
    std::printf("%-4s | %12.4f %13.4f %17.4f %13.4f %10.4f\n", name.c_str(),
                o.stats.build_index_seconds, o.stats.cluster_seconds,
                o.stats.detect_seconds, o.stats.enumerate_seconds,
                o.stats.total_seconds);
    if (csv) {
      csv->Row(name, o.stats.build_index_seconds, o.stats.cluster_seconds,
               o.stats.detect_seconds, o.stats.enumerate_seconds,
               o.stats.total_seconds);
    }
  }
  if (csv) csv->Close();
  return 0;
}
