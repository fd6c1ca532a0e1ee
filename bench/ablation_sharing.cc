// Ablation (ours, beyond the paper): isolates the contribution of each
// BatchEnum design choice called out in DESIGN.md — clustering (Alg 2),
// cache reuse (Alg 4 splicing), the shared pruning rule (D3), and the
// optimized search order.

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
  if (csv) csv->Row("dataset", "variant", "seconds", "splices", "expanded");

  struct Variant {
    const char* name;
    Algorithm algo;
    bool disable_clustering;
    bool disable_reuse;
    SharedPruning pruning;
  };
  const Variant kVariants[] = {
      {"Batch+ (full)", Algorithm::kBatchEnumPlus, false, false,
       SharedPruning::kPerTarget},
      {"  - order opt", Algorithm::kBatchEnum, false, false,
       SharedPruning::kPerTarget},
      {"  - clustering", Algorithm::kBatchEnumPlus, true, false,
       SharedPruning::kPerTarget},
      {"  - cache reuse", Algorithm::kBatchEnumPlus, false, true,
       SharedPruning::kPerTarget},
      {"  global-min pruning", Algorithm::kBatchEnumPlus, false, false,
       SharedPruning::kGlobalMin},
      {"  BasicEnum+ (no sharing at all)", Algorithm::kBasicEnumPlus, false,
       false, SharedPruning::kPerTarget},
  };

  for (const std::string& name : ResolveDatasets(*cf.datasets)) {
    Graph g = LoadDataset(name, *cf.scale, *cf.seed);
    auto spec = *FindDataset(name);
    Rng rng(static_cast<uint64_t>(*cf.seed));
    auto qs = GenerateQueriesWithSimilarity(
        g, static_cast<size_t>(*cf.queries), spec.bench_k_min,
        spec.bench_k_max, 0.7, rng);
    if (!qs.ok()) continue;
    std::printf("\nAblation (%s, |Q|=%lld, muQ=%.2f)\n", name.c_str(),
                static_cast<long long>(*cf.queries), qs->achieved_mu);
    std::printf("%-34s %10s %12s %14s\n", "variant", "time (s)",
                "splices", "edges expanded");
    for (const Variant& v : kVariants) {
      BatchOptions opt = MakeBatchOptions(cf);
      opt.disable_clustering = v.disable_clustering;
      opt.disable_cache_reuse = v.disable_reuse;
      opt.shared_pruning = v.pruning;
      opt.max_paths_per_query = 5'000'000;
      RunOutcome o =
          TimeAlgorithm(g, qs->queries, v.algo, opt, *cf.time_budget);
      std::printf("%-34s %10s %12llu %14llu\n", v.name,
                  FormatTime(o).c_str(),
                  static_cast<unsigned long long>(o.stats.shortcut_splices),
                  static_cast<unsigned long long>(o.stats.edges_expanded));
      if (csv) {
        if (o.status.ok()) {
          csv->Row(name, v.name, o.seconds, o.stats.shortcut_splices,
                   o.stats.edges_expanded);
        } else {
          csv->Row(name, v.name, "", "", "");
        }
      }
    }
  }
  if (csv) csv->Close();
  return 0;
}
