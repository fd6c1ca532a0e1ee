// Exp-4 (Fig 10): impact of the clustering threshold γ on BatchEnum+.
// The paper reports a U-shape: small γ over-merges dissimilar queries,
// large γ forgoes sharing.

#include <cstdio>
#include <optional>

#include "bench_common.h"
#include "workload/dataset_registry.h"
#include "workload/similarity_gen.h"

using namespace hcpath;
using namespace hcpath::bench;

int main(int argc, char** argv) {
  CommonFlags cf;
  ParseOrDie(cf, argc, argv);
  auto csv = OpenCsv(*cf.csv);
  if (csv) csv->Row("dataset", "gamma", "batchplus_s", "clusters");

  std::vector<double> gammas = {0.1, 0.2, 0.3, 0.4, 0.5,
                                0.6, 0.7, 0.8, 0.9, 1.0};
  if (*cf.quick) gammas = {0.1, 0.5, 1.0};

  for (const std::string& name : ResolveDatasets(*cf.datasets)) {
    Graph g = LoadDataset(name, *cf.scale, *cf.seed);
    auto spec = *FindDataset(name);
    Rng rng(static_cast<uint64_t>(*cf.seed));
    // Mixed-similarity workload: half pooled, half random, so γ actually
    // trades sharing against overhead.
    auto qs = GenerateQueriesWithSimilarity(
        g, static_cast<size_t>(*cf.queries), spec.bench_k_min,
        spec.bench_k_max, 0.5, rng);
    if (!qs.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   qs.status().ToString().c_str());
      continue;
    }
    std::printf("\nFig 10 (%s): impact of gamma (|Q|=%lld, muQ=%.2f)\n",
                name.c_str(), static_cast<long long>(*cf.queries),
                qs->achieved_mu);
    std::printf("%6s | %10s %9s\n", "gamma", "Batch+ (s)", "clusters");
    for (double gamma : gammas) {
      BatchOptions opt = MakeBatchOptions(cf);
      opt.gamma = gamma;
      opt.max_paths_per_query = 5'000'000;
      RunOutcome o = TimeAlgorithm(g, qs->queries,
                                   Algorithm::kBatchEnumPlus, opt,
                                   *cf.time_budget);
      std::printf("%6.1f | %10s %9llu\n", gamma, FormatTime(o).c_str(),
                  static_cast<unsigned long long>(o.stats.num_clusters));
      if (csv) {
        csv->Row(name, gamma, CsvSeconds(o),
                 o.status.ok() ? std::optional(o.stats.num_clusters)
                               : std::nullopt);
      }
    }
  }
  if (csv) csv->Close();
  return 0;
}
