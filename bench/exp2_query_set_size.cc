// Exp-2 (Fig 8): processing time when varying the query set size |Q| from
// 100 to 500 (random query sets, k in the dataset's bench range).

#include <cstdio>

#include "bench_common.h"
#include "workload/dataset_registry.h"
#include "workload/query_gen.h"

using namespace hcpath;
using namespace hcpath::bench;

int main(int argc, char** argv) {
  CommonFlags cf;
  ParseOrDie(cf, argc, argv);
  auto csv = OpenCsv(*cf.csv);
  if (csv) {
    csv->Row("dataset", "query_set_size", "pathenum_s", "basic_s",
             "basicplus_s", "batch_s", "batchplus_s");
  }

  std::vector<size_t> sizes = {100, 200, 300, 400, 500};
  if (*cf.quick) sizes = {50, 100};

  for (const std::string& name : ResolveDatasets(*cf.datasets)) {
    Graph g = LoadDataset(name, *cf.scale, *cf.seed);
    auto spec = *FindDataset(name);
    std::printf("\nFig 8 (%s): time when varying |Q| (k in [%d,%d])\n",
                name.c_str(), spec.bench_k_min, spec.bench_k_max);
    std::printf("%5s | %9s %9s %9s %9s %9s\n", "|Q|", "PathEnum", "Basic",
                "Basic+", "Batch", "Batch+");

    Rng rng(static_cast<uint64_t>(*cf.seed));
    QueryGenOptions qopt;
    qopt.k_min = spec.bench_k_min;
    qopt.k_max = spec.bench_k_max;
    auto pool = GenerateRandomQueries(g, sizes.back(), qopt, rng);
    if (!pool.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   pool.status().ToString().c_str());
      continue;
    }

    for (size_t n : sizes) {
      std::vector<PathQuery> queries(pool->begin(), pool->begin() + n);
      BatchOptions opt = MakeBatchOptions(cf);
      opt.max_paths_per_query = 5'000'000;
      RunOutcome pe = TimeAlgorithm(g, queries, Algorithm::kPathEnum, opt,
                                    *cf.time_budget);
      RunOutcome ba = TimeAlgorithm(g, queries, Algorithm::kBasicEnum, opt,
                                    *cf.time_budget);
      RunOutcome bp = TimeAlgorithm(g, queries, Algorithm::kBasicEnumPlus,
                                    opt, *cf.time_budget);
      RunOutcome bt = TimeAlgorithm(g, queries, Algorithm::kBatchEnum, opt,
                                    *cf.time_budget);
      RunOutcome btp = TimeAlgorithm(g, queries, Algorithm::kBatchEnumPlus,
                                     opt, *cf.time_budget);
      std::printf("%5zu | %9s %9s %9s %9s %9s\n", n,
                  FormatTime(pe).c_str(), FormatTime(ba).c_str(),
                  FormatTime(bp).c_str(), FormatTime(bt).c_str(),
                  FormatTime(btp).c_str());
      if (csv) {
        csv->Row(name, n, CsvSeconds(pe), CsvSeconds(ba), CsvSeconds(bp),
                 CsvSeconds(bt), CsvSeconds(btp));
      }
    }
  }
  if (csv) csv->Close();
  return 0;
}
