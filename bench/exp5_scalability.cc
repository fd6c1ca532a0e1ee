// Exp-5 (Fig 11): scalability on the two largest stand-ins (TW, FS) when
// sampling 20%..100% of the vertices (induced subgraphs).

#include <cstdio>

#include "bench_common.h"
#include "graph/sampler.h"
#include "workload/dataset_registry.h"
#include "workload/query_gen.h"

using namespace hcpath;
using namespace hcpath::bench;

int main(int argc, char** argv) {
  CommonFlags cf;
  *cf.datasets = "TW,FS";  // default for this experiment
  ParseOrDie(cf, argc, argv);
  auto csv = OpenCsv(*cf.csv);
  if (csv) {
    csv->Row("dataset", "fraction", "basic_s", "basicplus_s", "batch_s",
             "batchplus_s");
  }

  std::vector<double> fractions = {0.2, 0.4, 0.6, 0.8, 1.0};
  if (*cf.quick) fractions = {0.2, 1.0};

  for (const std::string& name : ResolveDatasets(*cf.datasets)) {
    Graph full = LoadDataset(name, *cf.scale, *cf.seed);
    auto spec = *FindDataset(name);
    std::printf("\nFig 11 (%s): time when varying |V(G)| (|Q|=%lld)\n",
                name.c_str(), static_cast<long long>(*cf.queries));
    std::printf("%5s | %9s %9s %9s %9s\n", "|V|%", "Basic", "Basic+",
                "Batch", "Batch+");

    for (double fraction : fractions) {
      Rng srng(static_cast<uint64_t>(*cf.seed) + 1);
      Graph g = full;
      if (fraction < 1.0) {
        auto sampled = SampleVerticesInduced(full, fraction, srng);
        if (!sampled.ok()) continue;
        g = std::move(sampled->graph);
      }
      Rng qrng(static_cast<uint64_t>(*cf.seed) + 2);
      QueryGenOptions qopt;
      qopt.k_min = spec.bench_k_min;
      qopt.k_max = spec.bench_k_max;
      auto queries = GenerateRandomQueries(g, *cf.queries, qopt, qrng);
      if (!queries.ok()) continue;

      BatchOptions opt = MakeBatchOptions(cf);
      opt.max_paths_per_query = 5'000'000;
      RunOutcome ba = TimeAlgorithm(g, *queries, Algorithm::kBasicEnum, opt,
                                    *cf.time_budget);
      RunOutcome bp = TimeAlgorithm(g, *queries, Algorithm::kBasicEnumPlus,
                                    opt, *cf.time_budget);
      RunOutcome bt = TimeAlgorithm(g, *queries, Algorithm::kBatchEnum, opt,
                                    *cf.time_budget);
      RunOutcome btp = TimeAlgorithm(g, *queries, Algorithm::kBatchEnumPlus,
                                     opt, *cf.time_budget);
      std::printf("%4.0f%% | %9s %9s %9s %9s\n", fraction * 100,
                  FormatTime(ba).c_str(), FormatTime(bp).c_str(),
                  FormatTime(bt).c_str(), FormatTime(btp).c_str());
      if (csv) {
        csv->Row(name, fraction, CsvSeconds(ba), CsvSeconds(bp),
                 CsvSeconds(bt), CsvSeconds(btp));
      }
    }
  }
  if (csv) csv->Close();
  return 0;
}
