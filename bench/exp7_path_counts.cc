// Exp-7 (Fig 13): average number of HC-s-t paths per query when varying
// the hop constraint k from 3 to 7 — expected to grow exponentially.

#include <cstdio>
#include <optional>

#include "bench_common.h"
#include "workload/dataset_registry.h"
#include "workload/query_gen.h"

using namespace hcpath;
using namespace hcpath::bench;

int main(int argc, char** argv) {
  CommonFlags cf;
  *cf.queries = 100;
  ParseOrDie(cf, argc, argv);
  auto csv = OpenCsv(*cf.csv);
  if (csv) csv->Row("dataset", "k", "avg_paths");

  std::printf("Fig 13: average number of paths per query vs k "
              "(|Q|=%lld)\n", static_cast<long long>(*cf.queries));
  std::printf("%-4s |", "ds");
  for (int k = 3; k <= 7; ++k) std::printf(" %12s", ("k=" + std::to_string(k)).c_str());
  std::printf("\n");

  for (const std::string& name : ResolveDatasets(*cf.datasets)) {
    Graph g = LoadDataset(name, *cf.scale, *cf.seed);
    std::printf("%-4s |", name.c_str());
    for (int k = 3; k <= 7; ++k) {
      Rng rng(static_cast<uint64_t>(*cf.seed) + k);
      QueryGenOptions qopt;
      qopt.k_min = k;
      qopt.k_max = k;
      auto queries = GenerateRandomQueries(g, *cf.queries, qopt, rng);
      if (!queries.ok()) {
        std::printf(" %12s", "-");
        continue;
      }
      BatchOptions opt = MakeBatchOptions(cf);
      opt.max_paths_per_query = 20'000'000;
      RunOutcome o = TimeAlgorithm(g, *queries, Algorithm::kBasicEnumPlus,
                                   opt, 0);
      std::optional<double> avg;
      if (o.ok()) {
        avg = static_cast<double>(o.total_paths) /
              static_cast<double>(queries->size());
        std::printf(" %12.1f", *avg);
      } else {
        std::printf(" %12s", FormatTime(o).c_str());
      }
      if (csv) csv->Row(name, k, avg);
    }
    std::printf("\n");
  }
  if (csv) csv->Close();
  return 0;
}
