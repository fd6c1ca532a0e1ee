// Exp-1 (Fig 7): processing time and speedup when varying query similarity
// µ_Q. For each dataset and similarity level, runs all five algorithms and
// reports BatchEnum(+)'s speedup over BasicEnum+ next to the theoretical
// speedup limit 1 / (1 - µ_Q).

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
    csv->Row("dataset", "target_mu", "achieved_mu", "pathenum_s", "basic_s",
             "basicplus_s", "batch_s", "batchplus_s", "speedup",
             "speedup_limit");
  }

  std::vector<double> levels = {0.0, 0.2, 0.4, 0.6, 0.8, 0.9};
  if (*cf.quick) levels = {0.0, 0.9};

  for (const std::string& name : ResolveDatasets(*cf.datasets)) {
    Graph g = LoadDataset(name, *cf.scale, *cf.seed);
    auto spec = *FindDataset(name);
    std::printf(
        "\nFig 7 (%s): time when varying query similarity (|Q|=%lld, "
        "k in [%d,%d], gamma=%.2f)\n",
        name.c_str(), static_cast<long long>(*cf.queries), spec.bench_k_min,
        spec.bench_k_max, *cf.gamma);
    std::printf("%6s %6s | %9s %9s %9s %9s %9s | %8s %8s %6s\n", "target",
                "muQ", "PathEnum", "Basic", "Basic+", "Batch", "Batch+",
                "speedup", "work-spd", "limit");

    for (double target : levels) {
      // Same seed across levels: the pool seeds and the random base set
      // stay fixed, so only the pooled fraction varies between rows.
      Rng rng(static_cast<uint64_t>(*cf.seed) * 7919);
      auto qs = GenerateQueriesWithSimilarity(
          g, static_cast<size_t>(*cf.queries), spec.bench_k_min,
          spec.bench_k_max, target, rng);
      if (!qs.ok()) {
        std::fprintf(stderr, "%s target %.1f: %s\n", name.c_str(), target,
                     qs.status().ToString().c_str());
        continue;
      }
      BatchOptions opt = MakeBatchOptions(cf);
      opt.max_paths_per_query = 5'000'000;

      RunOutcome pe = TimeAlgorithm(g, qs->queries, Algorithm::kPathEnum,
                                    opt, *cf.time_budget);
      RunOutcome ba = TimeAlgorithm(g, qs->queries, Algorithm::kBasicEnum,
                                    opt, *cf.time_budget);
      RunOutcome bp = TimeAlgorithm(
          g, qs->queries, Algorithm::kBasicEnumPlus, opt, *cf.time_budget);
      RunOutcome bt = TimeAlgorithm(g, qs->queries, Algorithm::kBatchEnum,
                                    opt, *cf.time_budget);
      RunOutcome btp = TimeAlgorithm(
          g, qs->queries, Algorithm::kBatchEnumPlus, opt, *cf.time_budget);

      const double mu = qs->achieved_mu;
      const double limit = mu < 1.0 ? 1.0 / (1.0 - mu) : 99.0;
      const double speedup =
          (bp.ok() && btp.ok() && btp.seconds > 0)
              ? bp.seconds / btp.seconds
              : 0.0;
      // Search-work sharing: the ratio of DFS edge expansions. On
      // output-bound synthetic workloads this is where the sharing shows
      // (wall time is dominated by emitting the result paths themselves).
      const double work_speedup =
          btp.stats.edges_expanded > 0
              ? static_cast<double>(bp.stats.edges_expanded) /
                    static_cast<double>(btp.stats.edges_expanded)
              : 0.0;
      std::printf(
          "%5.0f%% %5.2f | %9s %9s %9s %9s %9s | %7.2fx %7.2fx %5.2fx\n",
          target * 100, mu, FormatTime(pe).c_str(), FormatTime(ba).c_str(),
          FormatTime(bp).c_str(), FormatTime(bt).c_str(),
          FormatTime(btp).c_str(), speedup, work_speedup, limit);
      if (csv) {
        csv->Row(name, target, mu, CsvSeconds(pe), CsvSeconds(ba),
                 CsvSeconds(bp), CsvSeconds(bt), CsvSeconds(btp), speedup,
                 limit);
      }
    }
  }
  if (csv) csv->Close();
  return 0;
}
