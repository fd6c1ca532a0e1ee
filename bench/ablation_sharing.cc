// Ablation (ours, beyond the paper): isolates the contribution of each
// BatchEnum design choice — clustering (Alg 2), cache reuse (Alg 4
// splicing), and the optimized search order.
//
// Every dataset gets one untimed warm-up run first, so the first timed
// row does not pay for it. Exits 1 when two variants that finish disagree
// on the total path count.

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
  if (csv) csv->Row("dataset", "variant", "seconds", "splices", "expanded");

  struct Variant {
    const char* name;
    Algorithm algo;
    bool disable_clustering;
    bool disable_reuse;
  };
  const Variant kVariants[] = {
      {"Batch+ (full)", Algorithm::kBatchEnumPlus, false, false},
      {"  - order opt", Algorithm::kBatchEnum, false, false},
      {"  - clustering", Algorithm::kBatchEnumPlus, true, false},
      {"  - cache reuse", Algorithm::kBatchEnumPlus, false, true},
      {"  BasicEnum+ (no sharing at all)", Algorithm::kBasicEnumPlus, false,
       false},
  };
  auto options_for = [&cf](const Variant& v) {
    BatchOptions opt = MakeBatchOptions(cf);
    opt.disable_clustering = v.disable_clustering;
    opt.disable_cache_reuse = v.disable_reuse;
    opt.max_paths_per_query = 5'000'000;
    return opt;
  };

  int exit_code = 0;

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
    TimeAlgorithm(g, qs->queries, kVariants[0].algo,
                  options_for(kVariants[0]), 0);  // warm-up, untimed
    std::optional<uint64_t> finished_paths;  // the first finished variant's
    for (const Variant& v : kVariants) {
      RunOutcome o = TimeAlgorithm(g, qs->queries, v.algo, options_for(v),
                                   *cf.time_budget);
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
      if (!o.status.ok()) continue;
      if (!finished_paths) {
        finished_paths = o.total_paths;
      } else if (o.total_paths != *finished_paths) {
        std::fprintf(stderr,
                     "%s: variant \"%s\" found %llu paths, the first "
                     "finished variant %llu\n",
                     name.c_str(), v.name,
                     static_cast<unsigned long long>(o.total_paths),
                     static_cast<unsigned long long>(*finished_paths));
        exit_code = 1;
      }
    }
  }
  if (csv) csv->Close();
  return exit_code;
}
