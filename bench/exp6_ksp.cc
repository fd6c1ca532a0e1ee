// Exp-6 (Fig 12): comparison with the adapted k-shortest-path algorithms
// DkSP and OnePass. The paper reports >= 2 orders of magnitude advantage
// for BatchEnum+ (with several OT entries for the KSP baselines).

#include <cstdio>

#include "bench_common.h"
#include "ksp/dksp.h"
#include "ksp/onepass.h"
#include "util/timer.h"
#include "workload/dataset_registry.h"
#include "workload/query_gen.h"

using namespace hcpath;
using namespace hcpath::bench;

namespace {

/// Runs one KSP baseline over the whole batch with a shared wall budget.
bench::RunOutcome TimeKsp(const Graph& g,
                          const std::vector<PathQuery>& queries,
                          bool use_dksp, double budget_seconds) {
  bench::RunOutcome out;
  WallTimer timer;
  CountingSink sink(queries.size());
  KspLimits limits;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (budget_seconds > 0) {
      double left = budget_seconds - timer.ElapsedSeconds();
      if (left <= 0) {
        out.over_time = true;
        break;
      }
      limits.time_budget_seconds = left;
    }
    Status st = use_dksp ? DkspEnumerate(g, queries[i], i, &sink, limits)
                         : OnePassEnumerate(g, queries[i], i, &sink, limits);
    if (!st.ok()) {
      // An exhausted budget is OT; any other failure keeps its Status.
      if (st.code() == StatusCode::kDeadlineExceeded) {
        out.over_time = true;
      } else {
        out.status = st;
        std::fprintf(stderr, "[%s] %s\n", use_dksp ? "DkSP" : "OnePass",
                     st.ToString().c_str());
      }
      break;
    }
  }
  out.seconds = timer.ElapsedSeconds();
  out.total_paths = sink.Total();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CommonFlags cf;
  // KSP baselines are quadratic in the number of emitted paths; a tighter
  // default budget keeps the suite runnable (they hit OT like the paper).
  *cf.time_budget = 30.0;
  ParseOrDie(cf, argc, argv);
  auto csv = OpenCsv(*cf.csv);
  if (csv) csv->Row("dataset", "dksp_s", "onepass_s", "batchplus_s");

  std::printf("Fig 12: comparison with adapted KSP algorithms "
              "(|Q|=%lld, budget %.0fs)\n",
              static_cast<long long>(*cf.queries), *cf.time_budget);
  std::printf("%-4s | %9s %9s %9s\n", "ds", "DkSP", "OnePass", "Batch+");

  for (const std::string& name : ResolveDatasets(*cf.datasets)) {
    Graph g = LoadDataset(name, *cf.scale, *cf.seed);
    auto spec = *FindDataset(name);
    Rng rng(static_cast<uint64_t>(*cf.seed));
    QueryGenOptions qopt;
    // Paper setting: k varies from 3 to 7 here (clamped to the dataset's
    // bench range for the dense stand-ins).
    qopt.k_min = 3;
    qopt.k_max = spec.bench_k_max;
    auto queries = GenerateRandomQueries(g, *cf.queries, qopt, rng);
    if (!queries.ok()) continue;

    RunOutcome dksp = TimeKsp(g, *queries, /*use_dksp=*/true,
                              *cf.time_budget);
    RunOutcome onepass = TimeKsp(g, *queries, /*use_dksp=*/false,
                                 *cf.time_budget);
    BatchOptions opt = MakeBatchOptions(cf);
    opt.max_paths_per_query = 5'000'000;
    RunOutcome btp = TimeAlgorithm(g, *queries, Algorithm::kBatchEnumPlus,
                                   opt, *cf.time_budget);
    std::printf("%-4s | %9s %9s %9s\n", name.c_str(),
                FormatTime(dksp).c_str(), FormatTime(onepass).c_str(),
                FormatTime(btp).c_str());
    if (csv) {
      csv->Row(name, CsvSeconds(dksp), CsvSeconds(onepass), CsvSeconds(btp));
    }
  }
  if (csv) csv->Close();
  return 0;
}
