#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "graph/stats.h"
#include "util/stringx.h"
#include "util/timer.h"
#include "workload/dataset_registry.h"

namespace hcpath {
namespace bench {

CommonFlags::CommonFlags() {
  datasets = flags.AddString("datasets", "default",
                             "comma list of EP..FS, 'default' or 'all'");
  scale = flags.AddDouble("scale", 1.0, "dataset scale factor");
  queries = flags.AddInt64("queries", 100, "query set size");
  seed = flags.AddInt64("seed", 42, "workload / generator seed");
  gamma = flags.AddDouble("gamma", 0.5, "clustering threshold gamma");
  // Default 1 (the sequential reference) so exp1-exp7 timings stay
  // comparable with the paper's single-threaded figures and with earlier
  // trajectories; thread scaling is exp8's job, or opt in with --threads.
  threads = flags.AddInt64("threads", 1,
                           "engine compute threads (<= 0 = all cores, "
                           "1 = sequential reference)");
  csv = flags.AddString("csv", "", "optional CSV output path");
  time_budget =
      flags.AddDouble("time_budget", 120.0, "per-run budget in seconds (OT)");
  quick = flags.AddBool("quick", false, "shrink sweeps for smoke runs");
}

void ParseOrDie(CommonFlags& cf, int argc, char** argv) {
  Status st = cf.flags.Parse(argc, argv);
  if (st.code() == StatusCode::kNotFound) std::exit(0);  // --help
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 cf.flags.Usage().c_str());
    std::exit(2);
  }
}

BatchOptions MakeBatchOptions(const CommonFlags& cf) {
  BatchOptions opt;
  opt.gamma = *cf.gamma;
  opt.num_threads = static_cast<int>(*cf.threads);
  Status st = opt.Validate();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::exit(2);
  }
  return opt;
}

std::vector<std::string> ResolveDatasets(const std::string& spec) {
  if (spec == "default") return DefaultBenchDatasets();
  std::vector<std::string> out;
  if (spec == "all") {
    for (const auto& d : AllDatasets()) out.push_back(d.name);
    return out;
  }
  for (auto part : Split(spec, ',')) {
    std::string name(Trim(part));
    if (!FindDataset(name).ok()) {
      std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
      std::exit(2);
    }
    out.push_back(name);
  }
  return out;
}

Graph LoadDataset(const std::string& name, double scale, uint64_t seed) {
  auto g = MakeDataset(name, scale, seed);
  if (!g.ok()) {
    std::fprintf(stderr, "failed to build %s: %s\n", name.c_str(),
                 g.status().ToString().c_str());
    std::exit(2);
  }
  GraphStats s = ComputeGraphStats(*g);
  std::fprintf(stderr, "[dataset] %s\n", FormatStatsRow(name, s).c_str());
  return std::move(*g);
}

RunOutcome TimeAlgorithm(const Graph& g,
                         const std::vector<PathQuery>& queries,
                         Algorithm algo, const BatchOptions& base_options,
                         double time_budget) {
  RunOutcome out;
  BatchOptions options = base_options;
  options.algorithm = algo;
  BatchPathEnumerator facade(g);
  WallTimer timer;
  auto result = facade.Run(queries, options, nullptr);
  out.seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    out.status = result.status();
    std::fprintf(stderr, "[%s] %s\n", AlgorithmName(algo),
                 out.status.ToString().c_str());
    return out;
  }
  out.total_paths = result->TotalPaths();
  out.stats = result->stats;
  out.over_time = time_budget > 0 && out.seconds > time_budget;
  return out;
}

std::string FormatTime(const RunOutcome& o) {
  if (!o.status.ok()) {
    return o.status.code() == StatusCode::kResourceExhausted ? "CAP" : "ERR";
  }
  if (o.over_time) return "OT";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", o.seconds);
  return buf;
}

std::optional<double> CsvSeconds(const RunOutcome& o) {
  if (!o.status.ok()) return std::nullopt;
  return o.seconds;
}

std::unique_ptr<CsvWriter> OpenCsv(const std::string& path) {
  if (path.empty()) return nullptr;
  auto csv = std::make_unique<CsvWriter>(path);
  if (!csv->status().ok()) {
    std::fprintf(stderr, "cannot open csv %s\n", path.c_str());
    std::exit(2);
  }
  return csv;
}

}  // namespace bench
}  // namespace hcpath
