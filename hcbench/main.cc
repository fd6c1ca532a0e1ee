// hcbench: the repository benchmark program. run.py builds it and calls
//
//   hcbench prep --data DIR
//       writes the EP and WT registry stand-ins (scale 1.0) as snapshot
//       files (untimed; done once per checkout);
//   hcbench run --workload NAME --seed N --seconds S --trace 0|1 --data DIR
//               [--trace_out FILE] [--corrupt_digest]
//       runs one workload and prints the run's input identities, the
//       per-layer ledger (traced runs), and as its last line
//       `RESULT {json}` with every end-to-end and per-layer metric.
//
// Exit status: 0 when every checked output matched its reference, 1 on a
// verification mismatch, 2 on bad arguments or missing inputs.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/options.h"
#include "graph/graph_snapshot_io.h"
#include "util/flags.h"
#include "workload/dataset_registry.h"
#include "workloads.h"

namespace hcbench {
namespace {

/// Seed of the registry stand-in graphs (fixed: the graphs are inputs of
/// the benchmark definition, the workload seed drives queries and updates).
constexpr uint64_t kGraphSeed = 42;

/// Snapshot file of a registry stand-in under `data_dir`.
std::string SnapshotPath(const std::string& data_dir,
                         const std::string& graph) {
  return data_dir + "/" + graph + ".snap";
}

/// Writes the EP and WT stand-ins (scale 1.0) as snapshot files.
hcpath::Status PrepareSnapshots(const std::string& data_dir) {
  for (const char* name : {"EP", "WT"}) {
    auto g = hcpath::MakeDataset(name, 1.0, kGraphSeed);
    if (!g.ok()) return g.status();
    const std::string path = SnapshotPath(data_dir, name);
    // Write-then-rename so an interrupted prep never leaves a torn file.
    const std::string tmp = path + ".tmp";
    HCPATH_RETURN_NOT_OK(hcpath::SaveGraphSnapshot(*g, tmp));
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      return hcpath::Status::IOError("rename " + tmp);
    }
    std::printf("prep: %s |V|=%u |E|=%llu checksum=%s\n", name,
                g->NumVertices(),
                static_cast<unsigned long long>(g->NumEdges()),
                Hex(hcpath::GraphContentChecksum(*g)).c_str());
  }
  return hcpath::Status::OK();
}

}  // namespace

hcpath::StatusOr<hcpath::Graph> LoadSnapshot(const WorkloadConfig& cfg,
                                             const std::string& graph) {
  hcpath::GraphSnapshotLoadOptions load;
  load.verify = true;
  return hcpath::LoadGraphSnapshot(SnapshotPath(cfg.data_dir, graph), load);
}

hcpath::BatchOptions EngineBatchOptions() {
  hcpath::BatchOptions o;
  o.num_threads = kComputeThreads;
  return o;
}

hcpath::BatchOptions ReferenceBatchOptions() {
  hcpath::BatchOptions o;
  o.algorithm = hcpath::Algorithm::kBasicEnumPlus;
  o.num_threads = 1;
  return o;
}

namespace {

/// Every per-layer metric, in ledger order, with its unit. A workload that
/// does not exercise a layer reports 0 for its metrics (README.md).
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"graph.load_ms", "ms"},
      {"graph.apply_ms", "ms"},
      {"graph.overlay_extends", "count"},
      {"graph.overlay_depth", "count"},
      {"graph.compactions", "count"},
      {"index.build_ms", "ms"},
      {"bfs.sources", "count"},
      {"index.cache_hit_rate", "ratio"},
      {"index.cache_hits", "count"},
      {"index.cache_misses", "count"},
      {"index.invalidated", "count"},
      {"index.repaired", "count"},
      {"index.repair_skipped", "count"},
      {"cluster.ms", "ms"},
      {"cluster.count", "count"},
      {"cluster.mean_size", "count"},
      {"detect.ms", "ms"},
      {"detect.sharing_nodes", "count"},
      {"detect.dominating_nodes", "count"},
      {"detect.sharing_edges", "count"},
      {"enum.ms", "ms"},
      {"enum.edges_expanded", "count"},
      {"enum.prune_ratio", "ratio"},
      {"enum.join_probes", "count"},
      {"enum.join_yield", "ratio"},
      {"enum.splices", "count"},
      {"enum.paths", "count"},
      {"merge.peak_buffered_mb", "MiB"},
      {"merge.total_buffered_mb", "MiB"},
      {"merge.sink_ms", "ms"},
      {"merge.streamed_ratio", "ratio"},
      {"service.wait_p50_ms", "ms"},
      {"service.wait_p90_ms", "ms"},
      {"service.batch_p50_ms", "ms"},
      {"service.batch_size", "count"},
      {"service.wait_cut_frac", "ratio"},
      {"service.peak_queued", "count"},
      {"service.update_p50_ms", "ms"},
      {"service.update_p90_ms", "ms"},
      {"service.query_p99_ms", "ms"},
      {"service.error_rate", "ratio"},
      {"pipeline.ms", "ms"},
      {"pipeline.unclaimed_ms", "ms"},
      {"loadgen.late_p90_ms", "ms"},
      {"loadgen.late_max_ms", "ms"},
  };
  return names;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

/// Completes the workload's ledger to the full per-layer list (0 for
/// layers the workload does not exercise), in canonical order.
std::vector<Metric> CompleteLedger(const std::vector<Metric>& measured) {
  std::map<std::string, double> by_name;
  for (const Metric& m : measured) by_name[m.name] = m.value;
  std::vector<Metric> out;
  for (const auto& [name, unit] : LayerMetricNames()) {
    auto it = by_name.find(name);
    out.push_back({name, it == by_name.end() ? 0.0 : it->second, unit});
  }
  return out;
}

/// The per-layer table of a traced run: each layer's per-batch time, its
/// share of the pipeline, and the span self times from the trace.
void PrintLedger(const RunReport& rep, const Tracer& tracer) {
  std::printf("ledger (per batch; %s):\n", rep.ledger_source.c_str());
  std::map<std::string, double> v;
  for (const Metric& m : rep.layers) v[m.name] = m.value;
  const double pipe = v["pipeline.ms"];
  auto row = [&](const char* label, const char* name) {
    const double ms = v[name];
    std::printf("  %-26s %12.3f ms  %6.1f%% of pipeline\n", label, ms,
                pipe > 0 ? 100.0 * ms / pipe : 0.0);
  };
  row("index", "index.build_ms");
  row("cluster", "cluster.ms");
  row("detect", "detect.ms");
  row("enum", "enum.ms");
  row("merge.sink (delivery)", "merge.sink_ms");
  row("unclaimed", "pipeline.unclaimed_ms");
  std::printf("  %-26s %12.3f ms\n", "pipeline", pipe);
  std::printf("span self times (whole run):\n");
  for (const auto& [name, t] : tracer.Totals()) {
    std::printf("  %-26s n=%-7llu total %12.3f ms  self %12.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total * 1e3, t.self * 1e3);
  }
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: hcbench prep|run [flags]\n");
    return 2;
  }
  const std::string mode = argv[1];
  hcpath::FlagSet flags;
  std::string* data = flags.AddString("data", "", "snapshot directory");
  std::string* workload = flags.AddString("workload", "", "workload name");
  int64_t* seed = flags.AddInt64("seed", 1, "workload seed");
  double* seconds = flags.AddDouble("seconds", 10, "measured seconds");
  int64_t* trace = flags.AddInt64("trace", 0, "1 = traced run");
  std::string* trace_out =
      flags.AddString("trace_out", "", "Chrome trace output path");
  bool* corrupt =
      flags.AddBool("corrupt_digest", false, "self-test: corrupt a digest");
  hcpath::Status parsed = flags.Parse(argc - 1, argv + 1);
  if (!parsed.ok() || data->empty()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (mode == "prep") {
    hcpath::Status st = PrepareSnapshots(*data);
    if (!st.ok()) {
      std::fprintf(stderr, "prep failed: %s\n", st.ToString().c_str());
      return 2;
    }
    return 0;
  }
  if (mode != "run") {
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  }

  WorkloadConfig cfg;
  cfg.name = *workload;
  cfg.seed = static_cast<uint64_t>(*seed);
  cfg.seconds = *seconds;
  cfg.trace = *trace != 0;
  cfg.data_dir = *data;
  cfg.corrupt_digest = *corrupt;
  Tracer tracer(cfg.trace);
  RunReport rep;
  if (cfg.name == "batch_shared" || cfg.name == "batch_index") {
    rep = RunBatchWorkload(cfg, tracer);
  } else if (cfg.name == "serve_updates") {
    rep = RunServeWorkload(cfg, tracer);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.name.c_str());
    return 2;
  }
  rep.layers = CompleteLedger(rep.layers);

  std::printf("inputs: seed=%llu", static_cast<unsigned long long>(cfg.seed));
  for (const auto& [k, val] : rep.inputs) {
    std::printf(" %s=%s", k.c_str(), val.c_str());
  }
  std::printf("\nphases:");
  for (const auto& [k, val] : rep.phases) {
    std::printf(" %s=%.2fs", k.c_str(), val);
  }
  std::printf(" steal=%.1f%%\n", rep.steal_share * 100);
  for (const std::string& m : rep.mismatches) {
    std::printf("MISMATCH %s\n", m.c_str());
  }
  if (cfg.trace) {
    PrintLedger(rep, tracer);
    if (!trace_out->empty() && !tracer.WriteChromeTrace(*trace_out)) {
      std::fprintf(stderr, "could not write %s\n", trace_out->c_str());
    }
  }
  std::printf(
      "RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"e2e\": %s, \"layers\": %s}\n",
      rep.correct ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed),
      MetricsJson(rep.e2e).c_str(), MetricsJson(rep.layers).c_str());
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace hcbench

int main(int argc, char** argv) { return hcbench::Main(argc, argv); }
