// batch_shared and batch_index: closed-loop 100-query batches through
// BatchPathEnumerator::Run (BatchEnum+), every path into a digest sink.
//
// Timed phase: the run's distinct batches are replayed in a cycle until
// `seconds` have elapsed. Each batch's latency is its Run span (the batch
// API hands back every result when Run returns, so each of its queries
// shares that latency). Traced runs additionally replay each batch's
// layers through their public entry points (BuildBatchIndex,
// ComputeSimilarityMatrix + ClusterQueries, DetectBothDirections) right
// after its Run, and take the enumeration time from BatchStats, the one
// layer with no public entry point below RunBatchEnum.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/basic_enum.h"
#include "core/clustering.h"
#include "core/detect.h"
#include "core/enumerator.h"
#include "core/path_enum.h"
#include "core/similarity.h"
#include "graph/graph_snapshot_io.h"
#include "index/distance_index.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/query_gen.h"
#include "workload/similarity_gen.h"
#include "workloads.h"

namespace hcbench {
namespace {

using hcpath::BatchOptions;
using hcpath::BatchPathEnumerator;
using hcpath::BatchStats;
using hcpath::Graph;
using hcpath::Hop;
using hcpath::Rng;

constexpr size_t kBatchQueries = 100;
/// Queries of the set-up warm-up batch.
constexpr size_t kWarmupQueries = 10;

struct BatchWorkloadSpec {
  const char* graph;
  bool similar;  ///< mu_Q ~ 0.9 batches (else random queries at k = 4)
  int k_min, k_max;
  /// Distinct batches generated per run; the timed phase cycles over them.
  size_t distinct;
};

BatchWorkloadSpec SpecFor(const std::string& name) {
  if (name == "batch_shared") return {"EP", true, 6, 6, 16};
  return {"WT", false, 4, 4, 8};
}

std::vector<PathQuery> RandomQueries(const Graph& g, size_t n, int k_min,
                                     int k_max, Rng& rng) {
  hcpath::QueryGenOptions qo;
  qo.k_min = k_min;
  qo.k_max = k_max;
  auto q = hcpath::GenerateRandomQueries(g, n, qo, rng);
  return q.ok() ? *q : std::vector<PathQuery>{};
}

/// Per-batch layer times of one traced replay (seconds).
struct LayerTimes {
  double index = 0, cluster = 0, detect = 0;
  uint64_t bfs_sources = 0;
};

/// Replays the layers RunBatchEnum runs for `queries`, one public entry
/// point per span, with the same pool and the same per-cluster inputs the
/// pipeline derives (docs/PARALLELISM.md describes the pool use).
LayerTimes ReplayLayers(const Graph& g, const std::vector<PathQuery>& queries,
                        const BatchOptions& opts, hcpath::ThreadPool* pool,
                        Tracer& tracer, uint64_t parent) {
  LayerTimes lt;
  hcpath::DistanceIndex index;
  BatchStats scratch;
  double t0 = NowSeconds();
  hcpath::BuildBatchIndex(g, queries, &index, &scratch, pool, nullptr);
  double t1 = NowSeconds();
  tracer.Add("index.build", t0, t1, parent);
  lt.index = t1 - t0;
  {
    std::vector<hcpath::VertexId> s, t;
    for (const PathQuery& q : queries) {
      s.push_back(q.s);
      t.push_back(q.t);
    }
    std::sort(s.begin(), s.end());
    std::sort(t.begin(), t.end());
    lt.bfs_sources = static_cast<uint64_t>(
        (std::unique(s.begin(), s.end()) - s.begin()) +
        (std::unique(t.begin(), t.end()) - t.begin()));
  }

  t0 = NowSeconds();
  hcpath::SimilarityMatrix sim = hcpath::ComputeSimilarityMatrix(
      g, queries, index, opts.similarity_mode, pool);
  std::vector<std::vector<size_t>> clusters =
      hcpath::ClusterQueries(sim, opts.gamma);
  t1 = NowSeconds();
  tracer.Add("cluster", t0, t1, parent);
  lt.cluster = t1 - t0;

  // Budget split and reachability exactly as RunBatchEnum derives them.
  const size_t n = queries.size();
  std::vector<size_t> cluster_size(n, 1);
  for (const auto& c : clusters) {
    for (size_t qi : c) cluster_size[qi] = c.size();
  }
  std::vector<Hop> hf(n), hb(n);
  std::vector<bool> reachable(n);
  for (size_t i = 0; i < n; ++i) {
    const Hop d = index.DistToTarget(i, queries[i].s);
    reachable[i] = d != hcpath::kUnreachable && d <= queries[i].k;
    hf[i] = hcpath::ChooseForwardBudget(index.FromSourceMap(i),
                                        index.ToTargetMap(i), queries[i].k,
                                        cluster_size[i] == 1);
    hb[i] = static_cast<Hop>(queries[i].k - hf[i]);
  }
  const size_t intra_min =
      static_cast<size_t>(std::max(2, opts.intra_cluster_min_queries));
  for (const auto& c : clusters) {
    std::vector<Hop> fb, bb;
    std::vector<bool> skip;
    size_t live = 0;
    for (size_t qi : c) {
      fb.push_back(hf[qi]);
      bb.push_back(hb[qi]);
      skip.push_back(!reachable[qi]);
      live += reachable[qi] ? 1 : 0;
    }
    if (live == 0) continue;
    hcpath::ThreadPool* intra =
        pool != nullptr && pool->num_workers() > 0 && live >= intra_min
            ? pool
            : nullptr;
    hcpath::DetectionResult fwd, bwd;
    t0 = NowSeconds();
    hcpath::DetectBothDirections(g, queries, c, fb, bb, skip, index, opts,
                                 intra, &fwd, &bwd, &scratch);
    t1 = NowSeconds();
    tracer.Add("detect", t0, t1, parent);
    lt.detect += t1 - t0;
  }
  return lt;
}

/// batch_shared's distinct batches. GenerateQueriesWithSimilarity at
/// mu_Q = 0.9 builds a batch from perturbations of one seed query, so a
/// batch's output varies ~100x with its seed pair. To make every run
/// measure the same amount of work, candidates are generated from the
/// workload seed in a fixed order, their total path count is taken with a
/// one-thread BatchEnum+ run (capped per query so heavy candidates stop
/// early), and the first `spec.distinct` candidates whose total lies in
/// [kBandLoPaths, kBandHiPaths] are kept. Two benchmark threads evaluate
/// candidates in pairs; selection order stays deterministic.
std::vector<std::vector<PathQuery>> SelectSimilarBatches(
    const Graph& g, uint64_t seed, const BatchWorkloadSpec& spec) {
  constexpr uint64_t kBandLoPaths = 550'000;
  constexpr uint64_t kBandHiPaths = 700'000;
  constexpr size_t kMaxCandidates = 400;
  struct Candidate {
    std::vector<PathQuery> queries;
    bool in_band = false;
  };
  auto evaluate = [&](size_t index, Candidate* c) {
    Rng rng(hcpath::Mix64(seed) ^ (index * 0x9e3779b97f4a7c15ULL));
    auto set = hcpath::GenerateQueriesWithSimilarity(
        g, kBatchQueries, spec.k_min, spec.k_max, 0.9, rng);
    if (!set.ok()) return;
    c->queries = std::move(set->queries);
    BatchOptions o = EngineBatchOptions();
    o.num_threads = 1;
    o.max_paths_per_query = kBandHiPaths / 30;
    BatchPathEnumerator counter(g);
    auto res = counter.Run(c->queries, o);
    c->in_band = res.ok() && res->TotalPaths() >= kBandLoPaths &&
                 res->TotalPaths() <= kBandHiPaths;
  };
  std::vector<std::vector<PathQuery>> out;
  for (size_t i = 0; i < kMaxCandidates && out.size() < spec.distinct;
       i += 2) {
    Candidate a, b;
    {
      std::jthread helper(evaluate, i + 1, &b);
      evaluate(i, &a);
    }
    for (Candidate* c : {&a, &b}) {
      if (c->in_band && out.size() < spec.distinct) {
        out.push_back(std::move(c->queries));
      }
    }
  }
  return out;
}

/// Per-query reference digests of `batches` with the reference algorithm,
/// split over two benchmark threads (the engine is idle by then).
std::vector<std::vector<QueryDigest>> ReferenceDigests(
    const Graph& g, const std::vector<std::vector<PathQuery>>& batches,
    std::vector<std::string>* errors) {
  std::vector<std::vector<QueryDigest>> ref(batches.size());
  std::vector<std::string> err(batches.size());
  auto work = [&](size_t first) {
    for (size_t b = first; b < batches.size(); b += 2) {
      DigestSink sink(batches[b].size());
      BatchStats stats;
      hcpath::Status st = hcpath::RunBasicEnum(g, batches[b],
                                               ReferenceBatchOptions(), true,
                                               &sink, &stats);
      if (!st.ok()) err[b] = st.ToString();
      ref[b] = sink.digests();
    }
  };
  {
    std::jthread helper(work, 1);
    work(0);
  }
  for (const std::string& e : err) {
    if (!e.empty()) errors->push_back("reference run failed: " + e);
  }
  return ref;
}

}  // namespace

RunReport RunBatchWorkload(const WorkloadConfig& cfg, Tracer& tracer) {
  RunReport rep;
  const double begin = NowSeconds();
  const BatchWorkloadSpec spec = SpecFor(cfg.name);
  const BatchOptions opts = EngineBatchOptions();

  // Inputs (untimed): distinct batches plus the warm-up batch, generated
  // on a copy of the graph that is dropped before set-up.
  std::vector<std::vector<PathQuery>> batches;
  std::vector<PathQuery> warmup;
  {
    auto g = LoadSnapshot(cfg, spec.graph);
    if (!g.ok()) {
      rep.Fail("snapshot load: " + g.status().ToString());
      return rep;
    }
    Rng rng(cfg.seed);
    if (spec.similar) {
      batches = SelectSimilarBatches(*g, cfg.seed, spec);
    } else {
      // Reachable-pair sampling is slow on the hub-skewed graph, so two
      // benchmark threads generate alternate batches, each batch from its
      // own seeded stream.
      batches.resize(spec.distinct);
      auto gen = [&](size_t first) {
        for (size_t b = first; b < spec.distinct; b += 2) {
          Rng brng(hcpath::Mix64(cfg.seed) ^ (b * 0x9e3779b97f4a7c15ULL));
          batches[b] = RandomQueries(*g, kBatchQueries, spec.k_min,
                                     spec.k_max, brng);
        }
      };
      std::jthread helper(gen, 1);
      gen(0);
    }
    if (batches.size() != spec.distinct ||
        std::any_of(batches.begin(), batches.end(), [](const auto& b) {
          return b.size() != kBatchQueries;
        })) {
      rep.Fail("query generation failed");
      return rep;
    }
    warmup = RandomQueries(*g, kWarmupQueries, 4, 4, rng);
    std::vector<PathQuery> all;
    for (const auto& b : batches) all.insert(all.end(), b.begin(), b.end());
    rep.inputs.push_back({std::string("graph_checksum.") + spec.graph,
                          Hex(hcpath::GraphContentChecksum(*g))});
    rep.inputs.push_back({"query_hash", Hex(HashQueries(all))});
  }

  // Set-up, measured kSetupRepetitions times: verified snapshot load,
  // enumerator construction, one warm-up batch.
  std::vector<double> setup, load;
  std::optional<Graph> graph;
  std::unique_ptr<BatchPathEnumerator> enumerator;
  for (int r = 0; r < kSetupRepetitions; ++r) {
    enumerator.reset();
    graph.reset();
    const double t0 = NowSeconds();
    auto g = LoadSnapshot(cfg, spec.graph);
    const double t1 = NowSeconds();
    if (!g.ok()) {
      rep.Fail("snapshot load: " + g.status().ToString());
      return rep;
    }
    graph.emplace(std::move(*g));
    enumerator = std::make_unique<BatchPathEnumerator>(*graph);
    DigestSink sink(warmup.size());
    auto res = enumerator->Run(warmup, opts, &sink);
    const double t2 = NowSeconds();
    ++rep.attempted;
    if (!res.ok()) ++rep.failed;
    const uint64_t root = tracer.Add("setup", t0, t2);
    tracer.Add("graph.load", t0, t1, root);
    tracer.Add("warmup", t1, t2, root);
    setup.push_back(t2 - t0);
    load.push_back(t1 - t0);
  }

  // Timed phase.
  std::shared_ptr<hcpath::ThreadPool> pool =
      hcpath::ThreadPool::ForNumThreads(opts.num_threads);
  std::vector<std::optional<std::vector<QueryDigest>>> first(batches.size());
  std::vector<double> latency;
  // Per distinct batch: the latency and peak RSS of each of its passes.
  std::vector<std::vector<double>> batch_lat(batches.size());
  std::vector<double> batch_rss;
  BatchStats total;
  double sum_index = 0, sum_cluster = 0, sum_detect = 0, sum_count_only = 0;
  uint64_t sum_sources = 0;
  uint64_t merge_peak = 0;
  size_t ok_batches = 0;
  // Hand memory freed by input generation back to the kernel, so the
  // timed phase's resident set starts from what is live.
  ReleaseFreeMemory();
  bool rss_reset = true;
  const CpuTimes cpu_start = ReadCpuTimes();
  const double start = NowSeconds();
  rep.phases.push_back({"inputs+setup", start - begin});
  for (size_t iter = 0;; ++iter) {
    const size_t b = iter % batches.size();
    DigestSink sink(batches[b].size());
    rss_reset = ResetPeakRss() && rss_reset;
    const double t0 = NowSeconds();
    auto res = enumerator->Run(batches[b], opts, &sink);
    const double t1 = NowSeconds();
    batch_rss.push_back(PeakRssMb());
    latency.push_back(t1 - t0);
    rep.attempted += batches[b].size();
    const uint64_t root = tracer.Add("batch", t0, t1);
    const uint64_t pipe = tracer.Add("pipeline", t0, t1, root);
    if (!res.ok()) {
      rep.failed += batches[b].size();
    } else {
      ++ok_batches;
      batch_lat[b].push_back(t1 - t0);
      const BatchStats& st = res->stats;
      total.Accumulate(st);
      merge_peak = std::max(merge_peak, st.merge_peak_buffered_bytes);
      tracer.Add("enum", t0, t0 + st.enumerate_seconds, pipe, 0,
                 "program-reported BatchStats::enumerate_seconds");
      if (!first[b]) {
        first[b] = sink.digests();
      } else if (*first[b] != sink.digests()) {
        rep.Fail("batch " + std::to_string(b) +
                 " changed its output between passes");
      }
    }
    if (cfg.trace) {
      LayerTimes lt =
          ReplayLayers(*graph, batches[b], opts, pool.get(), tracer, root);
      sum_index += lt.index;
      sum_cluster += lt.cluster;
      sum_detect += lt.detect;
      sum_sources += lt.bfs_sources;
      // The same Run without a sink (count only): the difference to the
      // timed Run is what delivering the paths to the caller's sink costs.
      const double c0 = NowSeconds();
      auto counted = enumerator->Run(batches[b], opts, nullptr);
      const double c1 = NowSeconds();
      if (!counted.ok()) {
        rep.Fail("count-only replay: " + counted.status().ToString());
      }
      tracer.Add("pipeline.count_only", c0, c1, root);
      sum_count_only += c1 - c0;
      tracer.SetEnd(root, c1);
    }
    if (NowSeconds() - start >= cfg.seconds) break;
  }
  const double verify_start = NowSeconds();
  rep.phases.push_back({"timed", verify_start - start});
  rep.steal_share = StealShare(cpu_start, ReadCpuTimes());
  if (!rss_reset) rep.inputs.push_back({"peak_rss_scope", "process"});

  // Verification (untimed): every distinct batch that ran against
  // BasicEnum+ on one thread.
  std::vector<std::string> errors;
  std::vector<std::vector<QueryDigest>> ref =
      ReferenceDigests(*graph, batches, &errors);
  for (const std::string& e : errors) rep.Fail(e);
  if (cfg.corrupt_digest && !ref.empty() && !ref[0].empty()) {
    ref[0][0].digest ^= 1;
  }
  for (size_t b = 0; b < batches.size(); ++b) {
    if (!first[b]) continue;
    for (size_t q = 0; q < batches[b].size(); ++q) {
      if (!((*first[b])[q] == ref[b][q])) {
        rep.Fail("batch " + std::to_string(b) + " query " +
                 std::to_string(q) + " " + batches[b][q].ToString() +
                 ": count " + std::to_string((*first[b])[q].count) +
                 " vs reference " + std::to_string(ref[b][q].count) +
                 (((*first[b])[q].count == ref[b][q].count)
                      ? " (digest differs)"
                      : ""));
      }
    }
  }

  rep.phases.push_back({"verify", NowSeconds() - verify_start});

  // End-to-end metrics. Each distinct batch is represented by the median
  // latency of its passes, so a burst of interference on the box moves a
  // pass, not the figure; throughput is one pass over the distinct set at
  // those latencies, and every query of a batch shares its latency.
  std::vector<double> typical;
  double pass = 0;
  for (const std::vector<double>& l : batch_lat) {
    if (l.empty()) continue;
    typical.push_back(Median(l));
    pass += typical.back();
  }
  double busy = 0;
  for (double l : latency) busy += l;
  const double queries_done =
      static_cast<double>(ok_batches * kBatchQueries);
  rep.e2e = {
      {"setup_s", Median(setup), "s"},
      {"throughput_qps",
       pass > 0 ? static_cast<double>(typical.size() * kBatchQueries) / pass
                : 0,
       "1/s"},
      {"query_p50_ms", Percentile(typical, 50) * 1e3, "ms"},
      {"query_p90_ms", Percentile(typical, 90) * 1e3, "ms"},
      {"peak_rss_mb", Median(batch_rss), "MiB"},
  };

  // Per-layer ledger: per-batch means over the timed batches.
  rep.ledger_source =
      "index/cluster/detect: replayed public entry points, enum: "
      "program-reported BatchStats";
  const double nb = static_cast<double>(std::max<size_t>(ok_batches, 1));
  const double ni = static_cast<double>(latency.size());
  const double pipeline_ms = busy / ni * 1e3;
  const double index_ms = sum_index / ni * 1e3;
  const double cluster_ms = sum_cluster / ni * 1e3;
  const double detect_ms = sum_detect / ni * 1e3;
  const double enum_ms = total.enumerate_seconds / nb * 1e3;
  const double sink_ms =
      cfg.trace ? pipeline_ms - sum_count_only / ni * 1e3 : 0;
  const double expanded = static_cast<double>(total.edges_expanded);
  const double pruned = static_cast<double>(total.edges_pruned);
  const double probes = static_cast<double>(total.join_probes);
  const double drained =
      static_cast<double>(total.merge_streamed_items + total.merge_final_items);
  rep.layers = {
      {"graph.load_ms", Median(load) * 1e3, "ms"},
      {"index.build_ms", index_ms, "ms"},
      {"bfs.sources", static_cast<double>(sum_sources) / ni, "count"},
      {"cluster.ms", cluster_ms, "ms"},
      {"cluster.count", static_cast<double>(total.num_clusters) / nb, "count"},
      {"cluster.mean_size",
       total.num_clusters > 0
           ? queries_done / static_cast<double>(total.num_clusters)
           : 0,
       "count"},
      {"detect.ms", detect_ms, "ms"},
      {"detect.sharing_nodes", static_cast<double>(total.sharing_nodes) / nb,
       "count"},
      {"detect.dominating_nodes",
       static_cast<double>(total.dominating_nodes) / nb, "count"},
      {"detect.sharing_edges", static_cast<double>(total.sharing_edges) / nb,
       "count"},
      {"enum.ms", enum_ms, "ms"},
      {"enum.edges_expanded", expanded / nb, "count"},
      {"enum.prune_ratio",
       expanded + pruned > 0 ? pruned / (expanded + pruned) : 0, "ratio"},
      {"enum.join_probes", probes / nb, "count"},
      {"enum.join_yield",
       probes > 0 ? static_cast<double>(total.paths_emitted) / probes : 0,
       "ratio"},
      {"enum.splices", static_cast<double>(total.shortcut_splices) / nb,
       "count"},
      {"enum.paths", static_cast<double>(total.paths_emitted) / nb, "count"},
      {"merge.peak_buffered_mb", static_cast<double>(merge_peak) / 1048576.0,
       "MiB"},
      {"merge.total_buffered_mb",
       static_cast<double>(total.merge_total_buffered_bytes) / nb / 1048576.0,
       "MiB"},
      {"merge.sink_ms", sink_ms, "ms"},
      {"merge.streamed_ratio",
       drained > 0 ? static_cast<double>(total.merge_streamed_items) / drained
                   : 0,
       "ratio"},
      {"pipeline.ms", pipeline_ms, "ms"},
      {"pipeline.unclaimed_ms",
       pipeline_ms - (index_ms + cluster_ms + detect_ms + enum_ms + sink_ms),
       "ms"},
  };
  return rep;
}

}  // namespace hcbench
