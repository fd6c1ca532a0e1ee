// serve_updates: a store-backed PathEngine under an open loop with edge
// updates landing beside the reads.
//
// Traffic: Zipf(1.1) over 256 query templates (random reachable pairs at
// k = 4), sent on a fixed schedule of 2000 qps (about a fifth of the
// measured capacity) for the first 60% of the measured seconds, then as
// fast as admission accepts for the rest (the capacity phase). Each
// query's latency runs from its *scheduled*
// send to the moment its future is ready, so a stall counts against every
// query scheduled behind it. Latency percentiles are taken per 0.5 s
// window of the schedule and the run reports their median over windows;
// capacity is the median completion rate over 0.25 s windows. A burst of
// interference on the box then moves a window, not the figure.
//
// Threads: the generator (this thread) and one collector that waits on
// the futures in submission order; the engine adds its 2 compute threads.
// The edge-update batches (64 edges every 50 ms) are issued by the
// generator between sends, so a slow ApplyUpdates also delays the
// sends behind it (loadgen.late_* reports by how much).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/basic_enum.h"
#include "graph/graph_builder.h"
#include "graph/graph_snapshot_io.h"
#include "graph/graph_store.h"
#include "service/path_engine.h"
#include "util/rng.h"
#include "workload/query_gen.h"
#include "workloads.h"

namespace hcbench {
namespace {

using hcpath::EdgeUpdate;
using hcpath::Graph;
using hcpath::GraphStore;
using hcpath::PathEngine;
using hcpath::PathEngineOptions;
using hcpath::PathEngineStats;
using hcpath::QueryResult;
using hcpath::Rng;
using hcpath::VertexId;

/// Open-loop send rate of both serve workloads.
constexpr double kOpenLoopQps = 2000;
constexpr size_t kTemplates = 256;
/// Random pairs drawn to pick the templates from.
constexpr size_t kCandidates = 2 * kTemplates;
constexpr double kZipfAlpha = 1.1;
constexpr int kServeK = 4;
/// Share of the measured seconds spent in the open loop; the rest is the
/// backlogged capacity phase.
constexpr double kOpenShare = 0.6;
/// Capacity-phase completions are counted after this share of the phase
/// (the queue fills first).
constexpr double kCapacityWarmShare = 0.25;
/// Window lengths of the open-loop percentiles and the capacity rate.
constexpr double kLatencyWindowS = 0.5;
constexpr double kCapacityWindowS = 0.25;
/// Preallocation bound on the capacity phase's send rate.
constexpr double kMaxBacklogQps = 50000;
constexpr double kUpdateIntervalS = 0.050;
constexpr size_t kUpdateEdges = 64;
/// Templates whose k-hop cones receive half of each update batch.
constexpr size_t kHotTemplates = 16;
/// Results re-run one-shot on their stamped snapshot.
constexpr size_t kUpdateVerifySamples = 400;
/// Traced runs keep the span of every Nth query.
constexpr size_t kQuerySpanStride = 8;

/// P(rank r) ~ 1 / (r + 1)^alpha over ranks [0, n).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double alpha) : cdf_(n) {
    double acc = 0;
    for (size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// One sent query. The generator fills the send side, the collector the
/// completion side; `published` hands a record over.
struct QueryRecord {
  uint32_t tmpl = 0;
  bool open_loop = true;
  double due = 0;   ///< scheduled send (capacity phase: actual send)
  double sent = 0;
  double done = 0;
  SingleDigestSink sink;
  std::future<QueryResult> future;
  bool ok = false;
  uint64_t epoch = 0;
  double wait_s = 0;
  double batch_s = 0;
};

/// Append-only QueryRecord storage in fixed chunks allocated as the run
/// reaches them, so unused capacity never becomes resident (peak_rss_mb
/// counts the benchmark's own bookkeeping too). The generator prepares a
/// record, and with it its chunk, before publishing it; the collector only
/// reads published records, so it never sees a missing chunk.
class RecordLog {
 public:
  explicit RecordLog(size_t capacity) : chunks_(capacity / kChunk + 1) {}

  QueryRecord& Prepare(size_t i) {
    std::unique_ptr<QueryRecord[]>& c = chunks_[i / kChunk];
    if (!c) c = std::make_unique<QueryRecord[]>(kChunk);
    return c[i % kChunk];
  }
  QueryRecord& operator[](size_t i) { return chunks_[i / kChunk][i % kChunk]; }

 private:
  static constexpr size_t kChunk = 4096;
  std::vector<std::unique_ptr<QueryRecord[]>> chunks_;
};

/// Deterministic update stream: even batches add 64 absent edges (half
/// between the out-neighbourhood of a hot template's source and the
/// in-neighbourhood of its target, so inside its k-hop cone; half
/// uniform), odd batches remove the previous batch's edges. The graph
/// therefore alternates between the seed graph and seed + 64 edges.
class UpdateStream {
 public:
  UpdateStream(const Graph& g, const std::vector<PathQuery>& hot,
               uint64_t seed)
      : g_(g), hot_(hot), rng_(hcpath::Mix64(seed) ^ 0x5bd1e995ULL) {}

  std::vector<EdgeUpdate> Next() {
    std::vector<EdgeUpdate> out;
    if (count_++ % 2 == 1) {
      for (const auto& [u, v] : last_adds_) {
        out.push_back(EdgeUpdate::Remove(u, v));
      }
      return out;
    }
    last_adds_.clear();
    while (last_adds_.size() < kUpdateEdges) {
      VertexId u, v;
      if (last_adds_.size() < kUpdateEdges / 2) {
        const PathQuery& q = hot_[rng_.NextBounded(hot_.size())];
        u = Pick(q.s, g_.OutNeighbors(q.s));
        v = Pick(q.t, g_.InNeighbors(q.t));
      } else {
        u = static_cast<VertexId>(rng_.NextBounded(g_.NumVertices()));
        v = static_cast<VertexId>(rng_.NextBounded(g_.NumVertices()));
      }
      if (u == v || g_.HasEdge(u, v)) continue;
      if (std::find(last_adds_.begin(), last_adds_.end(),
                    std::make_pair(u, v)) != last_adds_.end()) {
        continue;
      }
      last_adds_.push_back({u, v});
      out.push_back(EdgeUpdate::Add(u, v));
    }
    return out;
  }

 private:
  VertexId Pick(VertexId self, std::span<const VertexId> nbrs) {
    const uint64_t i = rng_.NextBounded(nbrs.size() + 1);
    return i == nbrs.size() ? self : nbrs[i];
  }

  const Graph& g_;
  const std::vector<PathQuery>& hot_;
  Rng rng_;
  uint64_t count_ = 0;
  std::vector<std::pair<VertexId, VertexId>> last_adds_;
};

/// One-shot reference digest of a single query (BasicEnum+, one thread).
QueryDigest OneShot(const Graph& g, const PathQuery& q, std::string* error) {
  DigestSink sink(1);
  hcpath::BatchStats stats;
  hcpath::Status st = hcpath::RunBasicEnum(g, {q}, ReferenceBatchOptions(),
                                           true, &sink, &stats);
  if (!st.ok()) *error = st.ToString();
  return sink.digests()[0];
}

void SleepUntil(double t) {
  const double d = t - NowSeconds();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

}  // namespace

RunReport RunServeWorkload(const WorkloadConfig& cfg, Tracer& tracer) {
  RunReport rep;
  const double begin = NowSeconds();
  const double open_s = cfg.seconds * kOpenShare;
  const double cap_s = cfg.seconds - open_s;

  // Inputs (untimed): templates with their one-shot reference digests,
  // the Zipf schedule, the update stream.
  std::vector<PathQuery> templates;
  std::string error;
  {
    auto g = LoadSnapshot(cfg, "EP");
    if (!g.ok()) {
      rep.Fail("snapshot load: " + g.status().ToString());
      return rep;
    }
    Rng rng(cfg.seed);
    hcpath::QueryGenOptions qo;
    qo.k_min = kServeK;
    qo.k_max = kServeK;
    auto t = hcpath::GenerateRandomQueries(*g, kCandidates, qo, rng);
    if (!t.ok() || t->size() != kCandidates) {
      rep.Fail("template generation failed");
      return rep;
    }
    // The templates are the kTemplates candidates whose one-shot path
    // counts lie closest to the candidates' median, and Zipf rank r serves
    // the r-th closest (ranks alternate above and below it). The hot set is
    // then typical-cost for every seed, and the per-query cost of the
    // traffic does not swing with a few heavy random pairs.
    std::vector<QueryDigest> counted(kCandidates);
    for (size_t i = 0; i < kCandidates; ++i) {
      counted[i] = OneShot(*g, (*t)[i], &error);
    }
    std::vector<size_t> order(kCandidates);
    for (size_t i = 0; i < kCandidates; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return counted[a].count < counted[b].count;
    });
    const size_t center = (kCandidates - 1) / 2;
    for (size_t r = 0; r < kTemplates; ++r) {
      const size_t pos = r % 2 == 1 ? center + (r + 1) / 2 : center - r / 2;
      templates.push_back((*t)[order[pos]]);
    }
    rep.inputs.push_back(
        {"graph_checksum.EP", Hex(hcpath::GraphContentChecksum(*g))});
    rep.inputs.push_back({"query_hash", Hex(HashQueries(templates))});
  }
  const std::vector<PathQuery> hot(templates.begin(),
                                   templates.begin() + kHotTemplates);
  const size_t n_open = static_cast<size_t>(open_s * kOpenLoopQps);
  const size_t n_max =
      n_open + static_cast<size_t>(cap_s * kMaxBacklogQps) + 1;
  RecordLog recs(n_max);
  const ZipfSampler zipf(kTemplates, kZipfAlpha);
  Rng zipf_rng(hcpath::Mix64(cfg.seed) ^ 0x2545f4914f6cdd1dULL);

  PathEngineOptions eo;
  eo.batch = EngineBatchOptions();
  eo.max_batch_size = 16;
  eo.max_wait_seconds = 0.002;

  // Set-up, measured kSetupRepetitions times: verified snapshot load,
  // (store and) engine construction, one warm-up query.
  std::vector<double> setup, load;
  std::unique_ptr<GraphStore> store;
  std::unique_ptr<PathEngine> engine;
  std::optional<Graph> seed_graph;  // for the verification replay
  for (int r = 0; r < kSetupRepetitions; ++r) {
    engine.reset();
    store.reset();
    const double t0 = NowSeconds();
    auto g = LoadSnapshot(cfg, "EP");
    const double t1 = NowSeconds();
    if (!g.ok()) {
      rep.Fail("snapshot load: " + g.status().ToString());
      return rep;
    }
    if (r + 1 == kSetupRepetitions) seed_graph.emplace(*g);
    store = std::make_unique<GraphStore>(std::move(*g));
    engine = std::make_unique<PathEngine>(store.get(), eo);
    SingleDigestSink sink;
    QueryResult res = engine->Submit(templates[0], &sink).get();
    const double t2 = NowSeconds();
    ++rep.attempted;
    if (!res.status.ok()) ++rep.failed;
    const uint64_t root = tracer.Add("setup", t0, t2);
    tracer.Add("graph.load", t0, t1, root);
    tracer.Add("warmup", t1, t2, root);
    setup.push_back(t2 - t0);
    load.push_back(t1 - t0);
  }
  const Graph& base = *seed_graph;
  UpdateStream stream(base, hot, cfg.seed);
  std::vector<std::vector<EdgeUpdate>> applied;  // successful, in order
  std::vector<double> update_lat;

  // Timed phase.
  // The collector stops once a stop is requested and every published
  // record is collected (jthread requests the stop on every exit path).
  std::atomic<size_t> published{0};
  std::jthread collector([&](std::stop_token stop) {
    for (size_t j = 0;; ++j) {
      while (published.load(std::memory_order_acquire) <= j) {
        if (stop.stop_requested() &&
            published.load(std::memory_order_acquire) <= j) {
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      QueryRecord& r = recs[j];
      r.future.wait();
      r.done = NowSeconds();
      QueryResult res = r.future.get();
      r.ok = res.status.ok();
      r.epoch = res.graph_epoch;
      r.wait_s = res.wait_seconds;
      r.batch_s = res.batch_seconds;
    }
  });

  const PathEngineStats before = engine->GetStats();
  ReleaseFreeMemory();
  const bool rss_reset = ResetPeakRss();
  const CpuTimes cpu_start = ReadCpuTimes();
  const double start = NowSeconds() + 0.001;
  rep.phases.push_back({"inputs+setup", start - begin});
  double next_update = start + kUpdateIntervalS;
  auto maybe_update = [&](double now) {
    while (next_update <= now) {
      std::vector<EdgeUpdate> batch = stream.Next();
      const double t0 = NowSeconds();
      auto res = engine->ApplyUpdates(batch);
      const double t1 = NowSeconds();
      ++rep.attempted;
      if (res.ok()) {
        applied.push_back(std::move(batch));
      } else {
        ++rep.failed;
      }
      update_lat.push_back(t1 - t0);
      tracer.Add("update", t0, t1);
      next_update += kUpdateIntervalS;
    }
  };
  size_t sent = 0;
  for (; sent < n_open; ++sent) {
    QueryRecord& r = recs.Prepare(sent);
    r.tmpl = static_cast<uint32_t>(zipf.Sample(zipf_rng));
    r.due = start + static_cast<double>(sent) / kOpenLoopQps;
    maybe_update(r.due);
    SleepUntil(r.due);
    r.sent = NowSeconds();
    r.future = engine->Submit(templates[r.tmpl], &r.sink);
    published.store(sent + 1, std::memory_order_release);
  }
  const double cap_start = NowSeconds();
  const PathEngineStats open_end = engine->GetStats();
  const double cap_end = cap_start + cap_s;
  for (; sent < n_max; ++sent) {
    const double now = NowSeconds();
    if (now >= cap_end) break;
    maybe_update(now);
    QueryRecord& r = recs.Prepare(sent);
    r.tmpl = static_cast<uint32_t>(zipf.Sample(zipf_rng));
    r.open_loop = false;
    r.due = r.sent = NowSeconds();
    r.future = engine->Submit(templates[r.tmpl], &r.sink);
    published.store(sent + 1, std::memory_order_release);
  }
  collector.request_stop();
  collector.join();
  const double peak_rss = PeakRssMb();
  if (!rss_reset) rep.inputs.push_back({"peak_rss_scope", "process"});
  engine->Drain();
  const PathEngineStats after = engine->GetStats();
  const uint64_t invalidated = engine->distance_cache() != nullptr
                                   ? engine->distance_cache()->entries_invalidated()
                                   : 0;
  const hcpath::GraphStoreStats store_stats = store->GetStats();
  engine.reset();

  const double verify_start = NowSeconds();
  rep.phases.push_back({"timed", verify_start - start});
  rep.steal_share = StealShare(cpu_start, ReadCpuTimes());

  // Latencies, capacity, and traced query spans.
  std::vector<double> lat, late, wait, batch;
  const size_t n_windows =
      std::max<size_t>(1, static_cast<size_t>(open_s / kLatencyWindowS));
  std::vector<std::vector<double>> window_lat(n_windows);
  const double cap_window_start = cap_start + kCapacityWarmShare * cap_s;
  const size_t n_cap_windows = std::max<size_t>(
      1, static_cast<size_t>((cap_end - cap_window_start) / kCapacityWindowS));
  std::vector<double> cap_done(n_cap_windows, 0);
  for (size_t i = 0; i < sent; ++i) {
    const QueryRecord& r = recs[i];
    ++rep.attempted;
    if (!r.ok) {
      ++rep.failed;
      continue;
    }
    if (r.done >= cap_window_start) {
      const size_t w =
          static_cast<size_t>((r.done - cap_window_start) / kCapacityWindowS);
      if (w < n_cap_windows) ++cap_done[w];
    }
    if (!r.open_loop) continue;
    lat.push_back(r.done - r.due);
    window_lat[std::min(n_windows - 1, static_cast<size_t>(
                                           (r.due - start) / kLatencyWindowS))]
        .push_back(r.done - r.due);
    late.push_back(r.sent - r.due);
    wait.push_back(r.wait_s);
    batch.push_back(r.batch_s);
    if (tracer.enabled() && i % kQuerySpanStride == 0) {
      const uint64_t q = tracer.Add("query", r.due, r.done, 0, 1);
      tracer.Add("service.wait", r.sent, r.sent + r.wait_s, q, 1,
                 "QueryResult::wait_seconds");
      tracer.Add("service.batch", r.done - r.batch_s, r.done, q, 1,
                 "QueryResult::batch_seconds");
    }
  }

  // Verification (untimed).
  // Replay the applied update batches on a fresh store over the seed
  // graph; after each epoch re-run the sampled results stamped with it.
  // The store-only ApplyUpdates spans give graph.apply_ms.
  std::vector<std::vector<size_t>> by_epoch(applied.size() + 1);
  const size_t stride = std::max<size_t>(1, sent / kUpdateVerifySamples);
  for (size_t i = 0; i < sent; i += stride) {
    const QueryRecord& r = recs[i];
    if (!r.ok) continue;
    if (r.epoch >= by_epoch.size()) {
      rep.Fail("query " + std::to_string(i) + " stamped with unknown epoch " +
               std::to_string(r.epoch));
      continue;
    }
    by_epoch[r.epoch].push_back(i);
  }
  GraphStore replay{Graph(base)};
  std::vector<double> apply_lat;
  bool corrupted = false;
  for (size_t e = 0; e < by_epoch.size(); ++e) {
    if (e > 0) {
      const double t0 = NowSeconds();
      auto res = replay.ApplyUpdates(applied[e - 1]);
      apply_lat.push_back(NowSeconds() - t0);
      if (!res.ok() || res->snapshot->epoch != e) {
        rep.Fail("replay diverged at epoch " + std::to_string(e));
        break;
      }
    }
    auto snap = replay.Current();
    for (size_t i : by_epoch[e]) {
      const QueryRecord& r = recs[i];
      QueryDigest expected =
          OneShot(snap->graph, templates[r.tmpl], &error);
      if (cfg.corrupt_digest && !corrupted) {
        expected.digest ^= 1;
        corrupted = true;
      }
      if (!(r.sink.digest() == expected)) {
        rep.Fail("query " + std::to_string(i) + " at epoch " +
                 std::to_string(e) + ": count " +
                 std::to_string(r.sink.digest().count) + " vs one-shot " +
                 std::to_string(expected.count));
      }
    }
  }
  rep.layers.push_back({"graph.apply_ms", Median(apply_lat) * 1e3, "ms"});
  if (!error.empty()) rep.Fail("reference run failed: " + error);
  rep.phases.push_back({"verify", NowSeconds() - verify_start});

  // End-to-end metrics: medians over windows.
  std::vector<double> p50s, p90s;
  for (const std::vector<double>& w : window_lat) {
    if (w.empty()) continue;
    p50s.push_back(Percentile(w, 50));
    p90s.push_back(Percentile(w, 90));
  }
  for (double& c : cap_done) c /= kCapacityWindowS;
  rep.e2e = {
      {"setup_s", Median(setup), "s"},
      {"throughput_qps", Median(cap_done), "1/s"},
      {"query_p50_ms", Median(p50s) * 1e3, "ms"},
      {"query_p90_ms", Median(p90s) * 1e3, "ms"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };

  // Per-layer ledger. Pipeline phase times come from the engine's
  // BatchStats (program-reported) as per-micro-batch means over the open
  // loop; service metrics from the QueryResult fields and engine counters.
  rep.ledger_source = "engine BatchStats phase timers, program-reported";
  const hcpath::BatchStats& b0 = before.batch_stats;
  const hcpath::BatchStats& b1 = open_end.batch_stats;
  const double nb = static_cast<double>(
      std::max<uint64_t>(1, open_end.batches_run - before.batches_run));
  auto per_batch = [&](double a, double b) { return (b - a) / nb; };
  const double index_ms =
      per_batch(b0.build_index_seconds, b1.build_index_seconds) * 1e3;
  const double cluster_ms =
      per_batch(b0.cluster_seconds, b1.cluster_seconds) * 1e3;
  const double detect_ms = per_batch(b0.detect_seconds, b1.detect_seconds) * 1e3;
  const double enum_ms =
      per_batch(b0.enumerate_seconds, b1.enumerate_seconds) * 1e3;
  const double pipeline_ms = per_batch(b0.total_seconds, b1.total_seconds) * 1e3;
  const uint64_t hits = open_end.distance_cache_hits - before.distance_cache_hits;
  const uint64_t misses =
      open_end.distance_cache_misses - before.distance_cache_misses;
  const uint64_t cuts = (open_end.size_cuts - before.size_cuts) +
                        (open_end.wait_cuts - before.wait_cuts) +
                        (open_end.flush_cuts - before.flush_cuts);
  const double expanded =
      static_cast<double>(b1.edges_expanded - b0.edges_expanded);
  const double pruned = static_cast<double>(b1.edges_pruned - b0.edges_pruned);
  const double probes = static_cast<double>(b1.join_probes - b0.join_probes);
  const double paths = static_cast<double>(b1.paths_emitted - b0.paths_emitted);
  const double clusters = static_cast<double>(b1.num_clusters - b0.num_clusters);
  const double completed = static_cast<double>(open_end.queries_completed -
                                               before.queries_completed);
  const double streamed =
      static_cast<double>(b1.merge_streamed_items - b0.merge_streamed_items);
  const double drained =
      streamed + static_cast<double>(b1.merge_final_items - b0.merge_final_items);
  std::vector<Metric> layers = {
      {"graph.load_ms", Median(load) * 1e3, "ms"},
      {"graph.overlay_extends", static_cast<double>(store_stats.overlay_extends),
       "count"},
      {"graph.overlay_depth", static_cast<double>(store_stats.overlay_depth),
       "count"},
      {"graph.compactions", static_cast<double>(store_stats.compactions),
       "count"},
      {"index.build_ms", index_ms, "ms"},
      {"index.cache_hit_rate",
       hits + misses > 0
           ? static_cast<double>(hits) / static_cast<double>(hits + misses)
           : 0,
       "ratio"},
      {"index.cache_hits", static_cast<double>(hits), "count"},
      {"index.cache_misses", static_cast<double>(misses), "count"},
      {"index.invalidated", static_cast<double>(invalidated), "count"},
      {"index.repaired", static_cast<double>(after.cache_entries_repaired),
       "count"},
      {"index.repair_skipped", static_cast<double>(after.cache_repair_skipped),
       "count"},
      {"cluster.ms", cluster_ms, "ms"},
      {"cluster.count", clusters / nb, "count"},
      {"cluster.mean_size", clusters > 0 ? completed / clusters : 0, "count"},
      {"detect.ms", detect_ms, "ms"},
      {"detect.sharing_nodes",
       static_cast<double>(b1.sharing_nodes - b0.sharing_nodes) / nb, "count"},
      {"detect.dominating_nodes",
       static_cast<double>(b1.dominating_nodes - b0.dominating_nodes) / nb,
       "count"},
      {"detect.sharing_edges",
       static_cast<double>(b1.sharing_edges - b0.sharing_edges) / nb, "count"},
      {"enum.ms", enum_ms, "ms"},
      {"enum.edges_expanded", expanded / nb, "count"},
      {"enum.prune_ratio",
       expanded + pruned > 0 ? pruned / (expanded + pruned) : 0, "ratio"},
      {"enum.join_probes", probes / nb, "count"},
      {"enum.join_yield", probes > 0 ? paths / probes : 0, "ratio"},
      {"enum.splices",
       static_cast<double>(b1.shortcut_splices - b0.shortcut_splices) / nb,
       "count"},
      {"enum.paths", paths / nb, "count"},
      {"merge.peak_buffered_mb",
       static_cast<double>(b1.merge_peak_buffered_bytes) / 1048576.0, "MiB"},
      {"merge.total_buffered_mb",
       per_batch(static_cast<double>(b0.merge_total_buffered_bytes),
                 static_cast<double>(b1.merge_total_buffered_bytes)) /
           1048576.0,
       "MiB"},
      {"merge.streamed_ratio", drained > 0 ? streamed / drained : 0, "ratio"},
      {"service.wait_p50_ms", Percentile(wait, 50) * 1e3, "ms"},
      {"service.wait_p90_ms", Percentile(wait, 90) * 1e3, "ms"},
      {"service.batch_p50_ms", Percentile(batch, 50) * 1e3, "ms"},
      {"service.batch_size", completed / nb, "count"},
      {"service.wait_cut_frac",
       cuts > 0 ? static_cast<double>(open_end.wait_cuts - before.wait_cuts) /
                      static_cast<double>(cuts)
                : 0,
       "ratio"},
      {"service.peak_queued", static_cast<double>(open_end.peak_queued_queries),
       "count"},
      {"service.update_p50_ms", Percentile(update_lat, 50) * 1e3, "ms"},
      {"service.update_p90_ms", Percentile(update_lat, 90) * 1e3, "ms"},
      {"service.query_p99_ms", Percentile(lat, 99) * 1e3, "ms"},
      {"service.error_rate",
       rep.attempted > 0 ? static_cast<double>(rep.failed) /
                               static_cast<double>(rep.attempted)
                         : 0,
       "ratio"},
      {"pipeline.ms", pipeline_ms, "ms"},
      {"pipeline.unclaimed_ms",
       pipeline_ms - (index_ms + cluster_ms + detect_ms + enum_ms), "ms"},
      {"loadgen.late_p90_ms", Percentile(late, 90) * 1e3, "ms"},
      {"loadgen.late_max_ms",
       late.empty() ? 0 : *std::max_element(late.begin(), late.end()) * 1e3,
       "ms"},
  };
  rep.layers.insert(rep.layers.end(), layers.begin(), layers.end());
  return rep;
}

}  // namespace hcbench
