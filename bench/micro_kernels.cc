// Micro-benchmarks (google-benchmark) for the kernels underlying every
// experiment: hop-capped BFS, bit-parallel MS-BFS (also at k = 4 on a
// WikiTalk-like R-MAT graph, whose deep levels run bottom-up), the distance
// map, path storage, the canonical-split join, and the three enumeration
// hot-loop membership kernels rewritten onto epoch stamps (docs/PERF.md):
// the DFS on-path test, the shortcut-splice disjointness check, and the
// join-probe disjointness check — each on dense-overlap (rejection-heavy)
// and no-overlap (acceptance-heavy) path sets so before/after is
// quantifiable per kernel. Also: the batched stamp probes (AVX2 gather vs
// the scalar fallback, pinned via TestOnlyForceScalar), sketch-mode query
// similarity (on dense and on mostly small Γ sets), average-linkage
// clustering, and the prune test on a bit-sliced MS-BFS wave's views vs flat
// arrays, and a whole batch whose repeated queries replay one shared join. A
// 1-iteration smoke run is wired into ctest (-L bench).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <tuple>

#include "bfs/bfs.h"
#include "bfs/msbfs.h"
#include "core/basic_enum.h"
#include "core/batch_enum.h"
#include "core/clustering.h"
#include "core/join.h"
#include "core/search.h"
#include "core/similarity.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/epoch_stamp.h"
#include "util/rng.h"
#include "workload/dataset_registry.h"
#include "workload/similarity_gen.h"

namespace hcpath {
namespace {

const Graph& BenchGraph() {
  static const Graph* g = [] {
    Rng rng(7);
    return new Graph(*GenerateBarabasiAlbert(100000, 4, rng));
  }();
  return *g;
}

void BM_HopCappedBfs(benchmark::State& state) {
  const Graph& g = BenchGraph();
  const Hop cap = static_cast<Hop>(state.range(0));
  Rng rng(13);
  for (auto _ : state) {
    VertexId s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    VertexDistMap d = HopCappedBfs(g, s, cap, Direction::kForward);
    benchmark::DoNotOptimize(d.size());
  }
}
BENCHMARK(BM_HopCappedBfs)->Arg(3)->Arg(5)->Arg(7);

/// A WikiTalk-like R-MAT graph (the WT stand-in's generator and skew):
/// 2^17 vertices, ~2.3 edges per vertex once duplicates are merged.
const Graph& RMatBenchGraph() {
  static const Graph* g = [] {
    Rng rng(7);
    return new Graph(*GenerateRMat(17, 330000, 0.65, 0.14, 0.14, rng));
  }();
  return *g;
}

void BM_MultiSourceBfs(benchmark::State& state, const Graph& (*graph)(),
                       Hop cap) {
  const Graph& g = graph();
  const size_t num_sources = static_cast<size_t>(state.range(0));
  Rng rng(17);
  std::vector<VertexId> sources;
  std::vector<Hop> caps;
  for (size_t i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBounded(g.NumVertices())));
    caps.push_back(cap);
  }
  uint64_t bottom_up_levels = 0;
  for (auto _ : state) {
    MsBfsResult r = MultiSourceBfs(g, sources, caps, Direction::kForward);
    benchmark::DoNotOptimize(r.total_discovered);
    bottom_up_levels = r.bottom_up_levels;
  }
  state.counters["bottom_up_levels"] = static_cast<double>(bottom_up_levels);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_sources));
}
void BM_MultiSourceBfs(benchmark::State& state) {
  BM_MultiSourceBfs(state, &BenchGraph, 5);
}
BENCHMARK(BM_MultiSourceBfs)->Arg(64)->Arg(256);
// The batch_index shape: k = 4 on the R-MAT graph, whose two deepest
// levels run bottom-up.
BENCHMARK_CAPTURE(BM_MultiSourceBfs, rmat_k4, &RMatBenchGraph, Hop{4})
    ->Arg(64);

void BM_SequentialBfsBaseline(benchmark::State& state) {
  // The baseline MS-BFS replaces: one hop-capped BFS per source.
  const Graph& g = BenchGraph();
  const size_t num_sources = static_cast<size_t>(state.range(0));
  Rng rng(17);
  std::vector<VertexId> sources;
  for (size_t i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBounded(g.NumVertices())));
  }
  for (auto _ : state) {
    uint64_t total = 0;
    for (VertexId s : sources) {
      total += HopCappedBfs(g, s, 5, Direction::kForward).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(num_sources));
}
BENCHMARK(BM_SequentialBfsBaseline)->Arg(64)->Arg(256);

void BM_SimilaritySketch(benchmark::State& state) {
  // Sketch-mode clustering similarity for 100 queries whose Γ sets include
  // dense maps (sketched by the hash-order walk) and hash-backed ones; the
  // index is built once, the matrix every iteration with a recycled
  // scratch, as BatchContext runs it.
  const Graph& g = BenchGraph();
  Rng rng(31);
  std::vector<PathQuery> queries;
  while (queries.size() < 100) {
    const VertexId s = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    const VertexId t = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
    if (s != t) queries.push_back({s, t, 5});
  }
  DistanceIndex index;
  BuildBatchIndex(g, queries, &index, nullptr);
  int64_t dense = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    dense += index.FromSourceMap(i).IsDense() ? 1 : 0;
    dense += index.ToTargetMap(i).IsDense() ? 1 : 0;
  }
  SimilarityScratch scratch;
  for (auto _ : state) {
    SimilarityMatrix sim = ComputeSimilarityMatrix(
        g, queries, index, SimilarityMode::kSketch, nullptr, &scratch);
    benchmark::DoNotOptimize(sim.Average());
  }
  state.counters["dense_maps"] = static_cast<double>(dense);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_SimilaritySketch);

void BM_SimilaritySmallSets(benchmark::State& state) {
  // Sketch-mode similarity for a batch_shared-like batch: 100 k = 6
  // queries at µ_Q ~ 0.9 on the EP stand-in. 180 of its 200 Γ sets hold
  // <= 256 entries (batch_shared averages 81%), so most pairs are counted
  // exactly through the membership table.
  static const Graph* g = new Graph(*MakeDataset("EP", 1.0, 1));
  Rng rng(1);
  const std::vector<PathQuery> queries =
      GenerateQueriesWithSimilarity(*g, 100, 6, 6, 0.9, rng)->queries;
  DistanceIndex index;
  BuildBatchIndex(*g, queries, &index, nullptr);
  int64_t small = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    small += index.FromSourceMap(i).size() <= 256 ? 1 : 0;
    small += index.ToTargetMap(i).size() <= 256 ? 1 : 0;
  }
  SimilarityScratch scratch;
  for (auto _ : state) {
    SimilarityMatrix sim = ComputeSimilarityMatrix(
        *g, queries, index, SimilarityMode::kSketch, nullptr, &scratch);
    benchmark::DoNotOptimize(sim.Average());
  }
  state.counters["small_sets"] = static_cast<double>(small);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_SimilaritySmallSets);

void BM_AssembleDuplicates(benchmark::State& state) {
  // A whole BatchEnum+ run of a batch_shared-like batch: 100 k = 6
  // queries at µ_Q ~ 0.9 on the EP stand-in, 555k paths (inside
  // batch_shared's 550k-700k band), of which 13 queries are distinct, so
  // 87 members replay a join run for an earlier copy of their query. One
  // thread and one recycled BatchContext, as PathEngine runs batches;
  // items count emitted paths.
  static const Graph* g = new Graph(*MakeDataset("EP", 1.0, 1));
  Rng rng(2);
  const std::vector<PathQuery> queries =
      GenerateQueriesWithSimilarity(*g, 100, 6, 6, 0.9, rng)->queries;
  std::vector<PathQuery> distinct = queries;
  std::sort(distinct.begin(), distinct.end(),
            [](const PathQuery& a, const PathQuery& b) {
              return std::tie(a.s, a.t, a.k) < std::tie(b.s, b.t, b.k);
            });
  distinct.erase(std::unique(distinct.begin(), distinct.end(),
                             [](const PathQuery& a, const PathQuery& b) {
                               return a.s == b.s && a.t == b.t && a.k == b.k;
                             }),
                 distinct.end());
  BatchOptions opt;
  opt.num_threads = 1;
  BatchContext ctx;
  BatchStats stats;
  uint64_t paths = 0;
  for (auto _ : state) {
    CountingSink sink(queries.size());
    stats = BatchStats();
    const Status st =
        RunBatchEnum(*g, queries, opt, true, &sink, &stats, &ctx);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    paths = sink.Total();
  }
  state.counters["distinct"] = static_cast<double>(distinct.size());
  state.counters["join_replays"] = static_cast<double>(stats.join_replays);
  state.counters["join_probes"] = static_cast<double>(stats.join_probes);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(paths));
}
BENCHMARK(BM_AssembleDuplicates)->Unit(benchmark::kMillisecond);

void BM_ClusterQueries(benchmark::State& state) {
  // Average-linkage clustering of a 100-query matrix at µ ~ 0.9 (cells
  // uniform in [0.8, 1]): every δ stays above γ = 0.5, so all 99 merges
  // run.
  Rng rng(41);
  SimilarityMatrix sim(100);
  for (size_t i = 0; i < sim.size(); ++i) {
    for (size_t j = i + 1; j < sim.size(); ++j) {
      sim.Set(i, j, 0.8 + 0.2 * rng.NextDouble());
    }
  }
  size_t clusters = 0;
  for (auto _ : state) {
    const auto out = ClusterQueries(sim, 0.5);
    clusters = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["clusters"] = static_cast<double>(clusters);
}
BENCHMARK(BM_ClusterQueries);

void BM_VertexDistMapLookup(benchmark::State& state) {
  VertexDistMap map;
  Rng rng(23);
  for (int i = 0; i < 100000; ++i) {
    map.InsertMin(static_cast<VertexId>(rng.NextBounded(1u << 24)), 3);
  }
  Rng probe(29);
  for (auto _ : state) {
    Hop d = map.Lookup(static_cast<VertexId>(probe.NextBounded(1u << 24)));
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_VertexDistMapLookup);

void BM_IndexWithin(benchmark::State& state) {
  // The Lemma 3.1 prune test on one bit-sliced MS-BFS wave at cap 4:
  // random (map, vertex, budget) probes of Within, on the wave's views
  // (arg 0) or on owning flat-array copies of the same maps (arg 1).
  // Sources among the oldest (hub) vertices reach densely on Gr.
  const Graph& g = BenchGraph();
  Rng rng(37);
  std::vector<VertexId> sources;
  for (int i = 0; i < 64; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBounded(1000)));
  }
  MsBfsResult wave = MultiSourceBfs(g, sources, std::vector<Hop>(64, 4),
                                    Direction::kBackward);
  std::vector<VertexDistMap> maps;
  int64_t views = 0;
  for (const VertexDistMap& m : wave.per_source) {
    views += m.IsView() ? 1 : 0;
    maps.push_back(m);
    if (state.range(0) == 1) maps.back().MakeOwning();
  }
  struct Probe {
    uint32_t map;
    VertexId v;
    int budget;
  };
  std::vector<Probe> probes(1 << 16);
  for (Probe& p : probes) {
    p = {static_cast<uint32_t>(rng.NextBounded(maps.size())),
         static_cast<VertexId>(rng.NextBounded(g.NumVertices())),
         static_cast<int>(rng.NextBounded(5))};
  }
  size_t i = 0;
  for (auto _ : state) {
    const Probe& p = probes[i++ & (probes.size() - 1)];
    benchmark::DoNotOptimize(maps[p.map].Within(p.v, p.budget));
  }
  state.counters["views"] = static_cast<double>(views);
}
BENCHMARK(BM_IndexWithin)->Arg(0)->Arg(1);

void BM_PathSetAppend(benchmark::State& state) {
  std::vector<VertexId> path = {1, 2, 3, 4, 5, 6};
  for (auto _ : state) {
    PathSet ps;
    for (int i = 0; i < 1000; ++i) ps.Add(path);
    benchmark::DoNotOptimize(ps.TotalVertices());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_PathSetAppend);

void BM_HalfSearch(benchmark::State& state) {
  const Graph& g = BenchGraph();
  VertexDistMap to_t = HopCappedBfs(g, 12345, 6, Direction::kBackward);
  TargetSlack slack[] = {{&to_t, 6}};
  for (auto _ : state) {
    HalfSearchSpec spec;
    spec.start = 777;
    spec.budget = 3;
    spec.dir = Direction::kForward;
    spec.slacks = slack;
    PathSet out;
    Status st = RunHalfSearch(g, spec, &out, nullptr);
    benchmark::DoNotOptimize(out.size());
    benchmark::DoNotOptimize(st.ok());
  }
}
BENCHMARK(BM_HalfSearch);

void BM_CanonicalJoin(benchmark::State& state) {
  const Graph& g = BenchGraph();
  PathSet fwd, bwd;
  HalfSearchSpec f;
  f.start = 777;
  f.budget = 3;
  f.dir = Direction::kForward;
  (void)RunHalfSearch(g, f, &fwd, nullptr);
  HalfSearchSpec b;
  b.start = 888;
  b.budget = 3;
  b.dir = Direction::kBackward;
  (void)RunHalfSearch(g, b, &bwd, nullptr);
  CountingSink sink(1);
  for (auto _ : state) {
    JoinSpec join;
    join.forward = &fwd;
    join.backward = &bwd;
    join.s = 777;
    join.t = 888;
    join.hf = 3;
    join.hb = 3;
    auto emitted = JoinAndEmit(join, 0, &sink, nullptr);
    benchmark::DoNotOptimize(emitted.ok());
  }
}
BENCHMARK(BM_CanonicalJoin);

// ---------------------------------------------------------------------------
// Membership-kernel benchmarks. Each drives one of the three hot-loop
// kernels through its public entry point on synthetic path sets whose
// shape isolates the membership work:
//   * overlap == 1 ("dense overlap"): every candidate shares a vertex with
//     the stamped path, placed so the check runs its full length before
//     rejecting — the disjointness test is all the kernel does;
//   * overlap == 0 ("no overlap"): every candidate is accepted, so the
//     numbers include the (identical) emission cost.
// ---------------------------------------------------------------------------

/// Builds the synthetic forward/backward sets of one join query: every
/// forward path has length hf and ends at the shared midpoint, every
/// backward path has length hb and tail == midpoint, so every pair is
/// probed. Vertex ids are disjoint between paths except as `overlap`
/// dictates.
struct JoinFixture {
  PathSet fwd, bwd;
  VertexId s = 0, t = 1;
  Hop hf, hb;

  JoinFixture(size_t num_paths, Hop half_len, bool overlap)
      : hf(half_len), hb(half_len) {
    const VertexId mid = 2;
    VertexId next = 3;
    std::vector<VertexId> path;
    for (size_t i = 0; i < num_paths; ++i) {
      path.clear();
      path.push_back(s);
      for (Hop h = 1; h < hf; ++h) path.push_back(next++);
      path.push_back(mid);
      fwd.Add(path);
    }
    for (size_t i = 0; i < num_paths; ++i) {
      path.clear();
      path.push_back(t);
      for (Hop h = 1; h < hb; ++h) path.push_back(next++);
      if (overlap && hb >= 2) {
        // Collide on `s` (in every forward path) at the last internal
        // position the check visits, so every pair rejects — but only
        // after the naive scan has paid its full O(|pb| x |pf|) cost.
        path.back() = s;
      }
      path.push_back(mid);
      bwd.Add(path);
    }
  }
};

void BM_JoinProbeDisjoint(benchmark::State& state) {
  const bool overlap = state.range(0) != 0;
  const Hop half_len = static_cast<Hop>(state.range(1));
  const size_t kPaths = 32;
  JoinFixture fx(kPaths, half_len, overlap);
  CountingSink sink(1);
  uint64_t probes = 0;
  for (auto _ : state) {
    JoinSpec join;
    join.forward = &fx.fwd;
    join.backward = &fx.bwd;
    join.s = fx.s;
    join.t = fx.t;
    join.hf = fx.hf;
    join.hb = fx.hb;
    BatchStats stats;
    auto emitted = JoinAndEmit(join, 0, &sink, &stats);
    benchmark::DoNotOptimize(emitted.ok());
    probes += stats.join_probes;
  }
  state.SetItemsProcessed(static_cast<int64_t>(probes));
}
BENCHMARK(BM_JoinProbeDisjoint)
    ->ArgNames({"overlap", "len"})
    ->Args({1, 8})
    ->Args({0, 8})
    ->Args({1, 12})
    ->Args({0, 12});

/// Chain graph 0 -> 1 -> ... -> prefix_len with a shortcut dep at the
/// chain's end: the DFS walks the full prefix, then splices every cached
/// suffix, so the run is dominated by the splice disjointness check of
/// `num_cached` suffixes of length `suffix_len` against a stamped prefix.
void BM_SpliceDisjoint(benchmark::State& state) {
  const bool overlap = state.range(0) != 0;
  const Hop kPrefixLen = 16;
  const Hop kSuffixLen = 8;
  const size_t kNumCached = 256;
  const VertexId dep_vertex = kPrefixLen;
  GraphBuilder b(dep_vertex + 1 + kNumCached * kSuffixLen);
  for (VertexId v = 0; v < dep_vertex; ++v) b.AddEdge(v, v + 1);
  Graph g = *b.Build();

  PathSet cached;
  std::vector<VertexId> path;
  VertexId next = dep_vertex + 1;
  for (size_t i = 0; i < kNumCached; ++i) {
    path.clear();
    path.push_back(dep_vertex);
    for (Hop h = 0; h < kSuffixLen; ++h) path.push_back(next++);
    // Collide on the last suffix vertex so the naive scan pays the full
    // O(|suffix| x |prefix|) cost before rejecting.
    if (overlap) path.back() = 3;
    cached.Add(path);
  }
  SearchDep dep[] = {{dep_vertex, kSuffixLen, &cached}};

  uint64_t splices = 0;
  for (auto _ : state) {
    HalfSearchSpec spec;
    spec.start = 0;
    spec.budget = static_cast<Hop>(kPrefixLen + kSuffixLen);
    spec.dir = Direction::kForward;
    spec.deps = dep;
    PathSet out;
    BatchStats stats;
    Status st = RunHalfSearch(g, spec, &out, &stats);
    benchmark::DoNotOptimize(st.ok());
    splices += kNumCached;  // candidates tested per run
  }
  state.SetItemsProcessed(static_cast<int64_t>(splices));
}
BENCHMARK(BM_SpliceDisjoint)
    ->ArgNames({"overlap"})
    ->Arg(1)
    ->Arg(0);

/// Deep DFS on a complete graph: every edge expansion runs the on-path
/// membership test against a path of ~`budget` vertices, and expansions
/// vastly outnumber stored paths, so the run is dominated by that test.
void BM_DfsOnPath(benchmark::State& state) {
  const Hop budget = static_cast<Hop>(state.range(0));
  static const Graph* cg = new Graph(*GenerateComplete(9));
  const Graph& g = *cg;
  uint64_t expansions = 0;
  for (auto _ : state) {
    HalfSearchSpec spec;
    spec.start = 0;
    spec.budget = budget;
    spec.dir = Direction::kForward;
    // Store only full-length paths so the run measures the membership
    // test, not result materialization.
    spec.filter_for_join = true;
    spec.store_target = 0;
    PathSet out;
    BatchStats stats;
    Status st = RunHalfSearch(g, spec, &out, &stats);
    benchmark::DoNotOptimize(st.ok());
    expansions += stats.edges_expanded;
  }
  state.SetItemsProcessed(static_cast<int64_t>(expansions));
}
BENCHMARK(BM_DfsOnPath)->ArgNames({"budget"})->Arg(6)->Arg(8);

// ---------------------------------------------------------------------------
// Batched stamp-probe benchmark: the AVX2 gather kernel vs the unrolled
// scalar fallback on the same table and probe vectors, isolated from the
// enumeration loops (scalar == 1 pins the fallback via TestOnlyForceScalar;
// scalar == 0 lets the host dispatch — AVX2 where supported). Probe ids
// all miss, so both kernels do identical per-lane work.
// ---------------------------------------------------------------------------

/// Table with the low half of a 2^20 universe ~6% marked; probes drawn
/// from the unmarked high half.
struct StampFixture {
  EpochStampTable table;
  std::vector<uint32_t> probes;

  explicit StampFixture(size_t len) {
    constexpr uint32_t kUniverse = 1u << 20;
    table.Reserve(kUniverse);
    Rng rng(31);
    for (int i = 0; i < (1 << 16); ++i) {
      table.Mark(rng.NextBounded(kUniverse / 2));
    }
    for (size_t i = 0; i < len; ++i) {
      probes.push_back(kUniverse / 2 + rng.NextBounded(kUniverse / 2));
    }
  }
};

void BM_StampTestBatch(benchmark::State& state) {
  const bool force_scalar = state.range(0) != 0;
  const size_t len = static_cast<size_t>(state.range(1));
  StampFixture fx(len);
  std::vector<uint8_t> hits(len);
  EpochStampTable::TestOnlyForceScalar(force_scalar ? 1 : 0);
  for (auto _ : state) {
    fx.table.TestBatch(fx.probes, hits.data());
    benchmark::DoNotOptimize(hits.data());
  }
  EpochStampTable::TestOnlyForceScalar(-1);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(len));
}
BENCHMARK(BM_StampTestBatch)
    ->ArgNames({"scalar", "len"})
    ->Args({1, 8})
    ->Args({0, 8})
    ->Args({1, 32})
    ->Args({0, 32})
    ->Args({1, 256})
    ->Args({0, 256});

}  // namespace
}  // namespace hcpath

BENCHMARK_MAIN();
