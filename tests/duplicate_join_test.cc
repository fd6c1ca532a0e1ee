// Duplicate queries in the Algorithm 4 assembly: members of a cluster that
// repeat a query (same s, t, hf, hb) are joined once and the joined set is
// replayed at every member's position. Checks that replaying changes
// nothing a sink can observe — per-query path sequences, the emission
// stream, Status and error point — at every thread count, that only
// identical queries are grouped (same (s, t) at another k is not), that
// grouping stays inside a cluster, that members replayed by reference
// from the assembly merge's private buffers reach the sink intact, and
// that a group joined in its leader's item while the assembly delivers
// other items gives the sequential stream and counters on every schedule
// (CI repeats this test).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/batch_enum.h"
#include "core/brute_force.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "util/rng.h"

namespace hcpath {
namespace {

/// Records the full (query index, path) emission stream.
class StreamSink : public PathSink {
 public:
  using Event = std::pair<size_t, std::vector<VertexId>>;
  void OnPath(size_t qi, PathView p) override {
    events_.emplace_back(qi, std::vector<VertexId>(p.begin(), p.end()));
  }
  const std::vector<Event>& events() const { return events_; }

  /// Query qi's paths in emission order.
  std::vector<std::vector<VertexId>> PathsOf(size_t qi) const {
    std::vector<std::vector<VertexId>> out;
    for (const Event& e : events_) {
      if (e.first == qi) out.push_back(e.second);
    }
    return out;
  }

 private:
  std::vector<Event> events_;
};

struct BatchRun {
  Status status;
  StreamSink sink;
  BatchStats stats;
};

BatchRun RunBatch(const Graph& g, const std::vector<PathQuery>& queries,
                  BatchOptions opt, bool optimized, int threads) {
  opt.num_threads = threads;
  BatchRun run;
  run.status =
      RunBatchEnum(g, queries, opt, optimized, &run.sink, &run.stats);
  return run;
}

void ExpectSameWork(const BatchStats& a, const BatchStats& b,
                    const std::string& what) {
  EXPECT_EQ(a.paths_emitted, b.paths_emitted) << what;
  EXPECT_EQ(a.edges_expanded, b.edges_expanded) << what;
  EXPECT_EQ(a.join_probes, b.join_probes) << what;
  EXPECT_EQ(a.join_rejected, b.join_rejected) << what;
  EXPECT_EQ(a.join_index_rebuilds, b.join_index_rebuilds) << what;
  EXPECT_EQ(a.join_replays, b.join_replays) << what;
  EXPECT_EQ(a.num_clusters, b.num_clusters) << what;
  EXPECT_EQ(a.sharing_nodes, b.sharing_nodes) << what;
  EXPECT_EQ(a.shortcut_splices, b.shortcut_splices) << what;
  EXPECT_EQ(a.cached_paths, b.cached_paths) << what;
}

/// Stream, Status, and work counters at 2 and 4 threads equal the
/// sequential run's, also when the batch fails. Intra-cluster assembly
/// engages from 2 live queries.
void ExpectThreadIdentity(const Graph& g,
                          const std::vector<PathQuery>& queries,
                          const BatchOptions& opt, bool optimized) {
  BatchOptions intra = opt;
  intra.intra_cluster_min_queries = 2;
  const BatchRun seq = RunBatch(g, queries, intra, optimized, 1);
  for (int threads : {2, 4}) {
    const std::string what = "threads=" + std::to_string(threads);
    const BatchRun par = RunBatch(g, queries, intra, optimized, threads);
    EXPECT_EQ(par.status.code(), seq.status.code()) << what;
    EXPECT_EQ(par.status.message(), seq.status.message()) << what;
    EXPECT_EQ(par.sink.events(), seq.sink.events()) << what;
    ExpectSameWork(seq.stats, par.stats, what);
  }
}

Graph TestGraph() {
  Rng rng(2024);
  return *GenerateBarabasiAlbert(40, 3, rng);
}

/// A batch of `n` queries of which `clone_pct` percent copy an earlier
/// query exactly. Query 1 is query 0 at k + 1: the same (s, t) at another
/// budget, which must never share query 0's join. Every query is chosen
/// to have at least one path.
std::vector<PathQuery> DuplicateBatch(const Graph& g, size_t n,
                                      int clone_pct, uint64_t seed) {
  Rng rng(seed);
  std::vector<PathQuery> queries;
  auto fresh = [&] {
    while (true) {
      const VertexId n = g.NumVertices();
      const VertexId s = static_cast<VertexId>(rng.NextBounded(n));
      const VertexId t = static_cast<VertexId>(rng.NextBounded(n));
      if (s == t) continue;
      PathQuery q{s, t, 4 + static_cast<int>(rng.NextBounded(2))};
      if (!BruteForcePaths(g, q)->empty()) return q;
    }
  };
  queries.push_back(fresh());
  queries.push_back(queries[0]);
  ++queries[1].k;
  while (queries.size() < n) {
    if (static_cast<int>(rng.NextBounded(100)) < clone_pct) {
      queries.push_back(queries[rng.NextBounded(queries.size())]);
    } else {
      queries.push_back(fresh());
    }
  }
  return queries;
}

using QueryKey = std::tuple<VertexId, VertexId, int>;

QueryKey KeyOf(const PathQuery& q) { return {q.s, q.t, q.k}; }

/// `one` twice, on vertices [0, |V|) and [|V|, 2|V|).
Graph TwoCopies(const Graph& one) {
  const VertexId nv = one.NumVertices();
  GraphBuilder b(2 * nv);
  for (VertexId u = 0; u < nv; ++u) {
    for (VertexId v : one.Neighbors(u, Direction::kForward)) {
      b.AddEdge(u, v);
      b.AddEdge(nv + u, nv + v);
    }
  }
  return *b.Build();
}

/// `left` on TwoCopies' first copy and `right` (shifted by `nv`) on its
/// second, interleaved query by query. Queries on different copies share
/// nothing, so with clustering on the batch splits into >= 2 clusters.
std::vector<PathQuery> Interleave(const std::vector<PathQuery>& left,
                                  const std::vector<PathQuery>& right,
                                  VertexId nv) {
  std::vector<PathQuery> queries;
  for (size_t i = 0; i < left.size(); ++i) {
    queries.push_back(left[i]);
    queries.push_back({right[i].s + nv, right[i].t + nv, right[i].k});
  }
  return queries;
}

/// Every query's paths in `run`, as a set, equal BruteForce's.
void ExpectMatchesOracle(const Graph& g, const std::vector<PathQuery>& queries,
                         const BatchRun& run) {
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<std::vector<VertexId>> sorted = run.sink.PathsOf(i);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, BruteForcePaths(g, queries[i])->ToSortedVectors())
        << "query " << i;
  }
}

TEST(DuplicateJoin, ReplayedQueriesMatchTheirLeaderAndTheOracle) {
  const Graph g = TestGraph();
  const Graph g2 = TwoCopies(g);
  for (int clone_pct : {0, 50, 90}) {
    SCOPED_TRACE("clones=" + std::to_string(clone_pct) + "%");
    const std::vector<PathQuery> queries =
        DuplicateBatch(g, 24, clone_pct, 7 + clone_pct);
    // The k-variant pair must differ, or grouping it would go unseen.
    ASSERT_NE(BruteForcePaths(g, queries[0])->size(),
              BruteForcePaths(g, queries[1])->size());

    std::map<QueryKey, size_t> first;
    for (size_t i = 0; i < queries.size(); ++i) {
      first.emplace(KeyOf(queries[i]), i);
    }
    const std::vector<PathQuery> split_queries = Interleave(
        DuplicateBatch(g, 12, clone_pct, 11 + clone_pct),
        DuplicateBatch(g, 12, clone_pct, 13 + clone_pct), g.NumVertices());
    std::map<QueryKey, size_t> split_first;
    for (size_t i = 0; i < split_queries.size(); ++i) {
      split_first.emplace(KeyOf(split_queries[i]), i);
    }
    for (bool optimized : {false, true}) {
      SCOPED_TRACE(optimized ? "BatchEnum+" : "BatchEnum");
      // One cluster, so every repeat of a query is grouped with it.
      BatchOptions opt;
      opt.disable_clustering = true;
      const BatchRun run = RunBatch(g, queries, opt, optimized, 1);
      ASSERT_TRUE(run.status.ok()) << run.status;
      for (size_t i = 0; i < queries.size(); ++i) {
        const auto paths = run.sink.PathsOf(i);
        // Order-sensitive: a follower replays its leader's sequence.
        EXPECT_EQ(paths, run.sink.PathsOf(first.at(KeyOf(queries[i]))))
            << "query " << i;
        std::vector<std::vector<VertexId>> sorted = paths;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, BruteForcePaths(g, queries[i])->ToSortedVectors())
            << "query " << i << " " << queries[i].ToString();
      }
      EXPECT_EQ(run.stats.join_replays, queries.size() - first.size());
      EXPECT_EQ(run.stats.paths_emitted, run.sink.events().size());
      ExpectThreadIdentity(g, queries, opt, optimized);

      // With clustering on, the batch on two copies of the graph splits
      // by similarity; grouping stays inside each cluster, and the copies'
      // repeats are grouped in their own clusters.
      BatchOptions clustered;
      clustered.gamma = 0.5;
      const BatchRun crun =
          RunBatch(g2, split_queries, clustered, optimized, 1);
      ASSERT_TRUE(crun.status.ok()) << crun.status;
      EXPECT_GE(crun.stats.num_clusters, 2u);
      ExpectMatchesOracle(g2, split_queries, crun);
      EXPECT_LE(crun.stats.join_replays,
                split_queries.size() - split_first.size());
      if (clone_pct > 0) {
        EXPECT_GT(crun.stats.join_replays, 0u);
      }
      ExpectThreadIdentity(g2, split_queries, clustered, optimized);
    }
  }
}

/// Adds, on vertices off to off + 10, s -> three a's -> three m's ->
/// three c's -> t, every layer complete to the next: 27 s-t paths of
/// length 4, but each half (hf = hb = 2) holds only 13 paths, so a cap of
/// 20 lets the half searches finish and stops the join.
void AddLayered(GraphBuilder& b, VertexId off) {
  const VertexId s = off, t = off + 10;
  for (VertexId a = off + 1; a <= off + 3; ++a) {
    b.AddEdge(s, a);
    for (VertexId m = off + 4; m <= off + 6; ++m) b.AddEdge(a, m);
  }
  for (VertexId m = off + 4; m <= off + 6; ++m) {
    for (VertexId c = off + 7; c <= off + 9; ++c) b.AddEdge(m, c);
  }
  for (VertexId c = off + 7; c <= off + 9; ++c) b.AddEdge(c, t);
}

Graph LayeredGraph() {
  GraphBuilder b(11);
  AddLayered(b, 0);
  return *b.Build();
}

TEST(DuplicateJoin, GroupOverMaxPathsFailsAtItsFirstMember) {
  const Graph g = LayeredGraph();
  // Query 0 completes (3 paths); queries 1-3 repeat one 27-path query.
  const std::vector<PathQuery> queries = {
      {0, 4, 2}, {0, 10, 4}, {0, 10, 4}, {0, 10, 4}};
  BatchOptions opt;
  opt.disable_clustering = true;
  opt.max_paths_per_query = 20;
  for (bool optimized : {false, true}) {
    const BatchRun run = RunBatch(g, queries, opt, optimized, 1);
    EXPECT_EQ(run.status.code(), StatusCode::kResourceExhausted)
        << run.status;
    EXPECT_EQ(run.sink.PathsOf(0).size(), 3u);
    EXPECT_EQ(run.sink.PathsOf(1).size(), 20u);
    EXPECT_TRUE(run.sink.PathsOf(2).empty());
    EXPECT_TRUE(run.sink.PathsOf(3).empty());
    EXPECT_EQ(run.sink.events().size(), 23u);
    ExpectThreadIdentity(g, queries, opt, optimized);
  }
  // Under the cap the same group completes and replays to all three.
  opt.max_paths_per_query = 27;
  const BatchRun run = RunBatch(g, queries, opt, false, 1);
  ASSERT_TRUE(run.status.ok()) << run.status;
  for (size_t i = 1; i < queries.size(); ++i) {
    EXPECT_EQ(run.sink.PathsOf(i).size(), 27u);
  }
  EXPECT_EQ(run.stats.join_replays, 2u);
}

/// Two copies of LayeredGraph side by side: vertices 0-10 and 11-21.
Graph TwoLayeredGraphs() {
  GraphBuilder b(22);
  AddLayered(b, 0);
  AddLayered(b, 11);
  return *b.Build();
}

/// Runs `queries` sequentially once and `reps` times at 2 threads with
/// intra-cluster assembly, and checks every parallel run's Status,
/// order-sensitive stream and work counters against the sequential run.
/// Returns the sequential run.
BatchRun ExpectStableAtTwoThreads(const Graph& g,
                                  const std::vector<PathQuery>& queries,
                                  BatchOptions opt, bool optimized,
                                  int reps) {
  opt.intra_cluster_min_queries = 2;
  BatchRun seq = RunBatch(g, queries, opt, optimized, 1);
  for (int rep = 0; rep < reps; ++rep) {
    const BatchRun par = RunBatch(g, queries, opt, optimized, 2);
    EXPECT_EQ(par.status.code(), seq.status.code()) << "rep " << rep;
    EXPECT_EQ(par.status.message(), seq.status.message()) << "rep " << rep;
    EXPECT_EQ(par.sink.events(), seq.sink.events()) << "rep " << rep;
    ExpectSameWork(seq.stats, par.stats, "rep " + std::to_string(rep));
  }
  return seq;
}

// Several clusters at num_threads = 2. A cluster that starts while an
// earlier one still runs emits into the outer merge's buffer, and a
// repeated member that its assembly merge buffers records a reference to
// the leased group set, copied into the outer buffer when the assembly
// merge drains. The schedule varies from run to run, so each batch repeats;
// every run's stream must equal the sequential one, and every query's
// paths the oracle's — also when a group fails at max_paths in a later
// cluster.
TEST(DuplicateJoin, ReferenceReplaysAcrossClustersMatchSequential) {
  // TestGraph twice, on vertices 0-39 and 40-79, and a batch interleaving
  // a duplicate-heavy batch on each copy: queries on different copies
  // share nothing, so the batch splits into at least two clusters.
  const Graph one = TestGraph();
  const Graph g = TwoCopies(one);
  const std::vector<PathQuery> queries =
      Interleave(DuplicateBatch(one, 16, 70, 97),
                 DuplicateBatch(one, 16, 70, 98), one.NumVertices());
  BatchOptions opt;
  opt.gamma = 0.5;
  for (bool optimized : {false, true}) {
    SCOPED_TRACE(optimized ? "BatchEnum+" : "BatchEnum");
    const BatchRun seq = ExpectStableAtTwoThreads(g, queries, opt, optimized,
                                                  20);
    ASSERT_TRUE(seq.status.ok()) << seq.status;
    EXPECT_GE(seq.stats.num_clusters, 2u);
    EXPECT_GT(seq.stats.join_replays, 0u);
    ExpectMatchesOracle(g, queries, seq);
  }

  // Component A (vertices 0-10) completes; component B's repeated
  // 27-path query fails at max_paths 20 after a completing group.
  const Graph two = TwoLayeredGraphs();
  const std::vector<PathQuery> capped = {
      {0, 4, 2},   {0, 4, 2},   {0, 5, 2},   {0, 4, 2},
      {11, 15, 2}, {11, 15, 2}, {11, 21, 4}, {11, 21, 4}, {11, 21, 4}};
  BatchOptions cap_opt;
  cap_opt.gamma = 0.5;
  cap_opt.max_paths_per_query = 27;
  for (bool optimized : {false, true}) {
    SCOPED_TRACE(optimized ? "BatchEnum+ capped" : "BatchEnum capped");
    const BatchRun full =
        ExpectStableAtTwoThreads(two, capped, cap_opt, optimized, 10);
    ASSERT_TRUE(full.status.ok()) << full.status;
    EXPECT_GE(full.stats.num_clusters, 2u);
    ExpectMatchesOracle(two, capped, full);
    BatchOptions fail_opt = cap_opt;
    fail_opt.max_paths_per_query = 20;
    const BatchRun failed =
        ExpectStableAtTwoThreads(two, capped, fail_opt, optimized, 20);
    EXPECT_EQ(failed.status.code(), StatusCode::kResourceExhausted)
        << failed.status;
    // The failing group's first member stops after max_paths paths, and
    // its other members emit nothing.
    EXPECT_EQ(failed.sink.PathsOf(6).size(), 20u);
    EXPECT_TRUE(failed.sink.PathsOf(7).empty());
    EXPECT_TRUE(failed.sink.PathsOf(8).empty());
  }
}

/// Every ordered pair of 8 vertices linked: 517 simple 0 -> 7 paths of at
/// most 5 hops, whose join is long enough for other items of the
/// assembly to run while it does.
Graph CompleteGraph8() {
  GraphBuilder b(8);
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = 0; v < 8; ++v) {
      if (u != v) b.AddEdge(u, v);
    }
  }
  return *b.Build();
}

// A group joins in its leader's assembly item while other items run: a
// member after the leader may record its reference before the leader's
// join ends (or, if an abort skips the leader, before it starts), and a
// worker may join a later group while the token holder delivers an
// earlier one. Every schedule must give the sequential stream, Status and
// work counters — paths_emitted and join_replays included, which members
// add after the assembly — also when a group fails at max_paths with
// members still queued behind it. The schedule varies from run to run, so
// each batch repeats at 2 and 4 threads.
TEST(DuplicateJoin, GroupJoinsOverlapDeliveryAtEveryThreadCount) {
  const Graph g = CompleteGraph8();
  // One cluster: solos, and two groups whose members trail their leaders.
  const std::vector<PathQuery> clean = {
      {1, 6, 3}, {0, 7, 5}, {0, 7, 5}, {2, 5, 4}, {0, 7, 5},
      {3, 4, 5}, {3, 4, 5}, {0, 7, 5}, {2, 5, 3}, {3, 4, 5}};
  // At max_paths 300 the halves fit (<= 260 paths each) but the 517-path
  // group fails at its leader (position 3), after a completing solo and a
  // completing group with one replayed member, and with members of both
  // groups queued behind it.
  const std::vector<PathQuery> capped = {
      {1, 6, 3}, {2, 5, 3}, {2, 5, 3}, {0, 7, 5},
      {0, 7, 5}, {2, 5, 3}, {0, 7, 5}};
  BatchOptions opt;
  opt.disable_clustering = true;
  opt.intra_cluster_min_queries = 2;
  BatchOptions cap_opt = opt;
  cap_opt.max_paths_per_query = 300;
  for (bool optimized : {false, true}) {
    SCOPED_TRACE(optimized ? "BatchEnum+" : "BatchEnum");
    const BatchRun seq = RunBatch(g, clean, opt, optimized, 1);
    ASSERT_TRUE(seq.status.ok()) << seq.status;
    ExpectMatchesOracle(g, clean, seq);
    EXPECT_EQ(seq.sink.PathsOf(7).size(), 517u);
    EXPECT_EQ(seq.stats.join_replays, 5u);
    EXPECT_EQ(seq.stats.paths_emitted, seq.sink.events().size());

    const BatchRun seq_cap = RunBatch(g, capped, cap_opt, optimized, 1);
    EXPECT_EQ(seq_cap.status.code(), StatusCode::kResourceExhausted)
        << seq_cap.status;
    for (size_t i : {0, 1, 2}) {
      EXPECT_EQ(seq_cap.sink.PathsOf(i).size(), 37u) << "query " << i;
    }
    EXPECT_EQ(seq_cap.sink.PathsOf(3).size(), 300u);
    EXPECT_EQ(seq_cap.sink.events().size(), 411u);
    EXPECT_EQ(seq_cap.stats.join_replays, 1u);

    for (int threads : {2, 4}) {
      for (int rep = 0; rep < 10; ++rep) {
        const std::string what = "threads=" + std::to_string(threads) +
                                 " rep " + std::to_string(rep);
        const BatchRun par = RunBatch(g, clean, opt, optimized, threads);
        ASSERT_TRUE(par.status.ok()) << what << ": " << par.status;
        EXPECT_EQ(par.sink.events(), seq.sink.events()) << what;
        ExpectSameWork(seq.stats, par.stats, what);

        const BatchRun cap = RunBatch(g, capped, cap_opt, optimized, threads);
        EXPECT_EQ(cap.status.code(), seq_cap.status.code()) << what;
        EXPECT_EQ(cap.status.message(), seq_cap.status.message()) << what;
        EXPECT_EQ(cap.sink.events(), seq_cap.sink.events()) << what;
        ExpectSameWork(seq_cap.stats, cap.stats, what + " capped");
      }
    }
  }
}

TEST(DuplicateJoin, DuplicatesInDifferentClustersJoinSeparately) {
  const Graph g = TestGraph();
  const std::vector<PathQuery> queries = DuplicateBatch(g, 16, 70, 41);
  // γ = 1: no pair is similar enough to merge, so every query is a
  // cluster of its own and no join is shared.
  BatchOptions opt;
  opt.gamma = 1.0;
  for (bool optimized : {false, true}) {
    const BatchRun run = RunBatch(g, queries, opt, optimized, 1);
    ASSERT_TRUE(run.status.ok()) << run.status;
    ASSERT_EQ(run.stats.num_clusters, queries.size());
    EXPECT_EQ(run.stats.join_replays, 0u);
    uint64_t probes = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<std::vector<VertexId>> sorted = run.sink.PathsOf(i);
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, BruteForcePaths(g, queries[i])->ToSortedVectors())
          << "query " << i;
      // Each singleton cluster joins exactly as the query alone would.
      const BatchRun alone = RunBatch(g, {queries[i]}, opt, optimized, 1);
      ASSERT_TRUE(alone.status.ok()) << alone.status;
      EXPECT_EQ(run.sink.PathsOf(i), alone.sink.PathsOf(0)) << "query " << i;
      probes += alone.stats.join_probes;
    }
    EXPECT_EQ(run.stats.join_probes, probes);
    ExpectThreadIdentity(g, queries, opt, optimized);
  }
}

}  // namespace
}  // namespace hcpath
