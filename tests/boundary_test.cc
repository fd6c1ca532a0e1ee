// Boundary and edge-case coverage: minimal hop constraints, degenerate
// graphs, and small-world topologies (the bench stand-in family) under
// full cross-validation.

#include <gtest/gtest.h>

#include "hcpath/hcpath.h"

namespace hcpath {
namespace {

std::vector<Algorithm> AllAlgorithms() {
  return {Algorithm::kPathEnum, Algorithm::kBasicEnum,
          Algorithm::kBasicEnumPlus, Algorithm::kBatchEnum,
          Algorithm::kBatchEnumPlus};
}

void ExpectAllMatchOracle(const Graph& g,
                          const std::vector<PathQuery>& queries) {
  std::vector<std::vector<std::vector<VertexId>>> oracle;
  for (const PathQuery& q : queries) {
    oracle.push_back(BruteForcePaths(g, q)->ToSortedVectors());
  }
  BatchPathEnumerator enumerator(g);
  for (Algorithm algo : AllAlgorithms()) {
    // Boundary inputs must hold through the parallel engines too, not just
    // the sequential reference path (threads = 1).
    for (int threads : {1, 4}) {
      BatchOptions opt;
      opt.algorithm = algo;
      opt.num_threads = threads;
      opt.intra_cluster_min_queries = 2;
      CollectingSink sink(queries.size());
      auto result = enumerator.Run(queries, opt, &sink);
      ASSERT_TRUE(result.ok())
          << AlgorithmName(algo) << " threads=" << threads << " "
          << result.status();
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(sink.paths(i).ToSortedVectors(), oracle[i])
            << AlgorithmName(algo) << " threads=" << threads << " on "
            << queries[i].ToString();
      }
    }
  }
}

/// Every algorithm must reject the batch with InvalidArgument before
/// emitting anything (RunPipeline validates the whole batch up front),
/// and the parallel run must mirror the sequential one's message.
void ExpectAllRejectIdentically(const Graph& g,
                                const std::vector<PathQuery>& queries) {
  BatchPathEnumerator enumerator(g);
  for (Algorithm algo : AllAlgorithms()) {
    std::string seq_message;
    std::vector<std::vector<std::vector<VertexId>>> seq_paths;
    for (int threads : {1, 4}) {
      BatchOptions opt;
      opt.algorithm = algo;
      opt.num_threads = threads;
      CollectingSink sink(queries.size());
      auto result = enumerator.Run(queries, opt, &sink);
      ASSERT_FALSE(result.ok()) << AlgorithmName(algo) << " threads=" << threads;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << AlgorithmName(algo) << " threads=" << threads;
      std::vector<std::vector<std::vector<VertexId>>> paths;
      for (size_t i = 0; i < queries.size(); ++i) {
        paths.push_back(sink.paths(i).ToSortedVectors());
      }
      if (threads == 1) {
        seq_message = result.status().message();
        seq_paths = std::move(paths);
      } else {
        EXPECT_EQ(result.status().message(), seq_message)
            << AlgorithmName(algo) << ": parallel rejection must match";
        EXPECT_EQ(paths, seq_paths)
            << AlgorithmName(algo) << ": parallel pre-rejection emission "
            << "must match sequential";
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(sink.paths(i).size(), 0u)
            << AlgorithmName(algo) << " threads=" << threads;
      }
    }
  }
}

TEST(Boundary, KEqualsOne) {
  Rng rng(3);
  Graph g = *GenerateErdosRenyi(30, 200, rng);
  std::vector<PathQuery> queries;
  Rng qrng(4);
  while (queries.size() < 6) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(30));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(30));
    if (s != t) queries.push_back({s, t, 1});
  }
  ExpectAllMatchOracle(g, queries);
}

TEST(Boundary, KEqualsTwoMixedWithLarger) {
  Rng rng(5);
  Graph g = *GenerateErdosRenyi(40, 300, rng);
  std::vector<PathQuery> queries = {{0, 1, 2}, {0, 1, 6}, {2, 3, 2},
                                    {2, 3, 1}, {0, 1, 2}};
  ExpectAllMatchOracle(g, queries);
}

TEST(Boundary, TwoVertexGraph) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Graph g = *b.Build();
  ExpectAllMatchOracle(g, {{0, 1, 1}, {0, 1, 5}, {1, 0, 5}});
}

TEST(Boundary, CycleGraphPaths) {
  Graph g = *GenerateCycle(8);
  // Exactly one simple path between any ordered pair on a directed cycle.
  ExpectAllMatchOracle(g, {{0, 4, 4}, {0, 4, 3}, {0, 4, 8}, {4, 0, 4}});
}

TEST(Boundary, SmallWorldCrossValidation) {
  Rng rng(7);
  Graph g = *GenerateSmallWorld(300, 4, 0.05, rng);
  std::vector<PathQuery> queries;
  Rng qrng(9);
  while (queries.size() < 8) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(300));
    VertexId t = static_cast<VertexId>((s + 1 + qrng.NextBounded(14)) % 300);
    queries.push_back({s, t, 5});
  }
  // Near-duplicates to force sharing.
  queries.push_back(queries[0]);
  queries.push_back({queries[0].s, queries[0].t, 4});
  ExpectAllMatchOracle(g, queries);
}

TEST(Boundary, DisconnectedComponents) {
  GraphBuilder b(10);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(5, 6);
  b.AddEdge(6, 7);
  Graph g = *b.Build();
  ExpectAllMatchOracle(g, {{0, 2, 5}, {0, 7, 5}, {5, 7, 5}, {0, 9, 5}});
}

TEST(Boundary, DuplicateQueriesShareRootsExactly) {
  Rng rng(11);
  Graph g = *GenerateSmallWorld(200, 4, 0.1, rng);
  std::vector<PathQuery> queries(10, PathQuery{5, 20, 5});
  BatchPathEnumerator enumerator(g);
  BatchOptions opt;
  opt.algorithm = Algorithm::kBatchEnum;
  auto result = enumerator.Run(queries, opt);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < queries.size(); ++i) {
    EXPECT_EQ(result->path_counts[i], result->path_counts[0]);
  }
  // All ten queries map to one forward and one backward root.
  EXPECT_EQ(result->stats.sharing_nodes, 2u);
}

TEST(Boundary, MaxHopsQueryOnChain) {
  Graph g = *GeneratePath(kMaxHops + 2);
  std::vector<PathQuery> queries = {
      {0, static_cast<VertexId>(kMaxHops), kMaxHops}};
  ExpectAllMatchOracle(g, queries);
}

// --- degenerate inputs through the parallel path -------------------------
// These used to be validated only against the sequential engines; the
// parallel path (thread pools, buffered streaming merge, intra-cluster
// sub-tasks) must reject or no-op exactly the same way.

TEST(Boundary, EmptyBatchAllEnginesAllThreadCounts) {
  Rng rng(13);
  Graph g = *GenerateErdosRenyi(20, 60, rng);
  BatchPathEnumerator enumerator(g);
  for (Algorithm algo : AllAlgorithms()) {
    for (int threads : {1, 4}) {
      BatchOptions opt;
      opt.algorithm = algo;
      opt.num_threads = threads;
      auto result = enumerator.Run({}, opt);
      ASSERT_TRUE(result.ok())
          << AlgorithmName(algo) << " threads=" << threads << " "
          << result.status();
      EXPECT_TRUE(result->path_counts.empty());
      EXPECT_EQ(result->stats.paths_emitted, 0u);
    }
  }
}

TEST(Boundary, KZeroRejectedOnParallelPath) {
  Rng rng(17);
  Graph g = *GenerateErdosRenyi(20, 60, rng);
  // A healthy query ahead of the poisoned one: validation must still fail
  // the whole batch before any engine (or worker) runs.
  ExpectAllRejectIdentically(g, {{0, 1, 3}, {2, 5, 0}});
}

TEST(Boundary, SourceEqualsTargetRejectedOnParallelPath) {
  Rng rng(19);
  Graph g = *GenerateErdosRenyi(20, 60, rng);
  ExpectAllRejectIdentically(g, {{0, 1, 3}, {7, 7, 4}, {2, 5, 2}});
}

// max_paths_per_query caps every materialized set, not just a query's
// results. Query (s, t, 4) on s -> a_i -> b -> s -> t (i < 4) plus the edge
// s -> t has one path, s -> t, but its forward half search (hf = 2)
// stores s -> t and the four prefixes s -> a_i -> b: the b -> s -> t
// completions all revisit s, so none joins.
TEST(Boundary, MaxPathsCapsHalfSearchPrefixesNotJustResults) {
  constexpr VertexId s = 0, t = 1, b = 2;
  GraphBuilder builder(7);
  builder.AddEdge(s, t);
  builder.AddEdge(b, s);
  for (VertexId a = 3; a < 7; ++a) {
    builder.AddEdge(s, a);
    builder.AddEdge(a, b);
  }
  Graph g = *builder.Build();
  const std::vector<PathQuery> queries = {{s, t, 4}};
  ASSERT_EQ(BruteForcePaths(g, queries[0])->size(), 1u);
  BatchPathEnumerator enumerator(g);
  for (Algorithm algo : {Algorithm::kPathEnum, Algorithm::kBasicEnum}) {
    BatchOptions opt;
    opt.algorithm = algo;
    auto uncapped = enumerator.Run(queries, opt);
    ASSERT_TRUE(uncapped.ok()) << AlgorithmName(algo) << uncapped.status();
    EXPECT_EQ(uncapped->path_counts, std::vector<uint64_t>{1});

    opt.max_paths_per_query = 2;
    auto capped = enumerator.Run(queries, opt);
    ASSERT_FALSE(capped.ok()) << AlgorithmName(algo);
    EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(capped.status().message().rfind(
                  "half search exceeded max_paths", 0),
              0u)
        << AlgorithmName(algo) << ": " << capped.status();
  }
}

TEST(Boundary, DisconnectedEndpointsOnParallelPath) {
  // Two components plus isolated vertices; unreachable and reachable
  // queries interleave so parallel runs exercise the skip bookkeeping of
  // clusters whose members are partly dead.
  GraphBuilder b(12);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  b.AddEdge(6, 7);
  b.AddEdge(7, 8);
  Graph g = *b.Build();
  ExpectAllMatchOracle(g, {{0, 3, 5},    // reachable
                           {0, 8, 5},    // cross-component: no paths
                           {6, 8, 4},    // reachable
                           {0, 11, 3},   // into an isolated vertex
                           {10, 11, 3},  // isolated to isolated
                           {3, 0, 4}});  // against edge direction: no paths
}

}  // namespace
}  // namespace hcpath
