#include "index/distance_index.h"

#include <gtest/gtest.h>

#include "bfs/bfs.h"
#include "graph/generators.h"

namespace hcpath {
namespace {

TEST(DistanceIndex, MatchesDirectBfs) {
  Rng grng(3);
  auto g = GenerateErdosRenyi(300, 2500, grng);
  std::vector<VertexId> sources = {0, 10, 20};
  std::vector<VertexId> targets = {5, 15, 25};
  std::vector<Hop> hops = {4, 5, 6};

  DistanceIndex index;
  index.Build(*g, sources, targets, hops);
  ASSERT_EQ(index.num_queries(), 3u);

  for (size_t i = 0; i < 3; ++i) {
    VertexDistMap fwd =
        HopCappedBfs(*g, sources[i], hops[i], Direction::kForward);
    VertexDistMap bwd =
        HopCappedBfs(*g, targets[i], hops[i], Direction::kBackward);
    fwd.ForEach([&](VertexId v, Hop d) {
      EXPECT_EQ(index.DistFromSource(i, v), d);
    });
    bwd.ForEach([&](VertexId v, Hop d) {
      EXPECT_EQ(index.DistToTarget(i, v), d);
    });
  }
}

TEST(DistanceIndex, GammaSetsAreSortedReachSets) {
  auto g = GeneratePath(10);
  DistanceIndex index;
  index.Build(*g, {0}, {9}, {3});
  // Γ(q): within 3 hops of vertex 0 forward: {0,1,2,3}.
  EXPECT_EQ(index.Gamma(0), (std::vector<VertexId>{0, 1, 2, 3}));
  // Γr(q): within 3 hops of 9 on the reverse graph: {6,7,8,9}.
  EXPECT_EQ(index.GammaR(0), (std::vector<VertexId>{6, 7, 8, 9}));
}

TEST(DistanceIndex, MinArraysAggregateAllEndpoints) {
  auto g = GeneratePath(8);
  DistanceIndex index;
  index.Build(*g, {0, 4}, {7, 7}, {2, 2});
  const auto& min_from = index.MinDistFromAnySource();
  EXPECT_EQ(min_from[0], 0);
  EXPECT_EQ(min_from[5], 1);  // from source 4
  EXPECT_EQ(min_from[3], kUnreachable);  // 3 hops from 0, 2-hop cap
  const auto& min_to = index.MinDistToAnyTarget();
  EXPECT_EQ(min_to[7], 0);
  EXPECT_EQ(min_to[5], 2);
  EXPECT_EQ(min_to[4], kUnreachable);
}

TEST(DistanceIndex, DistToOppositeSelectsDirection) {
  auto g = GeneratePath(5);
  DistanceIndex index;
  index.Build(*g, {0}, {4}, {4});
  // Forward search prunes against the target map.
  EXPECT_EQ(index.DistToOpposite(Direction::kForward, 0, 2), 2);
  // Backward search prunes against the source map.
  EXPECT_EQ(index.DistToOpposite(Direction::kBackward, 0, 2), 2);
  EXPECT_EQ(&index.MinDistToOpposite(Direction::kForward),
            &index.MinDistToAnyTarget());
  EXPECT_EQ(&index.MinDistToOpposite(Direction::kBackward),
            &index.MinDistFromAnySource());
}

TEST(DistanceIndex, BuildTimeAndMemoryReported) {
  Rng grng(5);
  auto g = GenerateErdosRenyi(500, 4000, grng);
  DistanceIndex index;
  index.Build(*g, {0, 1}, {2, 3}, {5, 5});
  EXPECT_GE(index.build_seconds(), 0.0);
  EXPECT_GT(index.MemoryBytes(), 0u);
}

/// A graph where every single-source reach at cap 3 is dense, so each
/// direction's one wave is bit-sliced.
Graph DenseReachGraph() {
  Rng grng(97);
  return *GenerateBarabasiAlbert(1000, 4, grng);
}

// Views own no bytes: MemoryBytes counts each wave's mask block once, on
// top of the min-dist arrays and the maps' own storage.
TEST(DistanceIndex, MemoryBytesCountsEachMaskBlockOnce) {
  const Graph g = DenseReachGraph();
  const size_t nv = g.NumVertices();
  DistanceIndex index;
  // Two queries share each direction's wave; one repeats the other's
  // endpoints, so both directions hold two views on one block.
  index.Build(g, {0, 0}, {1, 1}, {3, 3});
  uint64_t maps = 0;
  for (size_t i = 0; i < index.num_queries(); ++i) {
    ASSERT_TRUE(index.FromSourceMap(i).IsView());
    ASSERT_TRUE(index.ToTargetMap(i).IsView());
    maps += index.FromSourceMap(i).MemoryBytes();
    maps += index.ToTargetMap(i).MemoryBytes();
  }
  const uint64_t min_dist = 2 * nv * sizeof(Hop);
  const uint64_t blocks = 2 * 3 * nv * sizeof(uint64_t);  // 2 waves, 3 levels
  EXPECT_EQ(index.MemoryBytes(), min_dist + maps + blocks);
}

// A view copied out of the index stays valid, with unchanged contents,
// after the index is rebuilt in place: the rebuild does not reuse a mask
// block a live view still holds.
TEST(DistanceIndex, CopiedViewSurvivesRecycledRebuild) {
  const Graph g = DenseReachGraph();
  DistanceIndex index;
  index.Build(g, {0, 5}, {1, 6}, {3, 2});
  const VertexDistMap fwd = index.FromSourceMap(0);
  const VertexDistMap bwd = index.ToTargetMap(0);
  ASSERT_TRUE(fwd.IsView());
  ASSERT_TRUE(bwd.IsView());
  for (int round = 0; round < 3; ++round) {
    index.Build(g, {7, 8, 9}, {10, 11, 12}, {3, 3, 3});
    const VertexDistMap want_fwd = HopCappedBfs(g, 0, 3, Direction::kForward);
    const VertexDistMap want_bwd =
        HopCappedBfs(g, 1, 3, Direction::kBackward);
    ASSERT_EQ(fwd.size(), want_fwd.size());
    ASSERT_EQ(bwd.size(), want_bwd.size());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(fwd.Lookup(v), want_fwd.Lookup(v)) << "v=" << v;
      ASSERT_EQ(bwd.Lookup(v), want_bwd.Lookup(v)) << "v=" << v;
    }
    // The rebuilt index itself is correct too.
    const VertexDistMap want7 = HopCappedBfs(g, 7, 3, Direction::kForward);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(index.DistFromSource(0, v), want7.Lookup(v)) << "v=" << v;
    }
  }
}

// A recycled index does not keep each map at its all-time largest size: a
// deep build followed by a shallow one holds about what a fresh shallow
// build holds.
TEST(DistanceIndex, RecycledMapsShrinkToTheCurrentBuild) {
  Rng grng(11);
  auto g = GenerateErdosRenyi(20000, 80000, grng);
  std::vector<VertexId> sources, targets;
  for (VertexId i = 0; i < 16; ++i) {
    sources.push_back(i);
    targets.push_back(100 + i);
  }
  // Cap 4 reaches a few hundred vertices per endpoint: hash maps, well
  // under the 1/8 density threshold, like the cap-1 build after it.
  const std::vector<Hop> deep(16, 4);
  const std::vector<Hop> shallow(16, 1);

  DistanceIndex recycled;
  recycled.Build(*g, sources, targets, deep);
  for (size_t i = 0; i < recycled.num_queries(); ++i) {
    ASSERT_FALSE(recycled.FromSourceMap(i).IsDense());
    EXPECT_FALSE(recycled.Gamma(i).empty());
    EXPECT_FALSE(recycled.GammaR(i).empty());
  }
  const uint64_t deep_bytes = recycled.MemoryBytes();
  recycled.Build(*g, sources, targets, shallow);

  DistanceIndex fresh;
  fresh.Build(*g, sources, targets, shallow);
  for (size_t i = 0; i < fresh.num_queries(); ++i) {
    EXPECT_FALSE(recycled.Gamma(i).empty());
    EXPECT_EQ(recycled.Gamma(i), fresh.Gamma(i));
    EXPECT_EQ(recycled.GammaR(i), fresh.GammaR(i));
    EXPECT_FALSE(fresh.GammaR(i).empty());
  }
  EXPECT_LE(recycled.MemoryBytes(), 2 * fresh.MemoryBytes())
      << "deep build held " << deep_bytes;
}

}  // namespace
}  // namespace hcpath
