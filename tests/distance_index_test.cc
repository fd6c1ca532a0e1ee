#include "index/distance_index.h"

#include <gtest/gtest.h>

#include "bfs/bfs.h"
#include "graph/generators.h"
#include "index/endpoint_cache.h"

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

TEST(DistanceIndex, MinDistToOppositeSelectsDirection) {
  auto g = GeneratePath(5);
  DistanceIndex index;
  index.Build(*g, {0}, {4}, {4});
  // Forward searches prune against the target side, backward against the
  // source side.
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

/// Asserts that `got` exposes exactly what `want` does: every map, entry
/// by entry, each Γ set, and both min-dist arrays.
void ExpectSameIndex(const Graph& g, const DistanceIndex& got,
                     const DistanceIndex& want) {
  ASSERT_EQ(got.num_queries(), want.num_queries());
  for (size_t i = 0; i < want.num_queries(); ++i) {
    EXPECT_EQ(got.FromSourceMap(i).size(), want.FromSourceMap(i).size());
    EXPECT_EQ(got.ToTargetMap(i).size(), want.ToTargetMap(i).size());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(got.DistFromSource(i, v), want.DistFromSource(i, v))
          << "query " << i << " v=" << v;
      ASSERT_EQ(got.DistToTarget(i, v), want.DistToTarget(i, v))
          << "query " << i << " v=" << v;
    }
    EXPECT_EQ(got.Gamma(i), want.Gamma(i));
    EXPECT_EQ(got.GammaR(i), want.GammaR(i));
  }
  EXPECT_EQ(got.MinDistFromAnySource(), want.MinDistFromAnySource());
  EXPECT_EQ(got.MinDistToAnyTarget(), want.MinDistToAnyTarget());
}

/// Entries of the maps at `first_slots`, one slot per unique (endpoint,
/// cap) key of a direction: what a miss BFS over those keys produces.
uint64_t EntriesOf(const std::vector<size_t>& first_slots,
                   const std::vector<const VertexDistMap*>& maps) {
  uint64_t total = 0;
  for (size_t slot : first_slots) total += maps[slot]->size();
  return total;
}

// A cache-aware build equals a cache-less one however much of it the cache
// serves: all of it, or one direction. A direction with no misses runs no
// BFS, so it discovers nothing and keeps no mask block.
TEST(DistanceIndex, CacheServedBuildsMatchTheColdBuild) {
  Rng grng(3);
  const Graph sparse = *GenerateErdosRenyi(300, 2500, grng);
  const Graph dense = DenseReachGraph();  // bit-sliced waves, views
  for (const Graph* g : {&sparse, &dense}) {
    SCOPED_TRACE(g == &sparse ? "sparse" : "dense");
    // Query 3 repeats query 1's source and query 0's target at the same
    // cap: 3 unique keys per direction.
    const std::vector<VertexId> sources = {0, 10, 20, 10};
    const std::vector<VertexId> targets = {5, 15, 25, 5};
    const std::vector<VertexId> other_targets = {30, 35, 40, 30};
    const std::vector<Hop> hops = {3, 3, 2, 3};
    const std::vector<size_t> unique_slots = {0, 1, 2};

    DistanceIndex cold, cold_other;
    cold.Build(*g, sources, targets, hops);
    cold_other.Build(*g, sources, other_targets, hops);
    std::vector<const VertexDistMap*> fwd, bwd, bwd_other;
    for (size_t i = 0; i < hops.size(); ++i) {
      fwd.push_back(&cold.FromSourceMap(i));
      bwd.push_back(&cold.ToTargetMap(i));
      bwd_other.push_back(&cold_other.ToTargetMap(i));
    }

    EndpointDistanceCache cache;
    DistanceIndex index;
    // Empty cache: every unique key misses.
    index.Build(*g, sources, targets, hops, nullptr, &cache);
    ExpectSameIndex(*g, index, cold);
    EXPECT_EQ(index.cache_hits(), 0u);
    EXPECT_EQ(index.cache_misses(), 6u);
    EXPECT_EQ(index.total_discovered(),
              EntriesOf(unique_slots, fwd) + EntriesOf(unique_slots, bwd));

    // Every endpoint served.
    index.Build(*g, sources, targets, hops, nullptr, &cache);
    ExpectSameIndex(*g, index, cold);
    EXPECT_EQ(index.cache_hits(), 6u);
    EXPECT_EQ(index.cache_misses(), 0u);
    EXPECT_EQ(index.total_discovered(), 0u);
    EXPECT_EQ(index.bottom_up_levels(), 0u);

    // Sources served, targets missed: only the backward BFS runs.
    index.Build(*g, sources, other_targets, hops, nullptr, &cache);
    ExpectSameIndex(*g, index, cold_other);
    EXPECT_EQ(index.cache_hits(), 3u);
    EXPECT_EQ(index.cache_misses(), 3u);
    EXPECT_EQ(index.total_discovered(), EntriesOf(unique_slots, bwd_other));

    // All served again, after a build with misses: that build's miss
    // results are let go, so only the maps and min-dist arrays remain.
    index.Build(*g, sources, targets, hops, nullptr, &cache);
    ExpectSameIndex(*g, index, cold);
    EXPECT_EQ(index.cache_misses(), 0u);
    EXPECT_EQ(index.total_discovered(), 0u);
    uint64_t maps = 0;
    for (size_t i = 0; i < index.num_queries(); ++i) {
      maps += index.FromSourceMap(i).MemoryBytes();
      maps += index.ToTargetMap(i).MemoryBytes();
    }
    EXPECT_EQ(index.MemoryBytes(),
              2 * g->NumVertices() * sizeof(Hop) + maps);
  }
}

}  // namespace
}  // namespace hcpath
