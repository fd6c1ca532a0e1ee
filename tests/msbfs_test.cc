#include "bfs/msbfs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "bfs/bfs.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_store.h"
#include "util/thread_pool.h"

namespace hcpath {
namespace {

class MsBfsEquivalence : public ::testing::TestWithParam<int> {};

// Property: multi-source BFS must match per-source single BFS exactly,
// across source counts that exercise one and several 64-wide waves.
TEST_P(MsBfsEquivalence, MatchesSingleSourceBfs) {
  const int num_sources = GetParam();
  Rng grng(17);
  auto g = GenerateBarabasiAlbert(800, 4, grng);
  ASSERT_TRUE(g.ok());

  Rng rng(23);
  std::vector<VertexId> sources;
  std::vector<Hop> caps;
  for (int i = 0; i < num_sources; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBounded(800)));
    caps.push_back(static_cast<Hop>(2 + rng.NextBounded(4)));
  }

  for (Direction dir : {Direction::kForward, Direction::kBackward}) {
    MsBfsResult ms = MultiSourceBfs(*g, sources, caps, dir);
    ASSERT_EQ(ms.per_source.size(), sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
      VertexDistMap single = HopCappedBfs(*g, sources[i], caps[i], dir);
      EXPECT_EQ(ms.per_source[i].size(), single.size())
          << "source " << i << " size mismatch";
      single.ForEach([&](VertexId v, Hop d) {
        EXPECT_EQ(ms.per_source[i].Lookup(v), d)
            << "source " << sources[i] << " v=" << v;
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SourceCounts, MsBfsEquivalence,
                         ::testing::Values(1, 2, 63, 64, 65, 150));

TEST(MsBfs, MinDistIsPointwiseMinimum) {
  Rng grng(31);
  auto g = GenerateErdosRenyi(400, 3000, grng);
  std::vector<VertexId> sources = {1, 5, 9};
  std::vector<Hop> caps = {4, 4, 4};
  MsBfsResult ms = MultiSourceBfs(*g, sources, caps, Direction::kForward);
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    Hop expected = kUnreachable;
    for (size_t i = 0; i < sources.size(); ++i) {
      expected = std::min(expected, ms.per_source[i].Lookup(v));
    }
    EXPECT_EQ(ms.min_dist[v], expected) << "v=" << v;
  }
}

TEST(MsBfs, DuplicateSourcesShareOneTraversal) {
  Rng grng(37);
  auto g = GenerateErdosRenyi(200, 1500, grng);
  std::vector<VertexId> sources = {3, 3, 3};
  std::vector<Hop> caps = {2, 4, 3};
  MsBfsResult ms = MultiSourceBfs(*g, sources, caps, Direction::kForward);
  // Each copy is capped at its own k even though the BFS ran to max cap.
  VertexDistMap d2 = HopCappedBfs(*g, 3, 2, Direction::kForward);
  VertexDistMap d4 = HopCappedBfs(*g, 3, 4, Direction::kForward);
  EXPECT_EQ(ms.per_source[0].size(), d2.size());
  EXPECT_EQ(ms.per_source[1].size(), d4.size());
}

TEST(MsBfs, EmptySourcesYieldEmptyResult) {
  Rng grng(41);
  auto g = GenerateErdosRenyi(50, 200, grng);
  MsBfsResult ms = MultiSourceBfs(*g, {}, {}, Direction::kForward);
  EXPECT_TRUE(ms.per_source.empty());
  for (Hop d : ms.min_dist) EXPECT_EQ(d, kUnreachable);
}

TEST(MsBfs, CapZeroDiscoversOnlySources) {
  auto g = GeneratePath(10);
  MsBfsResult ms = MultiSourceBfs(*g, {2, 7}, {0, 0}, Direction::kForward);
  EXPECT_EQ(ms.per_source[0].size(), 1u);
  EXPECT_EQ(ms.per_source[1].size(), 1u);
  EXPECT_EQ(ms.min_dist[2], 0);
  EXPECT_EQ(ms.min_dist[3], kUnreachable);
}

// Every per-source map is dense exactly when it holds at least |V|/8
// entries: maps are sized once from the wave's discovery counts, so a map
// that ends above the threshold is dense and one below it stays hashed.
TEST(MsBfs, MapsAreDenseExactlyAboveThreshold) {
  Rng grng(43);
  auto g = GenerateBarabasiAlbert(800, 4, grng);
  ASSERT_TRUE(g.ok());
  Rng rng(47);
  std::vector<VertexId> sources;
  std::vector<Hop> caps;
  for (int i = 0; i < 150; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBounded(800)));
    caps.push_back(static_cast<Hop>(1 + rng.NextBounded(4)));
  }
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (Direction dir : {Direction::kForward, Direction::kBackward}) {
      MsBfsResult ms = MultiSourceBfs(*g, sources, caps, dir, p);
      size_t dense = 0;
      for (const VertexDistMap& m : ms.per_source) {
        EXPECT_EQ(m.IsDense(), m.size() * 8 >= g->NumVertices())
            << "size " << m.size();
        dense += m.IsDense() ? 1 : 0;
      }
      // The mix must exercise both backings.
      EXPECT_GT(dense, 0u);
      EXPECT_LT(dense, ms.per_source.size());
    }
  }
}

void ExpectSameResult(const Graph& g, const MsBfsResult& got,
                      const MsBfsResult& want) {
  ASSERT_EQ(got.per_source.size(), want.per_source.size());
  for (size_t i = 0; i < want.per_source.size(); ++i) {
    const VertexDistMap& a = got.per_source[i];
    const VertexDistMap& b = want.per_source[i];
    EXPECT_EQ(a.size(), b.size()) << "map " << i;
    EXPECT_EQ(a.IsDense(), b.IsDense()) << "map " << i;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(a.Lookup(v), b.Lookup(v)) << "map " << i << " v=" << v;
    }
  }
  EXPECT_EQ(got.min_dist, want.min_dist);
  EXPECT_EQ(got.total_discovered, want.total_discovered);
}

// A recycled result + scratch pair must reproduce a fresh build, whatever
// the previous build left behind: other sources and caps, or maps (and
// discovery logs) larger than the current ones.
TEST(MsBfs, RecycledResultAndScratchMatchFreshBuild) {
  Rng grng(53);
  auto g = GenerateBarabasiAlbert(800, 4, grng);
  ASSERT_TRUE(g.ok());
  struct Batch {
    std::vector<VertexId> sources;
    std::vector<Hop> caps;
  };
  auto make = [](uint64_t seed, size_t n, int min_cap, int cap_span) {
    Rng rng(seed);
    Batch batch;
    for (size_t i = 0; i < n; ++i) {
      batch.sources.push_back(static_cast<VertexId>(rng.NextBounded(800)));
      batch.caps.push_back(
          static_cast<Hop>(min_cap + rng.NextBounded(cap_span)));
    }
    return batch;
  };
  // (first build, second build): mixed caps on other sources, then large
  // maps followed by small ones.
  const std::pair<Batch, Batch> orders[] = {
      {make(59, 150, 1, 4), make(61, 90, 2, 3)},
      {make(67, 130, 4, 2), make(71, 70, 1, 1)}};

  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const auto& [first, second] : orders) {
      for (Direction dir : {Direction::kForward, Direction::kBackward}) {
        MsBfsResult recycled;
        MsBfsScratch scratch;
        MultiSourceBfs(*g, first.sources, first.caps, dir, p, &scratch,
                       &recycled);
        MultiSourceBfs(*g, second.sources, second.caps, dir, p, &scratch,
                       &recycled);
        const MsBfsResult fresh =
            MultiSourceBfs(*g, second.sources, second.caps, dir, p);
        ExpectSameResult(*g, recycled, fresh);
      }
    }
  }
}

// Duplicates of one source with different caps, placed on both sides of
// the 64th input position: each output copy holds exactly its own cap's
// reach, entry by entry.
TEST(MsBfs, DuplicateSourcesAcrossWaveBoundaryMatchPerCapBfs) {
  Rng grng(73);
  auto g = GenerateErdosRenyi(300, 1500, grng);
  ASSERT_TRUE(g.ok());
  std::vector<VertexId> sources;
  std::vector<Hop> caps;
  for (VertexId i = 0; i < 100; ++i) {
    sources.push_back(i);
    caps.push_back(2);
  }
  // Vertex 7 at positions 7 (cap 2), 63 (cap 4) and 64 (cap 1); vertex 90
  // at positions 90 (cap 2) and 30 (cap 3).
  sources[63] = 7;
  caps[63] = 4;
  sources[64] = 7;
  caps[64] = 1;
  sources[30] = 90;
  caps[30] = 3;

  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (Direction dir : {Direction::kForward, Direction::kBackward}) {
      MsBfsResult ms = MultiSourceBfs(*g, sources, caps, dir, p);
      uint64_t total = 0;
      for (size_t i = 0; i < sources.size(); ++i) {
        const VertexDistMap want = HopCappedBfs(*g, sources[i], caps[i], dir);
        EXPECT_EQ(ms.per_source[i].size(), want.size()) << "out " << i;
        for (VertexId v = 0; v < g->NumVertices(); ++v) {
          ASSERT_EQ(ms.per_source[i].Lookup(v), want.Lookup(v))
              << "out " << i << " v=" << v;
        }
        total += want.size();
      }
      EXPECT_EQ(ms.total_discovered, total);
    }
  }
}

/// Checks every VertexDistMap method of an MS-BFS output against the
/// per-source BFS `want` of the same source and cap.
void ExpectSameMap(const Graph& g, const VertexDistMap& got,
                   const VertexDistMap& want, Hop cap) {
  const size_t nv = g.NumVertices();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.IsDense(), want.size() * 8 >= nv);
  EXPECT_EQ(got.IsView(), got.IsDense());
  for (VertexId v = 0; v < nv; ++v) {
    const Hop d = want.Lookup(v);
    ASSERT_EQ(got.Lookup(v), d) << "v=" << v;
    ASSERT_EQ(got.Contains(v), d != kUnreachable) << "v=" << v;
    for (int budget = -1; budget <= cap + 1; ++budget) {
      ASSERT_EQ(got.Within(v, budget), d != kUnreachable && d <= budget)
          << "v=" << v << " budget=" << budget;
    }
  }
  std::vector<std::pair<VertexId, Hop>> got_entries, want_entries;
  got.ForEach([&](VertexId v, Hop h) { got_entries.emplace_back(v, h); });
  want.ForEach([&](VertexId v, Hop h) { want_entries.emplace_back(v, h); });
  std::sort(got_entries.begin(), got_entries.end());
  std::sort(want_entries.begin(), want_entries.end());
  EXPECT_EQ(got_entries, want_entries);
  EXPECT_EQ(got.SortedKeys(), want.SortedKeys());
}

// A graph of 3·1024 + 37 vertices, so the level masks' |V| stride is not a
// multiple of 64. The first wave is bit-sliced and mixes views with hash
// outputs: caps 1 to 4, a cap-0 source, and a source repeated with three
// caps, so one slot backs both a view and hash maps. Every output must
// equal its own per-source BFS in every method, and min_dist their
// pointwise minimum.
TEST(MsBfs, EveryBackingMatchesPerSourceBfs) {
  const VertexId nv = 3 * 1024 + 37;
  Rng grng(79);
  auto g = GenerateErdosRenyi(nv, 4 * nv, grng);
  ASSERT_TRUE(g.ok());
  Rng rng(83);
  std::vector<VertexId> sources;
  std::vector<Hop> caps;
  for (int i = 0; i < 100; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBounded(nv)));
    caps.push_back(static_cast<Hop>(1 + rng.NextBounded(4)));
  }
  const VertexId edge_sources[] = {0, 1023, 1024, 2047, 2048, 3071, 3072,
                                   nv - 1};
  for (size_t i = 0; i < std::size(edge_sources); ++i) {
    sources[i] = edge_sources[i];
  }
  // The repeated source: a vertex whose cap-4 reach is dense both ways.
  VertexId hub = 0;
  while (HopCappedBfs(*g, hub, 4, Direction::kForward).size() * 8 < nv ||
         HopCappedBfs(*g, hub, 4, Direction::kBackward).size() * 8 < nv) {
    ++hub;
  }
  sources[8] = sources[20] = sources[40] = hub;
  caps[8] = 4;
  caps[20] = 1;
  caps[40] = 2;
  caps[50] = 0;

  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (Direction dir : {Direction::kForward, Direction::kBackward}) {
      MsBfsResult ms = MultiSourceBfs(*g, sources, caps, dir, p);
      std::vector<Hop> min_dist(nv, kUnreachable);
      uint64_t total = 0;
      size_t views_in_first_wave = 0;
      for (size_t i = 0; i < sources.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "out " << i);
        const VertexDistMap want = HopCappedBfs(*g, sources[i], caps[i], dir);
        const VertexDistMap& got = ms.per_source[i];
        ExpectSameMap(*g, got, want, caps[i]);
        if (i < 64) views_in_first_wave += got.IsView() ? 1 : 0;
        for (VertexId v = 0; v < nv; ++v) {
          min_dist[v] = std::min(min_dist[v], want.Lookup(v));
        }
        total += want.size();
      }
      // The first wave (outputs 0-63) must hold both backings, and the
      // repeated source both a view (cap 4) and hash maps (caps 1 and 2).
      EXPECT_GT(views_in_first_wave, 0u);
      EXPECT_LT(views_in_first_wave, 64u);
      EXPECT_TRUE(ms.per_source[8].IsView());
      EXPECT_FALSE(ms.per_source[20].IsView());
      EXPECT_EQ(ms.per_source[50].size(), 1u);
      EXPECT_EQ(ms.min_dist, min_dist);
      EXPECT_EQ(ms.total_discovered, total);
      // The last vertices, past the final multiple of 64, are reached.
      EXPECT_NE(*std::min_element(ms.min_dist.begin() + 3 * 1024,
                                  ms.min_dist.end()),
                kUnreachable);
    }
  }
}

// The per-(slot, distance) counters fold each level eight discoveries at
// a time and ripple the rest in at the level's end, so they must stay
// exact for counts that are not multiples of 8. Two trees in one wave:
// source 0 reaches 1 + 5 + 13 + 18 = 37 = |V| / 8 vertices within cap 3,
// exactly the view threshold; source 100 reaches 1 + 3 + 11 + 21 = 36,
// one short of it, so it stays a hash map. A vertex past the cap on each
// tree checks that the count stops at the cap.
TEST(MsBfs, PlaneCountsExactAtTheViewThreshold) {
  const VertexId nv = 8 * 37;
  GraphBuilder b(nv);
  // Level sizes under `root`, numbered from `first`; each vertex of a
  // level hangs off the previous level round-robin. Returns the last
  // vertex of the deepest level.
  auto tree = [&](VertexId root, VertexId first,
                  const std::vector<VertexId>& sizes) {
    std::vector<VertexId> prev = {root};
    VertexId next = first;
    for (VertexId size : sizes) {
      std::vector<VertexId> level;
      for (VertexId i = 0; i < size; ++i) {
        b.AddEdge(prev[i % prev.size()], next);
        level.push_back(next++);
      }
      prev = level;
    }
    return prev.back();
  };
  b.AddEdge(tree(0, 1, {5, 13, 18}), 200);
  b.AddEdge(tree(100, 101, {3, 11, 21}), 201);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const std::vector<VertexId> sources = {0, 100};
  const std::vector<Hop> caps = {3, 3};
  MsBfsResult ms = MultiSourceBfs(*g, sources, caps, Direction::kForward);
  EXPECT_EQ(ms.per_source[0].size(), nv / 8);
  EXPECT_TRUE(ms.per_source[0].IsView());
  EXPECT_EQ(ms.per_source[1].size(), nv / 8 - 1);
  EXPECT_FALSE(ms.per_source[1].IsView());
  for (size_t i = 0; i < sources.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "out " << i);
    ExpectSameMap(*g, ms.per_source[i],
                  HopCappedBfs(*g, sources[i], caps[i], Direction::kForward),
                  caps[i]);
  }
  EXPECT_EQ(ms.total_discovered, nv / 8 + nv / 8 - 1);
  EXPECT_EQ(ms.min_dist[200], kUnreachable);
  EXPECT_EQ(ms.min_dist[201], kUnreachable);
}

/// Runs MultiSourceBfs in both directions, sequentially and on a 2-worker
/// pool, and checks every output, min_dist and total_discovered against
/// per-source BFSs. Returns the bottom-up levels of the sequential runs,
/// which the pooled runs must repeat: each wave picks its directions alone.
uint64_t ExpectMatchesPerSourceBfs(const Graph& g,
                                   const std::vector<VertexId>& sources,
                                   const std::vector<Hop>& caps) {
  const size_t nv = g.NumVertices();
  ThreadPool pool(2);
  uint64_t bottom_up = 0;
  for (Direction dir : {Direction::kForward, Direction::kBackward}) {
    std::vector<Hop> min_dist(nv, kUnreachable);
    uint64_t total = 0;
    std::vector<VertexDistMap> want;
    for (size_t i = 0; i < sources.size(); ++i) {
      want.push_back(HopCappedBfs(g, sources[i], caps[i], dir));
      want.back().ForEach([&](VertexId v, Hop d) {
        min_dist[v] = std::min(min_dist[v], d);
      });
      total += want.back().size();
    }
    uint64_t sequential_bottom_up = 0;
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(::testing::Message()
                   << (dir == Direction::kForward ? "forward" : "backward")
                   << (p == nullptr ? " sequential" : " pooled"));
      const MsBfsResult ms = MultiSourceBfs(g, sources, caps, dir, p);
      for (size_t i = 0; i < sources.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "out " << i);
        ExpectSameMap(g, ms.per_source[i], want[i], caps[i]);
      }
      EXPECT_EQ(ms.min_dist, min_dist);
      EXPECT_EQ(ms.total_discovered, total);
      if (p == nullptr) {
        sequential_bottom_up = ms.bottom_up_levels;
      } else {
        EXPECT_EQ(ms.bottom_up_levels, sequential_bottom_up);
      }
    }
    bottom_up += sequential_bottom_up;
  }
  return bottom_up;
}

std::pair<std::vector<VertexId>, std::vector<Hop>> RandomSources(
    const Graph& g, size_t n, int min_cap, int cap_span, uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> sources;
  std::vector<Hop> caps;
  for (size_t i = 0; i < n; ++i) {
    sources.push_back(static_cast<VertexId>(rng.NextBounded(g.NumVertices())));
    caps.push_back(static_cast<Hop>(min_cap + rng.NextBounded(cap_span)));
  }
  return {sources, caps};
}

// A hub-skewed R-MAT graph (WikiTalk-like): a few hubs put most of |E|
// within two or three hops of almost any source, so the deep levels run
// bottom-up and their early exit is taken on hub in-lists.
TEST(MsBfs, BottomUpOnRMatMatchesPerSourceBfs) {
  Rng grng(89);
  auto g = GenerateRMat(12, 4096 * 3, 0.65, 0.14, 0.14, grng);
  ASSERT_TRUE(g.ok());
  const auto [sources, caps] = RandomSources(*g, 150, 2, 3, 97);
  EXPECT_GT(ExpectMatchesPerSourceBfs(*g, sources, caps), 0u);
}

// MS-BFS over a GraphStore snapshot whose reads go through a delta
// overlay, as PathEngine's cache repair runs it: both directions read
// patched out- and in-lists, the bottom-up levels through
// Neighbors(v, Reverse(dir)).
TEST(MsBfs, BottomUpOnDeltaOverlayMatchesPerSourceBfs) {
  Rng grng(101);
  auto seed = GenerateErdosRenyi(2000, 12000, grng);
  ASSERT_TRUE(seed.ok());
  GraphStore store(*seed);
  Rng urng(103);
  std::vector<EdgeUpdate> updates;
  for (int i = 0; i < 300; ++i) {
    const auto u = static_cast<VertexId>(urng.NextBounded(2000));
    const auto v = static_cast<VertexId>(urng.NextBounded(2000));
    if (u == v) continue;
    updates.push_back(i % 3 == 0 ? EdgeUpdate::Remove(u, v)
                                 : EdgeUpdate::Add(u, v));
  }
  // Also remove real edges, so some in-lists shrink.
  const auto edges = seed->Edges();
  for (size_t i = 0; i < edges.size(); i += 97) {
    updates.push_back(EdgeUpdate::Remove(edges[i].first, edges[i].second));
  }
  ASSERT_TRUE(store.ApplyUpdates(updates).ok());
  const std::shared_ptr<const GraphSnapshot> snap = store.Current();
  ASSERT_NE(snap->graph.overlay(), nullptr);
  const auto [sources, caps] = RandomSources(snap->graph, 100, 2, 3, 107);
  EXPECT_GT(ExpectMatchesPerSourceBfs(snap->graph, sources, caps), 0u);
}

TEST(MsBfs, DenseLevelsRunBottomUpAndSparseOnesDoNot) {
  Rng grng(109);
  auto dense = GenerateErdosRenyi(1000, 10000, grng);
  ASSERT_TRUE(dense.ok());
  const auto [sources, caps] = RandomSources(*dense, 64, 3, 1, 113);
  EXPECT_GT(
      MultiSourceBfs(*dense, sources, caps, Direction::kForward)
          .bottom_up_levels,
      0u);

  // Every frontier of a path holds one vertex per source.
  auto path = GeneratePath(200);
  const auto [path_sources, path_caps] = RandomSources(*path, 64, 4, 1, 127);
  for (Direction dir : {Direction::kForward, Direction::kBackward}) {
    EXPECT_EQ(
        MultiSourceBfs(*path, path_sources, path_caps, dir).bottom_up_levels,
        0u);
  }
}

}  // namespace
}  // namespace hcpath
