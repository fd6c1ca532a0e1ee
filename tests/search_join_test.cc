#include <gtest/gtest.h>

#include "bfs/bfs.h"
#include "core/join.h"
#include "core/search.h"
#include "graph/generators.h"
#include "test_graphs.h"

namespace hcpath {
namespace {

TEST(HalfSearch, EnumeratesAllPrefixesWithinBudget) {
  auto g = GeneratePath(6);
  HalfSearchSpec spec;
  spec.start = 0;
  spec.budget = 3;
  spec.dir = Direction::kForward;
  PathSet out;
  ASSERT_TRUE(RunHalfSearch(*g, spec, &out, nullptr).ok());
  // Trivial + 1-hop + 2-hop + 3-hop prefixes.
  EXPECT_EQ(out.size(), 4u);
}

TEST(HalfSearch, SlackPruningCutsDeadBranches) {
  Graph g = PaperFigure1Graph();
  // Example 3.1: query q3(v4, v14, 4), index dist(v, v14).
  VertexDistMap to_t = HopCappedBfs(g, 14, 4, Direction::kBackward);
  TargetSlack slack[] = {{&to_t, 4}};
  HalfSearchSpec spec;
  spec.start = 4;
  spec.budget = 4;
  spec.dir = Direction::kForward;
  spec.slacks = slack;
  PathSet out;
  BatchStats stats;
  ASSERT_TRUE(RunHalfSearch(g, spec, &out, &stats).ok());
  // v8 must be pruned (dist(v8, v14) = inf) and v15 only reachable while
  // budget remains; prune counter must fire.
  EXPECT_GT(stats.edges_pruned, 0u);
  for (size_t i = 0; i < out.size(); ++i) {
    for (VertexId v : out[i]) EXPECT_NE(v, 8u);
  }
}

TEST(HalfSearch, FilterForJoinStoresOnlyUseful) {
  auto g = GenerateGrid(3, 3);
  HalfSearchSpec spec;
  spec.start = 0;
  spec.budget = 2;
  spec.dir = Direction::kForward;
  spec.filter_for_join = true;
  spec.store_target = 8;
  PathSet out;
  ASSERT_TRUE(RunHalfSearch(*g, spec, &out, nullptr).ok());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out.Length(i) == 2 || out[i].back() == 8u);
  }
}

TEST(HalfSearch, MaxPathsFailsCleanly) {
  auto g = GenerateComplete(8);
  HalfSearchSpec spec;
  spec.start = 0;
  spec.budget = 4;
  spec.dir = Direction::kForward;
  spec.max_paths = 10;
  PathSet out;
  Status st = RunHalfSearch(*g, spec, &out, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(HalfSearch, DepSpliceMatchesDirectSearch) {
  Graph g = PaperFigure1Graph();
  // Cache the HC-s path results of q_{v9,2} and splice them into a search
  // from v4 with budget 3: results must equal the direct search.
  HalfSearchSpec dep_spec;
  dep_spec.start = 9;
  dep_spec.budget = 2;
  dep_spec.dir = Direction::kForward;
  PathSet dep_paths;
  ASSERT_TRUE(RunHalfSearch(g, dep_spec, &dep_paths, nullptr).ok());

  SearchDep dep{9, 2, &dep_paths};
  HalfSearchSpec spec;
  spec.start = 4;
  spec.budget = 3;
  spec.dir = Direction::kForward;
  spec.deps = std::span<const SearchDep>(&dep, 1);
  PathSet with_splice;
  BatchStats stats;
  ASSERT_TRUE(RunHalfSearch(g, spec, &with_splice, &stats).ok());
  EXPECT_GT(stats.shortcut_splices, 0u);

  HalfSearchSpec direct = spec;
  direct.deps = {};
  PathSet without;
  ASSERT_TRUE(RunHalfSearch(g, direct, &without, nullptr).ok());
  EXPECT_EQ(with_splice.Fingerprint(), without.Fingerprint());
}

TEST(Join, CanonicalSplitProducesNoDuplicates) {
  auto g = GenerateComplete(5);
  VertexDistMap from_s = HopCappedBfs(*g, 0, 4, Direction::kForward);
  VertexDistMap to_t = HopCappedBfs(*g, 4, 4, Direction::kBackward);
  TargetSlack fs[] = {{&to_t, 4}};
  TargetSlack bs[] = {{&from_s, 4}};

  PathSet fwd, bwd;
  HalfSearchSpec f;
  f.start = 0;
  f.budget = 2;
  f.dir = Direction::kForward;
  f.slacks = fs;
  ASSERT_TRUE(RunHalfSearch(*g, f, &fwd, nullptr).ok());
  HalfSearchSpec b;
  b.start = 4;
  b.budget = 2;
  b.dir = Direction::kBackward;
  b.slacks = bs;
  ASSERT_TRUE(RunHalfSearch(*g, b, &bwd, nullptr).ok());

  JoinSpec join;
  join.forward = &fwd;
  join.backward = &bwd;
  join.s = 0;
  join.t = 4;
  join.hf = 2;
  join.hb = 2;
  CollectingSink sink(1);
  auto emitted = JoinAndEmit(join, 0, &sink, nullptr);
  ASSERT_TRUE(emitted.ok());

  auto sorted = sink.paths(0).ToSortedVectors();
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_NE(sorted[i - 1], sorted[i]) << "duplicate path emitted";
  }
  // Every emitted path simple, correct endpoints, <= 4 hops.
  for (const auto& p : sorted) {
    EXPECT_TRUE(IsSimplePath(p));
    EXPECT_EQ(p.front(), 0u);
    EXPECT_EQ(p.back(), 4u);
    EXPECT_LE(p.size() - 1, 4u);
  }
}

TEST(Join, RespectsMaxPaths) {
  auto g = GenerateComplete(6);
  PathSet fwd, bwd;
  HalfSearchSpec f;
  f.start = 0;
  f.budget = 2;
  f.dir = Direction::kForward;
  ASSERT_TRUE(RunHalfSearch(*g, f, &fwd, nullptr).ok());
  HalfSearchSpec b;
  b.start = 5;
  b.budget = 2;
  b.dir = Direction::kBackward;
  ASSERT_TRUE(RunHalfSearch(*g, b, &bwd, nullptr).ok());
  JoinSpec join;
  join.forward = &fwd;
  join.backward = &bwd;
  join.s = 0;
  join.t = 5;
  join.hf = 2;
  join.hb = 2;
  join.max_paths = 3;
  CountingSink sink(1);
  auto emitted = JoinAndEmit(join, 0, &sink, nullptr);
  EXPECT_EQ(emitted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(sink.counts()[0], 3u);
}

TEST(Join, EmptyHalvesYieldNothing) {
  PathSet fwd, bwd;
  JoinSpec join;
  join.forward = &fwd;
  join.backward = &bwd;
  join.s = 0;
  join.t = 1;
  join.hf = 2;
  join.hb = 2;
  CountingSink sink(1);
  auto emitted = JoinAndEmit(join, 0, &sink, nullptr);
  ASSERT_TRUE(emitted.ok());
  EXPECT_EQ(*emitted, 0u);
}

}  // namespace
}  // namespace hcpath
