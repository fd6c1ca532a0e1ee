#include "core/path.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "graph/graph_builder.h"

namespace hcpath {
namespace {

TEST(PathHelpers, IsSimplePath) {
  std::vector<VertexId> simple = {0, 1, 2, 3};
  std::vector<VertexId> cyclic = {0, 1, 2, 0};
  EXPECT_TRUE(IsSimplePath(simple));
  EXPECT_FALSE(IsSimplePath(cyclic));
  EXPECT_TRUE(IsSimplePath(std::vector<VertexId>{5}));
}

TEST(PathHelpers, PathExistsInGraph) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = *b.Build();
  EXPECT_TRUE(PathExistsInGraph(g, std::vector<VertexId>{0, 1, 2}));
  EXPECT_FALSE(PathExistsInGraph(g, std::vector<VertexId>{0, 2}));
  EXPECT_FALSE(PathExistsInGraph(g, std::vector<VertexId>{0, 9}));
  EXPECT_FALSE(PathExistsInGraph(g, std::vector<VertexId>{}));
}

TEST(PathHelpers, ToStringFormat) {
  std::vector<VertexId> p = {0, 4, 9};
  EXPECT_EQ(PathToString(p), "(v0, v4, v9)");
}

TEST(PathSet, AddAndAccess) {
  PathSet ps;
  EXPECT_TRUE(ps.empty());
  ps.Add(std::vector<VertexId>{1, 2, 3});
  ps.Add(std::vector<VertexId>{7});
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.Length(0), 2u);
  EXPECT_EQ(ps.Length(1), 0u);
  EXPECT_EQ(ps.Tail(0), 3u);
  EXPECT_EQ(ps[1][0], 7u);
}

TEST(PathSet, AddConcatJoinsWithoutCopy) {
  PathSet ps;
  std::vector<VertexId> prefix = {1, 2};
  std::vector<VertexId> suffix = {3, 4};
  ps.AddConcat(prefix, suffix);
  ASSERT_EQ(ps.size(), 1u);
  PathView p = ps[0];
  EXPECT_EQ(std::vector<VertexId>(p.begin(), p.end()),
            (std::vector<VertexId>{1, 2, 3, 4}));
}

TEST(PathSet, ClearResets) {
  PathSet ps;
  ps.Add(std::vector<VertexId>{1, 2});
  ps.Clear();
  EXPECT_TRUE(ps.empty());
  EXPECT_EQ(ps.TotalVertices(), 0u);
}

// A merge drains many small buffers into one set: AppendRange must grow
// geometrically, so 100k single-path appends reallocate O(log n) times
// (an exact-size reserve per call would reallocate, and copy the whole
// offsets array, on every one of them).
TEST(PathSet, AppendRangeGrowsGeometrically) {
  const size_t kPaths = 100000;
  PathSet src;
  for (size_t i = 0; i < kPaths; ++i) {
    std::vector<VertexId> p;
    for (size_t v = 0; v <= i % 4; ++v) {
      p.push_back(static_cast<VertexId>(i + v));
    }
    src.Add(p);
  }
  PathSet appended, added;
  std::set<uint64_t> footprints;
  for (size_t i = 0; i < kPaths; ++i) {
    appended.AppendRange(src, i, i + 1);
    added.Add(src[i]);
    footprints.insert(appended.MemoryBytes());
  }
  // Two arrays, each doubling at most bit_width(n) times (vertex array:
  // up to 4 vertices per path).
  EXPECT_LE(footprints.size(), 2 * (std::bit_width(4 * kPaths) + 1));
  ASSERT_EQ(appended.size(), added.size());
  for (size_t i = 0; i < kPaths; ++i) {
    PathView a = appended[i];
    PathView b = added[i];
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "path " << i;
  }
}

TEST(PathSet, FingerprintOrderInsensitive) {
  PathSet a, b;
  a.Add(std::vector<VertexId>{1, 2});
  a.Add(std::vector<VertexId>{3, 4, 5});
  b.Add(std::vector<VertexId>{3, 4, 5});
  b.Add(std::vector<VertexId>{1, 2});
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(PathSet, FingerprintDetectsDifference) {
  PathSet a, b;
  a.Add(std::vector<VertexId>{1, 2});
  b.Add(std::vector<VertexId>{2, 1});
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  PathSet c;
  c.Add(std::vector<VertexId>{1, 2});
  c.Add(std::vector<VertexId>{1, 2});
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());  // multiset-sensitive
}

TEST(PathSet, ToSortedVectorsCanonicalizes) {
  PathSet ps;
  ps.Add(std::vector<VertexId>{5, 6});
  ps.Add(std::vector<VertexId>{1, 2, 3});
  auto sorted = ps.ToSortedVectors();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0], (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(sorted[1], (std::vector<VertexId>{5, 6}));
}

TEST(Sinks, CountingSinkCounts) {
  CountingSink sink(3);
  std::vector<VertexId> p = {0, 1};
  sink.OnPath(0, p);
  sink.OnPath(0, p);
  sink.OnPath(2, p);
  EXPECT_EQ(sink.counts()[0], 2u);
  EXPECT_EQ(sink.counts()[1], 0u);
  EXPECT_EQ(sink.counts()[2], 1u);
  EXPECT_EQ(sink.Total(), 3u);
}

TEST(Sinks, CollectingSinkMaterializes) {
  CollectingSink sink(2);
  std::vector<VertexId> p = {0, 1, 2};
  sink.OnPath(1, p);
  EXPECT_TRUE(sink.paths(0).empty());
  ASSERT_EQ(sink.paths(1).size(), 1u);
  EXPECT_EQ(sink.paths(1).Tail(0), 2u);
}

}  // namespace
}  // namespace hcpath
