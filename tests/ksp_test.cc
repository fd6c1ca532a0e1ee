#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "graph/generators.h"
#include "ksp/dksp.h"
#include "ksp/onepass.h"
#include "test_graphs.h"

namespace hcpath {
namespace {

void ExpectMatchesOracleDksp(const Graph& g, const PathQuery& q) {
  CollectingSink sink(1);
  ASSERT_TRUE(DkspEnumerate(g, q, 0, &sink, {}).ok());
  auto oracle = BruteForcePaths(g, q);
  EXPECT_EQ(sink.paths(0).ToSortedVectors(), oracle->ToSortedVectors())
      << "DkSP wrong on " << q.ToString();
}

void ExpectMatchesOracleOnePass(const Graph& g, const PathQuery& q) {
  CollectingSink sink(1);
  ASSERT_TRUE(OnePassEnumerate(g, q, 0, &sink, {}).ok());
  auto oracle = BruteForcePaths(g, q);
  EXPECT_EQ(sink.paths(0).ToSortedVectors(), oracle->ToSortedVectors())
      << "OnePass wrong on " << q.ToString();
}

TEST(Dksp, MatchesOracleOnPaperExample) {
  Graph g = PaperFigure1Graph();
  for (const PathQuery& q : PaperFigure1Queries()) {
    ExpectMatchesOracleDksp(g, q);
  }
}

TEST(OnePass, MatchesOracleOnPaperExample) {
  Graph g = PaperFigure1Graph();
  for (const PathQuery& q : PaperFigure1Queries()) {
    ExpectMatchesOracleOnePass(g, q);
  }
}

TEST(Dksp, MatchesOracleOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u}) {
    Rng rng(seed);
    auto g = GenerateErdosRenyi(40, 200, rng);
    Rng qrng(seed + 50);
    for (int i = 0; i < 6; ++i) {
      VertexId s = static_cast<VertexId>(qrng.NextBounded(40));
      VertexId t = static_cast<VertexId>(qrng.NextBounded(40));
      if (s == t) continue;
      ExpectMatchesOracleDksp(*g, {s, t, 4});
    }
  }
}

TEST(OnePass, MatchesOracleOnRandomGraphs) {
  for (uint64_t seed : {3u, 4u}) {
    Rng rng(seed);
    auto g = GenerateErdosRenyi(50, 300, rng);
    Rng qrng(seed + 60);
    for (int i = 0; i < 6; ++i) {
      VertexId s = static_cast<VertexId>(qrng.NextBounded(50));
      VertexId t = static_cast<VertexId>(qrng.NextBounded(50));
      if (s == t) continue;
      ExpectMatchesOracleOnePass(*g, {s, t, 5});
    }
  }
}

TEST(Dksp, EmitsInLengthOrder) {
  Graph g = PaperFigure1Graph();
  struct OrderSink : PathSink {
    std::vector<size_t> lengths;
    void OnPath(size_t, PathView p) override {
      lengths.push_back(p.size() - 1);
    }
  } sink;
  ASSERT_TRUE(DkspEnumerate(g, {0, 11, 5}, 0, &sink, {}).ok());
  EXPECT_TRUE(std::is_sorted(sink.lengths.begin(), sink.lengths.end()));
}

TEST(Ksp, LimitsFireAsResourceExhausted) {
  auto g = GenerateComplete(9);
  PathQuery q{0, 8, 5};
  CountingSink s1(1);
  KspLimits limits;
  limits.max_paths = 5;
  EXPECT_EQ(DkspEnumerate(*g, q, 0, &s1, limits).code(),
            StatusCode::kResourceExhausted);
  CountingSink s2(1);
  EXPECT_EQ(OnePassEnumerate(*g, q, 0, &s2, limits).code(),
            StatusCode::kResourceExhausted);
}

// The time budget and the max_paths cap fail with different codes, so a
// caller tells OT from CAP by the Status alone.
TEST(Ksp, TimeBudgetFiresAsDeadlineExceeded) {
  auto g = GenerateComplete(12);
  PathQuery q{0, 11, 6};
  KspLimits limits;
  limits.time_budget_seconds = 1e-9;  // spent before the first check
  CountingSink s1(1);
  const Status dksp = DkspEnumerate(*g, q, 0, &s1, limits);
  EXPECT_EQ(dksp.code(), StatusCode::kDeadlineExceeded) << dksp;
  // OnePass reads the clock every 1024 heap pops; K12 at k = 6 needs far
  // more than that.
  CountingSink s2(1);
  const Status onepass = OnePassEnumerate(*g, q, 0, &s2, limits);
  EXPECT_EQ(onepass.code(), StatusCode::kDeadlineExceeded) << onepass;

  // Both limits set: whichever fires first names itself.
  limits.time_budget_seconds = 3600;
  limits.max_paths = 5;
  CountingSink s3(1), s4(1);
  EXPECT_EQ(DkspEnumerate(*g, q, 0, &s3, limits).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(OnePassEnumerate(*g, q, 0, &s4, limits).code(),
            StatusCode::kResourceExhausted);
}

TEST(Ksp, UnreachableTargetYieldsNothing) {
  auto g = GeneratePath(6);
  CountingSink s1(1), s2(1);
  ASSERT_TRUE(DkspEnumerate(*g, {5, 0, 5}, 0, &s1, {}).ok());
  ASSERT_TRUE(OnePassEnumerate(*g, {5, 0, 5}, 0, &s2, {}).ok());
  EXPECT_EQ(s1.counts()[0], 0u);
  EXPECT_EQ(s2.counts()[0], 0u);
}

TEST(Ksp, InvalidQueriesRejected) {
  auto g = GeneratePath(6);
  CountingSink sink(1);
  EXPECT_FALSE(DkspEnumerate(*g, {0, 0, 3}, 0, &sink, {}).ok());
  EXPECT_FALSE(OnePassEnumerate(*g, {0, 9, 3}, 0, &sink, {}).ok());
}

}  // namespace
}  // namespace hcpath
