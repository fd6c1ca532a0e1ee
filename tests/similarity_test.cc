#include "core/similarity.h"

#include <gtest/gtest.h>

#include "core/basic_enum.h"
#include "graph/generators.h"
#include "test_graphs.h"
#include "util/thread_pool.h"

namespace hcpath {
namespace {

SimilarityMatrix MatrixFor(const Graph& g,
                           const std::vector<PathQuery>& queries,
                           SimilarityMode mode, ThreadPool* pool = nullptr) {
  DistanceIndex index;
  BuildBatchIndex(g, queries, &index, nullptr, pool);
  return ComputeSimilarityMatrix(g, queries, index, mode, pool);
}

TEST(Similarity, IdenticalQueriesHaveMuOne) {
  Graph g = PaperFigure1Graph();
  std::vector<PathQuery> qs = {{0, 11, 5}, {0, 11, 5}};
  SimilarityMatrix sim = MatrixFor(g, qs, SimilarityMode::kExact);
  EXPECT_DOUBLE_EQ(sim.Get(0, 1), 1.0);
}

TEST(Similarity, SubsetQueriesHaveMuOne) {
  // Property (2) of Def 4.5: if P(qA) ⊆ P(qB), µ = 1. A query with smaller
  // k at the same endpoints has subset reach sets.
  Graph g = PaperFigure1Graph();
  std::vector<PathQuery> qs = {{0, 11, 3}, {0, 11, 5}};
  SimilarityMatrix sim = MatrixFor(g, qs, SimilarityMode::kExact);
  EXPECT_DOUBLE_EQ(sim.Get(0, 1), 1.0);
}

TEST(Similarity, DisjointNeighborhoodsHaveMuZero) {
  // Two far-apart segments of a long path graph.
  auto g = GeneratePath(40);
  std::vector<PathQuery> qs = {{0, 3, 3}, {30, 33, 3}};
  SimilarityMatrix sim = MatrixFor(*g, qs, SimilarityMode::kExact);
  EXPECT_DOUBLE_EQ(sim.Get(0, 1), 0.0);
}

TEST(Similarity, MatrixIsSymmetricAndBounded) {
  Rng rng(3);
  auto g = GenerateBarabasiAlbert(500, 4, rng);
  Rng qrng(5);
  std::vector<PathQuery> qs;
  while (qs.size() < 12) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(500));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(500));
    if (s != t) qs.push_back({s, t, 4});
  }
  SimilarityMatrix sim = MatrixFor(*g, qs, SimilarityMode::kExact);
  for (size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(sim.Get(i, i), 1.0);
    for (size_t j = 0; j < qs.size(); ++j) {
      EXPECT_DOUBLE_EQ(sim.Get(i, j), sim.Get(j, i));
      EXPECT_GE(sim.Get(i, j), 0.0);
      EXPECT_LE(sim.Get(i, j), 1.0);
    }
  }
}

TEST(Similarity, PaperExampleQ3Q4AreMaximallySimilar) {
  // Example 4.1: µ(q3, q4) = 1 and {q3,q4} clusters apart from {q0,q1,q2}.
  Graph g = PaperFigure1Graph();
  auto qs = PaperFigure1Queries();
  SimilarityMatrix sim = MatrixFor(g, qs, SimilarityMode::kExact);
  EXPECT_DOUBLE_EQ(sim.Get(3, 4), 1.0);
  EXPECT_GT(sim.Get(0, 1), 0.5);   // q0, q1 strongly overlap
  EXPECT_LT(sim.Get(0, 3), sim.Get(0, 1));
}

TEST(Similarity, SketchApproximatesExact) {
  Rng rng(7);
  auto g = GenerateBarabasiAlbert(2000, 5, rng);
  Rng qrng(9);
  std::vector<PathQuery> qs;
  // Mix of clones (high µ) and random pairs (low µ).
  VertexId hub_s = static_cast<VertexId>(qrng.NextBounded(2000));
  VertexId hub_t = static_cast<VertexId>(qrng.NextBounded(2000));
  if (hub_s == hub_t) hub_t = (hub_t + 1) % 2000;
  for (int i = 0; i < 5; ++i) qs.push_back({hub_s, hub_t, 5});
  while (qs.size() < 10) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(2000));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(2000));
    if (s != t) qs.push_back({s, t, 5});
  }
  SimilarityMatrix exact = MatrixFor(*g, qs, SimilarityMode::kExact);
  SimilarityMatrix sketch = MatrixFor(*g, qs, SimilarityMode::kSketch);
  for (size_t i = 0; i < qs.size(); ++i) {
    for (size_t j = i + 1; j < qs.size(); ++j) {
      EXPECT_NEAR(sketch.Get(i, j), exact.Get(i, j), 0.25)
          << "pair " << i << "," << j;
    }
  }
  EXPECT_NEAR(sketch.Average(), exact.Average(), 0.1);
}

TEST(Similarity, AverageOfCloneSetIsOne) {
  Graph g = PaperFigure1Graph();
  std::vector<PathQuery> qs(4, PathQuery{0, 11, 5});
  SimilarityMatrix sim = MatrixFor(g, qs, SimilarityMode::kExact);
  EXPECT_DOUBLE_EQ(sim.Average(), 1.0);
}

// A batch in which every pair's smaller Γ set fits in one sketch: one
// query reaches far in both directions, every other query stays under
// kSketchSize (256) entries. Sketch mode then scores every pair exactly.
std::vector<PathQuery> SmallGammaBatch(const Graph& g) {
  std::vector<PathQuery> qs = {{0, 1, 6}};
  Rng qrng(13);
  while (qs.size() < 16) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(g.NumVertices()));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(g.NumVertices()));
    if (s != t) qs.push_back({s, t, 2});
  }
  return qs;
}

void ExpectSketchEqualsExactOnSmallSets(ThreadPool* pool) {
  Rng rng(11);
  auto g = GenerateErdosRenyi(3000, 9000, rng);
  ASSERT_TRUE(g.ok());
  const std::vector<PathQuery> qs = SmallGammaBatch(*g);

  // Check the premise: query 0 has a large set in both directions, every
  // other set is small.
  DistanceIndex index;
  BuildBatchIndex(*g, qs, &index, nullptr);
  EXPECT_GT(index.FromSourceMap(0).size(), 256u);
  EXPECT_GT(index.ToTargetMap(0).size(), 256u);
  for (size_t i = 1; i < qs.size(); ++i) {
    ASSERT_LE(index.FromSourceMap(i).size(), 256u) << "query " << i;
    ASSERT_LE(index.ToTargetMap(i).size(), 256u) << "query " << i;
  }

  const SimilarityMatrix exact = MatrixFor(*g, qs, SimilarityMode::kExact);
  const SimilarityMatrix sketch =
      MatrixFor(*g, qs, SimilarityMode::kSketch, pool);
  size_t nonzero_large_pairs = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    for (size_t j = 0; j < qs.size(); ++j) {
      EXPECT_EQ(sketch.Get(i, j), exact.Get(i, j)) << "pair " << i << "," << j;
    }
    if (i != 0 && exact.Get(0, i) > 0.0) ++nonzero_large_pairs;
  }
  // The small-vs-large pairs must not all be trivially zero.
  EXPECT_GT(nonzero_large_pairs, 0u);
}

TEST(Similarity, SketchEqualsExactWhenEverySmallerSetFitsASketch) {
  ExpectSketchEqualsExactOnSmallSets(nullptr);
}

TEST(Similarity, SketchEqualsExactWhenEverySmallerSetFitsASketchPooled) {
  ThreadPool pool(2);
  ExpectSketchEqualsExactOnSmallSets(&pool);
}

TEST(OverlapCoefficient, HandComputed) {
  std::vector<VertexId> a = {1, 2, 3, 4};
  std::vector<VertexId> b = {3, 4, 5};
  EXPECT_DOUBLE_EQ(OverlapCoefficient(a, b), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(a, {}), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(a, a), 1.0);
}

}  // namespace
}  // namespace hcpath
