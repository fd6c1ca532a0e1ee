#include "core/similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/basic_enum.h"
#include "graph/generators.h"
#include "index/endpoint_cache.h"
#include "test_graphs.h"
#include "util/hash.h"
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

// Sketch-mode µ computed the straightforward way: every Γ set above 256
// entries is sketched by hashing all of its entries and keeping the 256
// smallest; pairs whose smaller set fits a sketch are counted exactly by
// probing. ComputeSimilarityMatrix must reproduce it bit for bit.
SimilarityMatrix ReferenceSketchMatrix(const Graph& g,
                                       const std::vector<PathQuery>& qs,
                                       const DistanceIndex& index) {
  constexpr size_t kSketch = 256;
  auto sketch = [&](const VertexDistMap& m) {
    std::vector<uint64_t> h;
    m.ForEach([&](VertexId v, Hop) { h.push_back(Mix64(v)); });
    if (h.size() > kSketch) {
      std::nth_element(h.begin(), h.begin() + kSketch - 1, h.end());
      h.resize(kSketch);
    }
    std::sort(h.begin(), h.end());
    return h;
  };
  auto overlap = [&](const VertexDistMap& a, const std::vector<uint64_t>& sa,
                     const VertexDistMap& b, const std::vector<uint64_t>& sb) {
    if (std::min(a.size(), b.size()) <= kSketch) {
      const VertexDistMap& small = a.size() <= b.size() ? a : b;
      const VertexDistMap& big = a.size() <= b.size() ? b : a;
      if (small.empty()) return 0.0;
      size_t inter = 0;
      small.ForEach([&](VertexId v, Hop) { inter += big.Contains(v); });
      return static_cast<double>(inter) / static_cast<double>(small.size());
    }
    const uint64_t tau = std::min(sa.back(), sb.back());
    // Both sketches are complete samples of their sets below tau.
    const auto a_end = std::upper_bound(sa.begin(), sa.end(), tau);
    const auto b_end = std::upper_bound(sb.begin(), sb.end(), tau);
    std::vector<uint64_t> shared;
    std::set_intersection(sa.begin(), a_end, sb.begin(), b_end,
                          std::back_inserter(shared));
    const size_t denom = std::min(a_end - sa.begin(), b_end - sb.begin());
    return static_cast<double>(shared.size()) / static_cast<double>(denom);
  };
  std::vector<std::vector<uint64_t>> fwd, bwd;
  for (size_t i = 0; i < qs.size(); ++i) {
    fwd.push_back(sketch(index.FromSourceMap(i)));
    bwd.push_back(sketch(index.ToTargetMap(i)));
  }
  SimilarityMatrix sim(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    for (size_t j = i + 1; j < qs.size(); ++j) {
      const double f = overlap(index.FromSourceMap(i), fwd[i],
                               index.FromSourceMap(j), fwd[j]);
      const double b =
          overlap(index.ToTargetMap(i), bwd[i], index.ToTargetMap(j), bwd[j]);
      sim.Set(i, j, f <= 0.0 || b <= 0.0 ? 0.0 : 2.0 * f * b / (f + b));
    }
  }
  return sim;
}

// Random queries with k in [1, 4] on a 6000-vertex graph of average
// out-degree 5: their Γ sets
// range from a handful of entries through hash-backed sets of a few
// hundred to dense sets (>= |V|/8 = 750 entries).
std::vector<PathQuery> MixedGammaBatch(VertexId nv) {
  std::vector<PathQuery> qs;
  Rng qrng(19);
  while (qs.size() < 40) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(nv));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(nv));
    if (s != t) qs.push_back({s, t, static_cast<Hop>(1 + qrng.NextBounded(4))});
  }
  return qs;
}

struct GammaMix {
  size_t single = 0, small = 0, hashed_large = 0, view = 0, owning_dense = 0;
  size_t repeated_pairs = 0;  ///< ordered pairs of identical queries
};

// Builds the batch index, through `cache` when given (its hits are owning
// dense copies), and checks ComputeSimilarityMatrix against the reference
// cell by cell. Returns the kinds of Γ sets the batch held.
GammaMix ExpectSketchMatchesReference(const Graph& g,
                                      const std::vector<PathQuery>& qs,
                                      ThreadPool* pool,
                                      SimilarityScratch* scratch,
                                      EndpointDistanceCache* cache = nullptr) {
  std::vector<VertexId> sources, targets;
  std::vector<Hop> hops;
  for (const PathQuery& q : qs) {
    sources.push_back(q.s);
    targets.push_back(q.t);
    hops.push_back(static_cast<Hop>(q.k));
  }
  DistanceIndex index;
  index.Build(g, sources, targets, hops, nullptr, cache);
  GammaMix mix;
  for (size_t i = 0; i < qs.size(); ++i) {
    for (const VertexDistMap* m :
         {&index.FromSourceMap(i), &index.ToTargetMap(i)}) {
      if (m->size() <= 256) {
        ++(m->size() == 1 ? mix.single : mix.small);
      } else if (m->IsView()) {
        ++mix.view;
      } else if (m->IsDense()) {
        ++mix.owning_dense;
      } else {
        ++mix.hashed_large;
      }
    }
  }

  const SimilarityMatrix want = ReferenceSketchMatrix(g, qs, index);
  const SimilarityMatrix got = ComputeSimilarityMatrix(
      g, qs, index, SimilarityMode::kSketch, pool, scratch);
  size_t nonzero = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    for (size_t j = 0; j < qs.size(); ++j) {
      EXPECT_EQ(got.Get(i, j), want.Get(i, j)) << "pair " << i << "," << j;
      nonzero += i != j && want.Get(i, j) > 0.0;
      if (i != j && qs[i] == qs[j]) {
        ++mix.repeated_pairs;
        EXPECT_EQ(got.Get(i, j), 1.0) << "repeated pair " << i << "," << j;
      }
    }
  }
  EXPECT_GT(nonzero, 0u);
  return mix;
}

/// `qs` with about `clone_pct` percent of its queries after the first
/// replaced by copies of an earlier query: whole copies, and copies of
/// only the source and k or only the target and k, so that some pairs
/// share one direction's Γ set and not the other's.
std::vector<PathQuery> WithClones(std::vector<PathQuery> qs, int clone_pct,
                                  uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 1; i < qs.size(); ++i) {
    if (static_cast<int>(rng.NextBounded(100)) >= clone_pct) continue;
    const PathQuery src = qs[rng.NextBounded(i)];
    PathQuery& q = qs[i];
    const uint64_t kind = rng.NextBounded(3);
    if (kind == 1 && src.s != q.t) {
      q = {src.s, q.t, src.k};
    } else if (kind == 2 && src.t != q.s) {
      q = {q.s, src.t, src.k};
    } else {
      q = src;
    }
  }
  return qs;
}

/// Clone shares of the repeat-heavy batches: none, half, nine in ten.
constexpr int kClonePcts[] = {0, 50, 90};

// Premise: the batch holds dense and hash-backed sets above one sketch,
// so both sketch builders run, and small sets that are counted exactly.
void ExpectMixedGammaSets(const GammaMix& mix) {
  EXPECT_GT(mix.view + mix.owning_dense, 0u);
  EXPECT_GT(mix.hashed_large, 0u);
  EXPECT_GT(mix.small, 0u);
}

// Each clone share runs on one recycled scratch, so a batch's distinct-set
// tables also start from a larger or smaller batch's leftovers.
void ExpectSketchMatchesReferenceOnMixedBatch(ThreadPool* pool) {
  Rng rng(17);
  auto g = GenerateErdosRenyi(6000, 30000, rng);
  ASSERT_TRUE(g.ok());
  SimilarityScratch scratch;
  for (int clone_pct : kClonePcts) {
    SCOPED_TRACE("clones=" + std::to_string(clone_pct) + "%");
    const std::vector<PathQuery> qs =
        WithClones(MixedGammaBatch(g->NumVertices()), clone_pct, 3);
    const GammaMix mix = ExpectSketchMatchesReference(*g, qs, pool, &scratch);
    if (clone_pct == 0) {
      ExpectMixedGammaSets(mix);
    } else {
      EXPECT_GT(mix.repeated_pairs, 0u);
    }
  }
}

TEST(Similarity, SketchMatchesHashEveryEntryReference) {
  ExpectSketchMatchesReferenceOnMixedBatch(nullptr);
}

TEST(Similarity, SketchMatchesHashEveryEntryReferencePooled) {
  ThreadPool pool(2);
  ExpectSketchMatchesReferenceOnMixedBatch(&pool);
}

// 150 queries, so membership masks span three words and |Q| is not a
// multiple of 64. MixedGammaBatch's reach mix, plus endpoints with no
// edges in their search direction: their Γ set is the endpoint alone.
// (An index map always holds its endpoint, so no Γ set is empty.)
std::vector<PathQuery> WideGammaBatch(const Graph& g) {
  std::vector<PathQuery> qs;
  Rng qrng(23);
  const VertexId nv = static_cast<VertexId>(g.NumVertices());
  size_t isolated = 0;
  while (qs.size() < 150) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(nv));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(nv));
    if (s == t) continue;
    if (isolated < 6 && g.OutDegree(s) != 0) continue;
    isolated += g.OutDegree(s) == 0;
    qs.push_back({s, t, static_cast<Hop>(1 + qrng.NextBounded(4))});
  }
  return qs;
}

// The batch is indexed through a cache warmed by its first 50 queries, so
// dense sets come both as MS-BFS views and as owning cache copies.
void ExpectWideBatchMatchesReference(ThreadPool* pool) {
  Rng rng(17);
  auto g = GenerateErdosRenyi(6000, 30000, rng);
  ASSERT_TRUE(g.ok());
  for (int clone_pct : kClonePcts) {
    SCOPED_TRACE("clones=" + std::to_string(clone_pct) + "%");
    const std::vector<PathQuery> qs =
        WithClones(WideGammaBatch(*g), clone_pct, 5);
    EndpointDistanceCache cache;
    const std::vector<PathQuery> warm(qs.begin(), qs.begin() + 50);
    SimilarityScratch warm_scratch;
    ExpectSketchMatchesReference(*g, warm, pool, &warm_scratch, &cache);
    SimilarityScratch scratch;
    const GammaMix mix =
        ExpectSketchMatchesReference(*g, qs, pool, &scratch, &cache);
    if (clone_pct > 0) {
      EXPECT_GT(mix.repeated_pairs, 0u);
      continue;
    }
    EXPECT_GT(mix.single, 0u);
    EXPECT_GT(mix.small, 0u);
    EXPECT_GT(mix.hashed_large, 0u);
    EXPECT_GT(mix.view, 0u);
    EXPECT_GT(mix.owning_dense, 0u);
  }
}

TEST(Similarity, WideBatchMatchesReference) {
  ExpectWideBatchMatchesReference(nullptr);
}

TEST(Similarity, WideBatchMatchesReferencePooled) {
  ThreadPool pool(2);
  ExpectWideBatchMatchesReference(&pool);
}

// The hash order depends on |V| alone. One recycled scratch serves graphs
// of |V| = a, b, a in turn (the two a-sized graphs differ in content): the
// order is rebuilt when |V| changes and shared between equal sizes.
TEST(Similarity, RecycledScratchFollowsVertexCount) {
  SimilarityScratch scratch;
  const std::pair<VertexId, uint64_t> graphs[] = {
      {6000, 17}, {7000, 29}, {6000, 31}};
  for (const auto& [nv, seed] : graphs) {
    SCOPED_TRACE("|V|=" + std::to_string(nv) + " seed=" +
                 std::to_string(seed));
    Rng rng(seed);
    auto g = GenerateErdosRenyi(nv, 5 * static_cast<uint64_t>(nv), rng);
    ASSERT_TRUE(g.ok());
    ExpectMixedGammaSets(ExpectSketchMatchesReference(
        *g, MixedGammaBatch(g->NumVertices()), nullptr, &scratch));
  }
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
