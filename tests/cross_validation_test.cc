// The central correctness suite: on parameterized sweeps of generator,
// size, hop constraint, batch size, gamma and pruning mode, every
// production algorithm must return exactly the brute-force oracle's path
// sets.

#include <gtest/gtest.h>

#include <tuple>

#include "hcpath/hcpath.h"

namespace hcpath {
namespace {

struct SweepCase {
  const char* generator;
  uint32_t n;
  uint32_t edges_or_degree;
  int k;
  int num_queries;
  double gamma;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string name = std::string(c.generator) + "_n" + std::to_string(c.n) +
                     "_k" + std::to_string(c.k) + "_q" +
                     std::to_string(c.num_queries) + "_g" +
                     std::to_string(static_cast<int>(c.gamma * 10));
  return name;
}

Graph MakeGraph(const SweepCase& c, uint64_t seed) {
  Rng rng(seed);
  if (std::string(c.generator) == "er") {
    return *GenerateErdosRenyi(c.n, c.n * c.edges_or_degree, rng);
  }
  if (std::string(c.generator) == "ba") {
    return *GenerateBarabasiAlbert(c.n, c.edges_or_degree, rng);
  }
  if (std::string(c.generator) == "grid") {
    return *GenerateGrid(c.n, c.n);
  }
  Rng r2(seed);
  return *GenerateLayeredDag(6, c.n, c.edges_or_degree, r2);
}

class CrossValidation : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CrossValidation, AllAlgorithmsMatchOracle) {
  const SweepCase& c = GetParam();
  Graph g = MakeGraph(c, 1234 + c.n);

  // Mix of clone, near-duplicate and random queries to exercise sharing.
  Rng qrng(77);
  std::vector<PathQuery> queries;
  const VertexId nv = g.NumVertices();
  while (queries.size() < static_cast<size_t>(c.num_queries)) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(nv));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(nv));
    if (s == t) continue;
    queries.push_back({s, t, c.k});
    // Duplicate some queries to create guaranteed sharing.
    if (queries.size() < static_cast<size_t>(c.num_queries) &&
        qrng.NextBernoulli(0.3)) {
      queries.push_back({s, t, std::max(1, c.k - 1)});
    }
  }

  std::vector<std::vector<std::vector<VertexId>>> oracle;
  for (const PathQuery& q : queries) {
    oracle.push_back(BruteForcePaths(g, q)->ToSortedVectors());
  }

  BatchPathEnumerator enumerator(g);
  for (Algorithm algo :
       {Algorithm::kPathEnum, Algorithm::kBasicEnum,
        Algorithm::kBasicEnumPlus, Algorithm::kBatchEnum,
        Algorithm::kBatchEnumPlus}) {
    BatchOptions opt;
    opt.algorithm = algo;
    opt.gamma = c.gamma;
    CollectingSink sink(queries.size());
    auto result = enumerator.Run(queries, opt, &sink);
    ASSERT_TRUE(result.ok()) << result.status();
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(sink.paths(i).ToSortedVectors(), oracle[i])
          << AlgorithmName(algo) << " wrong on query " << i << " "
          << queries[i].ToString();
      EXPECT_EQ(result->path_counts[i], oracle[i].size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossValidation,
    ::testing::Values(
        SweepCase{"er", 40, 6, 3, 6, 0.5},
        SweepCase{"er", 60, 6, 5, 10, 0.5},
        SweepCase{"er", 80, 4, 7, 8, 0.2},
        SweepCase{"er", 80, 4, 7, 8, 0.9},
        SweepCase{"ba", 100, 3, 4, 12, 0.5},
        SweepCase{"ba", 100, 3, 6, 12, 0.5},
        SweepCase{"ba", 200, 2, 5, 16, 0.3},
        SweepCase{"grid", 5, 0, 8, 6, 0.5},
        SweepCase{"dag", 8, 3, 6, 10, 0.5},
        SweepCase{"er", 50, 8, 4, 20, 0.5},
        SweepCase{"er", 50, 8, 4, 20, 1.0}),
    CaseName);

// Property sweep over k for a fixed graph: result counts must be
// monotonically non-decreasing in k and identical across algorithms.
class HopSweep : public ::testing::TestWithParam<int> {};

TEST_P(HopSweep, CountsMonotoneAndConsistent) {
  const int k = GetParam();
  Rng rng(5);
  Graph g = *GenerateErdosRenyi(70, 420, rng);
  PathQuery q{3, 9, k};
  auto oracle = BruteForcePaths(g, q);
  ASSERT_TRUE(oracle.ok());

  BatchPathEnumerator enumerator(g);
  BatchOptions opt;
  for (Algorithm algo : {Algorithm::kBasicEnum, Algorithm::kBatchEnumPlus}) {
    opt.algorithm = algo;
    auto result = enumerator.Run({q}, opt);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->path_counts[0], oracle->size());
  }
  if (k > 1) {
    PathQuery smaller{3, 9, k - 1};
    EXPECT_LE(BruteForcePaths(g, smaller)->size(), oracle->size());
  }
}

INSTANTIATE_TEST_SUITE_P(K1to7, HopSweep, ::testing::Range(1, 8));

// Permutation invariance: shuffling the batch must not change any result.
TEST(CrossValidationExtra, QueryOrderInvariance) {
  Rng rng(21);
  Graph g = *GenerateBarabasiAlbert(120, 3, rng);
  Rng qrng(22);
  std::vector<PathQuery> queries;
  while (queries.size() < 9) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(120));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(120));
    if (s != t) queries.push_back({s, t, 5});
  }
  BatchPathEnumerator enumerator(g);
  BatchOptions opt;
  opt.algorithm = Algorithm::kBatchEnumPlus;
  auto base = enumerator.Run(queries, opt);
  ASSERT_TRUE(base.ok());

  std::vector<size_t> perm = {4, 2, 8, 0, 6, 1, 7, 3, 5};
  std::vector<PathQuery> shuffled;
  for (size_t p : perm) shuffled.push_back(queries[p]);
  auto permuted = enumerator.Run(shuffled, opt);
  ASSERT_TRUE(permuted.ok());
  for (size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(permuted->path_counts[i], base->path_counts[perm[i]]);
  }
}

// Determinism: two runs with identical inputs give identical outputs.
TEST(CrossValidationExtra, DeterministicAcrossRuns) {
  Rng rng(31);
  Graph g = *GenerateErdosRenyi(90, 600, rng);
  std::vector<PathQuery> queries = {{0, 5, 5}, {1, 6, 5}, {0, 5, 5},
                                    {2, 7, 4}};
  BatchPathEnumerator enumerator(g);
  BatchOptions opt;
  opt.algorithm = Algorithm::kBatchEnum;
  CollectingSink a(4), b(4);
  ASSERT_TRUE(enumerator.Run(queries, opt, &a).ok());
  ASSERT_TRUE(enumerator.Run(queries, opt, &b).ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.paths(i).ToSortedVectors(), b.paths(i).ToSortedVectors());
  }
}

// Structural properties of every emitted path, enforced at the sink.
class PropertySink : public PathSink {
 public:
  PropertySink(const Graph& g, const std::vector<PathQuery>& queries)
      : g_(g), queries_(queries) {}
  void OnPath(size_t qi, PathView p) override {
    const PathQuery& q = queries_[qi];
    ASSERT_GE(p.size(), 2u);
    EXPECT_EQ(p.front(), q.s);
    EXPECT_EQ(p.back(), q.t);
    EXPECT_LE(p.size() - 1, static_cast<size_t>(q.k));
    EXPECT_TRUE(IsSimplePath(p));
    EXPECT_TRUE(PathExistsInGraph(g_, p));
  }

 private:
  const Graph& g_;
  const std::vector<PathQuery>& queries_;
};

TEST(CrossValidationExtra, EveryEmittedPathIsValid) {
  Rng rng(41);
  Graph g = *GenerateBarabasiAlbert(300, 4, rng);
  Rng qrng(43);
  std::vector<PathQuery> queries;
  while (queries.size() < 15) {
    VertexId s = static_cast<VertexId>(qrng.NextBounded(300));
    VertexId t = static_cast<VertexId>(qrng.NextBounded(300));
    if (s != t) queries.push_back({s, t, 6});
  }
  PropertySink sink(g, queries);
  BatchPathEnumerator enumerator(g);
  for (Algorithm algo : {Algorithm::kBasicEnumPlus,
                         Algorithm::kBatchEnumPlus}) {
    BatchOptions opt;
    opt.algorithm = algo;
    ASSERT_TRUE(enumerator.Run(queries, opt, &sink).ok());
  }
}

}  // namespace
}  // namespace hcpath
