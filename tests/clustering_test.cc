#include "core/clustering.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/basic_enum.h"
#include "test_graphs.h"
#include "util/rng.h"

namespace hcpath {
namespace {

TEST(Clustering, MergesOnlyAboveGamma) {
  SimilarityMatrix sim(4);
  sim.Set(0, 1, 0.9);
  sim.Set(2, 3, 0.85);
  sim.Set(0, 2, 0.1);
  auto clusters = ClusterQueries(sim, 0.5);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(clusters[1], (std::vector<size_t>{2, 3}));
}

TEST(Clustering, GammaOneKeepsSingletons) {
  SimilarityMatrix sim(3);
  sim.Set(0, 1, 0.99);
  auto clusters = ClusterQueries(sim, 1.0);
  EXPECT_EQ(clusters.size(), 3u);
}

TEST(Clustering, GammaZeroMergesConnectedQueries) {
  SimilarityMatrix sim(3);
  sim.Set(0, 1, 0.4);
  sim.Set(1, 2, 0.4);
  sim.Set(0, 2, 0.4);
  auto clusters = ClusterQueries(sim, 0.0);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].size(), 3u);
}

TEST(Clustering, AverageLinkageStopsChaining) {
  // 0-1 similar, 2 similar to 1 only; with average linkage and a high
  // threshold, 2 must not chain into {0,1} because δ({0,1},{2}) averages
  // in the dissimilar pair (0,2).
  SimilarityMatrix sim(3);
  sim.Set(0, 1, 0.95);
  sim.Set(1, 2, 0.8);
  sim.Set(0, 2, 0.0);
  auto clusters = ClusterQueries(sim, 0.7);
  // δ({0,1},{2}) = (0.8 + 0.0)/2 = 0.4 < 0.7 -> stays out.
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(clusters[1], (std::vector<size_t>{2}));
}

TEST(Clustering, EveryQueryInExactlyOneCluster) {
  SimilarityMatrix sim(10);
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = i + 1; j < 10; ++j) {
      sim.Set(i, j, (i / 5 == j / 5) ? 0.9 : 0.05);
    }
  }
  auto clusters = ClusterQueries(sim, 0.5);
  std::vector<int> seen(10, 0);
  for (const auto& c : clusters) {
    for (size_t q : c) ++seen[q];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(clusters.size(), 2u);
}

TEST(Clustering, PaperExampleFormsTwoGroups) {
  // Example 4.1: with γ = 0.8, Q splits into {q0, q1, q2} and {q3, q4}.
  Graph g = PaperFigure1Graph();
  auto queries = PaperFigure1Queries();
  DistanceIndex index;
  BuildBatchIndex(g, queries, &index, nullptr);
  SimilarityMatrix sim =
      ComputeSimilarityMatrix(g, queries, index, SimilarityMode::kExact);
  auto clusters = ClusterQueries(sim, 0.8);
  ASSERT_EQ(clusters.size(), 2u);
  // Order-insensitive comparison.
  std::vector<std::vector<size_t>> expect = {{0, 1, 2}, {3, 4}};
  EXPECT_TRUE((clusters[0] == expect[0] && clusters[1] == expect[1]) ||
              (clusters[0] == expect[1] && clusters[1] == expect[0]))
      << "got " << clusters.size() << " clusters";
}

TEST(Clustering, SingleQueryTrivial) {
  SimilarityMatrix sim(1);
  auto clusters = ClusterQueries(sim, 0.5);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], (std::vector<size_t>{0}));
}

// Algorithm 2 by a full scan of every active pair per merge, O(|Q|^3):
// the first pair in row-major order with the largest δ above γ merges.
// ClusterQueries must return exactly these clusters.
std::vector<std::vector<size_t>> ScanClusterQueries(const SimilarityMatrix& sim,
                                                    double gamma) {
  const size_t n = sim.size();
  std::vector<std::vector<size_t>> clusters(n);
  for (size_t i = 0; i < n; ++i) clusters[i] = {i};
  if (n < 2) return clusters;
  std::vector<std::vector<double>> pair_sum(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) pair_sum[i][j] = sim.Get(i, j);
    }
  }
  std::vector<bool> active(n, true);
  while (true) {
    double best = gamma;
    size_t bi = n, bj = n;
    for (size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      for (size_t j = i + 1; j < n; ++j) {
        if (!active[j]) continue;
        double delta = pair_sum[i][j] /
                       (static_cast<double>(clusters[i].size()) *
                        static_cast<double>(clusters[j].size()));
        if (delta > best) {
          best = delta;
          bi = i;
          bj = j;
        }
      }
    }
    if (bi == n) break;
    clusters[bi].insert(clusters[bi].end(), clusters[bj].begin(),
                        clusters[bj].end());
    clusters[bj].clear();
    active[bj] = false;
    for (size_t k = 0; k < n; ++k) {
      if (!active[k] || k == bi) continue;
      pair_sum[bi][k] += pair_sum[bj][k];
      pair_sum[k][bi] = pair_sum[bi][k];
    }
  }
  std::vector<std::vector<size_t>> out;
  for (size_t i = 0; i < n; ++i) {
    if (active[i]) {
      std::sort(clusters[i].begin(), clusters[i].end());
      out.push_back(std::move(clusters[i]));
    }
  }
  return out;
}

TEST(Clustering, MatchesFullScanOnTiedMatrices) {
  // Values from {0, 0.25, 0.5, 0.75, 1} make ties between pairs, and
  // between a pair and γ, common; sizes straddle 64-query boundaries.
  Rng rng(29);
  size_t merged_batches = 0;
  for (size_t n : {1, 2, 3, 17, 64, 65, 130}) {
    for (int rep = 0; rep < 4; ++rep) {
      SimilarityMatrix sim(n);
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          sim.Set(i, j, 0.25 * static_cast<double>(rng.NextBounded(5)));
        }
      }
      for (double gamma : {0.0, 0.25, 0.5, 1.0}) {
        const auto want = ScanClusterQueries(sim, gamma);
        EXPECT_EQ(ClusterQueries(sim, gamma), want)
            << "n=" << n << " rep=" << rep << " gamma=" << gamma;
        merged_batches += want.size() < n;
      }
    }
  }
  EXPECT_GT(merged_batches, 0u);
}

}  // namespace
}  // namespace hcpath
