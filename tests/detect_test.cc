#include "core/detect.h"

#include <gtest/gtest.h>

#include "core/basic_enum.h"
#include "test_graphs.h"

namespace hcpath {
namespace {

using NodeId = SharingGraph::NodeId;

struct DetectFixture {
  Graph g = PaperFigure1Graph();
  std::vector<PathQuery> queries = PaperFigure1Queries();
  DistanceIndex index;
  BatchOptions options;

  DetectFixture() { BuildBatchIndex(g, queries, &index, nullptr); }

  DetectionResult Run(Direction dir, const std::vector<size_t>& cluster) {
    std::vector<Hop> budgets;
    std::vector<bool> skip;
    for (size_t qi : cluster) {
      budgets.push_back(dir == Direction::kForward
                            ? queries[qi].ForwardBudget()
                            : queries[qi].BackwardBudget());
      skip.push_back(false);
    }
    return DetectCommonQueries(g, dir, queries, cluster, budgets, skip,
                               index, options, nullptr);
  }
};

TEST(Detect, PaperExampleForwardFindsDominatingQueries) {
  // Example 4.2 on cluster {q0, q1, q2}: roots q_{v0,3}, q_{v2,3}, q_{v5,3};
  // dominating queries q_{v1,2} (shared by all three) and q_{v4,2}
  // (shared by q0, q1) are detected.
  DetectFixture fx;
  DetectionResult r = fx.Run(Direction::kForward, {0, 1, 2});
  const SharingGraph& psi = r.psi;

  // 3 roots + 2 dominating nodes.
  ASSERT_EQ(psi.NumNodes(), 5u);
  int dominating = 0;
  NodeId at_v1 = SharingGraph::kNoNode, at_v4 = SharingGraph::kNoNode;
  for (NodeId id = 0; id < psi.NumNodes(); ++id) {
    if (!psi.node(id).is_root) {
      ++dominating;
      if (psi.node(id).vertex == 1) at_v1 = id;
      if (psi.node(id).vertex == 4) at_v4 = id;
    }
  }
  EXPECT_EQ(dominating, 2);
  ASSERT_NE(at_v1, SharingGraph::kNoNode);
  ASSERT_NE(at_v4, SharingGraph::kNoNode);
  EXPECT_EQ(psi.node(at_v1).budget, 2);
  EXPECT_EQ(psi.node(at_v4).budget, 2);
  EXPECT_EQ(psi.node(at_v1).users.size(), 3u);  // q0, q1, q2 roots
  EXPECT_EQ(psi.node(at_v4).users.size(), 2u);  // q0, q1 roots
}

TEST(Detect, PaperExampleBackwardDerivesDisplacedRoot) {
  // Fig 5(b): on Gr, q2's root q_{v12,2} serves the arrivals of q0/q1's
  // backward traversals at v12 (the q_{v12,1} sub-query).
  DetectFixture fx;
  DetectionResult r = fx.Run(Direction::kBackward, {0, 1, 2});
  const SharingGraph& psi = r.psi;
  // Roots at v11 (q0), v13 (q1), v12 (q2). The v12 root must have users.
  NodeId v12_root = SharingGraph::kNoNode;
  for (NodeId id = 0; id < psi.NumNodes(); ++id) {
    if (psi.node(id).vertex == 12 && psi.node(id).is_root) v12_root = id;
  }
  ASSERT_NE(v12_root, SharingGraph::kNoNode);
  EXPECT_GE(psi.node(v12_root).users.size(), 1u);
}

TEST(Detect, RootsDedupByVertexKeepMaxBudget) {
  DetectFixture fx;
  // Two queries from the same source with different k: one root, max hf.
  fx.queries = {{0, 11, 5}, {0, 13, 3}};
  BuildBatchIndex(fx.g, fx.queries, &fx.index, nullptr);
  DetectionResult r = fx.Run(Direction::kForward, {0, 1});
  int roots = 0;
  for (NodeId id = 0; id < r.psi.NumNodes(); ++id) {
    if (r.psi.node(id).is_root) {
      ++roots;
      EXPECT_EQ(r.psi.node(id).vertex, 0u);
      EXPECT_EQ(r.psi.node(id).budget, 3);  // max(⌈5/2⌉, ⌈3/2⌉)
      EXPECT_EQ(r.psi.node(id).attached_queries.size(), 2u);
    }
  }
  EXPECT_EQ(roots, 1);
  EXPECT_EQ(r.root_of[0], r.root_of[1]);
}

TEST(Detect, SkippedQueriesGetNoRoot) {
  DetectFixture fx;
  std::vector<size_t> cluster = {0, 1};
  std::vector<Hop> budgets = {3, 3};
  std::vector<bool> skip = {false, true};
  DetectionResult r =
      DetectCommonQueries(fx.g, Direction::kForward, fx.queries, cluster,
                          budgets, skip, fx.index, fx.options, nullptr);
  EXPECT_NE(r.root_of[0], SharingGraph::kNoNode);
  EXPECT_EQ(r.root_of[1], SharingGraph::kNoNode);
}

TEST(Detect, PsiIsAlwaysAcyclic) {
  DetectFixture fx;
  for (Direction dir : {Direction::kForward, Direction::kBackward}) {
    DetectionResult r = fx.Run(dir, {0, 1, 2, 3, 4});
    // TopologicalOrder CHECKs size == node count, i.e. acyclicity.
    EXPECT_EQ(r.psi.TopologicalOrder().size(), r.psi.NumNodes());
  }
}

TEST(Detect, SingletonClusterHasOnlyRoot) {
  DetectFixture fx;
  DetectionResult r = fx.Run(Direction::kForward, {2});
  EXPECT_EQ(r.psi.NumNodes(), 1u);
  EXPECT_TRUE(r.psi.node(0).is_root);
  EXPECT_EQ(r.psi.NumEdges(), 0u);
}

TEST(Detect, RootSlacksSeededWithQueryK) {
  DetectFixture fx;
  DetectionResult r = fx.Run(Direction::kForward, {0});
  ASSERT_EQ(r.psi.NumNodes(), 1u);
  ASSERT_EQ(r.psi.node(0).slacks.size(), 1u);
  EXPECT_EQ(r.psi.node(0).slacks[0].query, 0u);
  EXPECT_EQ(r.psi.node(0).slacks[0].slack, 5);
}

}  // namespace
}  // namespace hcpath
