#include "core/sharing_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace hcpath {
namespace {

using NodeId = SharingGraph::NodeId;

TEST(SharingGraph, AddNodesAndEdges) {
  SharingGraph psi;
  NodeId a = psi.AddNode(10, 3, true);
  NodeId b = psi.AddNode(20, 2, false);
  EXPECT_TRUE(psi.TryAddEdge(b, a));  // a uses b
  EXPECT_EQ(psi.NumNodes(), 2u);
  EXPECT_EQ(psi.NumEdges(), 1u);
  EXPECT_EQ(psi.node(a).deps, (std::vector<NodeId>{b}));
  EXPECT_EQ(psi.node(b).users, (std::vector<NodeId>{a}));
}

TEST(SharingGraph, DuplicateEdgeIsIdempotent) {
  SharingGraph psi;
  NodeId a = psi.AddNode(1, 3, true);
  NodeId b = psi.AddNode(2, 2, false);
  EXPECT_TRUE(psi.TryAddEdge(b, a));
  EXPECT_TRUE(psi.TryAddEdge(b, a));
  EXPECT_EQ(psi.NumEdges(), 1u);
}

TEST(SharingGraph, CycleEdgeIsRejected) {
  SharingGraph psi;
  NodeId a = psi.AddNode(1, 3, false);
  NodeId b = psi.AddNode(2, 2, false);
  NodeId c = psi.AddNode(3, 1, false);
  ASSERT_TRUE(psi.TryAddEdge(a, b));  // b uses a
  ASSERT_TRUE(psi.TryAddEdge(b, c));  // c uses b
  EXPECT_FALSE(psi.TryAddEdge(c, a));  // a uses c -> cycle
  EXPECT_EQ(psi.cycle_edges_skipped(), 1u);
  EXPECT_FALSE(psi.TryAddEdge(a, a));  // self loop
}

TEST(SharingGraph, TopologicalOrderRespectsDeps) {
  SharingGraph psi;
  NodeId a = psi.AddNode(1, 3, true);
  NodeId b = psi.AddNode(2, 2, false);
  NodeId c = psi.AddNode(3, 1, false);
  psi.TryAddEdge(c, b);  // b uses c
  psi.TryAddEdge(b, a);  // a uses b
  auto order = psi.TopologicalOrder();
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&](NodeId id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos(c), pos(b));
  EXPECT_LT(pos(b), pos(a));
}

TEST(SharingGraph, DepAtKeepsLargestBudgetPerVertex) {
  SharingGraph psi;
  NodeId user = psi.AddNode(1, 5, true);
  NodeId small = psi.AddNode(7, 2, false);
  NodeId big = psi.AddNode(7, 4, false);
  // Both anchored at vertex 7 (can happen across anchor displacement).
  ASSERT_TRUE(psi.TryAddEdge(small, user));
  ASSERT_TRUE(psi.TryAddEdge(big, user));
  const auto& dep_at = psi.node(user).dep_at;
  ASSERT_EQ(dep_at.size(), 1u);
  EXPECT_EQ(dep_at[0].first, 7u);
  EXPECT_EQ(dep_at[0].second, big);
}

TEST(SharingGraph, SlackPropagationShiftsBySpliceDepth) {
  SharingGraph psi;
  NodeId root = psi.AddNode(0, 3, true);  // budget 3
  psi.mutable_node(root).slacks.push_back({0, 7});  // query 0, slack k=7
  NodeId dom = psi.AddNode(5, 2, false);  // budget 2
  ASSERT_TRUE(psi.TryAddEdge(dom, root));
  psi.PropagateSlacks();
  // Min splice depth = 3 - 2 = 1, so dom inherits slack 7 - 1 = 6.
  ASSERT_EQ(psi.node(dom).slacks.size(), 1u);
  EXPECT_EQ(psi.node(dom).slacks[0].query, 0u);
  EXPECT_EQ(psi.node(dom).slacks[0].slack, 6);
}

TEST(SharingGraph, SlackPropagationKeepsMaxPerQuery) {
  SharingGraph psi;
  NodeId r1 = psi.AddNode(0, 3, true);
  NodeId r2 = psi.AddNode(1, 2, true);
  psi.mutable_node(r1).slacks.push_back({0, 7});
  psi.mutable_node(r2).slacks.push_back({0, 4});
  NodeId dom = psi.AddNode(5, 2, false);
  ASSERT_TRUE(psi.TryAddEdge(dom, r1));
  ASSERT_TRUE(psi.TryAddEdge(dom, r2));
  psi.PropagateSlacks();
  ASSERT_EQ(psi.node(dom).slacks.size(), 1u);
  // From r1: 7 - 1 = 6; from r2: 4 - 0 = 4; keep 6.
  EXPECT_EQ(psi.node(dom).slacks[0].slack, 6);
}

TEST(SharingGraph, SlackPropagationIsTransitive) {
  SharingGraph psi;
  NodeId root = psi.AddNode(0, 4, true);
  psi.mutable_node(root).slacks.push_back({0, 8});
  NodeId mid = psi.AddNode(1, 3, false);
  NodeId leaf = psi.AddNode(2, 1, false);
  ASSERT_TRUE(psi.TryAddEdge(mid, root));
  ASSERT_TRUE(psi.TryAddEdge(leaf, mid));
  psi.PropagateSlacks();
  // root -> mid: 8 - (4-3) = 7; mid -> leaf: 7 - (3-1) = 5.
  ASSERT_EQ(psi.node(leaf).slacks.size(), 1u);
  EXPECT_EQ(psi.node(leaf).slacks[0].slack, 5);
}

TEST(SharingGraph, LargerBudgetDepGetsNoNegativeShift) {
  SharingGraph psi;
  NodeId user = psi.AddNode(0, 2, true);
  psi.mutable_node(user).slacks.push_back({0, 5});
  NodeId dep = psi.AddNode(0, 4, false);  // bigger budget (copy-filter case)
  ASSERT_TRUE(psi.TryAddEdge(dep, user));
  psi.PropagateSlacks();
  ASSERT_EQ(psi.node(dep).slacks.size(), 1u);
  EXPECT_EQ(psi.node(dep).slacks[0].slack, 5);  // shift clamped at 0
}

/// The quadratic propagation PropagateSlacks replaced: for every edge,
/// scan the dep's entries front to back for each user entry.
void PropagateSlacksByScan(SharingGraph& psi) {
  std::vector<NodeId> topo = psi.TopologicalOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const SharingGraph::Node& user = psi.node(*it);
    for (NodeId dep_id : user.deps) {
      SharingGraph::Node& dep = psi.mutable_node(dep_id);
      const int shift = std::max(
          0, static_cast<int>(user.budget) - static_cast<int>(dep.budget));
      for (const SharingGraph::SlackEntry& se : user.slacks) {
        const int shifted = se.slack - shift;
        bool merged = false;
        for (SharingGraph::SlackEntry& existing : dep.slacks) {
          if (existing.query == se.query) {
            existing.slack = std::max(existing.slack, shifted);
            merged = true;
            break;
          }
        }
        if (!merged) dep.slacks.push_back({se.query, shifted});
      }
    }
  }
}

// Random DAGs against the scan: several users per dep, each query seeded
// on more than one root so it reaches a dep along different paths, and
// some nodes seeded with a repeated query. Every node's slacks must match
// in order and value.
TEST(SharingGraph, SlackPropagationMatchesQuadraticScan) {
  Rng rng(1988);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    SharingGraph psi;
    const size_t num_nodes = 2 + rng.NextBounded(40);
    const size_t num_roots = 1 + rng.NextBounded(num_nodes);
    const uint32_t num_queries = 1 + static_cast<uint32_t>(rng.NextBounded(24));
    for (size_t i = 0; i < num_nodes; ++i) {
      const NodeId id = psi.AddNode(static_cast<VertexId>(rng.NextBounded(30)),
                                    static_cast<Hop>(1 + rng.NextBounded(6)),
                                    i < num_roots);
      const size_t seeds = i < num_roots ? 1 + rng.NextBounded(6)
                                         : rng.NextBounded(2);
      for (size_t e = 0; e < seeds; ++e) {
        psi.mutable_node(id).slacks.push_back(
            {static_cast<uint32_t>(rng.NextBounded(num_queries)),
             static_cast<int>(1 + rng.NextBounded(12))});
      }
    }
    // Deps come from a small pool, so each one collects several users.
    const size_t num_deps = 1 + rng.NextBounded(num_nodes);
    const size_t num_edges = rng.NextBounded(4 * num_nodes);
    for (size_t e = 0; e < num_edges; ++e) {
      psi.TryAddEdge(static_cast<NodeId>(rng.NextBounded(num_deps)),
                     static_cast<NodeId>(rng.NextBounded(num_nodes)));
    }
    SharingGraph want = psi;
    PropagateSlacksByScan(want);
    psi.PropagateSlacks();
    for (NodeId id = 0; id < psi.NumNodes(); ++id) {
      const auto& got = psi.node(id).slacks;
      const auto& exp = want.node(id).slacks;
      ASSERT_EQ(got.size(), exp.size()) << "node " << id;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].query, exp[i].query) << "node " << id << " #" << i;
        EXPECT_EQ(got[i].slack, exp[i].slack) << "node " << id << " #" << i;
      }
    }
  }
}

}  // namespace
}  // namespace hcpath
