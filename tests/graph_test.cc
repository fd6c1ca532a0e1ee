#include "graph/graph.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace hcpath {
namespace {

Graph Triangle() {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  return *b.Build();
}

TEST(Graph, BasicCounts) {
  Graph g = Triangle();
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(Graph, OutAndInNeighbors) {
  Graph g = Triangle();
  ASSERT_EQ(g.OutNeighbors(0).size(), 1u);
  EXPECT_EQ(g.OutNeighbors(0)[0], 1u);
  ASSERT_EQ(g.InNeighbors(0).size(), 1u);
  EXPECT_EQ(g.InNeighbors(0)[0], 2u);
}

TEST(Graph, NeighborsByDirection) {
  Graph g = Triangle();
  EXPECT_EQ(g.Neighbors(0, Direction::kForward)[0], 1u);
  EXPECT_EQ(g.Neighbors(0, Direction::kBackward)[0], 2u);
}

TEST(Graph, Degrees) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 0);
  Graph g = *b.Build();
  EXPECT_EQ(g.OutDegree(0), 3u);
  EXPECT_EQ(g.InDegree(0), 1u);
  EXPECT_EQ(g.OutDegree(3), 0u);
  EXPECT_EQ(g.InDegree(3), 1u);
}

TEST(Graph, HasEdge) {
  Graph g = Triangle();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(Graph, NeighborListsAreSorted) {
  GraphBuilder b;
  b.AddEdge(0, 5);
  b.AddEdge(0, 2);
  b.AddEdge(0, 9);
  Graph g = *b.Build();
  auto nbrs = g.OutNeighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, EdgesRoundTrip) {
  Graph g = Triangle();
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (std::pair<VertexId, VertexId>{0, 1}));
}

TEST(Graph, ReverseDirectionHelper) {
  EXPECT_EQ(Reverse(Direction::kForward), Direction::kBackward);
  EXPECT_EQ(Reverse(Direction::kBackward), Direction::kForward);
}

TEST(GraphBuilder, DropsSelfLoopsAndDuplicates) {
  GraphBuilder b;
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  Graph g = *b.Build();
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(b.self_loops_dropped(), 2u);
  EXPECT_EQ(b.duplicates_dropped(), 1u);
}

TEST(GraphBuilder, EmptyBuilderYieldsSingleVertex) {
  GraphBuilder b;
  Graph g = *b.Build();
  EXPECT_EQ(g.NumVertices(), 1u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphBuilder, DeclaredVertexCountWithIsolatedTail) {
  GraphBuilder b(10);
  b.AddEdge(0, 1);
  Graph g = *b.Build();
  EXPECT_EQ(g.NumVertices(), 10u);
  EXPECT_EQ(g.OutDegree(9), 0u);
}

TEST(GraphBuilder, GrowsBeyondDeclaredCount) {
  GraphBuilder b(2);
  b.AddEdge(5, 6);
  Graph g = *b.Build();
  EXPECT_EQ(g.NumVertices(), 7u);
}

TEST(Graph, MemoryBytesNonZero) {
  Graph g = Triangle();
  EXPECT_GT(g.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace hcpath
