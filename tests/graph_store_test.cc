// GraphBuilder::ApplyUpdates batch semantics and the GraphStore snapshot
// lifecycle: epoch stamping, reader pinning, deferred GC.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_store.h"
#include "util/rng.h"

namespace hcpath {
namespace {

using Edge = std::pair<VertexId, VertexId>;

Graph LineGraph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  return *b.Build();
}

/// Full CSR content equality (ids, counts, adjacency in stored order).
void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumVertices(), b.NumVertices());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    const auto oa = a.OutNeighbors(v);
    const auto ob = b.OutNeighbors(v);
    ASSERT_EQ(std::vector<VertexId>(oa.begin(), oa.end()),
              std::vector<VertexId>(ob.begin(), ob.end()))
        << "out-adjacency of " << v;
    const auto ia = a.InNeighbors(v);
    const auto ib = b.InNeighbors(v);
    ASSERT_EQ(std::vector<VertexId>(ia.begin(), ia.end()),
              std::vector<VertexId>(ib.begin(), ib.end()))
        << "in-adjacency of " << v;
  }
}

TEST(ApplyUpdates, AddAndRemove) {
  const Graph base = LineGraph(5);  // 0->1->2->3->4
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Add(0, 3),
                                   EdgeUpdate::Remove(2, 3)};
  UpdateApplyStats stats;
  const Graph g = *GraphBuilder::ApplyUpdates(base, batch, &stats);
  EXPECT_TRUE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(2, 3));
  EXPECT_TRUE(g.HasEdge(0, 1));  // untouched edges survive
  EXPECT_EQ(g.NumEdges(), base.NumEdges());  // +1 - 1
  EXPECT_EQ(stats.added, std::vector<Edge>({{0, 3}}));
  EXPECT_EQ(stats.removed, std::vector<Edge>({{2, 3}}));
  // Base is untouched (snapshot semantics).
  EXPECT_FALSE(base.HasEdge(0, 3));
  EXPECT_TRUE(base.HasEdge(2, 3));
}

TEST(ApplyUpdates, LastWriteWinsWithinBatch) {
  const Graph base = LineGraph(4);
  // (0,2): add then remove -> absent and a no-op overall (never present).
  // (1,2): remove then add -> stays present; the transient remove must not
  // surface in the effective-removed list.
  std::vector<EdgeUpdate> batch = {
      EdgeUpdate::Add(0, 2), EdgeUpdate::Remove(0, 2),
      EdgeUpdate::Remove(1, 2), EdgeUpdate::Add(1, 2)};
  UpdateApplyStats stats;
  const Graph g = *GraphBuilder::ApplyUpdates(base, batch, &stats);
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(stats.added.empty());
  EXPECT_TRUE(stats.removed.empty());
  ExpectSameGraph(g, base);
}

TEST(ApplyUpdates, NoopsAreCountedNotApplied) {
  const Graph base = LineGraph(4);
  std::vector<EdgeUpdate> batch = {
      EdgeUpdate::Add(0, 1),      // already present
      EdgeUpdate::Remove(0, 3),   // absent
      EdgeUpdate::Add(2, 2)};     // self-loop
  UpdateApplyStats stats;
  const Graph g = *GraphBuilder::ApplyUpdates(base, batch, &stats);
  ExpectSameGraph(g, base);
  EXPECT_EQ(stats.add_noops, 1u);
  EXPECT_EQ(stats.remove_noops, 1u);
  EXPECT_EQ(stats.self_loops_dropped, 1u);
  EXPECT_TRUE(stats.added.empty());
  EXPECT_TRUE(stats.removed.empty());
}

TEST(ApplyUpdates, GrowsVertexSpace) {
  const Graph base = LineGraph(3);
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Add(2, 7)};
  const Graph g = *GraphBuilder::ApplyUpdates(base, batch);
  EXPECT_EQ(g.NumVertices(), 8u);
  EXPECT_TRUE(g.HasEdge(2, 7));
  // Grown-but-untouched ids exist as isolated vertices.
  EXPECT_TRUE(g.OutNeighbors(5).empty());
}

TEST(ApplyUpdates, InvalidVertexFails) {
  const Graph base = LineGraph(3);
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Add(kInvalidVertex, 1)};
  auto result = GraphBuilder::ApplyUpdates(base, batch);
  EXPECT_FALSE(result.status().ok());
}

/// The structural-identity contract: an updated CSR is indistinguishable
/// from a from-scratch Build over the surviving edge set.
TEST(ApplyUpdates, MatchesFromScratchBuildFuzz) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const VertexId n = 10 + static_cast<VertexId>(rng.NextBounded(40));
    const Graph base = *GenerateErdosRenyi(n, 3 * n, rng);

    std::vector<EdgeUpdate> batch;
    const size_t num_updates = 1 + rng.NextBounded(20);
    for (size_t i = 0; i < num_updates; ++i) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(n + 2));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(n + 2));
      batch.push_back(rng.NextBounded(2) == 0 ? EdgeUpdate::Add(u, v)
                                              : EdgeUpdate::Remove(u, v));
    }
    const Graph updated = *GraphBuilder::ApplyUpdates(base, batch);

    // Shadow: replay the batch onto an edge list, rebuild from scratch.
    std::vector<Edge> edges = base.Edges();
    for (const EdgeUpdate& u : batch) {
      const Edge e{u.u, u.v};
      edges.erase(std::remove(edges.begin(), edges.end(), e), edges.end());
      if (u.op == EdgeUpdate::Op::kAddEdge && u.u != u.v) edges.push_back(e);
    }
    GraphBuilder b(updated.NumVertices());
    for (const Edge& e : edges) b.AddEdge(e.first, e.second);
    const Graph rebuilt = *b.Build();
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectSameGraph(updated, rebuilt);
  }
}

TEST(GraphStore, EpochAdvancesPerBatch) {
  GraphStore store(LineGraph(5));
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.Current()->epoch, 0u);

  std::vector<EdgeUpdate> batch = {EdgeUpdate::Add(0, 2)};
  auto r1 = store.ApplyUpdates(batch);
  ASSERT_TRUE(r1.status().ok());
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(r1->snapshot->epoch, 1u);
  EXPECT_TRUE(r1->snapshot->graph.HasEdge(0, 2));
  EXPECT_EQ(r1->applied.added, std::vector<Edge>({{0, 2}}));

  // A no-op batch still installs a new epoch: epochs identify admission
  // points, not content changes.
  std::vector<EdgeUpdate> noop = {EdgeUpdate::Add(0, 2)};
  auto r2 = store.ApplyUpdates(noop);
  ASSERT_TRUE(r2.status().ok());
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_TRUE(r2->applied.added.empty());
}

TEST(GraphStore, PinnedSnapshotSurvivesUpdates) {
  // Threshold 0 = always-rebuild, so this test exercises pure pin
  // semantics; overlay-chain base retention is covered separately below.
  GraphStore store(LineGraph(5), GraphStoreOptions{.compaction_threshold = 0});
  std::shared_ptr<const GraphSnapshot> pinned = store.Current();

  std::vector<EdgeUpdate> batch = {EdgeUpdate::Remove(0, 1)};
  ASSERT_TRUE(store.ApplyUpdates(batch).status().ok());

  // The pinned epoch-0 view still has the edge; the current one does not.
  EXPECT_TRUE(pinned->graph.HasEdge(0, 1));
  EXPECT_FALSE(store.Current()->graph.HasEdge(0, 1));

  // While pinned, GC cannot free it.
  EXPECT_EQ(store.CollectGarbage(), 0u);
  GraphStoreStats stats = store.GetStats();
  EXPECT_EQ(stats.snapshots_retired, 1u);
  EXPECT_EQ(stats.snapshots_collected, 0u);
  EXPECT_EQ(stats.snapshots_live, 2u);

  // Dropping the pin makes it collectable.
  pinned.reset();
  EXPECT_EQ(store.CollectGarbage(), 1u);
  stats = store.GetStats();
  EXPECT_EQ(stats.snapshots_collected, 1u);
  EXPECT_EQ(stats.snapshots_live, 1u);
}

TEST(GraphStore, ApplyUpdatesCollectsUnpinnedRetirees) {
  GraphStore store(LineGraph(5), GraphStoreOptions{.compaction_threshold = 0});
  // Nobody pins anything: each batch retires its predecessor and the
  // opportunistic GC inside ApplyUpdates frees it (always-rebuild mode;
  // an overlay chain would instead keep its flat base snapshot alive).
  for (int i = 0; i < 4; ++i) {
    std::vector<EdgeUpdate> batch = {
        EdgeUpdate::Add(0, static_cast<VertexId>(2 + i))};
    ASSERT_TRUE(store.ApplyUpdates(batch).status().ok());
  }
  GraphStoreStats stats = store.GetStats();
  EXPECT_EQ(stats.update_batches, 4u);
  EXPECT_EQ(stats.snapshots_created, 5u);  // seed + 4
  EXPECT_EQ(stats.snapshots_retired, 4u);
  EXPECT_EQ(stats.snapshots_collected, 4u);
  EXPECT_EQ(stats.snapshots_live, 1u);
  EXPECT_EQ(stats.edges_added, 4u);
  EXPECT_EQ(stats.edges_removed, 0u);
}

TEST(GraphStore, FailedBatchLeavesStoreUntouched) {
  GraphStore store(LineGraph(5));
  const GraphSnapshot* s0 = store.Current().get();
  std::vector<EdgeUpdate> bad = {EdgeUpdate::Add(1, kInvalidVertex)};
  EXPECT_FALSE(store.ApplyUpdates(bad).status().ok());
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.Current().get(), s0);
  EXPECT_EQ(store.GetStats().update_batches, 0u);
}

// The shard-supervisor restart path (src/service/sharded_service.cc,
// HandleRestartDone) re-pins store->Current() while the update stream and
// opportunistic GC keep running. This is the tsan-label race test for
// that triangle: restarting readers pin/drop snapshots, a writer installs
// new epochs, and an explicit collector frees drained chains — all
// concurrently, with the stats conservation law checked at the end.
TEST(GraphStore, ConcurrentRestartUpdateGc) {
  GraphStore store(LineGraph(8));
  constexpr int kBatches = 64;
  constexpr int kRestartThreads = 3;
  constexpr int kRepinsPerThread = 200;

  std::thread writer([&] {
    for (int i = 0; i < kBatches; ++i) {
      // Toggle one edge so every batch is valid against its predecessor.
      std::vector<EdgeUpdate> batch = {i % 2 == 0 ? EdgeUpdate::Add(0, 7)
                                                  : EdgeUpdate::Remove(0, 7)};
      ASSERT_TRUE(store.ApplyUpdates(batch).status().ok());
    }
  });
  std::vector<std::thread> restarts;
  for (int t = 0; t < kRestartThreads; ++t) {
    restarts.emplace_back([&] {
      uint64_t last_epoch = 0;
      for (int i = 0; i < kRepinsPerThread; ++i) {
        // A restarting shard pins whatever is current, reads through the
        // pin (epochs are monotone; adjacency must be coherent), drops it.
        std::shared_ptr<const GraphSnapshot> snap = store.Current();
        EXPECT_GE(snap->epoch, last_epoch);
        last_epoch = snap->epoch;
        const auto out = snap->graph.OutNeighbors(0);
        EXPECT_GE(out.size(), 1u);  // 0->1 is never touched
      }
    });
  }
  std::thread collector([&] {
    for (int i = 0; i < kRepinsPerThread; ++i) store.CollectGarbage();
  });
  writer.join();
  for (std::thread& t : restarts) t.join();
  collector.join();

  EXPECT_EQ(store.epoch(), static_cast<uint64_t>(kBatches));
  store.CollectGarbage();  // any still-live retirees have drained by now
  GraphStoreStats stats = store.GetStats();
  EXPECT_EQ(stats.update_batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.snapshots_created, static_cast<uint64_t>(kBatches) + 1);
  EXPECT_EQ(stats.snapshots_retired, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.snapshots_live,
            stats.snapshots_created - stats.snapshots_collected);
  EXPECT_EQ(stats.snapshots_live, 1u);
}

}  // namespace
}  // namespace hcpath
