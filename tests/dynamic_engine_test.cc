// Store-backed (dynamic) PathEngine: snapshot pinning at admission,
// per-epoch micro-batch partitioning, cone-precise cache retention across
// updates, blanket flush under renumbering, and the concurrent
// Submit/ApplyUpdates/GC interleaving the tsan label exists for.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/brute_force.h"
#include "graph/graph_builder.h"
#include "graph/graph_store.h"
#include "service/path_engine.h"
#include "test_graphs.h"
#include "util/rng.h"

namespace hcpath {
namespace {

PathEngineOptions UntimedOptions(int threads = 1) {
  PathEngineOptions opt;
  opt.batch.num_threads = threads;
  opt.max_wait_seconds = 0;  // deterministic: cuts on size/Flush only
  opt.max_batch_size = 1024;
  return opt;
}

void ExpectMatchesBruteForce(const Graph& g, const PathQuery& q,
                             const QueryResult& r) {
  ASSERT_TRUE(r.status.ok()) << r.status;
  auto oracle = BruteForcePaths(g, q);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(r.path_count, oracle->size()) << q.ToString();
  if (!r.paths.empty() || !oracle->empty()) {
    EXPECT_EQ(r.paths.ToSortedVectors(), oracle->ToSortedVectors())
        << q.ToString();
  }
}

TEST(DynamicEngine, FixedModeRejectsApplyUpdates) {
  const Graph g = PaperFigure1Graph();
  PathEngine engine(g, UntimedOptions());
  ASSERT_TRUE(engine.status().ok());
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Add(0, 2)};
  auto result = engine.ApplyUpdates(batch);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.current_epoch(), 0u);
}

TEST(DynamicEngine, NullStoreFailsConstruction) {
  PathEngine engine(static_cast<GraphStore*>(nullptr), UntimedOptions());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(DynamicEngine, ResultsTrackAdmittedEpoch) {
  GraphStore store(PaperFigure1Graph());
  PathEngine engine(&store, UntimedOptions());
  ASSERT_TRUE(engine.status().ok());
  EXPECT_EQ(engine.current_epoch(), 0u);

  const PathQuery q{0, 11, 5};
  const Graph g0 = store.Current()->graph;

  auto f0 = engine.Submit(q);
  engine.Flush();
  engine.Drain();
  QueryResult r0 = f0.get();
  EXPECT_EQ(r0.graph_epoch, 0u);
  ExpectMatchesBruteForce(g0, q, r0);

  // Cutting 9->3 kills the 0..9->3..11 paths; the post-update epoch must
  // see the smaller answer.
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Remove(9, 3)};
  auto applied = engine.ApplyUpdates(batch);
  ASSERT_TRUE(applied.status().ok());
  EXPECT_EQ(engine.current_epoch(), 1u);
  const Graph g1 = applied->snapshot->graph;

  auto f1 = engine.Submit(q);
  engine.Flush();
  engine.Drain();
  QueryResult r1 = f1.get();
  EXPECT_EQ(r1.graph_epoch, 1u);
  ExpectMatchesBruteForce(g1, q, r1);
  EXPECT_NE(r0.path_count, r1.path_count);  // the update was observable

  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.graph_updates, 1u);
}

/// The pinning contract proper: a query admitted BEFORE an update keeps
/// its snapshot even though it runs after, and a single cut carrying
/// queries pinned to different epochs executes once per epoch.
TEST(DynamicEngine, QueriesPinAdmissionSnapshotAcrossUpdates) {
  for (int threads : {1, 4}) {
    GraphStore store(PaperFigure1Graph());
    PathEngineOptions opt = UntimedOptions(threads);
    opt.manual_dispatch = true;  // nothing runs until StepDispatch
    PathEngine engine(&store, opt);
    ASSERT_TRUE(engine.status().ok());

    const PathQuery q{0, 11, 5};
    const Graph g0 = store.Current()->graph;
    auto f_old = engine.Submit(q);  // pins epoch 0

    std::vector<EdgeUpdate> batch = {EdgeUpdate::Remove(9, 3)};
    auto applied = engine.ApplyUpdates(batch);
    ASSERT_TRUE(applied.status().ok());
    const Graph g1 = applied->snapshot->graph;

    auto f_new = engine.Submit(q);  // pins epoch 1
    engine.Flush();
    while (engine.StepDispatch() > 0) {
    }

    QueryResult r_old = f_old.get();
    QueryResult r_new = f_new.get();
    EXPECT_EQ(r_old.graph_epoch, 0u);
    EXPECT_EQ(r_new.graph_epoch, 1u);
    // The pinned query's answer is the OLD graph's, byte-identical to a
    // from-scratch run on it; its co-cut neighbor sees the new graph.
    ExpectMatchesBruteForce(g0, q, r_old);
    ExpectMatchesBruteForce(g1, q, r_new);
    EXPECT_NE(r_old.path_count, r_new.path_count);

    // One cut, two pinned epochs -> two pipeline invocations.
    PathEngineStats stats = engine.GetStats();
    EXPECT_EQ(stats.batches_run, 2u);
    EXPECT_EQ(stats.flush_cuts, 1u);

    // Nothing pins epoch 0 as a query snapshot anymore — but the epoch-1
    // delta overlay patches epoch 0's flat CSR, so the chain keeps that
    // snapshot alive and the engine's post-batch GC must NOT free it.
    ASSERT_TRUE(applied->used_overlay);
    GraphStoreStats store_stats = store.GetStats();
    EXPECT_EQ(store_stats.snapshots_collected, 0u);
    EXPECT_EQ(store_stats.snapshots_live, 2u);
  }
}

/// Cone-precision end to end: updates confined to a component disjoint
/// from every queried endpoint keep the endpoint cache warm — entries are
/// revalidated, not flushed, and the repeat batch is all hits.
TEST(DynamicEngine, DisjointUpdatesKeepDistanceCacheWarm) {
  // Component A: the paper graph on ids 0..15. Component B: a line on ids
  // 16..25, never reachable from A (and vice versa).
  GraphBuilder b(26);
  const Graph paper = PaperFigure1Graph();
  for (const auto& [u, v] : paper.Edges()) b.AddEdge(u, v);
  for (VertexId v = 16; v + 1 < 26; ++v) b.AddEdge(v, v + 1);
  GraphStore store(*b.Build());

  PathEngine engine(&store, UntimedOptions());
  ASSERT_TRUE(engine.status().ok());
  const std::vector<PathQuery> queries = PaperFigure1Queries();

  auto run_round = [&] {
    std::vector<std::future<QueryResult>> futures;
    for (const PathQuery& q : queries) futures.push_back(engine.Submit(q));
    engine.Flush();
    engine.Drain();
    for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());
  };

  run_round();  // cold: fills the cache
  const EndpointDistanceCache* cache = engine.distance_cache();
  ASSERT_NE(cache, nullptr);
  const size_t warm_entries = cache->entries();
  ASSERT_GT(warm_entries, 0u);

  // Touch only component B.
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Remove(20, 21),
                                   EdgeUpdate::Add(16, 25)};
  ASSERT_TRUE(engine.ApplyUpdates(batch).status().ok());

  // Every entry survived as revalidated-to-epoch-1...
  EXPECT_EQ(cache->entries(), warm_entries);
  EXPECT_EQ(cache->entries_revalidated(), warm_entries);
  EXPECT_EQ(cache->entries_invalidated(), 0u);

  // ...so the repeat round at epoch 1 misses nothing.
  const uint64_t misses_before = cache->misses();
  run_round();
  EXPECT_EQ(cache->misses(), misses_before);
  EXPECT_EQ(cache->stale_misses(), 0u);
}

/// An update overlapping cached cones invalidates those entries, and the
/// next round's answers are correct for the new graph (no stale serving).
TEST(DynamicEngine, OverlappingUpdatesInvalidateAndStayCorrect) {
  GraphStore store(PaperFigure1Graph());
  PathEngine engine(&store, UntimedOptions());
  ASSERT_TRUE(engine.status().ok());
  const std::vector<PathQuery> queries = PaperFigure1Queries();

  std::vector<std::future<QueryResult>> warm;
  for (const PathQuery& q : queries) warm.push_back(engine.Submit(q));
  engine.Flush();
  engine.Drain();
  for (auto& f : warm) ASSERT_TRUE(f.get().status.ok());

  std::vector<EdgeUpdate> batch = {EdgeUpdate::Remove(1, 7),
                                   EdgeUpdate::Add(5, 9)};
  auto applied = engine.ApplyUpdates(batch);
  ASSERT_TRUE(applied.status().ok());
  const Graph g1 = applied->snapshot->graph;
  EXPECT_GT(engine.distance_cache()->entries_invalidated(), 0u);

  std::vector<std::future<QueryResult>> futures;
  for (const PathQuery& q : queries) futures.push_back(engine.Submit(q));
  engine.Flush();
  engine.Drain();
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResult r = futures[i].get();
    EXPECT_EQ(r.graph_epoch, 1u);
    ExpectMatchesBruteForce(g1, queries[i], r);
  }
}

/// The raciest surface of this PR, written for `ctest -L tsan`: submitters,
/// an updater, and the store's deferred GC run concurrently, and every
/// result must still be byte-identical to a from-scratch run on the exact
/// snapshot stamped into it.
TEST(DynamicEngine, ConcurrentSubmitUpdateGc) {
  GraphStore store(PaperFigure1Graph());
  PathEngineOptions opt = UntimedOptions(/*threads=*/2);
  opt.max_batch_size = 4;  // force many small cuts while updates land
  PathEngine engine(&store, opt);
  ASSERT_TRUE(engine.status().ok());

  // Epoch -> graph content, recorded by the updater as batches install.
  std::mutex epochs_mu;
  std::map<uint64_t, Graph> graph_at_epoch;
  graph_at_epoch.emplace(0, store.Current()->graph);

  const std::vector<PathQuery> queries = PaperFigure1Queries();
  constexpr int kRounds = 60;
  constexpr int kSubmitters = 2;

  std::vector<std::pair<PathQuery, std::future<QueryResult>>> results[
      kSubmitters];
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < kRounds; ++i) {
        const PathQuery& q = queries[rng.NextBounded(queries.size())];
        results[t].emplace_back(q, engine.Submit(q));
        if (i % 8 == 7) engine.Flush();
      }
    });
  }
  threads.emplace_back([&] {
    Rng rng(42);
    // Toggle edges the paper queries actually traverse, so stale serving
    // would be caught, not masked.
    const std::vector<std::pair<VertexId, VertexId>> pool = {
        {9, 3}, {1, 7}, {6, 13}, {0, 4}, {12, 11}};
    for (int i = 0; i < 20; ++i) {
      const auto& e = pool[rng.NextBounded(pool.size())];
      const Graph current = store.Current()->graph;
      std::vector<EdgeUpdate> batch = {
          current.HasEdge(e.first, e.second)
              ? EdgeUpdate::Remove(e.first, e.second)
              : EdgeUpdate::Add(e.first, e.second)};
      auto applied = engine.ApplyUpdates(batch);
      ASSERT_TRUE(applied.status().ok());
      std::lock_guard<std::mutex> lk(epochs_mu);
      graph_at_epoch.emplace(applied->snapshot->epoch,
                             applied->snapshot->graph);
    }
  });
  for (std::thread& th : threads) th.join();
  engine.Flush();
  engine.Drain();

  size_t checked = 0;
  for (int t = 0; t < kSubmitters; ++t) {
    for (auto& [q, f] : results[t]) {
      QueryResult r = f.get();
      auto it = graph_at_epoch.find(r.graph_epoch);
      ASSERT_NE(it, graph_at_epoch.end()) << "epoch " << r.graph_epoch;
      ExpectMatchesBruteForce(it->second, q, r);
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<size_t>(kRounds * kSubmitters));

  // Quiesced: every superseded snapshot has drained its pins and been
  // collected. Our graph_at_epoch copies of overlay graphs pin their flat
  // base snapshots (by design — a copied overlay graph must keep the CSR
  // it patches alive), so drop them before checking. What may remain
  // beyond the current snapshot is the current overlay chain's base.
  graph_at_epoch.clear();
  store.CollectGarbage();
  GraphStoreStats stats = store.GetStats();
  const uint64_t chain_base =
      store.Current()->graph.overlay() != nullptr ? 1u : 0u;
  EXPECT_EQ(stats.snapshots_live, 1u + chain_base);
  EXPECT_EQ(stats.snapshots_collected + chain_base, stats.snapshots_retired);
}

/// Incremental cache repair end to end: after an update that invalidates
/// cached cones, the engine rebuilds those entries against the new
/// snapshot before publishing it, so the post-update round is miss-free —
/// and with repair disabled the same round pays invalidated misses.
TEST(DynamicEngine, RepairRestoresWarmHitRateAfterUpdates) {
  const std::vector<PathQuery> queries = PaperFigure1Queries();
  const std::vector<EdgeUpdate> batch = {EdgeUpdate::Remove(1, 7),
                                         EdgeUpdate::Add(5, 9)};
  for (bool repair : {true, false}) {
    SCOPED_TRACE(repair ? "repair on" : "repair off");
    GraphStore store(PaperFigure1Graph());
    PathEngineOptions opt = UntimedOptions();
    opt.cache_repair_max_keys = repair ? 1024 : 0;
    PathEngine engine(&store, opt);
    ASSERT_TRUE(engine.status().ok());

    auto run_round = [&](const Graph& g, uint64_t epoch) {
      std::vector<std::future<QueryResult>> futures;
      for (const PathQuery& q : queries) futures.push_back(engine.Submit(q));
      engine.Flush();
      engine.Drain();
      for (size_t i = 0; i < queries.size(); ++i) {
        QueryResult r = futures[i].get();
        EXPECT_EQ(r.graph_epoch, epoch);
        ExpectMatchesBruteForce(g, queries[i], r);
      }
    };

    run_round(store.Current()->graph, 0);  // cold: fills the cache
    const EndpointDistanceCache* cache = engine.distance_cache();
    ASSERT_NE(cache, nullptr);
    const size_t warm_entries = cache->entries();
    ASSERT_GT(warm_entries, 0u);

    auto applied = engine.ApplyUpdates(batch);
    ASSERT_TRUE(applied.status().ok());
    const uint64_t killed = cache->entries_invalidated();
    ASSERT_GT(killed, 0u);  // the batch overlaps cached cones

    PathEngineStats stats = engine.GetStats();
    const uint64_t misses_before = cache->misses();
    run_round(applied->snapshot->graph, 1);

    if (repair) {
      // Every dead key was rebuilt before the new epoch went live, so the
      // post-update round misses nothing and the cache never shrank.
      EXPECT_EQ(stats.cache_entries_repaired, killed);
      EXPECT_EQ(stats.cache_repair_skipped, 0u);
      EXPECT_EQ(cache->entries(), warm_entries);
      EXPECT_EQ(cache->misses(), misses_before);
      EXPECT_EQ(cache->invalidated_misses(), 0u);
    } else {
      // Lazy refill: the invalidated keys miss once each, attributed to
      // invalidation (not never-seen) by the tombstone split.
      EXPECT_EQ(stats.cache_entries_repaired, 0u);
      EXPECT_GT(cache->misses(), misses_before);
      EXPECT_EQ(cache->invalidated_misses(), cache->misses() - misses_before);
    }
  }
}

/// Updates never fail a queued query, no matter how far its pin falls
/// behind: it still runs on the snapshot it was admitted against.
TEST(DynamicEngine, QueuedQuerySurvivesUpdatesOnItsPinnedSnapshot) {
  GraphStore store(PaperFigure1Graph());
  PathEngineOptions opt = UntimedOptions();
  opt.manual_dispatch = true;
  PathEngine engine(&store, opt);
  ASSERT_TRUE(engine.status().ok());

  const PathQuery q{0, 11, 5};
  const Graph g0 = store.Current()->graph;
  auto f = engine.Submit(q);
  for (int i = 0; i < 4; ++i) {
    std::vector<EdgeUpdate> b = {
        EdgeUpdate::Add(0, static_cast<VertexId>(2 + i))};
    ASSERT_TRUE(engine.ApplyUpdates(b).status().ok());
  }
  engine.Flush();
  while (engine.StepDispatch() > 0) {
  }
  QueryResult r = f.get();
  EXPECT_EQ(r.graph_epoch, 0u);
  ExpectMatchesBruteForce(g0, q, r);
  const TenantAdmissionStats ts =
      engine.GetStats().tenants.at(kDefaultTenant);
  EXPECT_EQ(ts.admitted, ts.completed);
}

}  // namespace
}  // namespace hcpath
