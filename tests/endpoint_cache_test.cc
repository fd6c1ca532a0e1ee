// EndpointDistanceCache: LRU behavior, budgets, counters, byte-accounting
// invariants, epoch versioning with cone-precise invalidation, and the
// bit-identity of served maps — plus the DistanceIndex cache integration
// (hits skip BFS but produce the exact same index).

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bfs/bfs.h"
#include "bfs/msbfs.h"
#include "core/basic_enum.h"
#include "core/batch_context.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "index/cache_persist.h"
#include "index/distance_index.h"
#include "index/endpoint_cache.h"
#include "test_graphs.h"
#include "util/rng.h"

namespace hcpath {
namespace {

VertexDistMap MakeMap(const Graph& g, VertexId source, Hop cap,
                      Direction dir) {
  MsBfsResult r = MultiSourceBfs(g, {source}, {cap}, dir);
  return std::move(r.per_source[0]);
}

/// A graph on which a single-source MS-BFS at cap 3 gives a view: the
/// source's reach holds more than |V|/8 vertices.
Graph ViewGraph() {
  Rng rng(89);
  return *GenerateBarabasiAlbert(1000, 4, rng);
}

/// The first `n` vertices whose forward reach at cap 3 on `g` is dense.
std::vector<VertexId> DenseSources(const Graph& g, size_t n) {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.NumVertices() && out.size() < n; ++v) {
    if (HopCappedBfs(g, v, 3, Direction::kForward).size() * 8 >=
        g.NumVertices()) {
      out.push_back(v);
    }
  }
  return out;
}

/// Lookup convenience: the served map, or nullopt on a miss.
std::optional<VertexDistMap> Get(EndpointDistanceCache& cache, VertexId v,
                                 Direction dir, Hop cap, uint64_t epoch = 0) {
  VertexDistMap out;
  if (!cache.Lookup(v, dir, cap, epoch, &out)) return std::nullopt;
  return out;
}

/// Content equality over the whole universe (the property the coherence
/// argument needs: same Lookup result for every vertex).
void ExpectSameContent(const Graph& g, const VertexDistMap& a,
                       const VertexDistMap& b) {
  ASSERT_EQ(a.size(), b.size());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(a.Lookup(v), b.Lookup(v)) << "vertex " << v;
  }
  EXPECT_EQ(a.SortedKeys(), b.SortedKeys());
}

/// The byte ledger must equal the sum over live entries at all times —
/// the satellite regression for the overwrite double-count.
void ExpectBytesConsistent(const EndpointDistanceCache& cache) {
  EXPECT_EQ(cache.bytes(), cache.DebugSumEntryBytes());
}

TEST(EndpointCache, MissThenHit) {
  const Graph g = PaperFigure1Graph();
  EndpointDistanceCache cache(/*max_entries=*/8);
  EXPECT_FALSE(Get(cache, 0, Direction::kForward, 5).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  cache.Insert(0, Direction::kForward, 5, /*epoch=*/0,
               MakeMap(g, 0, 5, Direction::kForward));
  std::optional<VertexDistMap> served = Get(cache, 0, Direction::kForward, 5);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(cache.hits(), 1u);
  ExpectSameContent(g, *served, MakeMap(g, 0, 5, Direction::kForward));
}

TEST(EndpointCache, KeyIsVertexDirectionAndCap) {
  const Graph g = PaperFigure1Graph();
  EndpointDistanceCache cache(8);
  cache.Insert(0, Direction::kForward, 5, 0,
               MakeMap(g, 0, 5, Direction::kForward));
  // Different direction or different cap must not alias.
  EXPECT_FALSE(Get(cache, 0, Direction::kBackward, 5).has_value());
  EXPECT_FALSE(Get(cache, 0, Direction::kForward, 4).has_value());
  EXPECT_TRUE(Get(cache, 0, Direction::kForward, 5).has_value());
}

TEST(EndpointCache, LruEvictionOrder) {
  const Graph g = PaperFigure1Graph();
  EndpointDistanceCache cache(/*max_entries=*/2);
  cache.Insert(0, Direction::kForward, 3, 0,
               MakeMap(g, 0, 3, Direction::kForward));
  cache.Insert(1, Direction::kForward, 3, 0,
               MakeMap(g, 1, 3, Direction::kForward));
  // Touch vertex 0 so vertex 1 becomes the LRU victim.
  EXPECT_TRUE(Get(cache, 0, Direction::kForward, 3).has_value());
  cache.Insert(2, Direction::kForward, 3, 0,
               MakeMap(g, 2, 3, Direction::kForward));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(Get(cache, 0, Direction::kForward, 3).has_value());
  EXPECT_FALSE(Get(cache, 1, Direction::kForward, 3).has_value());  // evicted
  EXPECT_TRUE(Get(cache, 2, Direction::kForward, 3).has_value());
  ExpectBytesConsistent(cache);
}

TEST(EndpointCache, ByteBudgetEvicts) {
  const Graph g = PaperFigure1Graph();
  // A tiny byte budget still keeps at least one entry (the newest).
  EndpointDistanceCache cache(/*max_entries=*/64, /*max_bytes=*/1);
  cache.Insert(0, Direction::kForward, 5, 0,
               MakeMap(g, 0, 5, Direction::kForward));
  cache.Insert(1, Direction::kForward, 5, 0,
               MakeMap(g, 1, 5, Direction::kForward));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_TRUE(Get(cache, 1, Direction::kForward, 5).has_value());
  ExpectBytesConsistent(cache);
}

TEST(EndpointCache, ZeroEntriesDisables) {
  const Graph g = PaperFigure1Graph();
  EndpointDistanceCache cache(/*max_entries=*/0);
  cache.Insert(0, Direction::kForward, 5, 0,
               MakeMap(g, 0, 5, Direction::kForward));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(Get(cache, 0, Direction::kForward, 5).has_value());
}

TEST(EndpointCache, InvalidateDropsEntries) {
  const Graph g = PaperFigure1Graph();
  EndpointDistanceCache cache(8);
  cache.Insert(0, Direction::kForward, 5, 0,
               MakeMap(g, 0, 5, Direction::kForward));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), 0u);
  cache.Invalidate();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.entries_invalidated(), 1u);
  EXPECT_FALSE(Get(cache, 0, Direction::kForward, 5).has_value());
  ExpectBytesConsistent(cache);
}

/// Satellite regression: replacing an entry's content (same key, newer
/// epoch) must charge the byte ledger for exactly the delta — the old
/// accounting double-counted the key on overwrite, so bytes() crept up
/// until the budget evicted live entries early.
TEST(EndpointCache, ReplaceDoesNotDoubleCountBytes) {
  const Graph g = PaperFigure1Graph();
  EndpointDistanceCache cache(/*max_entries=*/8);
  cache.Insert(0, Direction::kForward, 5, /*epoch=*/0,
               MakeMap(g, 0, 5, Direction::kForward));
  const uint64_t one_entry_bytes = cache.bytes();
  ExpectBytesConsistent(cache);

  // Same key at a newer epoch: content replaced in place, one entry.
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    cache.Insert(0, Direction::kForward, 5, epoch,
                 MakeMap(g, 0, 5, Direction::kForward));
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.bytes(), one_entry_bytes) << "epoch " << epoch;
    ExpectBytesConsistent(cache);
  }

  // Re-inserting at the entry's current epoch is a pure recency refresh.
  cache.Insert(0, Direction::kForward, 5, 5,
               MakeMap(g, 0, 5, Direction::kForward));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), one_entry_bytes);
  ExpectBytesConsistent(cache);
}

/// The full ledger invariant under a mixed workload: inserts, overwrites,
/// evictions, epoch invalidations — bytes() == sum over entries, always.
TEST(EndpointCache, ByteAccountingInvariantUnderChurn) {
  Rng rng(11);
  const Graph g = *GenerateSmallWorld(200, 4, 0.1, rng);
  EndpointDistanceCache cache(/*max_entries=*/16, /*max_bytes=*/1 << 16);
  for (int round = 0; round < 300; ++round) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(40));
    const Hop cap = static_cast<Hop>(2 + rng.NextBounded(4));
    const Direction dir =
        rng.NextBounded(2) == 0 ? Direction::kForward : Direction::kBackward;
    const uint64_t epoch = rng.NextBounded(3);
    cache.Insert(v, dir, cap, epoch, MakeMap(g, v, cap, dir));
    ExpectBytesConsistent(cache);
    if (round % 7 == 0) {
      Get(cache, v, dir, cap, epoch);
      ExpectBytesConsistent(cache);
    }
    if (round % 97 == 0) {
      cache.Invalidate();
      ExpectBytesConsistent(cache);
    }
  }
}

// ---------------------------------------------------------------------------
// Epoch versioning (dynamic graphs, docs/DYNAMIC.md)
// ---------------------------------------------------------------------------

TEST(EndpointCache, StaleEpochMisses) {
  const Graph g = PaperFigure1Graph();
  EndpointDistanceCache cache(8);
  cache.Insert(0, Direction::kForward, 5, /*epoch=*/3,
               MakeMap(g, 0, 5, Direction::kForward));
  // Valid exactly at its build epoch until revalidated.
  EXPECT_TRUE(Get(cache, 0, Direction::kForward, 5, 3).has_value());
  EXPECT_FALSE(Get(cache, 0, Direction::kForward, 5, 2).has_value());
  EXPECT_FALSE(Get(cache, 0, Direction::kForward, 5, 4).has_value());
  EXPECT_EQ(cache.stale_misses(), 2u);
}

TEST(EndpointCache, OlderEpochInsertDoesNotClobberNewer) {
  const Graph g = PaperFigure1Graph();
  EndpointDistanceCache cache(8);
  cache.Insert(0, Direction::kForward, 5, /*epoch=*/4,
               MakeMap(g, 0, 5, Direction::kForward));
  // A batch pinned to an older snapshot re-learns the same key: the newer
  // content must survive.
  cache.Insert(0, Direction::kForward, 5, /*epoch=*/2,
               MakeMap(g, 0, 5, Direction::kForward));
  EXPECT_TRUE(Get(cache, 0, Direction::kForward, 5, 4).has_value());
  EXPECT_FALSE(Get(cache, 0, Direction::kForward, 5, 2).has_value());
  ExpectBytesConsistent(cache);
}

/// A line graph makes cone distances exact: 0 -> 1 -> 2 -> ... -> 9.
Graph LineGraph(VertexId n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  return *b.Build();
}

/// Cone precision, forward entries: removing edge (7, 8) can only change
/// forward maps of vertices within cap-1 hops of the TAIL 7. On the line,
/// dist(v -> 7) = 7 - v, so entry (v, cap) dies iff 7 - v <= cap - 1.
TEST(EndpointCache, InvalidateUpdatedIsConePreciseForward) {
  const Graph old_g = LineGraph(10);
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Remove(7, 8)};
  UpdateApplyStats applied;
  const Graph new_g = *GraphBuilder::ApplyUpdates(old_g, batch, &applied);

  EndpointDistanceCache cache(64);
  // Forward entries with cap 3 at every vertex: stale iff v in [5, 7]
  // (7 - v <= 2); v = 8, 9 can't reach the tail, v <= 4 is too far.
  for (VertexId v = 0; v < 10; ++v) {
    cache.Insert(v, Direction::kForward, 3, 0,
                 MakeMap(old_g, v, 3, Direction::kForward));
  }
  const auto result = cache.InvalidateUpdated(
      old_g, new_g, applied.added, applied.removed, /*old_epoch=*/0,
      /*new_epoch=*/1);
  EXPECT_EQ(result.invalidated, 3u);
  EXPECT_EQ(result.revalidated, 7u);
  for (VertexId v = 0; v < 10; ++v) {
    const bool stale = v >= 5 && v <= 7;
    EXPECT_EQ(Get(cache, v, Direction::kForward, 3, 1).has_value(), !stale)
        << "vertex " << v;
  }
  // Survivors serve the new epoch with content identical to a fresh BFS on
  // the new graph (the soundness half of the cone argument).
  for (VertexId v = 0; v < 5; ++v) {
    std::optional<VertexDistMap> served =
        Get(cache, v, Direction::kForward, 3, 1);
    ASSERT_TRUE(served.has_value());
    ExpectSameContent(new_g, *served,
                      MakeMap(new_g, v, 3, Direction::kForward));
  }
  ExpectBytesConsistent(cache);
}

/// Cone precision, backward entries: adding edge (2, 8) to the line can
/// only change backward (to-target) maps of vertices within cap-1 hops
/// FROM the HEAD 8 on the new graph.
TEST(EndpointCache, InvalidateUpdatedIsConePreciseBackward) {
  const Graph old_g = LineGraph(10);
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Add(2, 8)};
  UpdateApplyStats applied;
  const Graph new_g = *GraphBuilder::ApplyUpdates(old_g, batch, &applied);

  EndpointDistanceCache cache(64);
  // Backward entries with cap 2: stale iff dist_new(8 -> v) <= 1, i.e.
  // v in {8, 9}.
  for (VertexId v = 0; v < 10; ++v) {
    cache.Insert(v, Direction::kBackward, 2, 0,
                 MakeMap(old_g, v, 2, Direction::kBackward));
  }
  const auto result = cache.InvalidateUpdated(
      old_g, new_g, applied.added, applied.removed, 0, 1);
  EXPECT_EQ(result.invalidated, 2u);
  EXPECT_EQ(result.revalidated, 8u);
  for (VertexId v = 0; v < 10; ++v) {
    const bool stale = v == 8 || v == 9;
    EXPECT_EQ(Get(cache, v, Direction::kBackward, 2, 1).has_value(), !stale)
        << "vertex " << v;
  }
  for (VertexId v = 0; v < 8; ++v) {
    std::optional<VertexDistMap> served =
        Get(cache, v, Direction::kBackward, 2, 1);
    ASSERT_TRUE(served.has_value());
    ExpectSameContent(new_g, *served,
                      MakeMap(new_g, v, 2, Direction::kBackward));
  }
  ExpectBytesConsistent(cache);
}

/// A batch that nets out to nothing (counted no-ops only) revalidates
/// every entry — zero invalidations, full retention.
TEST(EndpointCache, NoopBatchRevalidatesEverything) {
  const Graph g = LineGraph(6);
  EndpointDistanceCache cache(64);
  for (VertexId v = 0; v < 6; ++v) {
    cache.Insert(v, Direction::kForward, 3, 0,
                 MakeMap(g, v, 3, Direction::kForward));
  }
  const auto result = cache.InvalidateUpdated(g, g, /*added=*/{},
                                              /*removed=*/{}, 0, 1);
  EXPECT_EQ(result.invalidated, 0u);
  EXPECT_EQ(result.revalidated, 6u);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_TRUE(Get(cache, v, Direction::kForward, 3, 0).has_value());
    EXPECT_TRUE(Get(cache, v, Direction::kForward, 3, 1).has_value());
  }
}

/// Fuzz the precision claim itself: after any update batch, EVERY entry the
/// cone test retains must serve content identical to a fresh BFS on the
/// new graph. (The converse — invalidated entries actually changed — need
/// not hold and is not claimed: the cone is an over-approximation.)
TEST(EndpointCache, InvalidationSoundnessFuzz) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const VertexId n = 30 + static_cast<VertexId>(rng.NextBounded(30));
    const Graph old_g = *GenerateSmallWorld(n, 3, 0.2, rng);

    EndpointDistanceCache cache(1024);
    for (VertexId v = 0; v < n; ++v) {
      const Hop cap = static_cast<Hop>(1 + rng.NextBounded(5));
      const Direction dir =
          rng.NextBounded(2) == 0 ? Direction::kForward : Direction::kBackward;
      cache.Insert(v, dir, cap, 0, MakeMap(old_g, v, cap, dir));
    }

    std::vector<EdgeUpdate> batch;
    const size_t num_updates = 1 + rng.NextBounded(8);
    for (size_t i = 0; i < num_updates; ++i) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      const VertexId w = static_cast<VertexId>(rng.NextBounded(n));
      batch.push_back(rng.NextBounded(2) == 0 ? EdgeUpdate::Add(u, w)
                                          : EdgeUpdate::Remove(u, w));
    }
    UpdateApplyStats applied;
    const Graph new_g = *GraphBuilder::ApplyUpdates(old_g, batch, &applied);

    cache.InvalidateUpdated(old_g, new_g, applied.added, applied.removed, 0,
                            1);
    ExpectBytesConsistent(cache);
    for (VertexId v = 0; v < n; ++v) {
      for (Hop cap = 1; cap <= 5; ++cap) {
        for (Direction dir : {Direction::kForward, Direction::kBackward}) {
          std::optional<VertexDistMap> served = Get(cache, v, dir, cap, 1);
          if (!served.has_value()) continue;
          SCOPED_TRACE("seed " + std::to_string(seed) + " v " +
                       std::to_string(v) + " cap " + std::to_string(cap));
          ExpectSameContent(new_g, *served, MakeMap(new_g, v, cap, dir));
        }
      }
    }
  }
}

/// The integration property behind the whole feature: an index built with
/// a warm cache equals a cold-built index in every observable way.
TEST(EndpointCache, WarmIndexBuildIsContentIdentical) {
  Rng rng(7);
  const Graph g = *GenerateSmallWorld(400, 4, 0.1, rng);
  std::vector<PathQuery> queries = {{0, 50, 5}, {3, 60, 4}, {0, 70, 5},
                                    {12, 50, 3}, {3, 60, 4}};

  BatchContext cold_ctx;  // no cache
  DistanceIndex cold;
  BuildBatchIndex(g, queries, &cold, nullptr);

  EndpointDistanceCache cache(64);
  BatchContext warm_ctx;
  warm_ctx.distance_cache = &cache;
  DistanceIndex warm;
  // First build fills the cache (all misses)...
  BuildBatchIndex(g, queries, &warm, nullptr, nullptr, &warm_ctx);
  EXPECT_EQ(warm.cache_hits(), 0u);
  EXPECT_GT(warm.cache_misses(), 0u);
  // ...second build is served from it.
  BuildBatchIndex(g, queries, &warm, nullptr, nullptr, &warm_ctx);
  EXPECT_GT(warm.cache_hits(), 0u);
  EXPECT_EQ(warm.cache_misses(), 0u);

  ASSERT_EQ(warm.num_queries(), cold.num_queries());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameContent(g, warm.FromSourceMap(i), cold.FromSourceMap(i));
    ExpectSameContent(g, warm.ToTargetMap(i), cold.ToTargetMap(i));
  }
  EXPECT_EQ(warm.MinDistFromAnySource(), cold.MinDistFromAnySource());
  EXPECT_EQ(warm.MinDistToAnyTarget(), cold.MinDistToAnyTarget());
}

/// Duplicated endpoints with distinct caps are distinct keys, and
/// batch-internal duplicates resolve to one probe per unique key.
TEST(EndpointCache, PerKeyCounting) {
  const Graph g = PaperFigure1Graph();
  EndpointDistanceCache cache(64);
  BatchContext ctx;
  ctx.distance_cache = &cache;
  // Same source vertex 0 under caps 5 and 3 (two keys), plus a clone of
  // the cap-5 query (same key).
  std::vector<PathQuery> queries = {{0, 11, 5}, {0, 13, 3}, {0, 11, 5}};
  DistanceIndex index;
  BuildBatchIndex(g, queries, &index, nullptr, nullptr, &ctx);
  // Forward: 2 unique source keys missed. Backward: targets 11 (cap 5),
  // 13 (cap 3), 11 (cap 5) -> 2 unique keys missed.
  EXPECT_EQ(index.cache_misses(), 4u);
  EXPECT_EQ(index.cache_hits(), 0u);
  DistanceIndex again;
  BuildBatchIndex(g, queries, &again, nullptr, nullptr, &ctx);
  EXPECT_EQ(again.cache_hits(), 4u);
  EXPECT_EQ(again.cache_misses(), 0u);
}

/// The repair contract: InvalidateUpdated exports exactly the erased keys,
/// MRU-first — so a budget-truncated repair pass keeps the hottest keys.
TEST(EndpointCache, InvalidateUpdatedExportsDeadKeysMruFirst) {
  const Graph old_g = LineGraph(10);
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Remove(7, 8)};
  UpdateApplyStats applied;
  const Graph new_g = *GraphBuilder::ApplyUpdates(old_g, batch, &applied);

  EndpointDistanceCache cache(64);
  for (VertexId v = 0; v < 10; ++v) {
    cache.Insert(v, Direction::kForward, 3, 0,
                 MakeMap(old_g, v, 3, Direction::kForward));
  }
  // Touch vertex 5 last so it is the most recently used of the doomed
  // keys (5, 6, 7).
  ASSERT_TRUE(Get(cache, 5, Direction::kForward, 3).has_value());

  std::vector<EndpointDistanceCache::RepairKey> dead;
  cache.InvalidateUpdated(old_g, new_g, applied.added, applied.removed, 0, 1,
                          &dead);
  std::vector<VertexId> order;
  for (const auto& k : dead) {
    EXPECT_EQ(k.dir, Direction::kForward);
    EXPECT_EQ(k.cap, 3);
    order.push_back(k.vertex);
  }
  EXPECT_EQ(order, std::vector<VertexId>({5, 7, 6}));
}

/// The miss-attribution split: a miss on a key the cache once held but
/// invalidated counts as an invalidated miss; a never-seen key does not;
/// re-learning the key clears its tombstone.
TEST(EndpointCache, InvalidatedMissSplit) {
  const Graph old_g = LineGraph(10);
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Remove(7, 8)};
  UpdateApplyStats applied;
  const Graph new_g = *GraphBuilder::ApplyUpdates(old_g, batch, &applied);

  EndpointDistanceCache cache(64);
  cache.Insert(7, Direction::kForward, 3, 0,
               MakeMap(old_g, 7, 3, Direction::kForward));
  cache.InvalidateUpdated(old_g, new_g, applied.added, applied.removed, 0, 1);

  // Erased key -> invalidated miss; never-seen key -> plain miss.
  EXPECT_FALSE(Get(cache, 7, Direction::kForward, 3, 1).has_value());
  EXPECT_EQ(cache.invalidated_misses(), 1u);
  EXPECT_FALSE(Get(cache, 2, Direction::kBackward, 4, 1).has_value());
  EXPECT_EQ(cache.invalidated_misses(), 1u);
  EXPECT_EQ(cache.misses(), 2u);

  // Re-learning (what repair does) clears the tombstone: the next miss on
  // the key — here after a full flush — is a plain never-relearned miss
  // only if invalidated again; a hit counts as a hit.
  cache.Insert(7, Direction::kForward, 3, 1,
               MakeMap(new_g, 7, 3, Direction::kForward));
  EXPECT_TRUE(Get(cache, 7, Direction::kForward, 3, 1).has_value());

  // Full Invalidate() also marks tombstones for the miss split.
  cache.Invalidate();
  EXPECT_FALSE(Get(cache, 7, Direction::kForward, 3, 1).has_value());
  EXPECT_EQ(cache.invalidated_misses(), 2u);
}

/// MakeMap moves its map out of an MsBfsResult that then dies. A view
/// shares its wave's masks, so it must keep answering exactly as the
/// per-source BFS does.
TEST(EndpointCache, ViewMovedOutOfDyingResultAnswers) {
  const Graph g = ViewGraph();
  for (Direction dir : {Direction::kForward, Direction::kBackward}) {
    const VertexDistMap view = MakeMap(g, 0, 3, dir);
    ASSERT_TRUE(view.IsView());
    const VertexDistMap want = HopCappedBfs(g, 0, 3, dir);
    ExpectSameContent(g, view, want);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (int budget = -1; budget <= 4; ++budget) {
        const Hop d = want.Lookup(v);
        ASSERT_EQ(view.Within(v, budget), d != kUnreachable && d <= budget)
            << "v=" << v << " budget=" << budget;
      }
    }
  }
}

/// The cache stores owning copies: an inserted view comes back (served,
/// exported, or reloaded from a spill) as a flat array with the same
/// content, and the byte ledger counts that array.
TEST(EndpointCache, ServedAndReloadedMapsAreNeverViews) {
  const Graph g = ViewGraph();
  const std::vector<VertexId> sources = DenseSources(g, 3);
  ASSERT_EQ(sources.size(), 3u);
  EndpointDistanceCache cache(8);
  for (VertexId v : sources) {
    VertexDistMap view = MakeMap(g, v, 3, Direction::kForward);
    ASSERT_TRUE(view.IsView());
    cache.Insert(v, Direction::kForward, 3, 0, std::move(view));
  }
  ExpectBytesConsistent(cache);
  EXPECT_GE(cache.bytes(), 3 * g.NumVertices());
  for (VertexId v : sources) {
    std::optional<VertexDistMap> served = Get(cache, v, Direction::kForward, 3);
    ASSERT_TRUE(served.has_value());
    EXPECT_FALSE(served->IsView());
    EXPECT_TRUE(served->IsDense());
    ExpectSameContent(g, *served, HopCappedBfs(g, v, 3, Direction::kForward));
  }
  for (const auto& e : cache.ExportEntries(0)) EXPECT_FALSE(e.map.IsView());

  const std::string path = ::testing::TempDir() + "/view_spill.hcc";
  ASSERT_TRUE(SaveEndpointCacheSpill(cache, 0, g, path).ok());
  EndpointDistanceCache reloaded(8);
  auto restored = RestoreEndpointCacheSpill(&reloaded, 0, g, path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, 3u);
  ExpectBytesConsistent(reloaded);
  for (VertexId v : sources) {
    std::optional<VertexDistMap> served =
        Get(reloaded, v, Direction::kForward, 3);
    ASSERT_TRUE(served.has_value());
    EXPECT_FALSE(served->IsView());
    ExpectSameContent(g, *served, HopCappedBfs(g, v, 3, Direction::kForward));
  }
  std::remove(path.c_str());
}

/// A warm index build serves owning maps, and the ledger stays exact
/// across the cold build that inserted the owning copies of its views.
TEST(EndpointCache, WarmIndexServesNoViews) {
  const Graph g = ViewGraph();
  std::vector<PathQuery> queries = {{0, 1, 3}, {2, 3, 3}, {0, 4, 3}};
  EndpointDistanceCache cache(64);
  BatchContext ctx;
  ctx.distance_cache = &cache;
  DistanceIndex index;
  BuildBatchIndex(g, queries, &index, nullptr, nullptr, &ctx);
  // The misses' own BFS gave views; the cache took owning copies.
  EXPECT_TRUE(index.FromSourceMap(0).IsView());
  ExpectBytesConsistent(cache);
  EXPECT_GE(cache.bytes(), g.NumVertices());
  BuildBatchIndex(g, queries, &index, nullptr, nullptr, &ctx);
  EXPECT_EQ(index.cache_misses(), 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(index.FromSourceMap(i).IsView());
    EXPECT_FALSE(index.ToTargetMap(i).IsView());
    ExpectSameContent(
        g, index.FromSourceMap(i),
        HopCappedBfs(g, queries[i].s, 3, Direction::kForward));
  }
  ExpectBytesConsistent(cache);
}

}  // namespace
}  // namespace hcpath
