// PathEngine service-layer tests: admission cuts, per-query futures and
// sinks, error isolation, and the headline determinism property — N
// consecutive micro-batches through one long-lived engine (warm distance
// cache, recycled BatchContext) are byte-identical to N one-shot
// RunBatchEnum calls, at 1 and 4 threads.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_enum.h"
#include "core/brute_force.h"
#include "graph/generators.h"
#include "service/path_engine.h"
#include "test_graphs.h"
#include "util/rng.h"

namespace hcpath {
namespace {

class RecordingSink : public PathSink {
 public:
  using Event = std::pair<size_t, std::vector<VertexId>>;
  void OnPath(size_t qi, PathView p) override {
    events_.emplace_back(qi, std::vector<VertexId>(p.begin(), p.end()));
  }
  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
};

PathEngineOptions UntimedOptions(int threads = 1) {
  PathEngineOptions opt;
  opt.batch.num_threads = threads;
  opt.max_wait_seconds = 0;  // deterministic: cuts on size/Flush only
  opt.max_batch_size = 1024;
  return opt;
}

TEST(PathEngine, InvalidOptionsFailConstruction) {
  const Graph g = PaperFigure1Graph();
  PathEngineOptions opt;
  opt.batch.gamma = 2.0;
  PathEngine engine(g, opt);
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  auto future = engine.Submit({0, 11, 5});
  EXPECT_EQ(future.get().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RunBatch({{0, 11, 5}}, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(PathEngine, SubmitFlushMatchesBruteForce) {
  const Graph g = PaperFigure1Graph();
  const std::vector<PathQuery> queries = PaperFigure1Queries();
  PathEngine engine(g, UntimedOptions());
  ASSERT_TRUE(engine.status().ok());

  std::vector<std::future<QueryResult>> futures;
  for (const PathQuery& q : queries) futures.push_back(engine.Submit(q));
  engine.Flush();

  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResult r = futures[i].get();
    ASSERT_TRUE(r.status.ok()) << r.status;
    auto oracle = BruteForcePaths(g, queries[i]);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(r.path_count, oracle->size()) << queries[i].ToString();
    ASSERT_EQ(r.paths.size(), oracle->size());
    EXPECT_EQ(r.paths.ToSortedVectors(), oracle->ToSortedVectors());
  }
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.queries_submitted, queries.size());
  EXPECT_EQ(stats.queries_completed, queries.size());
  EXPECT_EQ(stats.batches_run, 1u);
  EXPECT_EQ(stats.flush_cuts, 1u);
}

TEST(PathEngine, SizeCutDispatchesWithoutFlush) {
  const Graph g = PaperFigure1Graph();
  PathEngineOptions opt = UntimedOptions();
  opt.max_batch_size = 2;
  PathEngine engine(g, opt);

  auto f1 = engine.Submit({0, 11, 5});
  auto f2 = engine.Submit({2, 13, 5});  // second query reaches the cut
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.batches_run, 1u);
  EXPECT_EQ(stats.size_cuts, 1u);

  // 5 more queries at window 2 -> two size cuts + one drain cut at
  // shutdown or flush.
  std::vector<std::future<QueryResult>> futures;
  for (const PathQuery& q : PaperFigure1Queries()) {
    futures.push_back(engine.Submit(q));
  }
  engine.Flush();
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  stats = engine.GetStats();
  EXPECT_EQ(stats.batches_run, 4u);
  EXPECT_EQ(stats.size_cuts, 3u);
}

TEST(PathEngine, IdleCutFiresWithoutSizeOrFlush) {
  const Graph g = PaperFigure1Graph();
  PathEngineOptions opt;
  opt.max_batch_size = 1024;       // never reached
  opt.max_wait_seconds = 0.001;    // timed mode: cut whenever idle
  PathEngine engine(g, opt);
  auto future = engine.Submit({0, 11, 5});
  QueryResult r = future.get();  // resolves only if the idle cut fires
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.path_count, 3u);
  const PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.idle_cuts, 1u);
  EXPECT_EQ(stats.wait_cuts, 0u);
}

/// Blocks the dispatcher inside its path deliveries until opened.
class GatedSink : public PathSink {
 public:
  void OnPath(size_t, PathView) override {
    if (!entered_once_) {
      entered_once_ = true;
      entered_.set_value();
    }
    open_.wait();
  }
  void WaitEntered() { entered_future_.wait(); }
  void Open() { gate_.set_value(); }

 private:
  bool entered_once_ = false;  // touched by the delivering thread only
  std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::promise<void> gate_;
  std::shared_future<void> open_ = gate_.get_future().share();
};

// Group commit: queries that arrive while a batch runs are cut together as
// soon as it finishes, however long max_wait_seconds is.
TEST(PathEngine, QueriesArrivingDuringABatchFormTheNextCut) {
  const Graph g = PaperFigure1Graph();
  GatedSink gate;  // outlives the engine, whose dispatcher calls it
  PathEngineOptions opt;
  opt.batch.num_threads = 1;
  opt.max_batch_size = 1024;
  opt.max_wait_seconds = 60;  // a wait cut would time the test out
  PathEngine engine(g, opt);
  ASSERT_TRUE(engine.status().ok());

  // {0, 11, 5} has 3 paths: the first one holds the batch open.
  auto first = engine.Submit({0, 11, 5}, &gate);
  gate.WaitEntered();
  std::vector<std::future<QueryResult>> rest;
  for (const PathQuery& q : PaperFigure1Queries()) {
    rest.push_back(engine.Submit(q));
  }
  gate.Open();

  EXPECT_TRUE(first.get().status.ok());
  for (auto& f : rest) EXPECT_TRUE(f.get().status.ok());
  const PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.batches_run, 2u);
  EXPECT_EQ(stats.idle_cuts, 2u);
  EXPECT_EQ(stats.queries_completed, 6u);
}

TEST(PathEngine, InvalidQueryRejectedAloneAtAdmission) {
  const Graph g = PaperFigure1Graph();
  PathEngine engine(g, UntimedOptions());
  auto good_before = engine.Submit({0, 11, 5});
  auto bad = engine.Submit({3, 3, 4});  // s == t
  auto good_after = engine.Submit({2, 13, 5});
  engine.Flush();

  EXPECT_EQ(bad.get().status.code(), StatusCode::kInvalidArgument);
  // The poisoned query never entered the batch: its neighbors succeed.
  EXPECT_TRUE(good_before.get().status.ok());
  QueryResult after = good_after.get();
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(after.path_count, 3u);
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.queries_rejected, 1u);
  EXPECT_EQ(stats.queries_completed, 2u);
}

TEST(PathEngine, PerQuerySinkReceivesOnlyItsPaths) {
  const Graph g = PaperFigure1Graph();
  const std::vector<PathQuery> queries = PaperFigure1Queries();
  PathEngine engine(g, UntimedOptions());

  std::vector<RecordingSink> sinks(queries.size());
  std::vector<std::future<QueryResult>> futures;
  for (size_t i = 0; i < queries.size(); ++i) {
    futures.push_back(engine.Submit(queries[i], &sinks[i]));
  }
  engine.Flush();
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResult r = futures[i].get();
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(r.paths.size(), 0u);  // streamed, not collected
    EXPECT_EQ(sinks[i].events().size(), r.path_count);
    for (const auto& e : sinks[i].events()) EXPECT_EQ(e.first, i);
  }
}

TEST(PathEngine, DestructorDrainsPendingQueries) {
  const Graph g = PaperFigure1Graph();
  std::vector<std::future<QueryResult>> futures;
  {
    PathEngine engine(g, UntimedOptions());
    for (const PathQuery& q : PaperFigure1Queries()) {
      futures.push_back(engine.Submit(q));
    }
    // No Flush: shutdown must act as the final cut.
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
}

TEST(PathEngine, DrainBlocksUntilIdle) {
  const Graph g = PaperFigure1Graph();
  PathEngine engine(g, UntimedOptions());
  std::vector<std::future<QueryResult>> futures;
  for (const PathQuery& q : PaperFigure1Queries()) {
    futures.push_back(engine.Submit(q));
  }
  engine.Flush();
  engine.Drain();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

TEST(PathEngine, RunBatchSharesContextAndCache) {
  const Graph g = PaperFigure1Graph();
  const std::vector<PathQuery> queries = PaperFigure1Queries();
  PathEngine engine(g, UntimedOptions());

  RecordingSink first, second;
  BatchStats stats1, stats2;
  ASSERT_TRUE(engine.RunBatch(queries, &first, &stats1).ok());
  ASSERT_TRUE(engine.RunBatch(queries, &second, &stats2).ok());
  EXPECT_EQ(first.events(), second.events());
  // Batch 1 is cold, batch 2 is fully served by the distance cache.
  EXPECT_EQ(stats1.distance_cache_hits, 0u);
  EXPECT_GT(stats1.distance_cache_misses, 0u);
  EXPECT_GT(stats2.distance_cache_hits, 0u);
  EXPECT_EQ(stats2.distance_cache_misses, 0u);

  // One-shot reference: identical stream.
  RecordingSink oneshot;
  BatchOptions opt = engine.options().batch;
  ASSERT_TRUE(RunBatchEnum(g, queries, opt, /*optimized_order=*/true,
                           &oneshot, nullptr)
                  .ok());
  EXPECT_EQ(first.events(), oneshot.events());
}

TEST(PathEngine, InvalidateDistanceCacheForcesMisses) {
  const Graph g = PaperFigure1Graph();
  const std::vector<PathQuery> queries = PaperFigure1Queries();
  PathEngine engine(g, UntimedOptions());
  ASSERT_TRUE(engine.RunBatch(queries, nullptr).ok());
  engine.InvalidateDistanceCache();
  BatchStats stats;
  ASSERT_TRUE(engine.RunBatch(queries, nullptr, &stats).ok());
  EXPECT_EQ(stats.distance_cache_hits, 0u);
  EXPECT_GT(stats.distance_cache_misses, 0u);
}

TEST(PathEngine, DisabledCacheStillServes) {
  const Graph g = PaperFigure1Graph();
  PathEngineOptions opt = UntimedOptions();
  opt.enable_distance_cache = false;
  PathEngine engine(g, opt);
  EXPECT_EQ(engine.distance_cache(), nullptr);
  BatchStats stats;
  ASSERT_TRUE(engine.RunBatch(PaperFigure1Queries(), nullptr, &stats).ok());
  ASSERT_TRUE(engine.RunBatch(PaperFigure1Queries(), nullptr, &stats).ok());
  EXPECT_EQ(stats.distance_cache_hits, 0u);
  EXPECT_EQ(stats.distance_cache_misses, 0u);
}

/// Regression for the concurrent-Flush-during-Submit-at-capacity race:
/// the queue budget (2) is far below the batch window (1024) in untimed
/// mode, so ONLY Flush can cut — producers block at capacity while the
/// main thread flushes concurrently. Every submit must eventually be
/// admitted and completed; no deadlock, no lost query (wall clock, real
/// threads — runs under the tsan label).
TEST(PathEngine, ConcurrentFlushReleasesSubmitsBlockedAtCapacity) {
  const Graph g = PaperFigure1Graph();
  PathEngineOptions opt = UntimedOptions();
  opt.max_batch_size = 1024;
  opt.admission.max_queued_queries = 2;
  opt.admission.backpressure = AdmissionBackpressure::kBlock;
  // low == high == 1.0: shedding disabled (nothing is ever above the
  // low-watermark target), so blocking is the only overload response.
  opt.admission.shed_high_watermark = 1.0;
  opt.admission.shed_low_watermark = 1.0;
  PathEngine engine(g, opt);
  ASSERT_TRUE(engine.status().ok());

  const std::vector<PathQuery> queries = PaperFigure1Queries();
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 4;
  std::vector<std::vector<std::future<QueryResult>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        futures[p].push_back(
            engine.Submit("p" + std::to_string(p),
                          queries[(p + i) % queries.size()]));
      }
    });
  }
  // Flush concurrently until everything submitted made it through.
  while (engine.GetStats().queries_completed <
         static_cast<uint64_t>(kProducers * kPerProducer)) {
    engine.Flush();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : producers) t.join();
  for (auto& fs : futures) {
    for (auto& f : fs) {
      QueryResult r = f.get();
      EXPECT_TRUE(r.status.ok()) << r.status;
    }
  }
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.queries_completed,
            static_cast<uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.queries_shed, 0u);
  EXPECT_LE(stats.peak_queued_queries, 2u);
}

/// Regression for the shutdown-with-queued-tenants race: at destruction,
/// already-admitted queries are drained and complete OK while submits
/// still blocked on queue space wake and fail with FailedPrecondition —
/// nobody deadlocks, no future is abandoned.
TEST(PathEngine, ShutdownDrainsQueuedTenantsAndFailsBlockedSubmitters) {
  const Graph g = PaperFigure1Graph();
  std::vector<std::future<QueryResult>> admitted;
  std::vector<std::future<QueryResult>> blocked(3);
  std::vector<std::thread> submitters;
  {
    PathEngineOptions opt = UntimedOptions();
    opt.max_batch_size = 1024;  // only shutdown's final flush can cut
    opt.admission.max_queued_queries = 2;
    opt.admission.backpressure = AdmissionBackpressure::kBlock;
    opt.admission.shed_high_watermark = 1.0;
    opt.admission.shed_low_watermark = 1.0;
    PathEngine engine(g, opt);
    ASSERT_TRUE(engine.status().ok());

    admitted.push_back(engine.Submit("queued", PathQuery{0, 11, 5}));
    admitted.push_back(engine.Submit("queued", PathQuery{2, 13, 5}));
    for (int i = 0; i < 3; ++i) {
      submitters.emplace_back([&, i] {
        blocked[i] =
            engine.Submit("t" + std::to_string(i), PathQuery{4, 14, 4});
      });
    }
    while (engine.GetStats().backpressure_blocks < 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Destruction: drain the two queued, fail the three blocked.
  }
  for (auto& t : submitters) t.join();
  for (auto& f : admitted) {
    QueryResult r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status;
    EXPECT_EQ(r.path_count, 3u);
  }
  for (auto& f : blocked) {
    QueryResult r = f.get();
    EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition) << r.status;
  }
}

/// The acceptance-criteria property: N consecutive micro-batches through
/// one engine — second pass warm — equal N one-shot RunBatchEnum calls,
/// stream for stream, count for count, at 1 and 4 threads.
TEST(PathEngine, WarmEngineByteIdenticalToOneShot) {
  Rng rng(2024);
  const Graph g = *GenerateSmallWorld(600, 5, 0.08, rng);

  // A skewed stream: a few hot endpoints repeated across micro-batches.
  Rng qrng(99);
  std::vector<std::vector<PathQuery>> batches;
  std::vector<PathQuery> hot = {{1, 40, 4}, {7, 90, 5}, {13, 150, 4}};
  for (int b = 0; b < 6; ++b) {
    std::vector<PathQuery> batch;
    for (int i = 0; i < 8; ++i) {
      if (qrng.NextBounded(2) == 0) {
        batch.push_back(hot[qrng.NextBounded(hot.size())]);
      } else {
        VertexId s = static_cast<VertexId>(qrng.NextBounded(600));
        VertexId t = static_cast<VertexId>(qrng.NextBounded(600));
        if (s == t) t = (t + 1) % 600;
        batch.push_back({s, t, 3 + static_cast<int>(qrng.NextBounded(3))});
      }
    }
    batches.push_back(std::move(batch));
  }

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PathEngineOptions opt = UntimedOptions(threads);
    PathEngine engine(g, opt);
    uint64_t warm_hits = 0;
    for (const auto& batch : batches) {
      // Engine path (shared sink preserves the batch's global emission
      // order for comparison).
      RecordingSink engine_sink;
      std::vector<std::future<QueryResult>> futures;
      for (const PathQuery& q : batch) {
        futures.push_back(engine.Submit(q, &engine_sink));
      }
      engine.Flush();
      engine.Drain();
      for (auto& f : futures) ASSERT_TRUE(f.get().status.ok());

      // One-shot reference on a fresh context, sequential-equivalent
      // options.
      RecordingSink oneshot_sink;
      BatchStats oneshot_stats;
      BatchOptions ref = opt.batch;
      ASSERT_TRUE(RunBatchEnum(g, batch, ref, /*optimized_order=*/true,
                               &oneshot_sink, &oneshot_stats)
                      .ok());
      ASSERT_EQ(engine_sink.events(), oneshot_sink.events());
      warm_hits = engine.GetStats().distance_cache_hits;
    }
    // The hot endpoints repeat, so a warm engine must have served some
    // builds from the cache while matching the one-shot streams above.
    EXPECT_GT(warm_hits, 0u);
  }
}

/// Per-query sink that takes bulk runs as bulk runs (OnPaths appends the
/// range) and single paths one at a time.
class BulkCollectingSink : public PathSink {
 public:
  void OnPath(size_t, PathView p) override { paths_.Add(p); }
  void OnPaths(size_t, const PathSet& paths, size_t begin,
               size_t end) override {
    paths_.AppendRange(paths, begin, end);
  }
  const PathSet& paths() const { return paths_; }

 private:
  PathSet paths_;
};

std::vector<std::vector<VertexId>> InOrder(const PathSet& ps) {
  std::vector<std::vector<VertexId>> out;
  for (size_t i = 0; i < ps.size(); ++i) {
    out.emplace_back(ps[i].begin(), ps[i].end());
  }
  return out;
}

// The engine's demux takes the merge's bulk runs whole: the collected sets
// and the forwarded per-query streams must equal, path for path and in
// order, a sequential run observed one OnPath call at a time.
TEST(PathEngine, BulkDeliveryMatchesPerPathReference) {
  Rng rng(77);
  const Graph g = *GenerateSmallWorld(400, 6, 0.05, rng);
  // Every query goes in twice, collected then forwarded; the reference
  // runs that same 16-query batch so both see the same clustering.
  const std::vector<PathQuery> distinct = {{1, 30, 5}, {1, 30, 5},
                                           {2, 31, 5}, {5, 60, 4},
                                           {1, 30, 4}, {9, 33, 5},
                                           {2, 31, 4}, {70, 5, 5}};
  std::vector<PathQuery> batch;
  for (const PathQuery& q : distinct) {
    batch.push_back(q);
    batch.push_back(q);
  }

  RecordingSink ref_sink;
  BatchOptions ref = UntimedOptions(1).batch;
  ASSERT_TRUE(RunBatchEnum(g, batch, ref, /*optimized_order=*/true,
                           &ref_sink, nullptr)
                  .ok());
  std::vector<std::vector<std::vector<VertexId>>> expected(batch.size());
  for (const auto& [qi, path] : ref_sink.events()) {
    expected[qi].push_back(path);
  }
  ASSERT_GT(ref_sink.events().size(), 100u);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PathEngine engine(g, UntimedOptions(threads));
    std::vector<BulkCollectingSink> sinks(batch.size());
    std::vector<std::future<QueryResult>> futures;
    for (size_t i = 0; i < batch.size(); ++i) {
      // Even positions collect, odd positions forward to their own sink.
      futures.push_back(
          engine.Submit(batch[i], i % 2 == 0 ? nullptr : &sinks[i]));
    }
    engine.Flush();
    for (size_t i = 0; i < batch.size(); ++i) {
      QueryResult r = futures[i].get();
      ASSERT_TRUE(r.status.ok()) << r.status;
      EXPECT_EQ(r.path_count, expected[i].size()) << "query " << i;
      const PathSet& got = i % 2 == 0 ? r.paths : sinks[i].paths();
      EXPECT_EQ(InOrder(got), expected[i]) << "query " << i;
      if (i % 2 == 1) EXPECT_EQ(r.paths.size(), 0u);  // not collected
    }
  }
}

}  // namespace
}  // namespace hcpath
