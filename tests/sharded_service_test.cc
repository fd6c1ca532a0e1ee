// ShardedPathService tests: routing + ordered-merge parity against a
// 1-shard reference, and the supervisor's fault machinery replayed exactly
// on a VirtualClock — crash → suspect → down → restart → re-admit,
// bounded retry with backoff, per-query deadlines, dropped-reply
// detection, hedged dispatch winner selection, and graceful degradation
// with the attempt/query conservation identities intact throughout.

#include "service/sharded_service.h"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <utility>
#include <vector>

#include "core/brute_force.h"
#include "graph/graph_builder.h"
#include "service/admission_status.h"
#include "service/clock.h"
#include "service/fault_injector.h"
#include "test_graphs.h"

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

// All timing knobs are binary-exact doubles (power-of-two fractions), so
// sums of intervals compare exactly against the literals the exact-replay
// tests advance to — no floating-point slop anywhere in a timeline.
ShardedServiceOptions BaseOptions(int shards) {
  ShardedServiceOptions opt;
  opt.num_shards = shards;
  opt.batch.num_threads = 1;
  opt.service_time_seconds = 0.015625;       // 1/64
  opt.heartbeat_interval_seconds = 0.0625;   // 1/16
  opt.suspect_after_missed = 2;
  opt.down_after_missed = 4;
  opt.restart_delay_seconds = 0.125;         // 1/8
  opt.restart_duration_seconds = 0.25;       // 1/4
  opt.max_retries = 3;
  opt.retry_backoff_seconds = 0.0625;        // 1/16
  opt.retry_jitter_fraction = 0;  // exact-timeline tests; fuzz adds jitter
  return opt;
}

void CheckConservation(const ShardedServiceStats& s) {
  EXPECT_EQ(s.queries_submitted,
            s.queries_completed + s.queries_failed + s.queries_rejected);
  EXPECT_EQ(s.dispatches, s.attempts_completed + s.attempts_failed +
                              s.attempts_cancelled + s.attempts_dropped +
                              s.attempts_in_flight);
  EXPECT_EQ(s.attempts_in_flight, 0u);
  EXPECT_EQ(s.queries_stalled, 0u);
}

TEST(ShardedServiceOptions, ValidateRejectsBadConfigs) {
  ShardedServiceOptions opt;
  EXPECT_TRUE(opt.Validate().ok());
  opt.num_shards = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = ShardedServiceOptions();
  opt.heartbeat_interval_seconds = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = ShardedServiceOptions();
  opt.down_after_missed = 1;
  opt.suspect_after_missed = 3;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = ShardedServiceOptions();
  opt.enable_hedging = true;
  opt.hedge_quantile = 1.5;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = ShardedServiceOptions();
  opt.retry_backoff_seconds = -1;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = ShardedServiceOptions();
  opt.batch.gamma = 2.0;  // propagates BatchOptions validation
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);

  const Graph g = PaperFigure1Graph();
  opt = ShardedServiceOptions();
  opt.num_shards = -1;
  VirtualClock vc;
  ShardedPathService svc(&g, opt, &vc);
  EXPECT_EQ(svc.init_status().code(), StatusCode::kInvalidArgument);

  // A service that failed validation answers with its Status, never an
  // abort: with no injected clock, submit and step still return.
  opt = ShardedServiceOptions();
  opt.num_shards = 0;
  ShardedPathService unclocked(&g, opt);
  ASSERT_EQ(unclocked.init_status().code(), StatusCode::kInvalidArgument);
  auto futures = unclocked.SubmitBatch("t", PaperFigure1Queries());
  ASSERT_EQ(futures.size(), PaperFigure1Queries().size());
  for (auto& f : futures) {
    const QueryResult r = f.get();
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument) << r.status;
    EXPECT_EQ(r.tenant, "t");
  }
  EXPECT_EQ(unclocked.Step(), 0u);
}

// The headline parity property: an N-shard service under either routing
// policy produces, per query, byte-identical results to a 1-shard
// reference, and its sink stream is the same submission-ordered stream.
TEST(ShardedService, ShardCountAndRoutingParity) {
  const Graph g = PaperFigure1Graph();
  const std::vector<PathQuery> queries = PaperFigure1Queries();

  VirtualClock ref_clock;
  RecordingSink ref_sink;
  ShardedPathService reference(&g, BaseOptions(1), &ref_clock);
  ASSERT_TRUE(reference.init_status().ok());
  auto ref_futures = reference.SubmitBatch("t", queries, &ref_sink);
  reference.RunToCompletion(&ref_clock);
  std::vector<QueryResult> ref_results;
  for (auto& f : ref_futures) ref_results.push_back(f.get());

  for (int shards : {2, 4}) {
    for (RoutingPolicy policy :
         {RoutingPolicy::kHash, RoutingPolicy::kRoundRobin}) {
      VirtualClock vc;
      RecordingSink sink;
      ShardedServiceOptions opt = BaseOptions(shards);
      opt.routing = policy;
      ShardedPathService svc(&g, opt, &vc);
      ASSERT_TRUE(svc.init_status().ok());
      auto futures = svc.SubmitBatch("t", queries, &sink);
      svc.RunToCompletion(&vc);
      ASSERT_EQ(futures.size(), ref_results.size());
      for (size_t i = 0; i < futures.size(); ++i) {
        QueryResult r = futures[i].get();
        ASSERT_TRUE(r.status.ok()) << r.status;
        EXPECT_EQ(r.path_count, ref_results[i].path_count)
            << "shards=" << shards << " query " << i;
      }
      // Byte-identical stream: same (query_index, path) sequence.
      EXPECT_EQ(sink.events(), ref_sink.events())
          << "shards=" << shards
          << " routing=" << RoutingPolicyName(policy);
      CheckConservation(svc.GetStats());
    }
  }

  // And the results themselves match brute force. A sinkless run
  // materializes into QueryResult::paths (the sinked runs above streamed
  // theirs, so their results carry counts only).
  VirtualClock mat_clock;
  ShardedPathService materializing(&g, BaseOptions(4), &mat_clock);
  auto mat_futures = materializing.SubmitBatch("t", queries, nullptr);
  materializing.RunToCompletion(&mat_clock);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto oracle = BruteForcePaths(g, queries[i]);
    ASSERT_TRUE(oracle.ok());
    QueryResult r = mat_futures[i].get();
    EXPECT_EQ(ref_results[i].path_count, oracle->size());
    EXPECT_EQ(r.paths.ToSortedVectors(), oracle->ToSortedVectors());
  }
}

// An invalid query fails its own future with InvalidArgument (permanent)
// and occupies a zero-path slot in the merge; siblings are untouched.
TEST(ShardedService, InvalidQueryRejectedIndividually) {
  const Graph g = PaperFigure1Graph();
  VirtualClock vc;
  ShardedPathService svc(&g, BaseOptions(2), &vc);
  RecordingSink sink;
  std::vector<PathQuery> queries = {{0, 11, 5}, {999, 3, 4}, {2, 13, 5}};
  auto futures = svc.SubmitBatch("t", queries, &sink);
  svc.RunToCompletion(&vc);

  EXPECT_TRUE(futures[0].get().status.ok());
  QueryResult bad = futures[1].get();
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(bad.status.retryable());
  EXPECT_TRUE(futures[2].get().status.ok());
  // The sink saw only the two valid queries, still in submission order.
  for (size_t i = 1; i < sink.events().size(); ++i) {
    EXPECT_LE(sink.events()[i - 1].first, sink.events()[i].first);
  }
  ShardedServiceStats s = svc.GetStats();
  EXPECT_EQ(s.queries_rejected, 1u);
  CheckConservation(s);
}

// The acceptance-criteria replay: a scripted crash on shard 0's first
// dispatch walks the exact healthy → suspect → down → restarting →
// healthy schedule on the virtual timeline, fails over the stranded
// attempt to shard 1, and re-admits dispatches after restart.
TEST(ShardedService, CrashSuspectDownRestartReadmitExactSchedule) {
  const Graph g = PaperFigure1Graph();
  VirtualClock vc;
  FaultInjector fi({FaultRule{/*shard=*/0, /*at_dispatch=*/0, /*count=*/1,
                              FaultKind::kCrash, 0.0, 1.0}});
  ShardedServiceOptions opt = BaseOptions(2);
  opt.routing = RoutingPolicy::kRoundRobin;  // query 0 -> shard 0
  ShardedPathService svc(&g, opt, &vc, &fi);
  auto futures = svc.SubmitBatch("t", {{0, 11, 5}}, nullptr);

  // t=0: dispatch crashed shard 0. Heartbeats every 1/16 s; suspect at 2
  // missed, down at 4, restart begins 1/8 s after down and takes 1/4 s.
  EXPECT_EQ(svc.shard_health(0), ShardHealth::kHealthy);
  vc.AdvanceTo(0.0625);  // missed 1
  svc.Step();
  EXPECT_EQ(svc.shard_health(0), ShardHealth::kHealthy);
  vc.AdvanceTo(0.125);  // missed 2 -> suspect
  svc.Step();
  EXPECT_EQ(svc.shard_health(0), ShardHealth::kSuspect);
  vc.AdvanceTo(0.1875);  // missed 3
  svc.Step();
  EXPECT_EQ(svc.shard_health(0), ShardHealth::kSuspect);
  vc.AdvanceTo(0.25);  // missed 4 -> down; failover + retry scheduled
  svc.Step();
  EXPECT_EQ(svc.shard_health(0), ShardHealth::kDown);
  // Retry lands on shard 1 at 0.3125 (backoff 1/16, no jitter) and
  // completes one service time later at 0.328125.
  vc.AdvanceTo(0.328125);
  svc.Step();
  ASSERT_EQ(futures[0].wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  QueryResult r = futures[0].get();
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.path_count, 3u);  // q0 of Fig 1
  vc.AdvanceTo(0.375);  // down + 1/8 -> restart begins
  svc.Step();
  EXPECT_EQ(svc.shard_health(0), ShardHealth::kRestarting);
  vc.AdvanceTo(0.625);  // + 1/4 -> serving again
  svc.Step();
  EXPECT_EQ(svc.shard_health(0), ShardHealth::kHealthy);
  svc.RunToCompletion(&vc);

  ShardedServiceStats s = svc.GetStats();
  EXPECT_EQ(s.shards[0].crashes, 1u);
  EXPECT_EQ(s.shards[0].restarts, 1u);
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.queries_completed, 1u);
  CheckConservation(s);

  // Re-admission: the restarted shard serves again. Round-robin has
  // advanced once (the crashed dispatch), so two queries guarantee one
  // lands back on shard 0.
  auto f2 = svc.SubmitBatch("t", {{0, 11, 5}, {2, 13, 5}}, nullptr);
  svc.RunToCompletion(&vc);
  EXPECT_TRUE(f2[0].get().status.ok());
  EXPECT_TRUE(f2[1].get().status.ok());
  EXPECT_GE(svc.GetStats().shards[0].completions, 1u);
}

// fail-N-then-succeed: bounded retry with backoff absorbs transient
// dispatch failures without surfacing them to the caller.
TEST(ShardedService, RetryAbsorbsFailNThenSucceed) {
  const Graph g = PaperFigure1Graph();
  VirtualClock vc;
  FaultInjector fi({FaultRule{0, 0, 2, FaultKind::kFailN, 0.0, 1.0},
                    FaultRule{1, 0, 2, FaultKind::kFailN, 0.0, 1.0}});
  ShardedServiceOptions opt = BaseOptions(2);
  opt.routing = RoutingPolicy::kRoundRobin;
  opt.max_retries = 4;
  ShardedPathService svc(&g, opt, &vc, &fi);
  auto futures = svc.SubmitBatch("t", {{0, 11, 5}}, nullptr);
  svc.RunToCompletion(&vc);
  QueryResult r = futures[0].get();
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.path_count, 3u);
  ShardedServiceStats s = svc.GetStats();
  EXPECT_GE(s.retries, 2u);
  EXPECT_TRUE(fi.fired(FaultKind::kFailN) >= 2);
  CheckConservation(s);
}

// Retry budget exhausted: the query fails with the canonical retryable
// kUnavailable and the batch still completes — graceful degradation, not
// a stalled merge.
TEST(ShardedService, DegradesWithPerQueryStatusPastRetryBudget) {
  const Graph g = PaperFigure1Graph();
  VirtualClock vc;
  FaultInjector fi({FaultRule{0, 0, 100, FaultKind::kFailN, 0.0, 1.0},
                    FaultRule{1, 0, 100, FaultKind::kFailN, 0.0, 1.0}});
  ShardedServiceOptions opt = BaseOptions(2);
  opt.max_retries = 2;
  ShardedPathService svc(&g, opt, &vc, &fi);
  RecordingSink sink;
  auto futures = svc.SubmitBatch("t", PaperFigure1Queries(), &sink);
  svc.RunToCompletion(&vc);
  for (auto& f : futures) {
    QueryResult r = f.get();
    EXPECT_TRUE(IsShardUnavailable(r.status)) << r.status;
    EXPECT_TRUE(r.status.retryable());
  }
  EXPECT_TRUE(sink.events().empty());
  ShardedServiceStats s = svc.GetStats();
  EXPECT_EQ(s.queries_failed, 5u);
  CheckConservation(s);
}

// Per-query deadline: expiry is terminal kDeadlineExceeded and cancels
// the outstanding attempt; the merge completes.
TEST(ShardedService, DeadlineExpiryIsTerminal) {
  const Graph g = PaperFigure1Graph();
  VirtualClock vc;
  // Straggler: every shard-0 dispatch is 100x slow (1s >> deadline).
  FaultInjector fi({FaultRule{0, 0, 100, FaultKind::kSlow, 0.0, 100.0}});
  ShardedServiceOptions opt = BaseOptions(1);
  opt.deadline_seconds = 0.25;
  opt.max_retries = 0;
  ShardedPathService svc(&g, opt, &vc, &fi);
  auto futures = svc.SubmitBatch("t", {{0, 11, 5}}, nullptr);
  svc.RunToCompletion(&vc);
  QueryResult r = futures[0].get();
  EXPECT_TRUE(IsQueryDeadline(r.status)) << r.status;
  EXPECT_TRUE(r.status.retryable());  // caller may re-submit afresh
  ShardedServiceStats s = svc.GetStats();
  EXPECT_EQ(s.deadline_expired, 1u);
  CheckConservation(s);
}

// drop-reply: the shard does the work, the reply vanishes; the per-attempt
// timeout is the detection path and the retry re-executes elsewhere.
TEST(ShardedService, DroppedReplyDetectedByAttemptTimeout) {
  const Graph g = PaperFigure1Graph();
  VirtualClock vc;
  FaultInjector fi({FaultRule{0, 0, 1, FaultKind::kDropReply, 0.0, 1.0}});
  ShardedServiceOptions opt = BaseOptions(2);
  opt.routing = RoutingPolicy::kRoundRobin;
  opt.attempt_timeout_seconds = 0.125;
  ShardedPathService svc(&g, opt, &vc, &fi);
  auto futures = svc.SubmitBatch("t", {{0, 11, 5}}, nullptr);
  svc.RunToCompletion(&vc);
  QueryResult r = futures[0].get();
  ASSERT_TRUE(r.status.ok()) << r.status;
  EXPECT_EQ(r.path_count, 3u);
  ShardedServiceStats s = svc.GetStats();
  EXPECT_EQ(s.attempts_dropped, 1u);
  EXPECT_GE(s.attempt_timeouts, 1u);
  EXPECT_GE(s.retries, 1u);
  CheckConservation(s);
}

// Hedged dispatch: a scripted straggler primary is overtaken by the hedge
// on the sibling; first reply wins, the loser is cancelled, and the
// result is byte-identical either way (replicated shards). Deterministic:
// two identical runs produce identical stats and bytes.
TEST(ShardedService, HedgedDispatchFirstReplyWins) {
  const Graph g = PaperFigure1Graph();
  auto run = [&](ShardedServiceStats* stats_out) {
    VirtualClock vc;
    FaultInjector fi({FaultRule{0, 0, 1, FaultKind::kSlow, 0.0, 50.0}});
    ShardedServiceOptions opt = BaseOptions(2);
    opt.routing = RoutingPolicy::kRoundRobin;  // query -> shard 0
    opt.enable_hedging = true;
    opt.hedge_after_seconds = 0.03125;  // 1/32
    opt.hedge_min_samples = 1000;  // stay on the cold-start threshold
    ShardedPathService svc(&g, opt, &vc, &fi);
    auto futures = svc.SubmitBatch("t", {{0, 11, 5}}, nullptr);
    svc.RunToCompletion(&vc);
    QueryResult r = futures[0].get();
    *stats_out = svc.GetStats();
    return r;
  };
  ShardedServiceStats s1, s2;
  QueryResult r1 = run(&s1);
  QueryResult r2 = run(&s2);
  ASSERT_TRUE(r1.status.ok()) << r1.status;
  EXPECT_EQ(r1.path_count, 3u);
  EXPECT_EQ(r1.paths.ToSortedVectors(), r2.paths.ToSortedVectors());
  EXPECT_EQ(s1.hedges, 1u);
  EXPECT_EQ(s1.hedged_wins, 1u);  // hedge (fast sibling) answered first
  EXPECT_EQ(s1.attempts_cancelled, 1u);  // the straggler's reply ignored
  EXPECT_EQ(s1.hedges, s2.hedges);
  EXPECT_EQ(s1.hedged_wins, s2.hedged_wins);
  EXPECT_EQ(s1.dispatches, s2.dispatches);
  CheckConservation(s1);
  // The hedge must cut latency far below the straggler's 0.78125s
  // service time (50 * 1/64).
  EXPECT_LT(r1.batch_seconds, 0.1);
}

// Hang: a hung shard stops heartbeating, degrades to suspect, and heals
// back to healthy once the stall clears — without a restart.
TEST(ShardedService, HangSuppressesHeartbeatsThenHeals) {
  const Graph g = PaperFigure1Graph();
  VirtualClock vc;
  FaultInjector fi({FaultRule{0, 0, 1, FaultKind::kHang, 0.1875, 1.0}});
  ShardedServiceOptions opt = BaseOptions(1);
  ShardedPathService svc(&g, opt, &vc, &fi);
  auto futures = svc.SubmitBatch("t", {{0, 11, 5}}, nullptr);
  vc.AdvanceTo(0.125);  // two missed beats inside the 0.1875s hang
  svc.Step();
  EXPECT_EQ(svc.shard_health(0), ShardHealth::kSuspect);
  svc.RunToCompletion(&vc);
  EXPECT_TRUE(futures[0].get().status.ok());
  EXPECT_EQ(svc.shard_health(0), ShardHealth::kHealthy);
  EXPECT_EQ(svc.GetStats().shards[0].restarts, 0u);
  CheckConservation(svc.GetStats());
}

// Store-backed shards: a restart re-pins Current(), so a shard that died
// before an update batch comes back on the new epoch while its sibling
// keeps serving the old pinned snapshot (pin-aware GC keeps it valid).
TEST(ShardedService, RestartRepinsCurrentSnapshot) {
  GraphBuilder b(16);
  const Graph seed = PaperFigure1Graph();
  GraphStore store(seed);
  VirtualClock vc;
  FaultInjector fi({FaultRule{0, 0, 1, FaultKind::kCrash, 0.0, 1.0}});
  ShardedServiceOptions opt = BaseOptions(2);
  opt.routing = RoutingPolicy::kRoundRobin;
  ShardedPathService svc(&store, opt, &vc, &fi);
  EXPECT_EQ(svc.shard_epoch(0), 0u);
  EXPECT_EQ(svc.shard_epoch(1), 0u);

  auto futures = svc.SubmitBatch("t", {{0, 11, 5}}, nullptr);
  // While shard 0 is dead, the graph moves on.
  const std::vector<EdgeUpdate> updates = {EdgeUpdate::Add(0, 2)};
  ASSERT_TRUE(store.ApplyUpdates(updates).ok());
  svc.RunToCompletion(&vc);
  EXPECT_TRUE(futures[0].get().status.ok());
  EXPECT_EQ(svc.shard_epoch(0), 1u);  // restarted onto the new epoch
  EXPECT_EQ(svc.shard_epoch(1), 0u);  // old pin still draining
  CheckConservation(svc.GetStats());
}

// Multi-batch interleaving: batches drain independently, each in its own
// submission order, under round-robin routing with faults.
TEST(ShardedService, IndependentBatchesDrainIndependently) {
  const Graph g = PaperFigure1Graph();
  VirtualClock vc;
  FaultInjector fi({FaultRule{1, 0, 1, FaultKind::kFailN, 0.0, 1.0}});
  ShardedServiceOptions opt = BaseOptions(4);
  opt.routing = RoutingPolicy::kRoundRobin;
  ShardedPathService svc(&g, opt, &vc, &fi);
  RecordingSink sink_a, sink_b;
  auto fa = svc.SubmitBatch("a", PaperFigure1Queries(), &sink_a);
  auto fb = svc.SubmitBatch("b", PaperFigure1Queries(), &sink_b);
  svc.RunToCompletion(&vc);
  for (auto& f : fa) EXPECT_TRUE(f.get().status.ok());
  for (auto& f : fb) EXPECT_TRUE(f.get().status.ok());
  EXPECT_EQ(sink_a.events(), sink_b.events());  // same queries, same bytes
  for (size_t i = 1; i < sink_a.events().size(); ++i) {
    EXPECT_LE(sink_a.events()[i - 1].first, sink_a.events()[i].first);
  }
  CheckConservation(svc.GetStats());
}

}  // namespace
}  // namespace hcpath
