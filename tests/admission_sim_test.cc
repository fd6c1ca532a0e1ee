// Deterministic scheduler simulation of the PathEngine admission layer:
// a VirtualClock plus manual dispatch (StepDispatch) let each scenario
// interleave submissions, time steps, and dispatcher steps and observe
// exactly one schedule — making WFQ fairness ratios, shed ordering,
// backpressure release ordering, and cut timing exactly assertable
// (docs/SERVICE.md, "Admission determinism").
//
// Runs under the tsan label: the backpressure scenarios block real
// threads in Submit against the stepping thread.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/brute_force.h"
#include "service/clock.h"
#include "service/path_engine.h"
#include "service/tenant_queue.h"
#include "test_graphs.h"

namespace hcpath {
namespace {

bool Ready(const std::future<QueryResult>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

bool IsShedStatus(const Status& st) {
  return st.code() == StatusCode::kResourceExhausted &&
         st.message().rfind("query shed by admission control", 0) == 0;
}

bool IsQueueFullStatus(const Status& st) {
  return st.code() == StatusCode::kResourceExhausted &&
         st.message().rfind("admission queue full", 0) == 0;
}

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

/// Manual-dispatch engine on the paper graph with a virtual clock.
PathEngineOptions SimOptions(VirtualClock* clock) {
  PathEngineOptions opt;
  opt.batch.num_threads = 1;
  opt.max_wait_seconds = 0;  // cuts on size/Flush/shutdown unless a test arms it
  opt.max_batch_size = 1024;
  opt.clock = clock;
  opt.manual_dispatch = true;
  return opt;
}

// ---------------------------------------------------------------------------
// WeightedFairQueue unit scenarios: the exact drain and shed orders every
// engine-level assertion below builds on.

TEST(WeightedFairQueueSim, DrainOrderIsExactWfqSchedule) {
  WeightedFairQueue<int> q;
  q.SetWeight("a", 4);
  q.SetWeight("b", 2);
  q.SetWeight("c", 1);
  for (int i = 0; i < 8; ++i) q.Push("a", 0, 1, i);
  for (int i = 0; i < 4; ++i) q.Push("b", 0, 1, i);
  for (int i = 0; i < 2; ++i) q.Push("c", 0, 1, i);

  // Weights 4:2:1 with everyone backlogged: each 7-slot round serves
  // a,a,b,a,a,b,c (ties go to the lexicographically smallest tenant),
  // FIFO within a tenant.
  std::vector<std::string> order;
  std::vector<int> a_values;
  while (!q.empty()) {
    auto item = q.PopNext();
    if (item.tenant == "a") a_values.push_back(item.value);
    order.push_back(item.tenant);
  }
  const std::vector<std::string> expected = {"a", "a", "b", "a", "a", "b",
                                             "c", "a", "a", "b", "a", "a",
                                             "b", "c"};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(a_values, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(WeightedFairQueueSim, IdleTenantGetsNoCatchUpBurst) {
  WeightedFairQueue<int> q;
  q.SetWeight("a", 1);
  q.SetWeight("b", 1);
  for (int i = 0; i < 6; ++i) q.Push("a", 0, 1, i);
  // Drain 4 'a' items while b is idle; b then arrives.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.PopNext().tenant, "a");
  for (int i = 0; i < 4; ++i) q.Push("b", 0, 1, i);
  // b starts at the queue-wide virtual time: equal weights alternate
  // (ties to "a") instead of b burning its idle "credit" in a burst.
  std::vector<std::string> order;
  while (!q.empty()) order.push_back(q.PopNext().tenant);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b", "b", "b"}));
}

TEST(WeightedFairQueueSim, ShedOrderLowestWeightNewestFirst) {
  WeightedFairQueue<int> q;
  q.SetWeight("hi", 4);
  q.SetWeight("lo", 1);
  q.SetWeight("mid", 2);
  for (int i = 0; i < 3; ++i) q.Push("hi", 0, 1, i);
  for (int i = 0; i < 3; ++i) q.Push("mid", 0, 1, i);
  for (int i = 0; i < 2; ++i) q.Push("lo", 0, 1, i);

  // Shed 8 -> 4: all of lo (newest first), then mid's newest.
  auto shed = q.ShedDownTo(4, /*target_bytes=*/1ull << 30);
  ASSERT_EQ(shed.size(), 4u);
  EXPECT_EQ(shed[0].tenant, "lo");
  EXPECT_EQ(shed[0].value, 1);  // newest lo first
  EXPECT_EQ(shed[1].tenant, "lo");
  EXPECT_EQ(shed[1].value, 0);
  EXPECT_EQ(shed[2].tenant, "mid");
  EXPECT_EQ(shed[2].value, 2);  // then mid, newest first
  EXPECT_EQ(shed[3].tenant, "mid");
  EXPECT_EQ(shed[3].value, 1);
  EXPECT_EQ(q.size(), 4u);
}

TEST(WeightedFairQueueSim, ShedTieBreaksOnGreatestTenantId) {
  WeightedFairQueue<int> q;  // equal (default) weights
  q.Push("a", 0, 1, 0);
  q.Push("b", 0, 1, 0);
  q.Push("b", 0, 1, 1);
  auto shed = q.ShedDownTo(1, 1ull << 30);
  ASSERT_EQ(shed.size(), 2u);
  // Equal weight: lexicographically greatest tenant sheds first.
  EXPECT_EQ(shed[0].tenant, "b");
  EXPECT_EQ(shed[0].value, 1);
  EXPECT_EQ(shed[1].tenant, "b");
  EXPECT_EQ(shed[1].value, 0);
  EXPECT_EQ(q.PopNext().tenant, "a");
}

TEST(WeightedFairQueueSim, ShedHonorsByteTarget) {
  WeightedFairQueue<int> q;
  for (int i = 0; i < 4; ++i) q.Push("a", 0, /*cost_bytes=*/100, i);
  EXPECT_EQ(q.bytes(), 400u);
  auto shed = q.ShedDownTo(/*target_items=*/4, /*target_bytes=*/250);
  EXPECT_EQ(shed.size(), 2u);  // 400 -> 200 bytes needs two drops
  EXPECT_EQ(q.bytes(), 200u);
}

// ---------------------------------------------------------------------------
// Engine scenarios.

TEST(AdmissionSim, FairnessRatiosOverSkewedTenants) {
  const Graph g = PaperFigure1Graph();
  VirtualClock clock;
  PathEngineOptions opt = SimOptions(&clock);
  opt.max_batch_size = 7;
  opt.admission.tenant_weights = {{"a", 4.0}, {"b", 2.0}, {"c", 1.0}};
  PathEngine engine(g, opt);
  ASSERT_TRUE(engine.status().ok());

  const PathQuery q{0, 11, 5};  // 3 paths
  std::vector<std::future<QueryResult>> fa, fb, fc;
  for (int i = 0; i < 12; ++i) fa.push_back(engine.Submit("a", q));
  for (int i = 0; i < 12; ++i) fb.push_back(engine.Submit("b", q));
  for (int i = 0; i < 12; ++i) fc.push_back(engine.Submit("c", q));

  // Three fully-backlogged rounds: every 7-slot micro-batch carries
  // exactly 4 a, 2 b, 1 c, FIFO within each tenant.
  for (int round = 1; round <= 3; ++round) {
    ASSERT_EQ(engine.StepDispatch(), 7u) << "round " << round;
    size_t ra = 0, rb = 0, rc = 0;
    for (const auto& f : fa) ra += Ready(f);
    for (const auto& f : fb) rb += Ready(f);
    for (const auto& f : fc) rc += Ready(f);
    EXPECT_EQ(ra, static_cast<size_t>(4 * round)) << "round " << round;
    EXPECT_EQ(rb, static_cast<size_t>(2 * round)) << "round " << round;
    EXPECT_EQ(rc, static_cast<size_t>(1 * round)) << "round " << round;
    // FIFO within a tenant: the ready futures are a prefix.
    for (size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(Ready(fa[i]), i < 4u * round) << "a[" << i << "]";
    }
  }
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.tenants.at("a").completed, 12u);
  EXPECT_EQ(stats.tenants.at("b").completed, 6u);
  EXPECT_EQ(stats.tenants.at("c").completed, 3u);

  // Drain the tail; every admitted query completes with correct results.
  engine.Flush();  // untimed mode: the last underfull batch needs a cut
  while (engine.StepDispatch() > 0) {
  }
  for (auto* fs : {&fa, &fb, &fc}) {
    for (auto& f : *fs) {
      QueryResult r = f.get();
      ASSERT_TRUE(r.status.ok()) << r.status;
      EXPECT_EQ(r.path_count, 3u);
    }
  }
  stats = engine.GetStats();
  EXPECT_EQ(stats.queries_completed, 36u);
  EXPECT_EQ(stats.queries_shed, 0u);
}

TEST(AdmissionSim, ShedOrderAndFastFailAreDeterministic) {
  const Graph g = PaperFigure1Graph();
  VirtualClock clock;
  PathEngineOptions opt = SimOptions(&clock);
  opt.max_batch_size = 4;
  opt.admission.max_queued_queries = 8;
  opt.admission.backpressure = AdmissionBackpressure::kFailFast;
  opt.admission.shed_high_watermark = 1.0;
  opt.admission.shed_low_watermark = 0.5;
  opt.admission.shed_patience_seconds = 10.0;
  opt.admission.tenant_weights = {{"hi", 4.0}, {"lo", 1.0}, {"mid", 2.0}};
  PathEngine engine(g, opt);
  ASSERT_TRUE(engine.status().ok());

  const PathQuery q{0, 11, 5};
  std::vector<std::future<QueryResult>> hi, mid, lo;
  for (int i = 0; i < 3; ++i) hi.push_back(engine.Submit("hi", q));
  for (int i = 0; i < 3; ++i) mid.push_back(engine.Submit("mid", q));
  for (int i = 0; i < 2; ++i) lo.push_back(engine.Submit("lo", q));

  // Queue is at its entry budget: the next submit fast-fails with the
  // documented Status, immediately.
  auto overflow = engine.Submit("lo", q);
  ASSERT_TRUE(Ready(overflow));
  QueryResult of = overflow.get();
  EXPECT_TRUE(IsQueueFullStatus(of.status)) << of.status;

  // Before the patience elapses nothing is shed.
  clock.Advance(9.999);
  EXPECT_EQ(engine.StepDispatch(), 4u);  // size cut still fires (8 >= 4)
  EXPECT_EQ(engine.GetStats().queries_shed, 0u);

  // Refill to the budget and let the overload persist past the patience:
  // the next step sheds 8 -> 4, lowest weight first, newest first within
  // a tenant — then cuts the surviving 4.
  std::vector<std::future<QueryResult>> hi2, mid2, lo2;
  // The first step consumed hi(3) + mid(1) [WFQ: hi,hi,mid,hi]; survivors
  // are mid x2 + lo x2. Top up to 8 again:
  for (int i = 0; i < 2; ++i) hi2.push_back(engine.Submit("hi", q));
  for (int i = 0; i < 2; ++i) mid2.push_back(engine.Submit("mid", q));
  ASSERT_EQ(engine.GetStats().queries_submitted, 12u);
  clock.Advance(10.0);
  EXPECT_EQ(engine.StepDispatch(), 4u);

  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.queries_shed, 4u);
  EXPECT_EQ(stats.shed_rounds, 1u);
  // Shed victims: lo (weight 1) newest-first = lo[1], lo[0]; then mid
  // (weight 2) newest-first = mid2[1], mid2[0]. hi is untouched.
  EXPECT_EQ(stats.tenants.at("lo").shed, 2u);
  EXPECT_EQ(stats.tenants.at("mid").shed, 2u);
  EXPECT_EQ(stats.tenants.at("hi").shed, 0u);
  for (auto& f : lo) {
    ASSERT_TRUE(Ready(f));
    EXPECT_TRUE(IsShedStatus(f.get().status));
  }
  for (auto& f : mid2) {
    ASSERT_TRUE(Ready(f));
    QueryResult r = f.get();
    EXPECT_TRUE(IsShedStatus(r.status)) << r.status;
    EXPECT_EQ(r.tenant, "mid");
  }
  // Everything that was not shed or fast-failed completes fine.
  while (engine.StepDispatch() > 0) {
  }
  for (auto* fs : {&hi, &mid, &hi2}) {
    for (auto& f : *fs) {
      QueryResult r = f.get();
      ASSERT_TRUE(r.status.ok()) << r.status;
      EXPECT_EQ(r.path_count, 3u);
    }
  }
  EXPECT_EQ(engine.GetStats().tenants.at("lo").fast_failed, 1u);
}

TEST(AdmissionSim, BackpressureReleasesBlockedSubmittersInFifoOrder) {
  const Graph g = PaperFigure1Graph();
  VirtualClock clock;
  PathEngineOptions opt = SimOptions(&clock);
  opt.max_batch_size = 2;
  opt.admission.max_queued_queries = 2;
  opt.admission.backpressure = AdmissionBackpressure::kBlock;
  // low == high == 1.0 disables shedding: the queue cannot exceed its
  // budget, so it is never above the low-watermark targets.
  opt.admission.shed_high_watermark = 1.0;
  opt.admission.shed_low_watermark = 1.0;
  PathEngine engine(g, opt);
  ASSERT_TRUE(engine.status().ok());

  auto f1 = engine.Submit({0, 11, 5});
  auto f2 = engine.Submit({2, 13, 5});  // queue now at its entry budget

  // Two submitters block, in a forced order.
  RecordingSink s3, s4;
  std::future<QueryResult> f3, f4;
  std::thread t3([&] { f3 = engine.Submit({4, 14, 4}, &s3); });
  while (engine.GetStats().backpressure_blocks < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread t4([&] { f4 = engine.Submit({9, 14, 3}, &s4); });
  while (engine.GetStats().backpressure_blocks < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // One step drains the two queued queries; the freed capacity admits the
  // blocked submitters in block order (FIFO tickets): t3's query enters
  // the queue before t4's.
  ASSERT_EQ(engine.StepDispatch(), 2u);
  t3.join();
  t4.join();
  ASSERT_EQ(engine.GetStats().queries_submitted, 4u);

  // The next batch's input order is therefore [q3, q4]: sink events carry
  // the query's index inside its micro-batch, so q3 must be index 0 and
  // q4 index 1 — that IS the release ordering, observed end to end.
  ASSERT_EQ(engine.StepDispatch(), 2u);
  QueryResult r3 = f3.get();
  QueryResult r4 = f4.get();
  ASSERT_TRUE(r3.status.ok());
  ASSERT_TRUE(r4.status.ok());
  EXPECT_EQ(s3.events().size(), 2u);  // q3(v4,v14,4) -> 2 paths
  EXPECT_EQ(s4.events().size(), 2u);  // q4(v9,v14,3) -> 2 paths
  for (const auto& e : s3.events()) EXPECT_EQ(e.first, 0u);
  for (const auto& e : s4.events()) EXPECT_EQ(e.first, 1u);
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.backpressure_blocks, 2u);
  EXPECT_EQ(stats.queries_shed, 0u);
  EXPECT_TRUE(f1.get().status.ok());
  EXPECT_TRUE(f2.get().status.ok());
}

TEST(AdmissionSim, WaitCutFiresOnVirtualDeadline) {
  const Graph g = PaperFigure1Graph();
  VirtualClock clock;
  PathEngineOptions opt = SimOptions(&clock);
  opt.max_wait_seconds = 5.0;
  PathEngine engine(g, opt);
  ASSERT_TRUE(engine.status().ok());

  clock.AdvanceTo(100.0);
  auto f = engine.Submit({0, 11, 5});
  EXPECT_EQ(engine.StepDispatch(), 0u);  // not due yet
  clock.Advance(4.999);
  EXPECT_EQ(engine.StepDispatch(), 0u);  // still 1ms early
  clock.Advance(0.001);
  EXPECT_EQ(engine.StepDispatch(), 1u);  // exactly at the deadline
  QueryResult r = f.get();
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.path_count, 3u);
  EXPECT_DOUBLE_EQ(r.wait_seconds, 5.0);  // exact under the virtual clock
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.wait_cuts, 1u);
  EXPECT_EQ(stats.size_cuts, 0u);
}

TEST(AdmissionSim, FlushDuringFullQueueDrainsWithoutShedding) {
  const Graph g = PaperFigure1Graph();
  VirtualClock clock;
  PathEngineOptions opt = SimOptions(&clock);
  opt.max_batch_size = 3;
  opt.admission.max_queued_queries = 5;
  opt.admission.backpressure = AdmissionBackpressure::kFailFast;
  opt.admission.shed_patience_seconds = 60.0;
  PathEngine engine(g, opt);

  std::vector<std::future<QueryResult>> futures;
  for (const PathQuery& q : PaperFigure1Queries()) {
    futures.push_back(engine.Submit(q));  // exactly fills the budget
  }
  engine.Flush();
  // Flush drains everything queued (5 = 3 + 2) even though the queue sat
  // at its budget; the patience never elapsed, so nothing is shed.
  EXPECT_EQ(engine.StepDispatch(), 3u);
  EXPECT_EQ(engine.StepDispatch(), 2u);
  EXPECT_EQ(engine.StepDispatch(), 0u);
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.queries_shed, 0u);
  EXPECT_EQ(stats.size_cuts, 1u);  // 5 >= 3 fired first
  EXPECT_EQ(stats.flush_cuts, 1u);
}

TEST(AdmissionSim, ShutdownDrainsFullQueueEvenWhenShedIsDue) {
  const Graph g = PaperFigure1Graph();
  VirtualClock clock;
  std::vector<std::future<QueryResult>> futures;
  {
    PathEngineOptions opt = SimOptions(&clock);
    opt.max_batch_size = 2;
    opt.admission.max_queued_queries = 5;
    opt.admission.backpressure = AdmissionBackpressure::kFailFast;
    opt.admission.shed_patience_seconds = 1.0;
    PathEngine engine(g, opt);
    for (const PathQuery& q : PaperFigure1Queries()) {
      futures.push_back(engine.Submit(q));
    }
    // Overload patience has long expired — but shutdown wins over
    // shedding: the destructor drains every queued query.
    clock.Advance(100.0);
  }
  for (auto& f : futures) {
    QueryResult r = f.get();
    EXPECT_TRUE(r.status.ok()) << r.status;
  }
}

/// The acceptance-criteria property at simulation level: under overload
/// (fast-fails and sheds happening all around), every admitted query's
/// path set is byte-identical to its unloaded one-shot run, and every
/// non-OK outcome carries one of the documented admission Statuses.
TEST(AdmissionSim, AdmittedQueriesAreByteIdenticalUnderOverload) {
  const Graph g = PaperFigure1Graph();
  const std::vector<PathQuery> pool = PaperFigure1Queries();
  VirtualClock clock;
  PathEngineOptions opt = SimOptions(&clock);
  opt.max_batch_size = 3;
  opt.admission.max_queued_queries = 6;
  opt.admission.backpressure = AdmissionBackpressure::kFailFast;
  opt.admission.shed_high_watermark = 1.0;
  opt.admission.shed_low_watermark = 0.5;
  opt.admission.shed_patience_seconds = 2.0;
  opt.admission.tenant_weights = {{"t0", 4.0}, {"t1", 2.0}, {"t2", 1.0}};
  PathEngine engine(g, opt);
  ASSERT_TRUE(engine.status().ok());

  struct Submitted {
    PathQuery query;
    std::future<QueryResult> future;
  };
  std::vector<Submitted> all;
  size_t qi = 0;
  for (int wave = 0; wave < 12; ++wave) {
    // Burst past the budget, then sometimes let the patience elapse so a
    // shed round hits, then step once.
    for (int i = 0; i < 8; ++i) {
      const PathQuery q = pool[qi++ % pool.size()];
      all.push_back(
          {q, engine.Submit("t" + std::to_string(i % 3), q)});
    }
    if (wave % 3 == 1) clock.Advance(3.0);
    engine.StepDispatch();
  }
  engine.Flush();  // untimed mode: cut whatever the waves left queued
  while (engine.StepDispatch() > 0) {
  }

  size_t completed = 0, failed = 0;
  for (Submitted& s : all) {
    QueryResult r = s.future.get();
    if (r.status.ok()) {
      ++completed;
      auto oracle = BruteForcePaths(g, s.query);
      ASSERT_TRUE(oracle.ok());
      ASSERT_EQ(r.paths.size(), oracle->size()) << s.query.ToString();
      EXPECT_EQ(r.paths.ToSortedVectors(), oracle->ToSortedVectors())
          << s.query.ToString();
    } else {
      ++failed;
      EXPECT_TRUE(IsShedStatus(r.status) || IsQueueFullStatus(r.status))
          << "undocumented overload Status: " << r.status;
    }
  }
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(completed, stats.queries_completed);
  EXPECT_EQ(failed, stats.queries_shed + stats.submits_fast_failed);
  EXPECT_GT(stats.queries_shed, 0u);       // the scenario really shed
  EXPECT_GT(stats.submits_fast_failed, 0u);  // and really fast-failed
  // The queue honored its budgets throughout.
  EXPECT_LE(stats.peak_queued_queries, 6u);
}

/// StepDispatch is callable from any thread: two concurrent steppers must
/// run distinct batches (batches_in_flight_ is a counter, not a flag) and
/// Drain() must not return while either batch is still executing.
TEST(AdmissionSim, ConcurrentStepDispatchRunsDistinctBatches) {
  const Graph g = PaperFigure1Graph();
  VirtualClock clock;
  PathEngineOptions opt = SimOptions(&clock);
  opt.max_batch_size = 3;
  PathEngine engine(g, opt);
  ASSERT_TRUE(engine.status().ok());

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 6; ++i) {  // exactly two size-cut batches
    futures.push_back(engine.Submit({0, 11, 5}));
  }
  size_t n1 = 0, n2 = 0;
  std::thread t1([&] { n1 = engine.StepDispatch(); });
  std::thread t2([&] { n2 = engine.StepDispatch(); });
  t1.join();
  t2.join();
  engine.Drain();  // both batches must be fully accounted by now
  EXPECT_EQ(n1 + n2, 6u);
  PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.batches_run, 2u);
  EXPECT_EQ(stats.queries_completed, 6u);
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(f.get().status.ok());
  }
}

// Shutdown-vs-queued-work regression: destroying the engine while
// submitters sit blocked in the ticket wait must release every one of
// them with the canonical non-retryable shutting-down status — a blocked
// submitter must never outlive the engine, and must never be told to
// retry an engine that will not come back.
TEST(AdmissionSim, ShutdownReleasesBlockedSubmittersNonRetryably) {
  const Graph g = PaperFigure1Graph();
  VirtualClock clock;
  std::future<QueryResult> queued, blocked_a, blocked_b;
  std::thread ta, tb;
  {
    PathEngineOptions opt = SimOptions(&clock);
    opt.admission.max_queued_queries = 1;
    opt.admission.backpressure = AdmissionBackpressure::kBlock;
    opt.admission.shed_high_watermark = 1.0;  // disable shedding
    opt.admission.shed_low_watermark = 1.0;
    PathEngine engine(g, opt);
    ASSERT_TRUE(engine.status().ok());

    queued = engine.Submit({0, 11, 5});  // fills the entry budget
    ta = std::thread([&] { blocked_a = engine.Submit({2, 13, 5}); });
    while (engine.GetStats().backpressure_blocks < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    tb = std::thread([&] { blocked_b = engine.Submit({4, 14, 4}); });
    while (engine.GetStats().backpressure_blocks < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Engine destruction begins with both submitters blocked on tickets.
  }
  ta.join();
  tb.join();
  for (std::future<QueryResult>* f : {&blocked_a, &blocked_b}) {
    ASSERT_TRUE(Ready(*f));
    QueryResult r = f->get();
    EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(r.status.message(), "PathEngine is shutting down");
    EXPECT_FALSE(r.status.retryable());
  }
  // The admitted query still drained (shutdown = final flush).
  ASSERT_TRUE(Ready(queued));
  EXPECT_TRUE(queued.get().status.ok());
}

// The wait-boundary edge for the overload patience deadline, two shapes:
//  (a) submitters that blocked BEFORE patience elapsed are parked in
//      WaitUntil(overload_since + patience); when virtual time lands
//      exactly on the deadline (zero remaining) or far past it (negative
//      remaining), each must wake, shed the overloaded queue itself, and
//      enter — no deadlock, no spin, no further time advance. The second
//      waiter re-arms WaitUntil with a deadline already in the past, so
//      the wait must degenerate to an immediate predicate check.
//  (b) a submitter ARRIVING after the deadline must resolve synchronously
//      (shed at the admission loop top) without ever arming a stale wait
//      or counting a block.
TEST(AdmissionSim, BlockedSubmitShedsAtZeroOrNegativeRemainingPatience) {
  const Graph g = PaperFigure1Graph();
  for (double advance_past_patience : {0.0, 123.0}) {
    SCOPED_TRACE(advance_past_patience);
    VirtualClock clock;
    PathEngineOptions opt = SimOptions(&clock);
    opt.admission.max_queued_queries = 2;
    opt.admission.backpressure = AdmissionBackpressure::kBlock;
    opt.admission.shed_high_watermark = 0.5;  // overloaded at 1 queued
    opt.admission.shed_low_watermark = 0.5;   // shed back down to 1 queued
    opt.admission.shed_patience_seconds = 10.0;
    PathEngine engine(g, opt);
    ASSERT_TRUE(engine.status().ok());

    auto f1 = engine.Submit({0, 11, 5});  // overload clock starts here
    auto f2 = engine.Submit({2, 13, 5});  // queue full
    // Shape (a): two submitters block while the deadline is still ahead.
    std::future<QueryResult> f3, f4;
    std::thread t3([&] { f3 = engine.Submit({4, 14, 4}); });
    while (engine.GetStats().backpressure_blocks < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::thread t4([&] { f4 = engine.Submit({9, 14, 3}); });
    while (engine.GetStats().backpressure_blocks < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Land exactly on the deadline or far past it. One waiter wakes with
    // zero/negative slack, sheds one victim, and enters; the queue is at
    // capacity again, so the other waiter's deadline is already in the
    // past when it re-evaluates — it must shed again and enter too.
    clock.Advance(10.0 + advance_past_patience);
    t3.join();
    t4.join();

    PathEngineStats stats = engine.GetStats();
    EXPECT_EQ(stats.backpressure_blocks, 2u);
    EXPECT_EQ(stats.queries_submitted, 4u);  // every submitter entered
    EXPECT_EQ(stats.queries_shed, 2u);       // one victim per admitted waiter

    // Shape (b): arrival after the deadline sheds synchronously at the
    // loop top and enters without blocking — the block counter must not
    // move and no clock advance is needed.
    auto f5 = engine.Submit({5, 12, 5});
    stats = engine.GetStats();
    EXPECT_EQ(stats.backpressure_blocks, 2u);
    EXPECT_EQ(stats.queries_submitted, 5u);
    EXPECT_EQ(stats.queries_shed, 3u);

    // Every shed victim resolved already, with the canonical retryable
    // shed status; admitted-and-queued queries are still pending.
    std::vector<std::future<QueryResult>*> all = {&f1, &f2, &f3, &f4, &f5};
    size_t ready_shed = 0;
    for (std::future<QueryResult>* f : all) {
      if (!Ready(*f)) continue;
      ++ready_shed;
    }
    EXPECT_EQ(ready_shed, 3u);

    engine.Flush();
    while (engine.StepDispatch() > 0) {
    }
    // Conservation after the drain: the dispatcher sheds the still-due
    // backlog down to the low watermark before cutting, so of the five
    // admitted queries exactly one completes and four shed.
    size_t ok = 0, shed = 0;
    for (std::future<QueryResult>* f : all) {
      ASSERT_TRUE(Ready(*f));
      QueryResult r = f->get();
      if (r.status.ok()) {
        ++ok;
      } else {
        EXPECT_TRUE(IsShedStatus(r.status)) << r.status.ToString();
        EXPECT_TRUE(r.status.retryable());
        ++shed;
      }
    }
    stats = engine.GetStats();
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(shed, 4u);
    EXPECT_EQ(stats.queries_completed, ok);
    EXPECT_EQ(stats.queries_shed, shed);
    EXPECT_EQ(stats.queries_submitted, stats.queries_completed +
                                           stats.queries_shed);
  }
}

// Timed mode on the background dispatcher is work-conserving: an idle
// dispatcher cuts a lone query at once instead of waiting out
// max_wait_seconds, so the virtual clock never has to move.
TEST(AdmissionSim, BackgroundDispatcherCutsLoneQueryWhenIdle) {
  const Graph g = PaperFigure1Graph();
  VirtualClock clock;
  PathEngineOptions opt;
  opt.batch.num_threads = 1;
  opt.max_batch_size = 1024;
  opt.max_wait_seconds = 1.0;
  opt.clock = &clock;  // background dispatcher, virtual time
  PathEngine engine(g, opt);
  ASSERT_TRUE(engine.status().ok());

  auto f = engine.Submit({0, 11, 5});
  QueryResult r = f.get();
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.path_count, 3u);
  EXPECT_EQ(r.wait_seconds, 0.0);
  EXPECT_EQ(clock.Now(), 0.0);
  const PathEngineStats stats = engine.GetStats();
  EXPECT_EQ(stats.idle_cuts, 1u);
  EXPECT_EQ(stats.wait_cuts, 0u);
  EXPECT_EQ(stats.batches_run, 1u);
}

}  // namespace
}  // namespace hcpath
