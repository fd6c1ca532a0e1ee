// The streaming ordered merge (core/parallel_merge.h): results must reach
// the sink as soon as the lowest-indexed unfinished item completes (not
// after the whole batch), the frontier item must write through unbuffered,
// peak buffered bytes must track the undrained window instead of the
// batch, and the emitted stream must stay byte-identical to
// num_threads = 1 — including on fully skewed batches that exercise the
// intra-cluster parallelism. The merge-metric tests force their schedules
// with gates, so they hold on every interleaving. BufferedSink's reference
// runs (replayed from a set the buffer does not own) are checked here too.
// Runs under `ctest -L tsan` and `ctest -L asan`.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_enum.h"
#include "core/parallel_merge.h"
#include "graph/graph_builder.h"
#include "test_graphs.h"

namespace hcpath {
namespace {

/// Thread-safe path counter for observing the sink *while* the parallel
/// section is still running (the drain serializes OnPath calls but they
/// arrive on pool threads).
class AtomicCountSink : public PathSink {
 public:
  void OnPath(size_t, PathView) override {
    count_.fetch_add(1, std::memory_order_release);
  }
  uint64_t count() const { return count_.load(std::memory_order_acquire); }

 private:
  std::atomic<uint64_t> count_{0};
};

/// Records the full (query_index, path) emission sequence, and every bulk
/// OnPaths call (query, source set, range); read only after the run
/// completes.
class RecordingSink : public PathSink {
 public:
  using Event = std::pair<size_t, std::vector<VertexId>>;
  struct Call {
    size_t query;
    const PathSet* set;
    size_t begin;
    size_t end;
  };
  void OnPath(size_t qi, PathView p) override {
    events_.emplace_back(qi, std::vector<VertexId>(p.begin(), p.end()));
  }
  void OnPaths(size_t qi, const PathSet& paths, size_t begin,
               size_t end) override {
    calls_.push_back({qi, &paths, begin, end});
    for (size_t i = begin; i < end; ++i) OnPath(qi, paths[i]);
  }
  const std::vector<Event>& events() const { return events_; }
  const std::vector<Call>& calls() const { return calls_; }

 private:
  std::vector<Event> events_;
  std::vector<Call> calls_;
};

bool WaitUntil(const std::function<bool()>& pred, int seconds = 60) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

void EmitPaths(PathSink* sink, size_t query_index, size_t n) {
  for (size_t p = 0; p < n; ++p) {
    const VertexId v = static_cast<VertexId>(p);
    std::vector<VertexId> path = {v, v + 1, v + 2, v + 3,
                                  v + 4, v + 5, v + 6, v + 7};
    sink->OnPath(query_index, PathView{path.data(), path.size()});
  }
}

// The defining streaming property: the sink observes item 0's output while
// the last item is still running. The last task *blocks* until the sink
// has seen something, so a gather-then-merge implementation (which emits
// nothing before every task finishes) would time out here.
TEST(StreamingMerge, SinkObservesPrefixBeforeLastItemFinishes) {
  ThreadPool pool(2);
  AtomicCountSink sink;
  std::atomic<bool> observed_early{false};
  MergeMetrics mm;
  const size_t n = 4;
  Status st = RunBufferedParallel(
      pool, n, &sink, nullptr,
      [&](size_t i, PathSink* buf, BatchStats*) {
        if (i == n - 1) {
          // Item 0 is claimed (in index order) before this item; under
          // streaming its paths reach the sink no later than its return.
          observed_early.store(WaitUntil([&] { return sink.count() > 0; }));
        }
        EmitPaths(buf, i, 4);
        return Status::OK();
      },
      &mm);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_TRUE(observed_early.load())
      << "sink saw nothing before the last item finished: merge is "
         "gather-then-merge, not streaming";
  EXPECT_EQ(sink.count(), 4 * n);
  EXPECT_EQ(mm.streamed_items, n);
  EXPECT_EQ(mm.final_items, 0u);
}

// Write-through: the item that starts at the drain frontier emits straight
// into the downstream sink. Item 0 holds until item 1 has started (so item
// 1 starts while an earlier item still runs and must buffer); item 0 then
// sees its own paths in the sink before it returns, and contributes no
// buffered bytes.
TEST(StreamingMerge, FrontierItemWritesThroughUnbuffered) {
  ThreadPool pool(2);
  AtomicCountSink sink;
  const size_t kPaths = 500;
  std::atomic<bool> item1_started{false};
  std::atomic<bool> item0_direct{false};
  std::atomic<bool> item1_direct{true};
  std::atomic<uint64_t> seen_before_return{0};
  MergeMetrics mm;
  Status st = RunBufferedParallel(
      pool, 2, &sink, nullptr,
      [&](size_t i, PathSink* out, BatchStats*) {
        if (i == 1) {
          item1_direct.store(out == &sink);
          item1_started.store(true);
          return Status::OK();  // emits nothing: an empty buffer
        }
        item0_direct.store(out == &sink);
        if (!WaitUntil([&] { return item1_started.load(); })) {
          return Status::Internal("item 1 never started");
        }
        EmitPaths(out, i, kPaths);
        seen_before_return.store(sink.count());
        return Status::OK();
      },
      &mm);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_TRUE(item0_direct.load()) << "frontier item was buffered";
  EXPECT_FALSE(item1_direct.load())
      << "an item started behind a running item wrote through";
  EXPECT_EQ(seen_before_return.load(), kPaths);
  EXPECT_EQ(sink.count(), kPaths);
  // Only item 1's (empty) buffer passed through the merge.
  EXPECT_EQ(mm.total_buffered_bytes, BufferedSink().buffered_bytes());
  EXPECT_EQ(mm.streamed_items, 2u);
  EXPECT_EQ(mm.final_items, 0u);
}

// Peak buffered bytes on a skewed workload: a head item, many tiny items,
// and one giant item that only starts emitting after every tiny buffer has
// drained (it gates on the sink count). The head item (the write-through
// frontier) holds until every tiny item has finished and the giant has
// started, so all of them start behind a running item and buffer. Holding
// every buffer at once (gather-then-merge) would peak at
// total_buffered_bytes; streaming must peak strictly below that — the tiny
// buffers are recycled before the giant one even fills.
TEST(StreamingMerge, PeakBufferedBytesBoundedOnSkewedBatch) {
  ThreadPool pool(2);
  AtomicCountSink sink;
  const size_t kTiny = 23;
  const size_t kTinyPaths = 64;
  const size_t kGiantPaths = 8000;
  const size_t kGiant = kTiny + 1;
  std::atomic<size_t> tiny_done{0};
  std::atomic<bool> giant_started{false};
  std::atomic<size_t> direct_items{0};
  MergeMetrics mm;
  Status st = RunBufferedParallel(
      pool, kGiant + 1, &sink, nullptr,
      [&](size_t i, PathSink* buf, BatchStats*) {
        if (buf == &sink) direct_items.fetch_add(1);
        if (i == 0) {
          if (!WaitUntil([&] {
                return tiny_done.load() == kTiny && giant_started.load();
              })) {
            return Status::Internal("tiny items never finished");
          }
          EmitPaths(buf, i, 1);
        } else if (i == kGiant) {
          giant_started.store(true);
          // Wait until all tiny results have streamed out (their buffers
          // are recycled by then).
          if (!WaitUntil([&] {
                return sink.count() >= 1 + kTiny * kTinyPaths;
              })) {
            return Status::Internal("tiny items never drained");
          }
          EmitPaths(buf, i, kGiantPaths);
        } else {
          EmitPaths(buf, i, kTinyPaths);
          tiny_done.fetch_add(1);
        }
        return Status::OK();
      },
      &mm);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(sink.count(), 1 + kTiny * kTinyPaths + kGiantPaths);
  EXPECT_EQ(direct_items.load(), 1u) << "only the head item writes through";
  EXPECT_EQ(mm.streamed_items, kGiant + 1);
  // Strictly below the gather baseline...
  EXPECT_LT(mm.peak_buffered_bytes, mm.total_buffered_bytes);
  // ...by at least the tiny buffers' path payloads, all recycled before
  // the giant buffer existed (each holds kTinyPaths 8-vertex paths plus
  // their offsets).
  const uint64_t tiny_payload =
      kTinyPaths * (8 * sizeof(VertexId) + sizeof(uint64_t));
  EXPECT_LE(mm.peak_buffered_bytes,
            mm.total_buffered_bytes - kTiny * tiny_payload);
}

// Error semantics under streaming: the failing item's pre-error paths are
// replayed after every earlier item, nothing after the failure is emitted,
// and the first failure's Status comes back — exactly the sequential early
// return.
TEST(StreamingMerge, FailingItemReplaysPreErrorPathsAndClosesStream) {
  ThreadPool pool(2);
  RecordingSink sink;
  size_t emitted = 0;
  Status st = RunBufferedParallel(
      pool, 3, &sink, nullptr,
      [&](size_t i, PathSink* buf, BatchStats*) -> Status {
        std::vector<VertexId> p = {static_cast<VertexId>(i),
                                   static_cast<VertexId>(i + 1)};
        buf->OnPath(i, PathView{p.data(), p.size()});
        if (i == 1) return Status::ResourceExhausted("boom");
        return Status::OK();
      },
      nullptr, nullptr, &emitted);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(emitted, 2u);  // items 0 and 1 (its pre-error path)
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].first, 0u);
  EXPECT_EQ(sink.events()[0].second, (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(sink.events()[1].first, 1u);
  EXPECT_EQ(sink.events()[1].second, (std::vector<VertexId>{1, 2}));
}

// A write-through item that fails mid-stream: its pre-error paths are
// already downstream, the stream closes right after them (item 1 finished
// into its buffer first, and is never replayed), and its Status comes back.
TEST(StreamingMerge, WriteThroughFailureClosesStreamAfterPreErrorPaths) {
  ThreadPool pool(2);
  RecordingSink sink;
  std::atomic<bool> item1_done{false};
  std::atomic<bool> item0_direct{false};
  size_t emitted = 0;
  Status st = RunBufferedParallel(
      pool, 2, &sink, nullptr,
      [&](size_t i, PathSink* out, BatchStats*) -> Status {
        if (i == 1) {
          EmitPaths(out, i, 5);
          item1_done.store(true);
          return Status::OK();
        }
        item0_direct.store(out == &sink);
        if (!WaitUntil([&] { return item1_done.load(); })) {
          return Status::Internal("item 1 never finished");
        }
        EmitPaths(out, i, 3);
        return Status::ResourceExhausted("boom");
      },
      nullptr, nullptr, &emitted);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(st.message(), "boom");
  EXPECT_EQ(emitted, 1u);  // item 1 finished but never reached the sink
  EXPECT_TRUE(item0_direct.load()) << "frontier item was buffered";
  ASSERT_EQ(sink.events().size(), 3u);
  for (size_t p = 0; p < 3; ++p) {
    const VertexId v = static_cast<VertexId>(p);
    EXPECT_EQ(sink.events()[p].first, 0u);
    EXPECT_EQ(sink.events()[p].second,
              (std::vector<VertexId>{v, v + 1, v + 2, v + 3, v + 4, v + 5,
                                     v + 6, v + 7}));
  }
}

/// `n` two-vertex paths {base + p, base + p + 1}.
PathSet MakePaths(size_t n, VertexId base) {
  PathSet set;
  for (size_t p = 0; p < n; ++p) {
    const VertexId v = base + static_cast<VertexId>(p);
    std::vector<VertexId> path = {v, v + 1};
    set.Add(PathView{path.data(), path.size()});
  }
  return set;
}

/// Appends paths [begin, end) of `set` to `events` as owned by `qi`.
void AppendEvents(std::vector<RecordingSink::Event>* events, size_t qi,
                  const PathSet& set, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    events->emplace_back(qi, std::vector<VertexId>(set[i].begin(),
                                                   set[i].end()));
  }
}

// Owned and referenced runs interleave: Replay emits each in its place,
// a referenced run straight from its own set.
TEST(BufferedSinkReference, InterleavedRunsReplayInEmissionOrder) {
  const PathSet ext_a = MakePaths(3, 100);
  const PathSet ext_b = MakePaths(2, 300);
  const PathSet empty;
  const PathSet own = MakePaths(3, 200);
  BufferedSink buf;
  buf.OnPaths(0, own, 0, 2);
  buf.Reference(1, ext_a);
  buf.OnPaths(2, own, 2, 3);
  buf.Reference(0, ext_b);
  buf.Reference(0, empty);  // still empty at replay: emits nothing
  buf.OnPaths(0, own, 0, 1);

  RecordingSink sink;
  buf.Replay(&sink);
  std::vector<RecordingSink::Event> want;
  AppendEvents(&want, 0, own, 0, 2);
  AppendEvents(&want, 1, ext_a, 0, 3);
  AppendEvents(&want, 2, own, 2, 3);
  AppendEvents(&want, 0, ext_b, 0, 2);
  AppendEvents(&want, 0, own, 0, 1);
  EXPECT_EQ(sink.events(), want);
  ASSERT_EQ(sink.calls().size(), 5u);
  EXPECT_EQ(sink.calls()[1].set, &ext_a);
  EXPECT_EQ(sink.calls()[1].begin, 0u);
  EXPECT_EQ(sink.calls()[1].end, 3u);
  EXPECT_EQ(sink.calls()[3].set, &ext_b);
  EXPECT_EQ(sink.calls()[3].begin, 0u);
  EXPECT_EQ(sink.calls()[3].end, 2u);
  for (size_t c : {0, 2, 4}) {
    EXPECT_NE(sink.calls()[c].set, &ext_a) << "call " << c;
    EXPECT_NE(sink.calls()[c].set, &ext_b) << "call " << c;
    EXPECT_NE(sink.calls()[c].set, &own) << "call " << c << " not copied";
  }
}

// A reference names the whole set as it is when the buffer replays: paths
// added after it was recorded replay with it, and a set that was empty
// when recorded replays once it has filled.
TEST(BufferedSinkReference, ReferenceResolvesToTheSetAtReplay) {
  PathSet growing = MakePaths(2, 10);
  PathSet filled_later;
  BufferedSink buf;
  buf.Reference(0, growing);
  buf.Reference(1, filled_later);
  growing.AppendRange(MakePaths(3, 40), 0, 3);
  filled_later.AppendRange(MakePaths(4, 70), 0, 4);

  RecordingSink sink;
  buf.Replay(&sink);
  std::vector<RecordingSink::Event> want;
  AppendEvents(&want, 0, growing, 0, 5);
  AppendEvents(&want, 1, filled_later, 0, 4);
  EXPECT_EQ(sink.events(), want);
  ASSERT_EQ(sink.calls().size(), 2u);
  EXPECT_EQ(sink.calls()[0].end, 5u);
  EXPECT_EQ(sink.calls()[1].end, 4u);
}

// An owned emission after a referenced run of the same query opens a run
// of its own; consecutive owned emissions still merge into one run.
TEST(BufferedSinkReference, ReferenceRunNeverAbsorbsALaterOwnedRun) {
  const PathSet ext_a = MakePaths(2, 50);
  const PathSet ext_b = MakePaths(2, 52);
  BufferedSink buf;
  buf.Reference(7, ext_a);
  EmitPaths(&buf, 7, 3);  // three OnPath calls: one owned run
  buf.Reference(7, ext_b);
  EmitPaths(&buf, 7, 1);

  RecordingSink sink;
  buf.Replay(&sink);
  ASSERT_EQ(sink.calls().size(), 4u);
  EXPECT_EQ(sink.calls()[0].set, &ext_a);
  EXPECT_NE(sink.calls()[1].set, &ext_a);
  EXPECT_EQ(sink.calls()[1].begin, 0u);
  EXPECT_EQ(sink.calls()[1].end, 3u);
  EXPECT_EQ(sink.calls()[2].set, &ext_b);
  EXPECT_NE(sink.calls()[3].set, &ext_b);
  EXPECT_EQ(sink.calls()[3].begin, 3u);
  EXPECT_EQ(sink.calls()[3].end, 4u);
  RecordingSink owned;
  EmitPaths(&owned, 7, 3);
  EmitPaths(&owned, 7, 1);
  std::vector<RecordingSink::Event> want;
  AppendEvents(&want, 7, ext_a, 0, 2);
  want.insert(want.end(), owned.events().begin(), owned.events().begin() + 3);
  AppendEvents(&want, 7, ext_b, 0, 2);
  want.push_back(owned.events()[3]);
  EXPECT_EQ(sink.events(), want);
}

// A referenced run pins one run-table entry, never its paths.
TEST(BufferedSinkReference, BufferedBytesExcludeReferencedPaths) {
  const PathSet big = MakePaths(1000, 0);
  const PathSet one = MakePaths(1, 0);
  BufferedSink ref_big, ref_one, copy_big;
  ref_big.Reference(0, big);
  ref_one.Reference(0, one);
  copy_big.OnPaths(0, big, 0, big.size());
  EXPECT_EQ(ref_big.buffered_bytes(), ref_one.buffered_bytes());
  EXPECT_LT(ref_big.buffered_bytes(), BufferedSink().buffered_bytes() + 64);
  EXPECT_GE(copy_big.buffered_bytes(),
            ref_big.buffered_bytes() + big.TotalVertices() * sizeof(VertexId));
  RecordingSink from_ref, from_copy;
  ref_big.Replay(&from_ref);
  copy_big.Replay(&from_copy);
  EXPECT_EQ(from_ref.events(), from_copy.events());
}

// Rewind and Clear drop references with the owned paths: the referenced
// set may die right after, and the buffer replays only what follows.
TEST(BufferedSinkReference, RewindAndClearLeaveNoReferences) {
  for (bool rewind : {true, false}) {
    SCOPED_TRACE(rewind ? "Rewind" : "Clear");
    auto ext = std::make_unique<PathSet>(MakePaths(4, 10));
    BufferedSink buf;
    buf.Reference(0, *ext);
    EmitPaths(&buf, 1, 2);
    if (rewind) {
      buf.Rewind();
    } else {
      buf.Clear();
    }
    ext.reset();  // a kept reference would now dangle (ASan reads it)
    RecordingSink empty;
    buf.Replay(&empty);
    EXPECT_TRUE(empty.calls().empty());

    EmitPaths(&buf, 2, 2);
    RecordingSink sink;
    buf.Replay(&sink);
    ASSERT_EQ(sink.calls().size(), 1u);
    EXPECT_EQ(sink.calls()[0].query, 2u);
    EXPECT_EQ(sink.calls()[0].begin, 0u);
    EXPECT_EQ(sink.calls()[0].end, 2u);
  }
}

// The merge's task sink contract: an item handed a private buffer may
// record references to sets that outlive the call, and the drain replays
// them in item order. Item 0 holds the frontier until items 1 and 2 have
// finished, so both run into private buffers, which pin no path bytes.
TEST(StreamingMerge, PrivateBuffersReplayReferencesInItemOrder) {
  ThreadPool pool(2);
  RecordingSink sink;
  const std::vector<PathSet> sets = {MakePaths(3, 10), MakePaths(2, 20),
                                     MakePaths(4, 30)};
  std::atomic<size_t> done{0};
  std::atomic<size_t> referenced{0};
  MergeMetrics mm;
  Status st = RunBufferedParallel(
      pool, 3, &sink, nullptr,
      [&](size_t i, PathSink* out, BatchStats*) -> Status {
        if (i == 0 && !WaitUntil([&] { return done.load() == 2; })) {
          return Status::Internal("items 1 and 2 never finished");
        }
        if (out == &sink) {
          out->OnPaths(i, sets[i], 0, sets[i].size());
        } else {
          static_cast<BufferedSink*>(out)->Reference(i, sets[i]);
          referenced.fetch_add(1);
        }
        done.fetch_add(1);
        return Status::OK();
      },
      &mm);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(referenced.load(), 2u);
  std::vector<RecordingSink::Event> want;
  for (size_t i = 0; i < sets.size(); ++i) {
    AppendEvents(&want, i, sets[i], 0, sets[i].size());
  }
  EXPECT_EQ(sink.events(), want);
  ASSERT_EQ(sink.calls().size(), 3u);
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sink.calls()[i].set, &sets[i]) << "item " << i;
  }
  BufferedSink one_run;
  one_run.Reference(0, sets[0]);
  EXPECT_EQ(mm.total_buffered_bytes, 2 * one_run.buffered_bytes());
}

// A reference may name a set that an earlier item is still filling: item
// 1 references the set item 0 fills, and item 0 adds the set's last paths
// only after the reference is recorded. The merge replays item 1 once item
// 0 has finished, so the sink sees the complete set for both items. This
// is the duplicate-query assembly's schedule when a member's item runs
// while its leader's item still joins the group set.
TEST(StreamingMerge, ReferenceRecordedBeforeItsSetIsFilledReplaysItComplete) {
  ThreadPool pool(2);
  RecordingSink sink;
  const PathSet head = MakePaths(2, 10);
  const PathSet tail = MakePaths(3, 40);
  PathSet set;
  std::atomic<bool> recorded{false};
  std::atomic<bool> member_buffered{false};
  size_t emitted = 0;
  Status st = RunBufferedParallel(
      pool, 2, &sink, nullptr,
      [&](size_t i, PathSink* out, BatchStats*) -> Status {
        if (i == 1) {
          // Item 0 holds the frontier until this returns: buffered.
          member_buffered.store(out != &sink);
          if (out != &sink) static_cast<BufferedSink*>(out)->Reference(1, set);
          recorded.store(true);
          return Status::OK();
        }
        set.AppendRange(head, 0, head.size());
        if (!WaitUntil([&] { return recorded.load(); })) {
          return Status::Internal("item 1 never recorded its reference");
        }
        set.AppendRange(tail, 0, tail.size());
        out->OnPaths(0, set, 0, set.size());
        return Status::OK();
      },
      nullptr, nullptr, &emitted);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_TRUE(member_buffered.load());
  EXPECT_EQ(emitted, 2u);
  ASSERT_EQ(set.size(), 5u);
  std::vector<RecordingSink::Event> want;
  AppendEvents(&want, 0, set, 0, 5);
  AppendEvents(&want, 1, set, 0, 5);
  EXPECT_EQ(sink.events(), want);
  ASSERT_EQ(sink.calls().size(), 2u);
  EXPECT_EQ(sink.calls()[1].set, &set);
  EXPECT_EQ(sink.calls()[1].end, 5u);
}

/// A skewed batch for the real engine: `tiny` single-query clusters on
/// disjoint 3-vertex chains, then one giant cluster of `clones` identical
/// queries over a dense blob (every ordered pair of blob vertices linked).
/// Queries are ordered tiny-first, so the giant cluster is the last one
/// and every tiny buffer can drain while it still runs.
struct SkewedBatch {
  Graph g = Graph();
  std::vector<PathQuery> queries;
};

SkewedBatch MakeSkewedBatch(size_t tiny, size_t clones) {
  const VertexId blob = 8;
  GraphBuilder b(static_cast<VertexId>(3 * tiny) + blob);
  SkewedBatch out;
  for (size_t c = 0; c < tiny; ++c) {
    const VertexId base = static_cast<VertexId>(3 * c);
    b.AddEdge(base, base + 1);
    b.AddEdge(base + 1, base + 2);
    out.queries.push_back({base, base + 2, 4});
  }
  const VertexId off = static_cast<VertexId>(3 * tiny);
  for (VertexId u = 0; u < blob; ++u) {
    for (VertexId v = 0; v < blob; ++v) {
      if (u != v) b.AddEdge(off + u, off + v);
    }
  }
  for (size_t c = 0; c < clones; ++c) {
    out.queries.push_back({off, off + blob - 1, 5});
  }
  out.g = *b.Build();
  return out;
}

// Output of the full batch engine must be byte-for-byte identical across
// thread counts on the skewed batch — the case where the giant cluster's
// intra-cluster sub-tasks (parallel detection, enumeration, frontier
// splits, query-parallel assembly) all engage.
TEST(StreamingMerge, SkewedBatchBitIdenticalAcrossThreadCounts) {
  SkewedBatch sb = MakeSkewedBatch(12, 6);
  RecordingSink ref_sink;
  BatchStats ref_stats;
  BatchOptions ref;
  ref.num_threads = 1;
  ASSERT_TRUE(
      RunBatchEnum(sb.g, sb.queries, ref, true, &ref_sink, &ref_stats).ok());
  ASSERT_GT(ref_stats.num_clusters, 2u);
  ASSERT_GT(ref_sink.events().size(), 100u);  // the blob produces real work

  for (int threads : {2, 8}) {
    for (int intra_min : {2, 1 << 20}) {  // with and without intra-cluster
      BatchOptions par = ref;
      par.num_threads = threads;
      par.intra_cluster_min_queries = intra_min;
      RecordingSink par_sink;
      BatchStats par_stats;
      ASSERT_TRUE(
          RunBatchEnum(sb.g, sb.queries, par, true, &par_sink, &par_stats)
              .ok());
      EXPECT_EQ(ref_sink.events(), par_sink.events())
          << "threads=" << threads << " intra_min=" << intra_min;
      EXPECT_EQ(ref_stats.paths_emitted, par_stats.paths_emitted);
      EXPECT_EQ(ref_stats.edges_expanded, par_stats.edges_expanded);
      EXPECT_EQ(ref_stats.edges_pruned, par_stats.edges_pruned);
      EXPECT_EQ(ref_stats.join_probes, par_stats.join_probes);
      EXPECT_EQ(ref_stats.join_replays, par_stats.join_replays);
      EXPECT_EQ(ref_stats.shortcut_splices, par_stats.shortcut_splices);
      EXPECT_EQ(ref_stats.cached_paths, par_stats.cached_paths);
      // The merge metrics depend on the schedule (with write-through a run
      // may buffer nothing at all), so the buffering property is asserted
      // by the gated tests above, not here.
    }
  }
}

// A single-cluster (fully skewed) batch: clustering is disabled so every
// query lands in one cluster and *all* parallelism is intra-cluster. The
// paper-figure graph keeps the oracle small while still exercising
// sharing, splices, and the join.
TEST(StreamingMerge, SingleClusterBatchMatchesSequential) {
  Graph g = PaperFigure1Graph();
  auto queries = PaperFigure1Queries();
  BatchOptions ref;
  ref.num_threads = 1;
  ref.disable_clustering = true;
  RecordingSink ref_sink;
  BatchStats ref_stats;
  ASSERT_TRUE(RunBatchEnum(g, queries, ref, false, &ref_sink, &ref_stats).ok());
  EXPECT_EQ(ref_stats.num_clusters, 1u);

  for (int threads : {2, 8}) {
    BatchOptions par = ref;
    par.num_threads = threads;
    par.intra_cluster_min_queries = 2;
    RecordingSink par_sink;
    BatchStats par_stats;
    ASSERT_TRUE(
        RunBatchEnum(g, queries, par, false, &par_sink, &par_stats).ok());
    EXPECT_EQ(ref_sink.events(), par_sink.events()) << "threads=" << threads;
    EXPECT_EQ(ref_stats.paths_emitted, par_stats.paths_emitted);
    EXPECT_EQ(ref_stats.edges_expanded, par_stats.edges_expanded);
    EXPECT_EQ(ref_stats.edges_pruned, par_stats.edges_pruned);
    EXPECT_EQ(ref_stats.sharing_nodes, par_stats.sharing_nodes);
    EXPECT_EQ(ref_stats.dominating_nodes, par_stats.dominating_nodes);
    EXPECT_EQ(ref_stats.shortcut_splices, par_stats.shortcut_splices);
  }
}

}  // namespace
}  // namespace hcpath
