#ifndef HCPATH_CORE_PARALLEL_MERGE_H_
#define HCPATH_CORE_PARALLEL_MERGE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/buffered_sink.h"
#include "core/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hcpath {

/// Observability of one RunBufferedParallel call. Every field is
/// scheduling-dependent: the determinism identity covers the emitted path
/// stream and the BatchStats work counters, never these.
struct MergeMetrics {
  /// High-water mark of bytes held in completed-but-undrained private
  /// buffers. A referenced run (BufferedSink::Reference) counts 0 bytes:
  /// its paths stay in the set that owns them.
  uint64_t peak_buffered_bytes = 0;
  /// Bytes that ever passed through a private buffer. Write-through items
  /// (see RunBufferedParallel) buffer nothing and referenced runs count 0
  /// bytes, so this is the merge's copy traffic, not the gather-then-merge
  /// baseline.
  uint64_t total_buffered_bytes = 0;
  /// Items that reached the sink while the parallel section was still
  /// running: written through, or drained from their buffer.
  uint64_t streamed_items = 0;
  /// Items drained (or completed synchronously) in the final sweep.
  uint64_t final_items = 0;

  void Accumulate(const MergeMetrics& other) {
    peak_buffered_bytes =
        peak_buffered_bytes > other.peak_buffered_bytes
            ? peak_buffered_bytes
            : other.peak_buffered_bytes;
    total_buffered_bytes += other.total_buffered_bytes;
    streamed_items += other.streamed_items;
    final_items += other.final_items;
  }
};

/// Folds one call's metrics into the run-level BatchStats mirror fields.
inline void FoldMergeMetrics(const MergeMetrics& m, BatchStats* stats) {
  if (stats == nullptr) return;
  stats->merge_peak_buffered_bytes =
      std::max(stats->merge_peak_buffered_bytes, m.peak_buffered_bytes);
  stats->merge_total_buffered_bytes += m.total_buffered_bytes;
  stats->merge_streamed_items += m.streamed_items;
  stats->merge_final_items += m.final_items;
}

/// The buffered-parallel scaffold shared by the batch engines
/// (docs/PARALLELISM.md): runs `task(i, sink, stats)` for every i in
/// [0, n) across the pool, each item with private stats, and merges in
/// input order so the downstream sink observes exactly the stream of the
/// inline case (below) and the counters sum to its totals.
///
/// Exactly one thread at a time owns the sink (the `draining` token):
///  - Write-through: an item that starts at the drain frontier while no
///    drain runs and the stream is open takes the token and emits straight
///    into `sink`. Everything ordered before it has already been emitted
///    and everything after it is still buffering, so the order is the
///    inline one and its paths are never copied.
///  - Every other item emits into a private BufferedSink. When an item
///    finishes and nobody holds the token, its worker takes it and replays
///    the contiguous completed prefix to the sink *outside* the merge lock,
///    recycling each buffer as it passes. A worker that finishes while
///    another thread holds the token publishes its item and moves on; the
///    holder picks it up before letting go.
/// Peak buffer memory is therefore bounded by the completed-but-undrained
/// window, and the first item's results reach the sink while it runs.
/// Sink note: `sink` calls are totally ordered (the token serializes them)
/// but may run on any pool thread while the parallel section is live;
/// observers reading sink state concurrently must synchronize themselves.
///
/// Error semantics mirror the inline early return: once any item
/// fails, unstarted items are skipped; the stream closes for good at the
/// first failed item after its pre-error paths (replayed from its buffer,
/// or already written through), and that item's Status is returned. Items
/// skipped by the abort flag but ordered before the first failure are
/// completed synchronously (straight into `sink`) in the final sweep,
/// exactly as the inline case would have run them.
///
/// `sink` must be non-null. `task` must be safe to run concurrently for
/// distinct i and is invoked once per item (possibly again at merge time
/// only if that item was skipped, i.e. never started).
///
/// Task sink contract: `task` receives either `sink` itself (write-through,
/// or a skipped item completed in the final sweep) or a private
/// BufferedSink, and every private buffer is replayed or dropped, then
/// recycled, before this call returns. A task may therefore tell the two
/// apart by pointer (`out != sink`) and record BufferedSink::Reference runs
/// into a private buffer for sets that outlive this call. A buffer
/// replays only after every earlier item has finished (the frontier has
/// passed them), so a referenced set that an earlier item fills may still
/// be filling when the reference is recorded; and an item handed `sink`
/// itself runs only after every earlier item's output reached the sink.
///
/// `items_emitted`, when non-null, receives how many leading items reached
/// the sink: n on success, else the first failed item's index + 1 (its
/// pre-error paths count). Items at or past that point neither emitted
/// nor had their stats folded in, exactly as in the inline early return.
/// Unlike MergeMetrics this does not depend on the schedule.
///
/// With a `sink_pool` (BatchContext), buffers are acquired from the pool
/// when a buffered item starts, and a drained buffer is released back the
/// moment the drain passes it, so its path storage flows straight to
/// concurrent nested merges and to the next batch instead of being freed
/// and reallocated.
///
/// Inline case: with no pool (a ThreadPool always has a worker) or a
/// single item, the items run in order on the calling thread, each
/// straight into `sink` with the caller's `stats`, stopping at the first
/// failure. That is the single-threaded engine: it allocates nothing,
/// acquires no buffer, and leaves `metrics` untouched.
template <typename TaskFn>
Status RunBufferedParallel(ThreadPool* pool, size_t n, PathSink* sink,
                           BatchStats* stats, const TaskFn& task,
                           MergeMetrics* metrics = nullptr,
                           SinkPool* sink_pool = nullptr,
                           size_t* items_emitted = nullptr) {
  if (items_emitted != nullptr) *items_emitted = 0;
  if (n == 0) return Status::OK();
  HCPATH_DCHECK(sink != nullptr);
  if (pool == nullptr || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      Status st = task(i, sink, stats);
      if (!st.ok()) {
        if (items_emitted != nullptr) *items_emitted = i + 1;
        return st;
      }
    }
    if (items_emitted != nullptr) *items_emitted = n;
    return Status::OK();
  }
  enum ItemState : uint8_t { kRunning = 0, kDone, kFailed, kSkipped };
  std::vector<BufferedSink> local_buffers(sink_pool != nullptr ? 0 : n);
  // Set when a buffered item starts; write-through and skipped items never
  // get one, and a drained item's is recycled and reset.
  std::vector<BufferedSink*> buffers(n, nullptr);
  std::vector<Status> status(n, Status::OK());
  std::vector<BatchStats> item_stats(stats != nullptr ? n : 0);
  std::vector<uint8_t> state(n, kRunning);
  std::atomic<bool> abort{false};

  auto recycle = [&](size_t i) {
    if (sink_pool != nullptr) {
      sink_pool->Release(buffers[i]);
    } else {
      buffers[i]->Clear();  // free the storage now, not at scope exit
    }
    buffers[i] = nullptr;
  };

  // Merge state, all guarded by `mu`. `frontier` is the first item not yet
  // emitted; it only ever advances over kDone items and stops for good at
  // the first kFailed one (`closed`). `draining` is the sink token.
  std::mutex mu;
  size_t frontier = 0;
  bool draining = false;
  bool closed = false;
  Status first_error = Status::OK();
  uint64_t buffered_bytes = 0;
  MergeMetrics mm;

  auto finished = [&](size_t i) {
    return state[i] == kDone || state[i] == kFailed;
  };
  // Runs with the token held and `lk` locked; returns with the token
  // released and `lk` still locked. Replays run unlocked, so each pass
  // re-checks for items that finished meanwhile.
  auto drain = [&](std::unique_lock<std::mutex>& lk) {
    while (!closed && frontier < n && finished(frontier)) {
      const size_t begin = frontier;
      size_t end = begin;
      while (end < n && finished(end)) {
        if (state[end++] == kFailed) break;
      }
      lk.unlock();
      uint64_t freed = 0;
      for (size_t i = begin; i < end; ++i) {
        // Replay before surfacing an error: the inline case has
        // already streamed a failing item's pre-error paths to the sink.
        freed += buffers[i]->buffered_bytes();
        buffers[i]->Replay(sink);
        recycle(i);
        if (stats != nullptr) stats->Accumulate(item_stats[i]);
      }
      lk.lock();
      buffered_bytes -= freed;
      mm.streamed_items += end - begin;
      frontier = end;
      if (state[end - 1] == kFailed) {
        first_error = status[end - 1];
        closed = true;
      }
    }
    draining = false;
  };

  pool->ParallelFor(n, [&](size_t i) {
    std::unique_lock<std::mutex> lk(mu);
    // Early abort: the first failure already decides the run's outcome, so
    // don't start remaining items — finishing them would only burn CPU and
    // buffer memory.
    if (abort.load(std::memory_order_relaxed)) {
      state[i] = kSkipped;
      return;
    }
    const bool write_through = i == frontier && !draining && !closed;
    if (write_through) draining = true;
    lk.unlock();

    BatchStats* own_stats = stats != nullptr ? &item_stats[i] : nullptr;
    Status st;
    if (write_through) {
      st = task(i, sink, own_stats);
      if (stats != nullptr) stats->Accumulate(item_stats[i]);
    } else {
      buffers[i] = sink_pool != nullptr ? sink_pool->Acquire()
                                        : &local_buffers[i];
      st = task(i, buffers[i], own_stats);
    }

    lk.lock();
    state[i] = st.ok() ? kDone : kFailed;
    if (!st.ok()) abort.store(true, std::memory_order_relaxed);
    status[i] = std::move(st);
    if (write_through) {
      // Nothing could pass a running frontier item, so it is still the
      // frontier; its paths are already downstream.
      ++mm.streamed_items;
      frontier = i + 1;
      if (state[i] == kFailed) {
        first_error = status[i];
        closed = true;
      }
    } else {
      const uint64_t bytes = buffers[i]->buffered_bytes();
      buffered_bytes += bytes;
      mm.total_buffered_bytes += bytes;
      mm.peak_buffered_bytes = std::max(mm.peak_buffered_bytes, buffered_bytes);
      if (draining) return;  // the token holder drains this item
      draining = true;
    }
    drain(lk);
  });

  // Final sweep: everything past the frontier is either stalled behind a
  // skipped item or was completed after the stream closed on a failure.
  Status result = first_error;
  size_t emitted = frontier;
  if (result.ok()) {
    for (size_t i = frontier; i < n; ++i) {
      ++mm.final_items;
      emitted = i + 1;
      if (state[i] == kSkipped) {
        // An item ordered before the first failure may have been skipped by
        // the abort flag (scheduling is unordered); the inline case
        // would have completed it before reaching the failure, so run it
        // now, straight into the sink.
        result = task(i, sink, stats);
        if (!result.ok()) break;
        continue;
      }
      buffers[i]->Replay(sink);
      recycle(i);
      if (stats != nullptr) stats->Accumulate(item_stats[i]);
      if (state[i] == kFailed) {
        result = status[i];
        break;
      }
    }
  }
  if (items_emitted != nullptr) *items_emitted = emitted;
  // Buffers the drain never reached (items completed after the stream
  // closed) go back to the pool here.
  for (size_t i = 0; i < n; ++i) {
    if (buffers[i] != nullptr) recycle(i);
  }
  if (metrics != nullptr) metrics->Accumulate(mm);
  return result;
}

}  // namespace hcpath

#endif  // HCPATH_CORE_PARALLEL_MERGE_H_
