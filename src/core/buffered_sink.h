#ifndef HCPATH_CORE_BUFFERED_SINK_H_
#define HCPATH_CORE_BUFFERED_SINK_H_

#include <memory>
#include <mutex>
#include <vector>

#include "core/path.h"

namespace hcpath {

/// Per-item path buffer for the parallel batch engines. An item that cannot
/// emit downstream yet (an earlier item is still running) emits into its
/// own BufferedSink (no locks on the hot emit path); the merge's single
/// drainer replays the buffers in input order as the prefix before them
/// completes, so the downstream sink observes exactly the sequential
/// emission stream (core/parallel_merge.h, docs/PARALLELISM.md).
///
/// Storage is one densely packed PathSet plus a run table: consecutive
/// emissions for the same query collapse into one [begin, end) run, so a
/// buffer replays as a handful of bulk OnPaths calls — and when the
/// downstream is itself a BufferedSink (nested merges) or a CollectingSink,
/// each run lands as one PathSet::AppendRange copy instead of a virtual
/// call and a vertex copy per path.
///
/// A run may also reference a whole PathSet the buffer does not own
/// (Reference): it costs one run-table entry instead of a copy, and Replay
/// emits the set as it is *at replay time*, in its place among the owned
/// runs. The set may therefore still be filling when the reference is
/// recorded, as long as it is complete before the buffer replays. Only a
/// caller that outlives the buffer's drain may record one: in the
/// duplicate-query assembly a group member's item references the group
/// set that its leader's item (an earlier merge item) joins, possibly
/// concurrently, and RunBufferedParallel replays the member only after the
/// leader has finished and drains every buffer before it returns. PathSink
/// itself stays copy-on-receive, so no long-lived sink can keep a
/// reference.
class BufferedSink : public PathSink {
 public:
  BufferedSink() = default;

  // Non-copyable and non-movable; hold them in fixed-size containers.
  BufferedSink(const BufferedSink&) = delete;
  BufferedSink& operator=(const BufferedSink&) = delete;

  void OnPath(size_t query_index, PathView path) override {
    paths_.Add(path);
    ExtendRun(query_index, 1);
  }

  void OnPaths(size_t query_index, const PathSet& paths, size_t begin,
               size_t end) override {
    if (begin == end) return;
    paths_.AppendRange(paths, begin, end);
    ExtendRun(query_index, end - begin);
  }

  /// Records all of `paths` for `query_index` without copying them. The
  /// range resolves at Replay, to the set's size then: `paths` may still
  /// grow until the replay, must be complete by then, and must stay alive
  /// until this buffer's next Rewind or Clear.
  void Reference(size_t query_index, const PathSet& paths) {
    runs_.push_back({query_index, &paths, 0, 0});
  }

  /// Re-emits every buffered path, in emission order, to `downstream`:
  /// one bulk OnPaths call per query run, owned or referenced (an empty
  /// referenced set emits nothing).
  void Replay(PathSink* downstream) const {
    for (const Run& r : runs_) {
      if (r.source == nullptr) {
        downstream->OnPaths(r.query_index, paths_, r.begin, r.end);
      } else if (!r.source->empty()) {
        downstream->OnPaths(r.query_index, *r.source, 0, r.source->size());
      }
    }
  }

  /// Drops every buffered path and reference, and returns the path storage
  /// and run table to the system. The streaming merge calls this as soon
  /// as a buffer drains, so peak memory tracks undrained buffers, not the
  /// batch.
  void Clear() {
    paths_ = PathSet();
    runs_ = {};
  }

  /// Drops every buffered path and reference but keeps the storage
  /// capacity for reuse. The recycling path for pooled sinks (SinkPool
  /// below): a rewound buffer serves its next run without returning to the
  /// system allocator.
  void Rewind() {
    paths_.Clear();
    runs_.clear();
  }

  /// Bytes currently pinned by this buffer (owned path storage + run
  /// table). Referenced paths belong to their set and count nothing.
  uint64_t buffered_bytes() const {
    return paths_.MemoryBytes() + runs_.capacity() * sizeof(Run);
  }

 private:
  struct Run {
    size_t query_index;
    const PathSet* source;  ///< referenced set (all of it); nullptr for paths_
    size_t begin;           ///< owned runs: first path index in paths_
    size_t end;             ///< owned runs: one past the last path index
  };

  /// Owned runs are contiguous in paths_ by construction (each covers the
  /// paths appended since the previous owned run's end), so extending only
  /// needs the query id — and never reaches into a referenced run.
  void ExtendRun(size_t query_index, size_t num_paths) {
    if (!runs_.empty() && runs_.back().query_index == query_index &&
        runs_.back().source == nullptr) {
      runs_.back().end += num_paths;
      return;
    }
    runs_.push_back(
        {query_index, nullptr, paths_.size() - num_paths, paths_.size()});
  }

  PathSet paths_;
  std::vector<Run> runs_;
};

/// Thread-safe free list of BufferedSinks, owned by a BatchContext so the
/// parallel merge reuses buffers (and their arena chunks / record tables)
/// across calls and across batches instead of reallocating per run.
///
/// Acquire/Release are mutex-guarded but off the hot path: one pair per
/// merge *item*, never per emitted path. Nested merges (intra-cluster
/// assembly inside a cluster task) share the pool safely — a buffer drained
/// by the streaming merge is released immediately, so its storage flows to
/// whichever concurrent merge acquires next.
///
/// Retention is budgeted: a released buffer keeps its storage (Rewind)
/// only while the pool's total retained bytes stay under
/// `kMaxRetainedBytes`, and no single buffer may pin more than
/// `kMaxRetainedPerSink`; beyond either bound the buffer's storage is
/// freed (Clear) before pooling. This preserves cross-batch chunk reuse
/// for a bounded working set while keeping the PR-2 streaming guarantee —
/// a giant batch's drained buffers cannot re-accumulate gather-baseline
/// memory inside the pool.
class SinkPool {
 public:
  static constexpr uint64_t kMaxRetainedBytes = 16 << 20;    // whole pool
  static constexpr uint64_t kMaxRetainedPerSink = 1 << 20;   // per buffer
  static constexpr size_t kMaxPooledSinks = 1024;            // object count

  SinkPool() = default;
  SinkPool(const SinkPool&) = delete;
  SinkPool& operator=(const SinkPool&) = delete;

  /// Returns an empty buffer, recycled when one is available.
  BufferedSink* Acquire() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!free_.empty()) {
        BufferedSink* s = free_.back().release();
        free_.pop_back();
        retained_bytes_ -= s->buffered_bytes();
        return s;
      }
    }
    return new BufferedSink();
  }

  /// Takes the buffer back, emptied; storage is kept only within budget.
  void Release(BufferedSink* sink) {
    sink->Rewind();
    uint64_t bytes = sink->buffered_bytes();
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.size() >= kMaxPooledSinks) {
      delete sink;
      return;
    }
    if (bytes > kMaxRetainedPerSink ||
        retained_bytes_ + bytes > kMaxRetainedBytes) {
      sink->Clear();
      bytes = sink->buffered_bytes();  // record-table slack only
    }
    retained_bytes_ += bytes;
    free_.emplace_back(sink);
  }

  size_t free_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return free_.size();
  }

  uint64_t retained_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return retained_bytes_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<BufferedSink>> free_;
  uint64_t retained_bytes_ = 0;
};

}  // namespace hcpath

#endif  // HCPATH_CORE_BUFFERED_SINK_H_
