#ifndef HCPATH_CORE_PATH_H_
#define HCPATH_CORE_PATH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/logging.h"

namespace hcpath {

/// A path is a vertex sequence; its length (hop count) is size() - 1.
using PathView = std::span<const VertexId>;

std::string PathToString(PathView p);

/// True iff no vertex repeats in p. O(|p|^2) with tiny constants — paths
/// have at most k+1 <= 31 vertices, where linear scans beat hashing.
bool IsSimplePath(PathView p);

/// True iff consecutive vertices of p are connected by edges of g.
bool PathExistsInGraph(const Graph& g, PathView p);

/// Densely packed set of variable-length paths: one flat vertex array plus
/// an offsets array (CSR for paths). This is the materialized result
/// representation R of Algorithm 4 — cache-friendly to scan and join, and
/// two orders of magnitude smaller than vector<vector<>> per path.
class PathSet {
 public:
  PathSet() { offsets_.push_back(0); }

  /// Appends a path (sequence of vertices, length >= 1 vertex).
  void Add(PathView p) {
    HCPATH_DCHECK(!p.empty());
    data_.insert(data_.end(), p.begin(), p.end());
    offsets_.push_back(static_cast<uint64_t>(data_.size()));
  }

  /// Appends prefix + suffix as one path without an intermediate copy.
  void AddConcat(PathView prefix, PathView suffix) {
    data_.insert(data_.end(), prefix.begin(), prefix.end());
    data_.insert(data_.end(), suffix.begin(), suffix.end());
    offsets_.push_back(static_cast<uint64_t>(data_.size()));
  }

  /// Appends paths [begin, end) of `other`, in order: one bulk vertex copy
  /// plus a rebased offsets append instead of path-at-a-time Add. The
  /// resulting set is element-for-element identical to the Add loop.
  /// Both arrays grow geometrically (no exact-size reserve), so a long
  /// series of small appends — a merge draining many buffers into one —
  /// stays linear in the appended paths.
  void AppendRange(const PathSet& other, size_t begin, size_t end) {
    HCPATH_DCHECK(begin <= end && end <= other.size());
    if (begin == end) return;
    const uint64_t src_lo = other.offsets_[begin];
    const uint64_t src_hi = other.offsets_[end];
    // Every appended offset is the source offset shifted by one constant.
    const uint64_t shift = static_cast<uint64_t>(data_.size()) - src_lo;
    data_.insert(data_.end(), other.data_.begin() + src_lo,
                 other.data_.begin() + src_hi);
    for (size_t i = begin + 1; i <= end; ++i) {
      offsets_.push_back(other.offsets_[i] + shift);
    }
  }

  /// Appends every path of `other` (bulk transfer of a whole sub-result).
  void AppendSet(const PathSet& other) {
    AppendRange(other, 0, other.size());
  }

  size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  PathView operator[](size_t i) const {
    return {data_.data() + offsets_[i],
            data_.data() + offsets_[i + 1]};
  }

  /// Hop count of path i.
  size_t Length(size_t i) const {
    return static_cast<size_t>(offsets_[i + 1] - offsets_[i]) - 1;
  }

  VertexId Head(size_t i) const { return data_[offsets_[i]]; }
  VertexId Tail(size_t i) const { return data_[offsets_[i + 1] - 1]; }

  void Clear() {
    data_.clear();
    offsets_.assign(1, 0);
  }

  uint64_t MemoryBytes() const {
    return data_.capacity() * sizeof(VertexId) +
           offsets_.capacity() * sizeof(uint64_t);
  }

  uint64_t TotalVertices() const { return data_.size(); }

  /// Lexicographically sorted copy of all paths; canonical form for tests.
  std::vector<std::vector<VertexId>> ToSortedVectors() const;

  /// Order- and layout-insensitive fingerprint; equal iff the path multisets
  /// are equal (up to hash collisions). Used to cross-validate algorithms.
  uint64_t Fingerprint() const;

 private:
  std::vector<VertexId> data_;
  std::vector<uint64_t> offsets_;
};

/// Receives enumerated paths. Implementations must copy the data if they
/// keep it: the span is only valid during the call.
class PathSink {
 public:
  virtual ~PathSink() = default;
  /// `query_index` is the position of the owning query in the input batch.
  virtual void OnPath(size_t query_index, PathView path) = 0;

  /// Bulk variant: paths [begin, end) of `paths`, in order, all owned by
  /// `query_index`. The default forwards path-at-a-time, so every sink
  /// observes a stream identical to repeated OnPath calls; sinks that
  /// store paths contiguously (BufferedSink, CollectingSink) override it
  /// with a bulk copy (PathSet::AppendRange), which is what makes the
  /// streaming merge drains allocation- and dispatch-light.
  virtual void OnPaths(size_t query_index, const PathSet& paths,
                       size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) OnPath(query_index, paths[i]);
  }
};

/// Sink that counts paths per query (the common benchmarking mode).
class CountingSink : public PathSink {
 public:
  explicit CountingSink(size_t num_queries) : counts_(num_queries, 0) {}
  void OnPath(size_t query_index, PathView) override {
    ++counts_[query_index];
  }
  void OnPaths(size_t query_index, const PathSet&, size_t begin,
               size_t end) override {
    counts_[query_index] += end - begin;
  }
  const std::vector<uint64_t>& counts() const { return counts_; }
  uint64_t Total() const;

 private:
  std::vector<uint64_t> counts_;
};

/// Sink that materializes every path per query (testing / small batches).
class CollectingSink : public PathSink {
 public:
  explicit CollectingSink(size_t num_queries) : sets_(num_queries) {}
  void OnPath(size_t query_index, PathView path) override {
    sets_[query_index].Add(path);
  }
  void OnPaths(size_t query_index, const PathSet& paths, size_t begin,
               size_t end) override {
    sets_[query_index].AppendRange(paths, begin, end);
  }
  const PathSet& paths(size_t query_index) const {
    return sets_[query_index];
  }
  const std::vector<PathSet>& all() const { return sets_; }

 private:
  std::vector<PathSet> sets_;
};

}  // namespace hcpath

#endif  // HCPATH_CORE_PATH_H_
