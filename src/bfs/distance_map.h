#ifndef HCPATH_BFS_DISTANCE_MAP_H_
#define HCPATH_BFS_DISTANCE_MAP_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"

namespace hcpath {

/// Hop distance; queries use small k so 8 bits suffice.
using Hop = uint8_t;

/// Distance treated as infinity (vertex not within the hop cap).
inline constexpr Hop kUnreachable = 0xFF;

/// Map VertexId -> Hop, tuned for the PathEnum index: built once per
/// endpoint by (multi-source) BFS, then probed on every edge expansion
/// during enumeration.
///
/// Three backings:
///  * open-addressing hash table — the default, mirroring the paper's
///    choice of storing only entities with dist <= k (Section III);
///  * a flat |V|-sized array of Hop — adopted once the map holds more than
///    ~1/8 of the universe (see SetUniverse), where the probe loop loses to
///    a single indexed load on the hottest lookup in enumeration;
///  * a read-only view on one slot of a bit-sliced MS-BFS wave
///    (bfs/msbfs.h): the wave's level-major block `within`, where bit
///    `slot` of within[(d-1)·|V| + v] is set when v lies within d hops of
///    the view's source, for d = 1..cap. The source itself (distance 0) is
///    stored by id. A view shares ownership of the block, so it stays valid
///    after the MsBfsResult that made it is gone; MS-BFS reuses a block
///    only once no view outside its result holds it. A view owns no map
///    bytes, and copying it copies the reference, not the masks.
///    MakeOwning() turns it into the flat array.
///
/// The flat array and the view both report IsDense(); only the hash table
/// takes InsertMin. Empty maps probe a shared one-slot sentinel table
/// instead of branching on size() == 0, keeping Lookup branch-light in the
/// common case.
class VertexDistMap {
 public:
  VertexDistMap() = default;

  VertexDistMap(const VertexDistMap& other) { *this = other; }
  VertexDistMap& operator=(const VertexDistMap& other);
  VertexDistMap(VertexDistMap&& other) noexcept { *this = std::move(other); }
  VertexDistMap& operator=(VertexDistMap&& other) noexcept;

  /// Declares the vertex-id universe [0, num_vertices). Once set, the map
  /// converts to the dense backing when its size crosses num_vertices / 8.
  /// Callers that never set it keep the pure hash behavior.
  void SetUniverse(size_t num_vertices);

  /// Pre-sizes for an expected number of entries (and converts to dense
  /// immediately when the expectation already crosses the threshold). A
  /// retained table more than kMaxRetainedSlack times the needed size is
  /// replaced by one of the needed size.
  void Reserve(size_t expected);

  /// Empties the map but keeps its owned storage (hash table, dense array,
  /// sorted-keys cache) for reuse, reverting to the hash backing and
  /// clearing the universe; a view drops its reference to the wave's
  /// masks. The recycling path for per-batch index storage (BatchContext):
  /// lookups on the refilled map are content-identical to a fresh build,
  /// though the retained table size (and hence unordered iteration order)
  /// may differ — every consumer is order-insensitive.
  void ClearKeepCapacity();

  /// Makes the map a view on bit `slot` of `within`, a level-major block of
  /// `levels`·num_vertices masks (levels >= cap), for a source whose
  /// reach holds `size` vertices. Replaces any previous content.
  void SetView(std::shared_ptr<const std::vector<uint64_t>> within,
               size_t num_vertices, unsigned slot, Hop cap, VertexId source,
               size_t size);

  /// Converts a view into the owning flat array with the same content, so
  /// the map no longer holds the wave's masks; no-op for other backings.
  void MakeOwning();

  /// Inserts v -> dist, keeping the smaller value on duplicate insert.
  /// Not for views.
  void InsertMin(VertexId v, Hop dist);

  /// Distance of v, or kUnreachable when absent.
  Hop Lookup(VertexId v) const {
    if (v < dense_bound_) {  // dense fast path
      return view_bit_ == 0 ? dense_[v] : ViewLookup(v);
    }
    if (dense_bound_ != 0) return kUnreachable;  // dense, v out of universe
    return HashLookup(v);
  }

  // Contains and Within repeat Lookup's branch order instead of calling
  // it, so a hash probe never reads the view fields: calling Lookup, or
  // testing the view flag first, slowed hash-only clustering by 12-25%
  // (docs/PERF.md).

  /// Lookup(v) != kUnreachable; one bit test for a view.
  bool Contains(VertexId v) const {
    if (v < dense_bound_) {
      return view_bit_ == 0 ? dense_[v] != kUnreachable
                            : ViewHas(v, view_cap_);
    }
    if (dense_bound_ != 0) return false;
    return HashLookup(v) != kUnreachable;
  }

  /// Lookup(v) <= budget, as one bit test for a view: v lies within
  /// min(budget, cap) hops exactly when it lies within budget hops of a
  /// source capped at cap. False for negative budgets.
  bool Within(VertexId v, int budget) const {
    if (v < dense_bound_) {
      if (view_bit_ == 0) {
        const Hop d = dense_[v];
        return d != kUnreachable && d <= budget;
      }
      return budget >= 0 &&
             ViewHas(v, static_cast<Hop>(std::min<int>(budget, view_cap_)));
    }
    if (dense_bound_ != 0) return false;
    const Hop d = HashLookup(v);
    return d != kUnreachable && d <= budget;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True when backed by the flat dense array or a wave view
  /// (introspection for tests and the sketch builder).
  bool IsDense() const { return dense_bound_ != 0; }

  /// True when the map is a view on an MS-BFS wave's masks.
  bool IsView() const { return view_bit_ != 0; }

  /// Keys in ascending vertex-id order (the Γ set of Def 4.4); built lazily
  /// and cached. Not safe to call concurrently with itself or mutators.
  const std::vector<VertexId>& SortedKeys() const;

  /// Calls fn(vertex, dist) for every entry, unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (view_bit_ != 0) {
      for (size_t v = 0; v < dense_bound_; ++v) {
        const VertexId u = static_cast<VertexId>(v);
        if (ViewHas(u, view_cap_)) fn(u, ViewLookup(u));
      }
      return;
    }
    if (dense_bound_ != 0) {
      for (size_t v = 0; v < dense_bound_; ++v) {
        if (dense_[v] != kUnreachable) fn(static_cast<VertexId>(v), dense_[v]);
      }
      return;
    }
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(s.key, s.dist);
    }
  }

  /// Approximate heap bytes owned; a view's masks belong to its wave and
  /// are not counted here.
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           dense_.capacity() * sizeof(Hop) +
           sorted_keys_.capacity() * sizeof(VertexId);
  }

 private:
  struct Slot {
    VertexId key = kEmptyKey;
    Hop dist = kUnreachable;
  };

  static constexpr VertexId kEmptyKey = kInvalidVertex;

  /// Reserve reallocates a retained hash table, and SortedKeys a retained
  /// key buffer, more than this many times the size the map needs.
  static constexpr size_t kMaxRetainedSlack = 4;

  /// Shared immutable one-slot empty table; every empty map points here so
  /// Lookup needs no size check.
  static const Slot* SentinelTable();

  static size_t Probe(VertexId v) {
    // Fibonacci-style multiplicative hash.
    return static_cast<size_t>(
        (static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ULL) >> 32);
  }

  /// Re-derives table_/mask_ from slots_ (after growth, moves, copies).
  void RefreshTable() {
    if (slots_.empty()) {
      table_ = SentinelTable();
      mask_ = 0;
    } else {
      table_ = slots_.data();
      mask_ = slots_.size() - 1;
    }
  }

  Hop HashLookup(VertexId v) const {
    HCPATH_DCHECK(v != kEmptyKey);
    const size_t mask = mask_;
    size_t i = Probe(v) & mask;
    while (true) {
      const Slot& s = table_[i];
      if (s.key == kEmptyKey) return kUnreachable;
      if (s.key == v) return s.dist;
      i = (i + 1) & mask;
    }
  }

  /// Does v lie within `level` hops of the view's source?
  bool ViewHas(VertexId v, Hop level) const {
    if (level == 0) return v == view_source_;
    return (view_within_[(level - 1) * universe_ + v] & view_bit_) != 0;
  }

  /// The view's distance of v (< dense_bound_): the first level holding it.
  Hop ViewLookup(VertexId v) const {
    if (v == view_source_) return 0;
    const uint64_t* w = view_within_ + v;
    for (Hop d = 1; d <= view_cap_; ++d, w += universe_) {
      if ((*w & view_bit_) != 0) return d;
    }
    return kUnreachable;
  }

  /// Drops the view state (the map is then owning again).
  void ResetView();

  void Grow();
  void ConvertToDense();

  // Ordered so a hash probe reads one cache line (table_, mask_,
  // dense_bound_) and a dense or view probe two.
  std::vector<Slot> slots_;
  const Slot* table_ = SentinelTable();
  size_t mask_ = 0;
  size_t dense_bound_ = 0;  // == universe_ when dense, else 0
  size_t universe_ = 0;     // 0 = dense switching disabled
  // View backing; view_bit_ == 0 for owning maps. A view keeps universe_
  // and dense_bound_ at |V|, the row stride of view_within_.
  const uint64_t* view_within_ = nullptr;  // view_masks_->data()
  uint64_t view_bit_ = 0;
  std::vector<Hop> dense_;
  VertexId view_source_ = kInvalidVertex;
  Hop view_cap_ = 0;
  size_t size_ = 0;
  std::shared_ptr<const std::vector<uint64_t>> view_masks_;
  mutable std::vector<VertexId> sorted_keys_;
  mutable bool sorted_valid_ = false;
};

}  // namespace hcpath

#endif  // HCPATH_BFS_DISTANCE_MAP_H_
