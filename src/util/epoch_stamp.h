#ifndef HCPATH_UTIL_EPOCH_STAMP_H_
#define HCPATH_UTIL_EPOCH_STAMP_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "util/logging.h"

namespace hcpath {

/// Dense O(1) membership table for vertex ids, cleared by bumping an epoch
/// instead of zeroing storage (docs/PERF.md). A slot is "marked" iff its
/// stamp equals the current epoch, so
///
///   * Clear()    is O(1): one increment forgets every mark;
///   * Mark(v)    is one store (plus amortized growth past the high id);
///   * Contains(v) is one bounds check + one load;
///   * Unmark(v)  is one store of 0 (the epoch is never 0, see below).
///
/// This replaces the per-membership-test linear scans of the enumeration
/// hot loops (DFS on-path test, splice/join disjointness) with stamp
/// lookups whose cost is independent of the path length.
///
/// Epoch wraparound: epochs live in [1, UINT32_MAX]. When the increment
/// in Clear() wraps to 0, the storage is re-zeroed and the epoch restarts
/// at 1 — every stale stamp from the previous epoch cycle is erased before
/// any epoch value can repeat, so a mark from 2^32 clears ago can never
/// resurface. Unmark() writes stamp 0, which no live epoch ever equals.
///
/// Not thread-safe; lease one table per concurrent kernel (ScratchPool).
class EpochStampTable {
 public:
  EpochStampTable() = default;

  /// Forgets every mark in O(1). Storage and capacity are retained.
  void Clear() {
    if (++epoch_ == 0) WrapEpoch();
  }

  /// Marks `v`; returns true iff it was not already marked. Grows the
  /// table geometrically when `v` is past the current capacity.
  bool Mark(uint32_t v) {
    if (v >= stamp_.size()) Grow(v);
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    return true;
  }

  /// Removes a mark set in the current epoch (DFS pop).
  void Unmark(uint32_t v) {
    HCPATH_DCHECK(v < stamp_.size());
    stamp_[v] = 0;
  }

  bool Contains(uint32_t v) const {
    return v < stamp_.size() && stamp_[v] == epoch_;
  }

  /// Batched membership, element-wise: hits[i] = Contains(vs[i]) (0 or 1)
  /// for every i. `hits` must have room for vs.size() bytes. Spans of 8+
  /// dispatch to an AVX2 gather kernel (8 stamps per iteration) when the
  /// CPU supports it; otherwise (and for the tail) an unrolled scalar loop
  /// runs. Both kernels compute the same predicate, so callers never
  /// observe which one ran; HCPATH_FORCE_SCALAR=1 pins the scalar oracle.
  void TestBatch(std::span<const uint32_t> vs, uint8_t* hits) const;

  /// True when the batched probe dispatches to the AVX2 gather kernel
  /// (CPU support present, not forced scalar). Informational: the scalar
  /// fallback computes identical results.
  static bool UsingSimd();

  /// Test/bench hook for the kernel dispatch: 1 forces the scalar
  /// fallback, 0 allows SIMD regardless of HCPATH_FORCE_SCALAR, -1
  /// restores the default (env var + CPU detection).
  static void TestOnlyForceScalar(int mode);

  /// Pre-sizes the table (e.g. to the vertex count) so the marking loops
  /// never hit the growth branch.
  void Reserve(size_t n) {
    if (n > stamp_.size()) stamp_.resize(n, 0);
  }

  size_t capacity() const { return stamp_.size(); }
  uint32_t epoch() const { return epoch_; }

  /// Test hook: jump the epoch counter (e.g. next to UINT32_MAX) to
  /// exercise the wraparound path without 2^32 Clear() calls.
  void TestOnlySetEpoch(uint32_t epoch);

 private:
  void Grow(uint32_t v);
  void WrapEpoch();

  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 1;
};

/// Thread-safe free list of default-constructed scratch objects, owned by
/// a BatchContext so kernels lease warm scratch (stamp tables with grown
/// storage, join index arrays with grown capacity) instead of
/// reallocating per query. Acquire/Release are mutex-guarded but off the
/// hot path: one pair per kernel invocation, never per vertex.
template <typename T>
class ScratchPool {
 public:
  /// Retention cap. Scratch objects are sized O(|V|) (a byte budget like
  /// SinkPool's would force realloc-and-rezero churn on large graphs), so
  /// retention is bounded by the only number that bounds concurrent
  /// leases instead: the hardware thread count, with headroom for nested
  /// kernels. Everything beyond the cap is freed on Release.
  static size_t MaxPooled() {
    static const size_t cap = std::max<size_t>(
        8, 2 * std::thread::hardware_concurrency());
    return cap;
  }

  ScratchPool() = default;
  ScratchPool(const ScratchPool&) = delete;
  ScratchPool& operator=(const ScratchPool&) = delete;

  /// Returns a scratch object in unspecified (but valid) state; the kernel
  /// clears what it uses. Recycled when one is available.
  T* Acquire() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!free_.empty()) {
        T* t = free_.back().release();
        free_.pop_back();
        return t;
      }
    }
    return new T();
  }

  void Release(T* t) {
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.size() >= MaxPooled()) {
      delete t;
      return;
    }
    free_.emplace_back(t);
  }

  size_t free_count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return free_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<T>> free_;
};

/// RAII lease of one scratch object. With a pool, Acquire/Release bracket
/// the scope; with `pool == nullptr` (direct API callers outside a
/// BatchContext) the lease hands out a per-thread fallback object, which
/// keeps bare RunHalfSearch / JoinAndEmit calls allocation-free in steady
/// state too.
///
/// The fallback is a thread_local singleton, so at most one lease per T
/// may be live on a thread at a time. The enumeration kernels satisfy
/// this by construction: none of them calls back into a kernel that
/// leases the same scratch type while holding its own lease.
template <typename T>
class ScratchLease {
 public:
  explicit ScratchLease(ScratchPool<T>* pool) : pool_(pool) {
    if (pool_ != nullptr) {
      obj_ = pool_->Acquire();
    } else {
      static thread_local T fallback;
      obj_ = &fallback;
    }
  }
  ~ScratchLease() {
    if (pool_ != nullptr) pool_->Release(obj_);
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  T& operator*() const { return *obj_; }
  T* operator->() const { return obj_; }
  T* get() const { return obj_; }

 private:
  ScratchPool<T>* pool_;
  T* obj_;
};

using EpochStampPool = ScratchPool<EpochStampTable>;

}  // namespace hcpath

#endif  // HCPATH_UTIL_EPOCH_STAMP_H_
