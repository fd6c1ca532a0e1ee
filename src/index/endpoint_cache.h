#ifndef HCPATH_INDEX_ENDPOINT_CACHE_H_
#define HCPATH_INDEX_ENDPOINT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bfs/distance_map.h"
#include "graph/graph.h"
#include "util/epoch_stamp.h"

namespace hcpath {

/// Cross-batch LRU cache of endpoint distance maps, keyed by
/// (vertex, direction, hop cap). A long-lived PathEngine keeps one of these
/// so a hot endpoint that repeats across micro-batches (the same power-law
/// skew that motivates the paper's intra-batch sharing) skips its BFS in
/// the next batch's index build entirely.
///
/// Coherence on a dynamic graph (docs/DYNAMIC.md): every entry carries the
/// graph-epoch interval [built_epoch, valid_through] over which its content
/// is known to equal a fresh BFS. A hop-capped BFS from a fixed
/// (vertex, direction) is a pure function of the graph within the entry's
/// cone, so when an update batch lands, InvalidateUpdated() extends
/// valid_through for exactly the entries whose cone provably misses every
/// touched edge and erases the rest — cone-precise invalidation, not a
/// blanket flush. Lookups pass the epoch of the snapshot their batch
/// admitted against and only hit inside the entry's validity interval, so
/// pinned in-flight batches and post-update batches each see maps
/// bit-identical to a from-scratch build on their own snapshot. A static
/// graph degenerates to epoch 0 everywhere and behaves exactly as before.
///
/// Thread-safe: all public methods lock an internal mutex, so an update
/// thread may invalidate while a pinned batch probes/fills concurrently
/// (PathEngine::ApplyUpdates runs outside the batch-execution lock).
/// Served maps are copied out under the lock; no internal pointer escapes.
class EndpointDistanceCache {
 public:
  /// `max_entries` = 0 disables the cache (every probe misses, inserts are
  /// dropped). `max_bytes` = 0 means no byte budget.
  explicit EndpointDistanceCache(size_t max_entries = 4096,
                                 uint64_t max_bytes = 0)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  /// Probes (vertex, dir, cap) at graph epoch `epoch`. On a hit — the
  /// entry exists and `epoch` lies in its validity interval — copies the
  /// map into `*out` (copy-assignment recycles out's storage), refreshes
  /// the entry's LRU position, counts a hit, and returns true. An entry
  /// whose interval misses `epoch` counts as a miss (plus stale_misses).
  bool Lookup(VertexId vertex, Direction dir, Hop cap, uint64_t epoch,
              VertexDistMap* out);

  /// Inserts the map built at graph epoch `epoch` for (vertex, dir, cap)
  /// as most recently used, then evicts least-recently-used entries until
  /// both budgets hold. A view on an MS-BFS wave's masks is stored as its
  /// owning copy (VertexDistMap::MakeOwning), so no entry pins a wave and
  /// every entry's bytes are its own. Over an existing key:
  ///  * interval covers `epoch` — same graph-determined content; only the
  ///    recency is refreshed;
  ///  * entry is older (valid_through < epoch) — replaced, with the byte
  ///    budget charged for exactly the delta (the overwrite path must not
  ///    double-count or leak; asserted by endpoint_cache_test's
  ///    bytes_accounted == sum(entries) invariant);
  ///  * entry is newer (built_epoch > epoch) — the insert is dropped: a
  ///    batch pinned to an old snapshot must not clobber current state.
  void Insert(VertexId vertex, Direction dir, Hop cap, uint64_t epoch,
              VertexDistMap map);

  /// Per-call outcome of InvalidateUpdated.
  struct InvalidationResult {
    uint64_t invalidated = 0;  ///< entries whose cone intersects the update
    uint64_t revalidated = 0;  ///< entries carried forward to new_epoch
  };

  /// Identity of an entry InvalidateUpdated erased — everything incremental
  /// repair needs to re-run the capped BFS on the new snapshot and reinsert
  /// (PathEngine::ApplyUpdates; docs/DYNAMIC.md "cache repair").
  struct RepairKey {
    VertexId vertex;
    Direction dir;
    Hop cap;
  };

  /// Graph transition old_epoch -> new_epoch = old_epoch + 1 with the
  /// given effective edge deltas (GraphBuilder::ApplyUpdates's stats):
  /// revalidates every entry whose hop-capped BFS cone provably avoids all
  /// touched edges — forward entry (v, cap) is kept iff no removed-edge
  /// tail is within cap-1 of v in `old_g` and no added-edge tail is within
  /// cap-1 of v in `new_g` (symmetrically via edge heads for backward
  /// entries) — and erases the rest. Kept entries get
  /// valid_through = new_epoch; only entries currently valid at old_epoch
  /// participate (anything older can already never serve new_epoch).
  ///
  /// Cost: at most four hop-capped multi-source BFSs from the touched
  /// endpoints, capped at (max cached hop cap) - 1 — independent of entry
  /// count beyond a linear classification scan. The BFS distance fields
  /// and frontier buffers come from a recycled scratch pool, so a
  /// steady-state update batch allocates nothing here.
  ///
  /// When `dead` is non-null, the key of every erased entry is appended —
  /// the exact (vertex, dir, cap) set whose cones the update changed —
  /// so the caller can repair them against the new snapshot.
  InvalidationResult InvalidateUpdated(
      const Graph& old_g, const Graph& new_g,
      const std::vector<std::pair<VertexId, VertexId>>& added,
      const std::vector<std::pair<VertexId, VertexId>>& removed,
      uint64_t old_epoch, uint64_t new_epoch,
      std::vector<RepairKey>* dead = nullptr);

  /// Drops every entry (budgets and counters are kept).
  void Invalidate();

  size_t entries() const;
  uint64_t bytes() const;
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  /// Misses caused by an entry that exists but whose validity interval
  /// does not contain the probed epoch.
  uint64_t stale_misses() const;
  /// Misses on keys the cache once held but invalidated (InvalidateUpdated
  /// erase or full Invalidate) and has not re-learned — as opposed to keys
  /// never seen. Splitting these is what makes repair efficacy measurable:
  /// repair exists precisely to turn would-be invalidated misses back into
  /// hits (exp11_dynamic reports both). Tracking is best-effort — the
  /// tombstone set is capped at a multiple of max_entries and cleared if
  /// an adversarial stream overflows it.
  uint64_t invalidated_misses() const;
  /// Cumulative InvalidateUpdated outcomes (plus full Invalidate() drops
  /// under `entries_invalidated`).
  uint64_t entries_invalidated() const;
  uint64_t entries_revalidated() const;

  /// Zeroes the hit/miss/eviction/invalidation counters (entries stay).
  void ResetCounters();

  /// One cache entry lifted out of (or headed into) the LRU — the unit the
  /// spill/restore layer (index/cache_persist.h) serializes.
  struct PersistedEntry {
    VertexId vertex;
    Direction dir;
    Hop cap;
    VertexDistMap map;
  };

  /// Snapshot of every entry valid at `epoch`, most-recently-used first.
  /// Entries whose validity interval misses `epoch` are skipped: a spill
  /// taken at a checkpoint epoch must only carry maps that equal a fresh
  /// BFS on the checkpointed graph. Maps are copied out under the lock.
  std::vector<PersistedEntry> ExportEntries(uint64_t epoch) const;

  /// Re-inserts previously exported entries as built at `epoch`, restoring
  /// the export's recency order (first element of `entries` ends up most
  /// recently used). Goes through Insert, so entry/byte budgets and the
  /// 3-case epoch logic apply — restoring into a smaller cache keeps the
  /// hottest prefix. Returns how many entries were accepted.
  size_t RestoreEntries(std::vector<PersistedEntry> entries, uint64_t epoch);

  /// Recomputes sum over live entries of their accounted size — the
  /// invariant bytes() must equal after any operation sequence. Test-only
  /// (linear walk).
  uint64_t DebugSumEntryBytes() const;

 private:
  struct Key {
    VertexId vertex;
    Direction dir;
    Hop cap;
    bool operator==(const Key& other) const {
      return vertex == other.vertex && dir == other.dir && cap == other.cap;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = (static_cast<uint64_t>(k.vertex) << 16) ^
                   (static_cast<uint64_t>(k.cap) << 8) ^
                   static_cast<uint64_t>(k.dir == Direction::kForward);
      h *= 0x9E3779B97F4A7C15ULL;
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  struct Entry {
    Key key;
    VertexDistMap map;
    uint64_t bytes = 0;
    /// Content == fresh BFS on every snapshot in [built_epoch,
    /// valid_through] (inclusive).
    uint64_t built_epoch = 0;
    uint64_t valid_through = 0;
  };

  /// Grow-only buffers for the four classification BFSs, leased from a
  /// pool per InvalidateUpdated call so steady-state updates allocate
  /// nothing. Invariant between uses: every `dist` slot is kUnreachable —
  /// maintained by resetting only the slots each BFS touched (recorded in
  /// `touched`), which keeps the reset O(touched) like the BFS itself.
  struct InvalidationScratch {
    std::vector<Hop> dist[4];
    std::vector<VertexId> touched[4];
    std::vector<VertexId> sources[4];
    std::vector<VertexId> frontier;
    std::vector<VertexId> next;
  };

  void EvictToBudgetLocked();
  void MarkInvalidatedLocked(const Key& key);

  size_t max_entries_;
  uint64_t max_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> by_key_;
  /// Tombstones of invalidated-but-not-relearned keys, for the
  /// invalidated-vs-never-seen miss split. Size-capped; see
  /// invalidated_misses().
  std::unordered_set<Key, KeyHash> invalidated_keys_;
  ScratchPool<InvalidationScratch> inval_scratch_;
  uint64_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t stale_misses_ = 0;
  uint64_t invalidated_misses_ = 0;
  uint64_t entries_invalidated_ = 0;
  uint64_t entries_revalidated_ = 0;
};

}  // namespace hcpath

#endif  // HCPATH_INDEX_ENDPOINT_CACHE_H_
