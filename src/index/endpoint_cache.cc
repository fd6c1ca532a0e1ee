#include "index/endpoint_cache.h"

#include <algorithm>

namespace hcpath {

namespace {

/// Plain hop-capped multi-source BFS into a dense distance array whose
/// slots are all kUnreachable on entry. Small and allocation-free in
/// steady state on purpose: it runs under the cache lock, capped at the
/// largest cached hop cap minus one, from only the update batch's touched
/// endpoints, with every buffer leased from the invalidation scratch
/// pool. Each newly labeled slot (sources included) is recorded in
/// `touched` so the caller can restore the all-kUnreachable invariant in
/// O(touched).
void CappedMultiSourceDist(const Graph& g, Direction dir,
                           const std::vector<VertexId>& sources, Hop cap,
                           std::vector<Hop>& dist,
                           std::vector<VertexId>& frontier,
                           std::vector<VertexId>& next,
                           std::vector<VertexId>& touched) {
  frontier.clear();
  next.clear();
  touched.clear();
  frontier.reserve(sources.size());
  for (VertexId s : sources) {
    if (dist[s] != 0) {
      dist[s] = 0;
      frontier.push_back(s);
      touched.push_back(s);
    }
  }
  for (Hop h = 1; h <= cap && !frontier.empty(); ++h) {
    next.clear();
    for (VertexId u : frontier) {
      for (VertexId w : g.Neighbors(u, dir)) {
        if (dist[w] == kUnreachable) {
          dist[w] = h;
          next.push_back(w);
          touched.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
}

/// Grows `dist` to cover [0, n) keeping the all-kUnreachable invariant.
void EnsureUnreachable(std::vector<Hop>& dist, size_t n) {
  if (dist.size() < n) dist.resize(n, kUnreachable);
}

}  // namespace

bool EndpointDistanceCache::Lookup(VertexId vertex, Direction dir, Hop cap,
                                   uint64_t epoch, VertexDistMap* out) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = by_key_.find(Key{vertex, dir, cap});
  if (it == by_key_.end()) {
    ++misses_;
    if (invalidated_keys_.count(Key{vertex, dir, cap}) != 0) {
      ++invalidated_misses_;
    }
    return false;
  }
  const Entry& e = *it->second;
  if (epoch < e.built_epoch || epoch > e.valid_through) {
    ++misses_;
    ++stale_misses_;
    return false;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = e.map;
  return true;
}

void EndpointDistanceCache::Insert(VertexId vertex, Direction dir, Hop cap,
                                   uint64_t epoch, VertexDistMap map) {
  if (max_entries_ == 0) return;
  // Entries own their bytes: a view would pin its whole MS-BFS wave's
  // masks, which the byte budget cannot see.
  map.MakeOwning();
  std::lock_guard<std::mutex> lk(mu_);
  const Key key{vertex, dir, cap};
  invalidated_keys_.erase(key);  // re-learned (repair or fresh build)
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    Entry& e = *it->second;
    if (epoch >= e.built_epoch && epoch <= e.valid_through) {
      // Same snapshot interval means same graph-determined content; just
      // refresh recency.
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (epoch < e.built_epoch) {
      // A batch pinned to an older snapshot rebuilt a key the cache has
      // since re-learned for a newer epoch; keep the newer content.
      return;
    }
    // Replace: the entry predates `epoch` and was not revalidated across
    // the intervening update(s), so its content is for a dead snapshot.
    // Charge the byte budget for exactly the delta.
    bytes_ -= e.bytes;
    e.map = std::move(map);
    e.bytes = e.map.MemoryBytes() + sizeof(Entry);
    e.built_epoch = epoch;
    e.valid_through = epoch;
    bytes_ += e.bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
    EvictToBudgetLocked();
    return;
  }
  Entry e;
  e.key = key;
  e.map = std::move(map);
  e.bytes = e.map.MemoryBytes() + sizeof(Entry);
  e.built_epoch = epoch;
  e.valid_through = epoch;
  bytes_ += e.bytes;
  lru_.push_front(std::move(e));
  by_key_.emplace(key, lru_.begin());
  EvictToBudgetLocked();
}

EndpointDistanceCache::InvalidationResult
EndpointDistanceCache::InvalidateUpdated(
    const Graph& old_g, const Graph& new_g,
    const std::vector<std::pair<VertexId, VertexId>>& added,
    const std::vector<std::pair<VertexId, VertexId>>& removed,
    uint64_t old_epoch, uint64_t new_epoch, std::vector<RepairKey>* dead) {
  InvalidationResult result;
  std::lock_guard<std::mutex> lk(mu_);

  // Only entries valid at old_epoch can possibly carry forward; find the
  // deepest cone among them to cap the classification BFSs.
  Hop max_cap = 0;
  for (const Entry& e : lru_) {
    if (e.valid_through == old_epoch && e.key.cap > max_cap) {
      max_cap = e.key.cap;
    }
  }
  if (max_cap == 0) return result;
  if (added.empty() && removed.empty()) {
    // Pure no-op batch: every snapshot-identical entry carries forward.
    for (Entry& e : lru_) {
      if (e.valid_through == old_epoch) {
        e.valid_through = new_epoch;
        ++result.revalidated;
      }
    }
    entries_revalidated_ += result.revalidated;
    return result;
  }

  // A forward entry (v, cap) changes only if its BFS can reach a touched
  // edge's TAIL within cap-1 hops — removed edges on the old graph, added
  // edges on the new one (docs/DYNAMIC.md has the two-sided argument).
  // dist(v -> tail) for all v at once is one backward multi-source BFS
  // from the tails; backward entries are the mirror image via edge HEADS
  // and forward BFSs.
  ScratchLease<InvalidationScratch> scratch(&inval_scratch_);
  for (int k = 0; k < 4; ++k) scratch->sources[k].clear();
  std::vector<VertexId>& removed_tails = scratch->sources[0];
  std::vector<VertexId>& added_tails = scratch->sources[1];
  std::vector<VertexId>& removed_heads = scratch->sources[2];
  std::vector<VertexId>& added_heads = scratch->sources[3];
  for (const auto& [u, v] : removed) {
    removed_tails.push_back(u);
    removed_heads.push_back(v);
  }
  for (const auto& [u, v] : added) {
    added_tails.push_back(u);
    added_heads.push_back(v);
  }
  const size_t max_n =
      std::max<size_t>(old_g.NumVertices(), new_g.NumVertices());
  const Hop cone_cap = static_cast<Hop>(max_cap - 1);
  // Four independent distance fields — one per (delta kind, graph side) —
  // NOT folded into two: sharing an array would stop the second BFS's
  // propagation at vertices the first already labeled with a smaller
  // distance, under-counting reach and letting stale entries survive.
  // to_tail_*[v] = hops from v to the nearest touched tail (fwd-entry
  // test); from_head_*[v] = hops from the nearest touched head to v
  // (bwd-entry test). All four live in pooled scratch holding the
  // all-kUnreachable invariant between calls.
  std::vector<Hop>& to_tail_removed = scratch->dist[0];
  std::vector<Hop>& to_tail_added = scratch->dist[1];
  std::vector<Hop>& from_head_removed = scratch->dist[2];
  std::vector<Hop>& from_head_added = scratch->dist[3];
  for (int k = 0; k < 4; ++k) EnsureUnreachable(scratch->dist[k], max_n);
  CappedMultiSourceDist(old_g, Direction::kBackward, removed_tails, cone_cap,
                        to_tail_removed, scratch->frontier, scratch->next,
                        scratch->touched[0]);
  CappedMultiSourceDist(new_g, Direction::kBackward, added_tails, cone_cap,
                        to_tail_added, scratch->frontier, scratch->next,
                        scratch->touched[1]);
  CappedMultiSourceDist(old_g, Direction::kForward, removed_heads, cone_cap,
                        from_head_removed, scratch->frontier, scratch->next,
                        scratch->touched[2]);
  CappedMultiSourceDist(new_g, Direction::kForward, added_heads, cone_cap,
                        from_head_added, scratch->frontier, scratch->next,
                        scratch->touched[3]);

  for (auto it = lru_.begin(); it != lru_.end();) {
    Entry& e = *it;
    if (e.valid_through != old_epoch) {
      ++it;
      continue;
    }
    // Cached keys come from queries validated against their snapshot, and
    // vertex counts only grow, so e.key.vertex always indexes the arrays.
    const VertexId v = e.key.vertex;
    const Hop d = e.key.dir == Direction::kForward
                      ? std::min(to_tail_removed[v], to_tail_added[v])
                      : std::min(from_head_removed[v], from_head_added[v]);
    if (d != kUnreachable && d + 1 <= e.key.cap) {
      if (dead != nullptr) {
        dead->push_back(RepairKey{e.key.vertex, e.key.dir, e.key.cap});
      }
      MarkInvalidatedLocked(e.key);
      bytes_ -= e.bytes;
      by_key_.erase(e.key);
      it = lru_.erase(it);
      ++result.invalidated;
    } else {
      e.valid_through = new_epoch;
      ++result.revalidated;
      ++it;
    }
  }
  entries_invalidated_ += result.invalidated;
  entries_revalidated_ += result.revalidated;

  // Restore the scratch invariant in O(touched).
  for (int k = 0; k < 4; ++k) {
    for (VertexId v : scratch->touched[k]) scratch->dist[k][v] = kUnreachable;
  }
  return result;
}

void EndpointDistanceCache::MarkInvalidatedLocked(const Key& key) {
  // Best-effort bound: the tombstone set only matters for miss
  // attribution, so an adversarial stream that overflows it just loses
  // classification history, never correctness.
  if (invalidated_keys_.size() >= 8 * max_entries_ + 1024) {
    invalidated_keys_.clear();
  }
  invalidated_keys_.insert(key);
}

void EndpointDistanceCache::Invalidate() {
  std::lock_guard<std::mutex> lk(mu_);
  entries_invalidated_ += lru_.size();
  for (const Entry& e : lru_) MarkInvalidatedLocked(e.key);
  lru_.clear();
  by_key_.clear();
  bytes_ = 0;
}

void EndpointDistanceCache::EvictToBudgetLocked() {
  while (lru_.size() > max_entries_ ||
         (max_bytes_ != 0 && bytes_ > max_bytes_ && lru_.size() > 1)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    by_key_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

size_t EndpointDistanceCache::entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lru_.size();
}
uint64_t EndpointDistanceCache::bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return bytes_;
}
uint64_t EndpointDistanceCache::hits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hits_;
}
uint64_t EndpointDistanceCache::misses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return misses_;
}
uint64_t EndpointDistanceCache::evictions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return evictions_;
}
uint64_t EndpointDistanceCache::stale_misses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stale_misses_;
}
uint64_t EndpointDistanceCache::invalidated_misses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return invalidated_misses_;
}
uint64_t EndpointDistanceCache::entries_invalidated() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_invalidated_;
}
uint64_t EndpointDistanceCache::entries_revalidated() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_revalidated_;
}

void EndpointDistanceCache::ResetCounters() {
  std::lock_guard<std::mutex> lk(mu_);
  hits_ = misses_ = evictions_ = stale_misses_ = invalidated_misses_ = 0;
  entries_invalidated_ = entries_revalidated_ = 0;
}

std::vector<EndpointDistanceCache::PersistedEntry>
EndpointDistanceCache::ExportEntries(uint64_t epoch) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<PersistedEntry> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) {  // front = MRU, so export is MRU-first
    if (epoch < e.built_epoch || epoch > e.valid_through) continue;
    out.push_back(PersistedEntry{e.key.vertex, e.key.dir, e.key.cap, e.map});
  }
  return out;
}

size_t EndpointDistanceCache::RestoreEntries(
    std::vector<PersistedEntry> entries, uint64_t epoch) {
  // Insert in reverse so entries[0] — the export's MRU — is inserted last
  // and lands at the front of the LRU; if budgets force evictions during
  // the restore, the coldest imports go first, exactly as if the original
  // cache had been shrunk.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    Insert(it->vertex, it->dir, it->cap, epoch, std::move(it->map));
  }
  // "Accepted" = still resident after the whole restore (evictions during
  // the loop may have displaced earlier imports). Export keys are unique,
  // so counting presence is exact.
  size_t accepted = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (const PersistedEntry& e : entries) {
    if (by_key_.count(Key{e.vertex, e.dir, e.cap}) != 0) ++accepted;
  }
  return accepted;
}

uint64_t EndpointDistanceCache::DebugSumEntryBytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  uint64_t total = 0;
  for (const Entry& e : lru_) total += e.map.MemoryBytes() + sizeof(Entry);
  return total;
}

}  // namespace hcpath
