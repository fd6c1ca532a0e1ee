#include "index/distance_index.h"

#include <unordered_map>
#include <utility>

#include "util/timer.h"

namespace hcpath {

namespace {

/// Folds one endpoint map into a dense min-distance array. Iteration order
/// is irrelevant (elementwise min commutes), so cache-served maps fold to
/// the same array a fresh BFS would have produced.
void FoldMin(const VertexDistMap& map, std::vector<Hop>& min_dist) {
  map.ForEach([&](VertexId v, Hop d) {
    if (d < min_dist[v]) min_dist[v] = d;
  });
}

}  // namespace

/// Cache-aware build plan for one direction: which request slots were
/// served from the cache, and the deduplicated (endpoint, cap) list that
/// still needs a BFS.
struct DistanceIndex::DirectionPlan {
  Direction dir;
  const std::vector<VertexId>* endpoints = nullptr;
  MsBfsResult* out = nullptr;          // fwd_ or bwd_
  MsBfsResult* miss_out = nullptr;     // recycled BFS result for the misses
  MsBfsScratch* scratch = nullptr;
  std::vector<VertexId> miss_sources;  // one entry per unique missing key
  std::vector<Hop> miss_caps;
  std::vector<std::vector<size_t>> miss_requests;  // key -> request slots
};

void DistanceIndex::ProbeAndPlan(const Graph& g, EndpointDistanceCache* cache,
                                 const std::vector<Hop>& hops,
                                 uint64_t graph_epoch, DirectionPlan& plan) {
  const size_t n = plan.endpoints->size();
  MsBfsResult& out = *plan.out;
  for (VertexDistMap& m : out.per_source) m.ClearKeepCapacity();
  out.per_source.resize(n);
  out.min_dist.assign(g.NumVertices(), kUnreachable);
  out.total_discovered = 0;
  out.bottom_up_levels = 0;

  // (vertex, cap) -> first request slot if served, or ~miss_index.
  std::unordered_map<uint64_t, size_t> seen;
  seen.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) {
    const VertexId v = (*plan.endpoints)[i];
    const Hop cap = hops[i];
    const uint64_t key = (static_cast<uint64_t>(v) << 8) | cap;
    auto [it, first] = seen.try_emplace(key, 0);
    if (first) {
      // A hit is copied straight into the slot under the cache's lock
      // (copy-assignment reuses the slot's storage); only entries valid at
      // this batch's pinned snapshot epoch are served.
      if (cache->Lookup(v, plan.dir, cap, graph_epoch, &out.per_source[i])) {
        FoldMin(out.per_source[i], out.min_dist);
        ++cache_hits_;
        it->second = i;
      } else {
        ++cache_misses_;
        it->second = ~plan.miss_sources.size();
        plan.miss_sources.push_back(v);
        plan.miss_caps.push_back(cap);
        plan.miss_requests.emplace_back();
        plan.miss_requests.back().push_back(i);
      }
      continue;
    }
    // Batch-internal duplicate of an already-resolved key.
    const size_t state = it->second;
    if (state >> 63) {
      plan.miss_requests[~state].push_back(i);
    } else {
      out.per_source[i] = out.per_source[state];
    }
  }
}

void DistanceIndex::CommitMisses(EndpointDistanceCache* cache,
                                 uint64_t graph_epoch, DirectionPlan& plan) {
  MsBfsResult& out = *plan.out;
  MsBfsResult& built = *plan.miss_out;
  if (plan.miss_sources.empty()) {
    // No BFS ran. Let go of the previous miss build's maps and mask blocks,
    // as a BFS over no sources would have, so an all-hit build retains no
    // more than any other.
    built.per_source.clear();
    built.wave_masks.clear();
    return;
  }
  for (size_t k = 0; k < plan.miss_sources.size(); ++k) {
    for (size_t slot : plan.miss_requests[k]) {
      out.per_source[slot] = built.per_source[k];
    }
    cache->Insert(plan.miss_sources[k], plan.dir, plan.miss_caps[k],
                  graph_epoch, std::move(built.per_source[k]));
  }
  // The miss BFS only saw the missing endpoints; cache-served maps were
  // folded in during the probe, so the elementwise min completes the array.
  for (size_t v = 0; v < built.min_dist.size(); ++v) {
    if (built.min_dist[v] < out.min_dist[v]) out.min_dist[v] = built.min_dist[v];
  }
  out.total_discovered += built.total_discovered;
  out.bottom_up_levels += built.bottom_up_levels;
}

void DistanceIndex::Build(const Graph& g,
                          const std::vector<VertexId>& sources,
                          const std::vector<VertexId>& targets,
                          const std::vector<Hop>& hops, ThreadPool* pool,
                          EndpointDistanceCache* cache,
                          MsBfsScratch* fwd_scratch,
                          MsBfsScratch* bwd_scratch, uint64_t graph_epoch) {
  HCPATH_CHECK_EQ(sources.size(), targets.size());
  HCPATH_CHECK_EQ(sources.size(), hops.size());
  WallTimer timer;
  cache_hits_ = 0;
  cache_misses_ = 0;

  if (cache == nullptr) {
    // Cold path: one BFS slot per request, exactly the original pipeline.
    // The two directions are independent; with a pool they run
    // concurrently, and each shards its waves over the same pool (nested
    // ParallelFor is safe: blocked callers help drain the queues).
    ParallelFor(pool, 2, [&](size_t dir) {
      if (dir == 0) {
        MultiSourceBfs(g, sources, hops, Direction::kForward, pool,
                       fwd_scratch, &fwd_);
      } else {
        MultiSourceBfs(g, targets, hops, Direction::kBackward, pool,
                       bwd_scratch, &bwd_);
      }
    });
    build_seconds_ = timer.ElapsedSeconds();
    return;
  }

  // Cache-aware build. Probes (phase 1) and fills (phase 3) run on the
  // calling thread; only the miss BFSs (phase 2) go parallel. Served maps
  // replicate to every requesting slot, and misses deduplicate to one BFS
  // per unique (endpoint, cap) key.
  DirectionPlan plans[2];
  plans[0] = {Direction::kForward, &sources, &fwd_, &miss_build_[0],
              fwd_scratch,         {},       {},    {}};
  plans[1] = {Direction::kBackward, &targets, &bwd_, &miss_build_[1],
              bwd_scratch,          {},       {},    {}};
  for (DirectionPlan& plan : plans) {
    ProbeAndPlan(g, cache, hops, graph_epoch, plan);
  }

  // A direction served entirely from the cache runs no BFS: no |V|-sized
  // min_dist to assign and merge, and no pool round trip. The directions
  // go concurrent only when both have misses.
  auto run_misses = [&](DirectionPlan& plan) {
    if (plan.miss_sources.empty()) return;
    MultiSourceBfs(g, plan.miss_sources, plan.miss_caps, plan.dir, pool,
                   plan.scratch, plan.miss_out);
  };
  const bool both_miss =
      !plans[0].miss_sources.empty() && !plans[1].miss_sources.empty();
  ParallelFor(both_miss ? pool : nullptr, 2,
              [&](size_t d) { run_misses(plans[d]); });

  for (DirectionPlan& plan : plans) CommitMisses(cache, graph_epoch, plan);
  build_seconds_ = timer.ElapsedSeconds();
}

uint64_t DistanceIndex::MemoryBytes() const {
  uint64_t total =
      (fwd_.min_dist.capacity() + bwd_.min_dist.capacity()) * sizeof(Hop);
  for (const auto& m : fwd_.per_source) total += m.MemoryBytes();
  for (const auto& m : bwd_.per_source) total += m.MemoryBytes();
  // Views own no bytes; their waves' mask blocks are counted once each.
  for (const MsBfsResult* r :
       {&fwd_, &bwd_, &miss_build_[0], &miss_build_[1]}) {
    for (const auto& block : r->wave_masks) {
      total += block->capacity() * sizeof(uint64_t);
    }
  }
  return total;
}

}  // namespace hcpath
