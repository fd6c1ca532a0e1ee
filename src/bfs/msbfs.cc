#include "bfs/msbfs.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace hcpath {

namespace {

/// One wave of <= 64 distinct sources.
struct Wave {
  std::vector<VertexId> sources;  // wave-local index -> vertex
  Hop max_cap = 0;                // max cap across the wave's sources
  std::vector<std::vector<size_t>> slot_to_out;  // wave slot -> out indices
};

/// Sizes the per-vertex masks for a graph of `nv` vertices. They are
/// all-zero between waves (RunWave clears what it dirtied), so recycled
/// buffers only need their length adjusted.
void PrepareBuffers(MsBfsScratch::WaveBuffers& b, size_t nv) {
  b.masks.resize(nv);
}

/// The fill pass visits the wave's discoveries block by block: 1024
/// consecutive vertex ids, i.e. a 1 KiB window of each dense output map.
constexpr unsigned kFillBlockBits = 10;

/// Runs one wave. `per_source` entries referenced through `slot_to_out` are
/// owned exclusively by this wave (waves partition the unique sources), and
/// `min_dist` / the buffers belong to the caller, so concurrent waves
/// never write the same memory. Returns the discovered-entry count.
///
/// The traversal only logs its discoveries. Writing them out afterwards
/// lets every output map be sized once from its exact entry count: it goes
/// dense at once when it will cross the density threshold and never
/// rehashes. The log is then counting-sorted by vertex block, so the fill
/// keeps its writes to the wave's (up to 64) maps inside one block at a
/// time instead of scattering them over every map's whole |V| range. Each
/// map ends with the contents, backing and capacity that inserting entries
/// as they are found gives it; only its hash-slot layout (the unordered
/// ForEach order) may differ, which no consumer depends on.
uint64_t RunWave(const Graph& g, Direction dir, const Wave& wave,
                 MsBfsScratch::WaveBuffers& b,
                 std::vector<VertexDistMap>& per_source,
                 std::vector<Hop>& min_dist, const std::vector<Hop>& out_caps) {
  const size_t ns = wave.sources.size();
  std::vector<MsBfsScratch::VertexMasks>& masks = b.masks;
  std::vector<VertexId>& frontier = b.frontier;
  std::vector<VertexId>& touched = b.touched;  // nonzero next mask
  std::vector<MsBfsScratch::Discovery>& log = b.log;
  log.clear();
  frontier.clear();

  // Distance 0: the sources, which are distinct within a wave (the caller
  // dedups), one slot each.
  for (size_t i = 0; i < ns; ++i) {
    const VertexId s = wave.sources[i];
    masks[s].seen = 1ULL << i;
    frontier.push_back(s);
    log.push_back({s, 0, 1ULL << i});
  }
  std::sort(frontier.begin(), frontier.end());

  for (Hop level = 0; level < wave.max_cap && !frontier.empty(); ++level) {
    const Hop dist = static_cast<Hop>(level + 1);
    touched.clear();
    for (VertexId u : frontier) {
      const uint64_t umask = masks[u].seen;
      for (VertexId v : g.Neighbors(u, dir)) {
        MsBfsScratch::VertexMasks& mv = masks[v];
        const uint64_t fresh = umask & ~mv.seen;
        if (fresh != 0) {
          if (mv.next == 0) touched.push_back(v);
          mv.next |= fresh;
        }
      }
    }
    frontier.clear();
    for (VertexId v : touched) {
      MsBfsScratch::VertexMasks& mv = masks[v];
      const uint64_t fresh = mv.next & ~mv.seen;
      mv.next = 0;
      if (fresh == 0) continue;
      mv.seen |= fresh;
      log.push_back({v, dist, fresh});
      frontier.push_back(v);
    }
  }

  // Count every slot's discoveries per distance, and every block's
  // discoveries for the counting sort. The log runs in distance order, so
  // its last entry holds the deepest level.
  const size_t levels = static_cast<size_t>(log.back().dist) + 1;
  const size_t blocks = (masks.size() >> kFillBlockBits) + 1;
  b.count.assign(ns * levels, 0);
  b.block_start.assign(blocks + 1, 0);
  for (const MsBfsScratch::Discovery& e : log) {
    ++b.block_start[(e.vertex >> kFillBlockBits) + 1];
    for (uint64_t m = e.fresh; m != 0; m &= m - 1) {
      ++b.count[static_cast<size_t>(__builtin_ctzll(m)) * levels + e.dist];
    }
  }
  for (size_t k = 1; k <= blocks; ++k) b.block_start[k] += b.block_start[k - 1];
  b.by_block.resize(log.size());
  for (const MsBfsScratch::Discovery& e : log) {
    b.by_block[b.block_start[e.vertex >> kFillBlockBits]++] = e;
  }

  // The wave runs to the max cap of duplicated sources; each output copy
  // only records entries within its own cap. Size each map for exactly
  // those entries.
  uint64_t discovered = 0;
  for (size_t slot = 0; slot < ns; ++slot) {
    const size_t* slot_count = &b.count[slot * levels];
    for (size_t out_idx : wave.slot_to_out[slot]) {
      size_t entries = 0;
      for (size_t d = 0; d < levels && d <= out_caps[out_idx]; ++d) {
        entries += slot_count[d];
      }
      per_source[out_idx].Reserve(entries);
      discovered += entries;
    }
  }

  // Fill the maps block by block and clear the seen masks behind the log:
  // it names every vertex the wave marked. The min-dist array honors the
  // same per-source caps, which makes it a pure function of the (source,
  // cap) multiset — independent of how sources are grouped into waves —
  // so cache-served index builds (which BFS only the missing endpoints)
  // reproduce it exactly (docs/SERVICE.md).
  for (const MsBfsScratch::Discovery& e : b.by_block) {
    const VertexId v = e.vertex;
    masks[v].seen = 0;
    for (uint64_t m = e.fresh; m != 0; m &= m - 1) {
      for (size_t out_idx : wave.slot_to_out[__builtin_ctzll(m)]) {
        if (e.dist <= out_caps[out_idx]) {
          per_source[out_idx].InsertMin(v, e.dist);
          if (e.dist < min_dist[v]) min_dist[v] = e.dist;
        }
      }
    }
  }
  return discovered;
}

}  // namespace

MsBfsResult MultiSourceBfs(const Graph& g,
                           const std::vector<VertexId>& sources,
                           const std::vector<Hop>& caps, Direction dir,
                           ThreadPool* pool) {
  MsBfsResult out;
  MultiSourceBfs(g, sources, caps, dir, pool, nullptr, &out);
  return out;
}

void MultiSourceBfs(const Graph& g, const std::vector<VertexId>& sources,
                    const std::vector<Hop>& caps, Direction dir,
                    ThreadPool* pool, MsBfsScratch* scratch,
                    MsBfsResult* result) {
  HCPATH_CHECK_EQ(sources.size(), caps.size());
  MsBfsResult& out = *result;
  // Recycle whatever map storage the caller's result already holds
  // (BatchContext hands the previous batch's index back in).
  for (VertexDistMap& m : out.per_source) m.ClearKeepCapacity();
  out.per_source.resize(sources.size());
  out.min_dist.assign(g.NumVertices(), kUnreachable);
  out.total_discovered = 0;
  if (sources.empty()) return;
  for (VertexId s : sources) HCPATH_CHECK_LT(s, g.NumVertices());
  // Let every output map switch to its dense backing once it crosses the
  // density threshold (distance_map.h).
  for (VertexDistMap& m : out.per_source) m.SetUniverse(g.NumVertices());

  // Deduplicate (vertex) -> wave slot; a duplicated source shares one slot
  // with the max cap among its occurrences.
  std::unordered_map<VertexId, size_t> slot_of;  // vertex -> global slot id
  std::vector<VertexId> uniq_sources;
  std::vector<Hop> uniq_caps;
  std::vector<std::vector<size_t>> slot_to_out;  // global slot -> out indices
  for (size_t i = 0; i < sources.size(); ++i) {
    auto [it, inserted] = slot_of.try_emplace(sources[i], uniq_sources.size());
    if (inserted) {
      uniq_sources.push_back(sources[i]);
      uniq_caps.push_back(caps[i]);
      slot_to_out.emplace_back();
    } else {
      uniq_caps[it->second] = std::max(uniq_caps[it->second], caps[i]);
    }
    slot_to_out[it->second].push_back(i);
  }

  std::vector<Wave> waves;
  for (size_t base = 0; base < uniq_sources.size(); base += 64) {
    Wave wave;
    const size_t end = std::min(base + 64, uniq_sources.size());
    for (size_t i = base; i < end; ++i) {
      wave.sources.push_back(uniq_sources[i]);
      wave.max_cap = std::max(wave.max_cap, uniq_caps[i]);
      wave.slot_to_out.push_back(std::move(slot_to_out[i]));
    }
    waves.push_back(std::move(wave));
  }

  // A call-local scratch keeps the scratch-free overloads allocation-
  // compatible with the recycling path; long-lived callers pass their own.
  MsBfsScratch local_scratch;
  MsBfsScratch& sc = scratch != nullptr ? *scratch : local_scratch;

  // Even a 1-worker pool doubles compute: ParallelFor callers work too.
  if (pool != nullptr && waves.size() > 1) {
    // Wave-parallel build: every running wave owns a working set (masks,
    // discovery log, min-dist accumulator) checked out of a free list, so
    // peak memory is O(concurrent tasks * |V|), not O(waves * |V|).
    // Per-source maps are partitioned by wave, and the final
    // elementwise-min merge is order-insensitive, so the result is
    // identical to the sequential build.
    //
    // Retained working sets from a previous call re-enter the free list
    // after a per-call reset: RunWave leaves the masks zeroed, so only
    // the min-dist accumulator (and a possible graph-size change) needs
    // re-initializing.
    std::mutex scratch_mu;
    std::vector<MsBfsScratch::PerWave*> free_scratch;
    for (auto& s : sc.wave_scratch) {
      PrepareBuffers(s->buf, g.NumVertices());
      s->min_dist.assign(g.NumVertices(), kUnreachable);
      s->discovered = 0;
      free_scratch.push_back(s.get());
    }
    pool->ParallelFor(waves.size(), [&](size_t w) {
      MsBfsScratch::PerWave* s = nullptr;
      {
        std::lock_guard<std::mutex> lk(scratch_mu);
        if (!free_scratch.empty()) {
          s = free_scratch.back();
          free_scratch.pop_back();
        }
      }
      if (s == nullptr) {
        auto owned = std::make_unique<MsBfsScratch::PerWave>();
        PrepareBuffers(owned->buf, g.NumVertices());
        owned->min_dist.assign(g.NumVertices(), kUnreachable);
        s = owned.get();
        std::lock_guard<std::mutex> lk(scratch_mu);
        sc.wave_scratch.push_back(std::move(owned));
      }
      // RunWave leaves the masks cleared for reuse; min_dist keeps
      // accumulating (elementwise min commutes across waves).
      s->discovered += RunWave(g, dir, waves[w], s->buf, out.per_source,
                               s->min_dist, caps);
      std::lock_guard<std::mutex> lk(scratch_mu);
      free_scratch.push_back(s);
    });
    for (const auto& s : sc.wave_scratch) {
      out.total_discovered += s->discovered;
      for (size_t v = 0; v < s->min_dist.size(); ++v) {
        if (s->min_dist[v] < out.min_dist[v]) out.min_dist[v] = s->min_dist[v];
      }
    }
  } else {
    PrepareBuffers(sc.sequential, g.NumVertices());
    for (const Wave& wave : waves) {
      out.total_discovered += RunWave(g, dir, wave, sc.sequential,
                                      out.per_source, out.min_dist, caps);
    }
  }
}

}  // namespace hcpath
