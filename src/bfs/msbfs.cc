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

using MaskBlock = std::shared_ptr<std::vector<uint64_t>>;

/// A level runs bottom-up once its frontier's out-edges exceed
/// |E| / kBottomUpEdgeDivisor (direction-optimizing BFS, Beamer, Asanović
/// and Patterson, SC'12). Degrees are only summed for frontiers of at
/// least |V| / kBottomUpMinFrontierDivisor vertices, so a sparse level
/// pays one compare for the test: on a delta-overlay graph every Degree
/// is a patch-table lookup. On WT at k = 4, |E|/2, |E|/4 and |E|/16 all
/// pick the same two deepest levels (docs/PERF.md).
constexpr uint64_t kBottomUpEdgeDivisor = 2;
constexpr size_t kBottomUpMinFrontierDivisor = 64;

/// True when expanding `frontier` in direction `dir` should run bottom-up.
bool LevelRunsBottomUp(const Graph& g, Direction dir,
                       const std::vector<VertexId>& frontier, size_t nv) {
  if (frontier.size() * kBottomUpMinFrontierDivisor < nv) return false;
  const uint64_t threshold = g.NumEdges() / kBottomUpEdgeDivisor;
  uint64_t edges = 0;
  for (VertexId u : frontier) {
    edges += g.Degree(u, dir);
    if (edges > threshold) return true;
  }
  return false;
}

/// Top-down: each frontier vertex ORs its seen mask into its
/// out-neighbours' `next` masks; `touched` collects the staged vertices.
void StageTopDown(const Graph& g, Direction dir,
                  const std::vector<VertexId>& frontier,
                  std::vector<MsBfsScratch::VertexMasks>& masks,
                  std::vector<VertexId>& touched) {
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
}

/// Bottom-up: every vertex still missing a slot of `level_slots` ORs its
/// in-neighbours' seen masks. A slot in an in-neighbour's seen mask but not
/// in v's own was discovered there on the previous level: an older one would
/// already have reached v. So the seen masks stand in for frontier masks,
/// and v stops scanning once every slot it can still gain is found. The
/// level is staged in vertex order.
void StageBottomUp(const Graph& g, Direction dir, uint64_t level_slots,
                   std::vector<MsBfsScratch::VertexMasks>& masks,
                   std::vector<VertexId>& touched) {
  const Direction in = Reverse(dir);
  const size_t nv = masks.size();
  for (VertexId v = 0; v < nv; ++v) {
    MsBfsScratch::VertexMasks& mv = masks[v];
    const uint64_t want = level_slots & ~mv.seen;
    if (want == 0) continue;
    uint64_t found = 0;
    for (VertexId u : g.Neighbors(v, in)) {
      found |= masks[u].seen & want;
      if (found == want) break;
    }
    if (found != 0) {
      mv.next = found;
      touched.push_back(v);
    }
  }
}

/// Runs one wave. `per_source` entries referenced through `slot_to_out` are
/// owned exclusively by this wave (waves partition the unique sources), and
/// `min_dist` / the buffers belong to the caller, so concurrent waves
/// never write the same memory. `acquire_masks()` hands out the wave's
/// mask block when it is bit-sliced. Returns the discovered-entry count
/// and adds the levels it expanded bottom-up to `bottom_up_levels`.
///
/// Each level expands top-down or bottom-up (msbfs.h); both stage the
/// level's discoveries in `next` for one commit loop. The traversal only
/// logs its discoveries. Counting them per slot and distance gives every
/// output its exact size, hence its backing (msbfs.h); one pass over the
/// log then writes all outputs at once.
/// Each map ends with the contents a per-source BFS gives it; a hash map's
/// slot layout (the unordered ForEach order) may differ, which no
/// consumer depends on.
template <typename AcquireMasks>
uint64_t RunWave(const Graph& g, Direction dir, const Wave& wave,
                 MsBfsScratch::WaveBuffers& b,
                 std::vector<VertexDistMap>& per_source,
                 std::vector<Hop>& min_dist, const std::vector<Hop>& out_caps,
                 uint64_t& bottom_up_levels, AcquireMasks&& acquire_masks) {
  const size_t ns = wave.sources.size();
  std::vector<MsBfsScratch::VertexMasks>& masks = b.masks;
  std::vector<VertexId>& frontier = b.frontier;
  std::vector<VertexId>& touched = b.touched;  // nonzero next mask
  std::vector<MsBfsScratch::Discovery>& log = b.log;
  std::vector<size_t>& level_start = b.level_start;
  log.clear();
  frontier.clear();
  level_start.assign(1, 0);

  // Distance 0: the sources, which are distinct within a wave (the caller
  // dedups), one slot each. `level_slots` holds the slots that discovered
  // some vertex on the level just committed.
  uint64_t level_slots = 0;
  for (size_t i = 0; i < ns; ++i) {
    const VertexId s = wave.sources[i];
    masks[s].seen = 1ULL << i;
    frontier.push_back(s);
    log.push_back({s, 0, 1ULL << i});
    level_slots |= 1ULL << i;
  }
  std::sort(frontier.begin(), frontier.end());

  const size_t nv = masks.size();
  for (Hop level = 0; level < wave.max_cap && !frontier.empty(); ++level) {
    const Hop dist = static_cast<Hop>(level + 1);
    level_start.push_back(log.size());
    touched.clear();
    if (LevelRunsBottomUp(g, dir, frontier, nv)) {
      ++bottom_up_levels;
      StageBottomUp(g, dir, level_slots, masks, touched);
    } else {
      StageTopDown(g, dir, frontier, masks, touched);
    }
    frontier.clear();
    level_slots = 0;
    for (VertexId v : touched) {
      MsBfsScratch::VertexMasks& mv = masks[v];
      const uint64_t fresh = mv.next & ~mv.seen;
      mv.next = 0;
      if (fresh == 0) continue;
      mv.seen |= fresh;
      log.push_back({v, dist, fresh});
      frontier.push_back(v);
      level_slots |= fresh;
    }
  }

  // The log runs in distance order, so its last entry holds the deepest
  // level; levels past it (a last expansion that found nothing) start at
  // the log's end and are dropped.
  const size_t levels = static_cast<size_t>(log.back().dist) + 1;
  level_start.push_back(log.size());
  level_start.resize(levels + 1);
  auto level_begin = [&](size_t d) { return level_start[std::min(d, levels)]; };

  // Count every slot's discoveries per distance with bit-sliced counters:
  // bit `slot` of plane i of distance d is bit i of that slot's count. A
  // level's discovery masks fold through carry-save adders eight at a time
  // (Harley and Seal's population count): `ones`, `twos` and `fours` hold
  // each slot's pending count of weight 1, 2 and 4, and only a group's
  // weight-8 carry ripples into the planes, from plane 3 up. The level's
  // remainder and the three accumulators ripple in at its end. A count is
  // below |V| < 2^32, so 32 planes hold it.
  constexpr size_t kPlanes = 32;
  auto ripple = [](uint64_t* p, uint64_t carry) {
    for (; carry != 0; ++p) {
      const uint64_t both = *p & carry;
      *p ^= carry;
      carry = both;
    }
  };
  // sum + a + b == new sum + 2 * returned carry, bit by bit.
  auto carry_save = [](uint64_t& sum, uint64_t a, uint64_t b) {
    const uint64_t half = sum ^ a;
    const uint64_t carry = (sum & a) | (half & b);
    sum = half ^ b;
    return carry;
  };
  b.planes.assign(levels * kPlanes, 0);
  for (size_t d = 0; d < levels; ++d) {
    uint64_t* planes = &b.planes[d * kPlanes];
    uint64_t ones = 0, twos = 0, fours = 0;
    size_t i = level_begin(d);
    const size_t end = level_begin(d + 1);
    for (; i + 8 <= end; i += 8) {
      const MsBfsScratch::Discovery* e = &log[i];
      const uint64_t twos_a = carry_save(ones, e[0].fresh, e[1].fresh);
      const uint64_t twos_b = carry_save(ones, e[2].fresh, e[3].fresh);
      const uint64_t fours_a = carry_save(twos, twos_a, twos_b);
      const uint64_t twos_c = carry_save(ones, e[4].fresh, e[5].fresh);
      const uint64_t twos_d = carry_save(ones, e[6].fresh, e[7].fresh);
      const uint64_t fours_b = carry_save(twos, twos_c, twos_d);
      ripple(planes + 3, carry_save(fours, fours_a, fours_b));
    }
    for (; i < end; ++i) ripple(planes, log[i].fresh);
    ripple(planes, ones);
    ripple(planes + 1, twos);
    ripple(planes + 2, fours);
  }
  // Discoveries of `slot` within `cap` hops.
  auto entries_within = [&](size_t slot, size_t cap) {
    size_t entries = 0;
    for (size_t d = 0; d < levels && d <= cap; ++d) {
      for (size_t i = 0; i < kPlanes; ++i) {
        entries += ((b.planes[d * kPlanes + i] >> slot) & 1) << i;
      }
    }
    return entries;
  };

  // The wave runs to the max cap of duplicated sources; each output copy
  // only records entries within its own cap. An output that reaches the
  // density threshold becomes a view; the others are hash maps sized for
  // exactly their entries.
  uint64_t discovered = 0;
  uint64_t hash_slots = 0;  // slots with at least one hash-map output
  size_t view_levels = 0;   // largest cap among the views
  b.capped.assign(levels, 0);
  b.views.clear();
  for (size_t slot = 0; slot < ns; ++slot) {
    for (size_t out_idx : wave.slot_to_out[slot]) {
      const size_t cap = out_caps[out_idx];
      const size_t entries = entries_within(slot, cap);
      for (size_t d = 0; d < levels && d <= cap; ++d) {
        b.capped[d] |= 1ULL << slot;
      }
      discovered += entries;
      if (entries * 8 >= nv) {
        b.views.push_back({out_idx, slot, entries});
        view_levels = std::max(view_levels, cap);
      } else {
        per_source[out_idx].Reserve(entries);
        hash_slots |= 1ULL << slot;
      }
    }
  }
  if (!b.views.empty()) {
    MaskBlock block = acquire_masks();
    // Every word is written below, so a recycled block keeps its stale
    // contents until then.
    block->resize(view_levels * nv);
    for (const MsBfsScratch::ViewOutput& view : b.views) {
      per_source[view.out].SetView(block, nv, static_cast<unsigned>(view.slot),
                                   out_caps[view.out], wave.sources[view.slot],
                                   view.size);
    }
    if (view_levels != 0) {
      // Top level L: each vertex's seen mask without the discoveries
      // deeper than L. The pass also clears the seen masks. Each lower
      // level d is level d + 1 without the discoveries at distance d + 1.
      uint64_t* row = block->data() + (view_levels - 1) * nv;
      for (size_t v = 0; v < nv; ++v) {
        row[v] = masks[v].seen;
        masks[v].seen = 0;
      }
      for (size_t i = level_begin(view_levels + 1); i < log.size(); ++i) {
        row[log[i].vertex] &= ~log[i].fresh;
      }
      for (size_t d = view_levels; d > 1; --d) {
        uint64_t* lower = row - nv;
        std::copy(row, row + nv, lower);
        for (size_t i = level_begin(d); i < level_begin(d + 1); ++i) {
          lower[log[i].vertex] &= ~log[i].fresh;
        }
        row = lower;
      }
    }
  }

  // One pass over the log fills the hash maps and min_dist, and clears the
  // seen masks behind it where the block pass did not: the log names every
  // vertex the wave marked. The min-dist array honors the same per-source
  // caps, which makes it a pure function of the (source, cap) multiset —
  // independent of how sources are grouped into waves — so cache-served
  // index builds (which BFS only the missing endpoints) reproduce it
  // exactly (docs/SERVICE.md).
  const bool seen_cleared = view_levels != 0;
  for (size_t d = 0; d < levels; ++d) {
    const Hop dist = static_cast<Hop>(d);
    const uint64_t capped = b.capped[d];
    for (size_t i = level_begin(d); i < level_begin(d + 1); ++i) {
      const MsBfsScratch::Discovery& e = log[i];
      const VertexId v = e.vertex;
      if (!seen_cleared) masks[v].seen = 0;
      if ((e.fresh & capped) != 0 && dist < min_dist[v]) min_dist[v] = dist;
      for (uint64_t m = e.fresh & hash_slots; m != 0; m &= m - 1) {
        for (size_t out_idx : wave.slot_to_out[__builtin_ctzll(m)]) {
          VertexDistMap& map = per_source[out_idx];
          if (!map.IsView() && dist <= out_caps[out_idx]) {
            map.InsertMin(v, dist);
          }
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
  // (BatchContext hands the previous batch's index back in). Clearing the
  // maps drops their views' references, so a mask block left with no
  // other holder is free for this build's waves; one still held by a view
  // outside the result stays with that view.
  for (VertexDistMap& m : out.per_source) m.ClearKeepCapacity();
  std::vector<MaskBlock> spare_masks;
  for (MaskBlock& block : out.wave_masks) {
    if (block.use_count() == 1) spare_masks.push_back(std::move(block));
  }
  out.wave_masks.clear();
  out.per_source.resize(sources.size());
  out.min_dist.assign(g.NumVertices(), kUnreachable);
  out.total_discovered = 0;
  out.bottom_up_levels = 0;
  if (sources.empty()) return;
  for (VertexId s : sources) HCPATH_CHECK_LT(s, g.NumVertices());

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

  // Hands a bit-sliced wave its mask block; waves may ask concurrently.
  std::mutex masks_mu;
  auto acquire_masks = [&]() {
    std::lock_guard<std::mutex> lk(masks_mu);
    MaskBlock block;
    if (spare_masks.empty()) {
      block = std::make_shared<std::vector<uint64_t>>();
    } else {
      block = std::move(spare_masks.back());
      spare_masks.pop_back();
    }
    out.wave_masks.push_back(block);
    return block;
  };

  // Even a 1-worker pool doubles compute: ParallelFor callers work too.
  if (pool != nullptr && waves.size() > 1) {
    // Wave-parallel build: every running wave owns a working set (masks,
    // discovery log, min-dist accumulator) checked out of a free list, so
    // peak memory is O(concurrent tasks * |V|), not O(waves * |V|).
    // Per-source maps and mask blocks are partitioned by wave, and the final
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
      s->bottom_up_levels = 0;
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
      s->discovered +=
          RunWave(g, dir, waves[w], s->buf, out.per_source, s->min_dist,
                  caps, s->bottom_up_levels, acquire_masks);
      std::lock_guard<std::mutex> lk(scratch_mu);
      free_scratch.push_back(s);
    });
    for (const auto& s : sc.wave_scratch) {
      out.total_discovered += s->discovered;
      out.bottom_up_levels += s->bottom_up_levels;
      for (size_t v = 0; v < s->min_dist.size(); ++v) {
        if (s->min_dist[v] < out.min_dist[v]) out.min_dist[v] = s->min_dist[v];
      }
    }
  } else {
    PrepareBuffers(sc.sequential, g.NumVertices());
    for (const Wave& wave : waves) {
      out.total_discovered +=
          RunWave(g, dir, wave, sc.sequential, out.per_source, out.min_dist,
                  caps, out.bottom_up_levels, acquire_masks);
    }
  }
}

}  // namespace hcpath
