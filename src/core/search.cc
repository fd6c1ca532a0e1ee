#include "core/search.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace hcpath {

namespace {

/// `on_path` mirrors `path` as an epoch-stamped membership table (one mark
/// per path vertex, maintained incrementally on push/pop), so the DFS
/// cycle check and the splice disjointness test are O(1) per vertex
/// instead of a scan of the path (docs/PERF.md).
struct SearchCtx {
  const Graph& g;
  const HalfSearchSpec& spec;
  PathSet* out;
  BatchStats* stats;
  EpochStampTable* on_path;
  std::vector<VertexId> path = {};
  Status status = Status::OK();
  /// Per-depth on-path bitmasks for the batched neighbor probe, indexed by
  /// the path length at which Dfs computed them. One buffer per depth (not
  /// one shared buffer) because the recursion below a neighbor runs while
  /// this level's mask is still live; distinct depths never alias. Inner
  /// buffers stay valid across outer-vector growth (vector move steals the
  /// heap block), so the raw pointer Dfs holds survives deeper resizes.
  std::vector<std::vector<uint8_t>> probe_masks = {};
};

/// Adjacency blocks of at least this many vertices take the batched
/// on-path probe (one TestBatch over the block). Below it the batched
/// probe pays call context a short span cannot amortize — the
/// out-of-line call and the mask-buffer round trip — while a handful of
/// inline Contains() loads early-exits from L1. Measured with
/// BM_HalfSearch / BM_DfsOnPath / BM_StampTestBatch A/B sweeps
/// (docs/PERF.md "Adaptive cutover").
constexpr size_t kDfsBatchCutover = 16;

/// Prefetching the next adjacency block only pays once the CSR arrays
/// outgrow the fast cache levels; on small graphs the prefetch
/// instruction itself is the only effect.
constexpr VertexId kPrefetchMinVertices = 1u << 15;

/// Lemma 3.1 pruning: is `u` admissible at suffix depth `depth`?
inline bool Admissible(const HalfSearchSpec& spec, VertexId u, int depth) {
  if (spec.slacks.empty()) return true;
  for (const TargetSlack& ts : spec.slacks) {
    if (ts.dist->Within(u, ts.slack - depth)) return true;
  }
  return false;
}

inline const SearchDep* FindDep(std::span<const SearchDep> deps,
                                VertexId u) {
  // deps is sorted by vertex; it is tiny (one entry per reuse edge), so a
  // branchless lower_bound is plenty.
  auto it = std::lower_bound(
      deps.begin(), deps.end(), u,
      [](const SearchDep& d, VertexId v) { return d.vertex < v; });
  if (it != deps.end() && it->vertex == u) return &*it;
  return nullptr;
}

Status ExceededMaxPaths(uint64_t max_paths) {
  return Status::ResourceExhausted("half search exceeded max_paths = " +
                                   std::to_string(max_paths));
}

/// Stores the current path if it passes the join filter; returns false on
/// resource exhaustion.
bool StoreCurrent(SearchCtx& c) {
  const size_t len = c.path.size() - 1;
  if (c.spec.filter_for_join) {
    const bool useful = len == c.spec.budget ||
                        c.path.back() == c.spec.store_target;
    if (!useful) return true;
  }
  if (c.spec.max_paths != 0 && c.out->size() >= c.spec.max_paths) {
    c.status = ExceededMaxPaths(c.spec.max_paths);
    return false;
  }
  c.out->Add(c.path);
  return true;
}

/// Algorithm 4 lines 22-23: splices every cached HC-s path compatible with
/// `prefix` (within the remaining budget, disjoint from the prefix) into
/// `out` instead of recursing. cached[0] == the shortcut vertex by
/// construction, so only suffix vertices are checked (DESIGN.md D6).
/// `prefix_mark` holds exactly the vertices of `prefix`, so each cached
/// suffix is tested in O(|suffix|) stamp lookups. Shared by the recursion
/// and the frontier-split sub-merge so the filter and cap semantics cannot
/// diverge. Returns false + sets `status` at the max_paths cap.
bool SpliceCached(const HalfSearchSpec& spec,
                  const std::vector<VertexId>& prefix,
                  const EpochStampTable& prefix_mark, const PathSet& cached,
                  Hop remaining, PathSet* out, BatchStats* stats,
                  Status* status) {
  const size_t max_vertices = static_cast<size_t>(remaining) + 1;
  // The prefix is already stamped by the DFS, so probing has zero marginal
  // stamping cost: one early-exit Contains() load per suffix vertex. A
  // cached suffix holds at most `remaining` vertices, far below the ~16
  // at which a batched gather pays for its call at the hop budgets the
  // paper evaluates.
  for (size_t i = 0; i < cached.size(); ++i) {
    PathView cp = cached[i];
    if (cp.size() > max_vertices) continue;
    bool disjoint = true;
    for (size_t j = 1; j < cp.size(); ++j) {
      if (prefix_mark.Contains(cp[j])) {
        disjoint = false;
        break;
      }
    }
    if (!disjoint) continue;
    if (spec.max_paths != 0 && out->size() >= spec.max_paths) {
      *status = ExceededMaxPaths(spec.max_paths);
      return false;
    }
    out->AddConcat(prefix, cp);
    if (stats != nullptr) ++stats->shortcut_splices;
  }
  return true;
}

/// Batched cycle check: one TestBatch over the whole adjacency block
/// computes every neighbor's on-path bit up front (8 gathered stamps per
/// iteration). The mask stays valid across the child recursions below the
/// caller because each push/Mark ... pop/Unmark pair restores the table to
/// exactly the state the mask was computed against. Out of line (and cold)
/// on purpose: short adjacency blocks never come here, and keeping the
/// buffer bookkeeping out of the recursive frame keeps Dfs itself tight.
__attribute__((noinline)) const uint8_t* ComputeNeighborMask(
    SearchCtx& c, std::span<const VertexId> nbrs, size_t len) {
  if (c.probe_masks.size() <= len) c.probe_masks.resize(len + 1);
  std::vector<uint8_t>& buf = c.probe_masks[len];
  if (buf.size() < nbrs.size()) buf.resize(nbrs.size());
  c.on_path->TestBatch(nbrs, buf.data());
  return buf.data();
}

template <bool kPrefetch>
bool Dfs(SearchCtx& c);

/// The per-neighbor tail of the DFS expansion (everything after the
/// cycle check): splice a cached subtree or recurse. Force-inlined into
/// both neighbor loops of Dfs so the split into specialized loops costs
/// no call overhead.
template <bool kPrefetch>
__attribute__((always_inline)) inline bool ExpandNeighbor(SearchCtx& c,
                                                          VertexId u,
                                                          int depth) {
  const Hop remaining = static_cast<Hop>(c.spec.budget - depth);
  const SearchDep* dep =
      c.spec.deps.empty() ? nullptr : FindDep(c.spec.deps, u);
  if (dep != nullptr && dep->budget >= remaining) {
    return SpliceCached(c.spec, c.path, *c.on_path, *dep->paths, remaining,
                        c.out, c.stats, &c.status);
  }
  // Pull u's adjacency block toward cache while this frame finishes its
  // bookkeeping; the recursion reads it a few dozen instructions later.
  // Only worth the instruction once the CSR arrays outgrow cache
  // (RunDfs resolves the gate, the template drops the test entirely).
  if constexpr (kPrefetch) c.g.PrefetchNeighbors(u, c.spec.dir);
  c.path.push_back(u);
  c.on_path->Mark(u);
  const bool keep_going = Dfs<kPrefetch>(c);
  c.path.pop_back();
  c.on_path->Unmark(u);
  return keep_going;
}

/// The recursion is specialized on the per-search-invariant prefetch gate,
/// so its hot loop carries no per-neighbor gate branch; only the per-node
/// adaptive choice — batch the whole adjacency block or probe per
/// neighbor — remains, as a single compare against kDfsBatchCutover.
/// RunDfs picks the instantiation.
template <bool kPrefetch>
bool Dfs(SearchCtx& c) {
  if (!StoreCurrent(c)) return false;
  const size_t len = c.path.size() - 1;
  if (len >= c.spec.budget) return true;
  const VertexId tail = c.path.back();
  const int depth = static_cast<int>(len) + 1;
  const std::span<const VertexId> nbrs = c.g.Neighbors(tail, c.spec.dir);

  // Block long enough to amortize the gather? Probe it in one batch and
  // run the mask loop.
  if (nbrs.size() >= kDfsBatchCutover) {
    const uint8_t* mask = ComputeNeighborMask(c, nbrs, len);
    for (size_t ni = 0; ni < nbrs.size(); ++ni) {
      const VertexId u = nbrs[ni];
      if (c.stats != nullptr) ++c.stats->edges_expanded;
      if (!Admissible(c.spec, u, depth)) {
        if (c.stats != nullptr) ++c.stats->edges_pruned;
        continue;
      }
      if (mask[ni] != 0) continue;
      if (!ExpandNeighbor<kPrefetch>(c, u, depth)) return false;
    }
    return true;
  }
  for (VertexId u : nbrs) {
    if (c.stats != nullptr) ++c.stats->edges_expanded;
    if (!Admissible(c.spec, u, depth)) {
      if (c.stats != nullptr) ++c.stats->edges_pruned;
      continue;
    }
    if (c.on_path->Contains(u)) continue;
    if (!ExpandNeighbor<kPrefetch>(c, u, depth)) return false;
  }
  return true;
}

/// Seeds the mark table with the initial path vertices before the
/// recursion takes over the incremental maintenance.
void MarkPath(SearchCtx& c) {
  c.on_path->Clear();
  for (VertexId v : c.path) c.on_path->Mark(v);
}

/// Runs the recursion from the seeded path. The prefetch gate is decided
/// here, once per search.
void RunDfs(SearchCtx& c) {
  MarkPath(c);
  if (c.g.NumVertices() >= kPrefetchMinVertices) {
    Dfs<true>(c);
  } else {
    Dfs<false>(c);
  }
}

/// Splitting a 1- or 2-hop search buys nothing: the subtrees are a handful
/// of vertex visits, far below task-dispatch cost.
constexpr Hop kMinSplitBudget = 3;

/// Frontier-split variant of the root search: the sequential Dfs over the
/// root's first-level neighbors is unrolled here — prune/expand counters
/// and splice decisions happen in first-pass neighbor order exactly as the
/// recursion would make them — and each surviving neighbor's subtree runs
/// as an independent sub-search on the pool. The sub-merge then replays
/// splices and subtree results in the same neighbor order, so stored
/// paths, their order, and (on success) every counter are byte-identical
/// to the sequential search.
Status RunHalfSearchSplit(const Graph& g, const HalfSearchSpec& spec,
                          PathSet* out, BatchStats* stats) {
  struct SubSearch {
    VertexId first = kInvalidVertex;  // first-hop neighbor of this subtree
    PathSet out;
    BatchStats stats;
    Status status = Status::OK();
  };
  // One entry per non-pruned neighbor, in adjacency order: either a cached
  // splice (dep != nullptr) or an index into `subs`.
  struct Action {
    const SearchDep* dep = nullptr;
    size_t sub_index = 0;
  };

  // First pass, mirroring the sequential neighbor loop. Counters stage into
  // locals: if too few subtrees emerge the scan is discarded and the plain
  // recursion runs instead (which then counts normally).
  std::vector<Action> actions;
  std::vector<SubSearch> subs;
  uint64_t scan_expanded = 0, scan_pruned = 0;
  const Hop remaining = static_cast<Hop>(spec.budget - 1);
  for (VertexId u : g.Neighbors(spec.start, spec.dir)) {
    ++scan_expanded;
    if (!Admissible(spec, u, 1)) {
      ++scan_pruned;
      continue;
    }
    if (u == spec.start) continue;  // self-loop: u is already on the path
    const SearchDep* dep =
        spec.deps.empty() ? nullptr : FindDep(spec.deps, u);
    if (dep != nullptr && dep->budget >= remaining) {
      actions.push_back({dep, 0});
    } else {
      actions.push_back({nullptr, subs.size()});
      subs.push_back({});
      subs.back().first = u;
    }
  }
  if (subs.size() < 2) {
    // Nothing to parallelize: discard the scan (no counters were committed)
    // and run the plain recursion, which counts as it goes.
    ScratchLease<EpochStampTable> mark(spec.stamps);
    SearchCtx ctx{g, spec, out, stats, mark.get()};
    ctx.path.reserve(static_cast<size_t>(spec.budget) + 1);
    ctx.path.push_back(spec.start);
    RunDfs(ctx);
    return ctx.status;
  }
  if (stats != nullptr) {
    stats->edges_expanded += scan_expanded;
    stats->edges_pruned += scan_pruned;
  }

  HalfSearchSpec sub_spec = spec;
  sub_spec.pool = nullptr;  // one split level; subtrees recurse sequentially
  spec.pool->ParallelFor(subs.size(), [&](size_t i) {
    ScratchLease<EpochStampTable> mark(sub_spec.stamps);
    SearchCtx c{g, sub_spec, &subs[i].out,
                stats != nullptr ? &subs[i].stats : nullptr, mark.get()};
    c.path.reserve(static_cast<size_t>(spec.budget) + 1);
    c.path.push_back(spec.start);
    c.path.push_back(subs[i].first);
    RunDfs(c);
    subs[i].status = c.status;
  });

  // Sub-merge, in the order the recursion would have stored everything:
  // the trivial path (start), then per neighbor its splices or its subtree.
  ScratchLease<EpochStampTable> root_mark(spec.stamps);
  SearchCtx root{g, spec, out, stats, root_mark.get()};
  root.path.push_back(spec.start);
  MarkPath(root);
  if (!StoreCurrent(root)) return root.status;
  for (const Action& a : actions) {
    if (a.dep != nullptr) {
      Status st;
      if (!SpliceCached(spec, root.path, *root_mark, *a.dep->paths,
                        remaining, out, stats, &st)) {
        return st;
      }
      continue;
    }
    SubSearch& sub = subs[a.sub_index];
    if (stats != nullptr) stats->Accumulate(sub.stats);
    if (!sub.status.ok()) return sub.status;
    // Bulk transfer of the whole subtree result. The cap trips at exactly
    // the point the per-path loop would have: before the first path that
    // does not fit.
    if (spec.max_paths != 0) {
      const uint64_t room = spec.max_paths > out->size()
                                ? spec.max_paths - out->size()
                                : 0;
      if (sub.out.size() > room) {
        out->AppendRange(sub.out, 0, static_cast<size_t>(room));
        return ExceededMaxPaths(spec.max_paths);
      }
    }
    out->AppendSet(sub.out);
    sub.out.Clear();  // drained; don't hold every subtree to the end
  }
  return Status::OK();
}

}  // namespace

Status RunHalfSearch(const Graph& g, const HalfSearchSpec& spec,
                     PathSet* out, BatchStats* stats) {
  HCPATH_CHECK(spec.start < g.NumVertices());
  HCPATH_CHECK(out != nullptr);
  if (spec.pool != nullptr && spec.budget >= kMinSplitBudget) {
    return RunHalfSearchSplit(g, spec, out, stats);
  }
  ScratchLease<EpochStampTable> mark(spec.stamps);
  SearchCtx ctx{g, spec, out, stats, mark.get()};
  ctx.path.reserve(static_cast<size_t>(spec.budget) + 1);
  ctx.path.push_back(spec.start);
  RunDfs(ctx);
  return ctx.status;
}

}  // namespace hcpath
