#include "core/batch_enum.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <tuple>

#include "core/basic_enum.h"
#include "core/cache.h"
#include "core/clustering.h"
#include "core/detect.h"
#include "core/join.h"
#include "core/parallel_merge.h"
#include "core/path_enum.h"
#include "core/search.h"
#include "core/similarity.h"
#include "index/distance_index.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hcpath {

namespace {

using NodeId = SharingGraph::NodeId;

/// Consumer count of a node: sharing users (unless reuse is disabled) plus
/// one per attached query (roots are read once more at assembly).
uint32_t ConsumerCount(const SharingGraph::Node& node,
                       const BatchOptions& options) {
  uint32_t users = options.disable_cache_reuse
                       ? 0
                       : static_cast<uint32_t>(node.users.size());
  return users + static_cast<uint32_t>(node.attached_queries.size());
}

/// Enumerates every HC-s path node of one sharing graph in topological
/// order, filling `cache` (Algorithm 4 lines 6-10 and 14-16).
Status EnumerateSharingGraph(const Graph& g, Direction dir,
                             const SharingGraph& psi,
                             const std::vector<PathQuery>& queries,
                             const DistanceIndex& index,
                             const BatchOptions& options,
                             ResultCache* cache, BatchStats* stats,
                             ThreadPool* pool, EpochStampPool* stamps) {
  std::vector<uint32_t> refcounts(psi.NumNodes());
  for (NodeId id = 0; id < psi.NumNodes(); ++id) {
    refcounts[id] = ConsumerCount(psi.node(id), options);
  }
  cache->Init(std::move(refcounts), options.max_cache_vertices);

  for (NodeId id : psi.TopologicalOrder()) {
    const SharingGraph::Node& node = psi.node(id);
    const bool wanted = ConsumerCount(node, options) > 0;
    if (!wanted) continue;  // isolated node (reuse disabled or all edges
                            // dropped); nothing reads it

    // Resolve pruning slacks against the batch index: forward searches
    // prune with target maps, backward with source maps. Queries sharing
    // the same opposite endpoint collapse to one entry (max slack), which
    // keeps the per-edge pruning loop short for near-duplicate clusters.
    std::vector<TargetSlack> slacks;
    std::vector<VertexId> slack_endpoints;
    slacks.reserve(node.slacks.size());
    for (const auto& se : node.slacks) {
      const VertexId endpoint = dir == Direction::kForward
                                    ? queries[se.query].t
                                    : queries[se.query].s;
      const VertexDistMap* map = dir == Direction::kForward
                                     ? &index.ToTargetMap(se.query)
                                     : &index.FromSourceMap(se.query);
      bool merged = false;
      for (size_t i = 0; i < slack_endpoints.size(); ++i) {
        if (slack_endpoints[i] == endpoint) {
          // Same opposite endpoint: keep the larger (more permissive)
          // slack and the map whose cap covers it.
          if (se.slack > slacks[i].slack) slacks[i] = {map, se.slack};
          merged = true;
          break;
        }
      }
      if (!merged) {
        slacks.push_back({map, se.slack});
        slack_endpoints.push_back(endpoint);
      }
    }
    // Most permissive entries first: Admissible() exits on the first hit.
    std::sort(slacks.begin(), slacks.end(),
              [](const TargetSlack& a, const TargetSlack& b) {
                return a.slack > b.slack;
              });

    // Shortcut table from the reuse edges discovered by detection.
    std::vector<SearchDep> deps;
    const SearchDep* self_dep = nullptr;
    if (!options.disable_cache_reuse) {
      deps.reserve(node.dep_at.size());
      for (const auto& [vertex, dep_id] : node.dep_at) {
        deps.push_back(
            {vertex, psi.node(dep_id).budget, &cache->Get(dep_id)});
      }
      for (const SearchDep& d : deps) {
        if (d.vertex == node.vertex && d.budget >= node.budget) {
          self_dep = &d;
          break;
        }
      }
    }

    PathSet result;
    if (self_dep != nullptr) {
      // This node was displaced by a larger-budget node anchored at the
      // same vertex: derive by filtering the cached superset (Theorem 4.1).
      const PathSet& src = *self_dep->paths;
      for (size_t i = 0; i < src.size(); ++i) {
        if (src.Length(i) <= node.budget) {
          if (options.max_paths_per_query != 0 &&
              result.size() >= options.max_paths_per_query) {
            return Status::ResourceExhausted(
                "HC-s path node exceeded max_paths_per_query");
          }
          result.Add(src[i]);
          if (stats != nullptr) ++stats->shortcut_splices;
        }
      }
    } else {
      HalfSearchSpec spec;
      spec.start = node.vertex;
      spec.budget = node.budget;
      spec.dir = dir;
      spec.slacks = slacks;
      spec.deps = deps;
      spec.max_paths = options.max_paths_per_query;
      // Deep root searches of a giant cluster frontier-split on the pool
      // (search.cc); the sub-merge keeps the stored order sequential.
      spec.pool = pool;
      spec.stamps = stamps;
      // A forward root that nobody shares only feeds its own query's join,
      // so useless prefixes need not be materialized — this makes
      // BatchEnum degrade to BasicEnum cost when there is no sharing.
      if (dir == Direction::kForward && node.is_root && node.users.empty() &&
          node.attached_queries.size() == 1 && deps.empty()) {
        spec.filter_for_join = true;
        spec.store_target = queries[node.attached_queries[0]].t;
      }
      HCPATH_RETURN_NOT_OK(RunHalfSearch(g, spec, &result, stats));
    }

    if (stats != nullptr) stats->cached_paths += result.size();
    HCPATH_RETURN_NOT_OK(cache->Put(id, std::move(result)));
    if (!options.disable_cache_reuse) {
      for (NodeId dep_id : node.deps) cache->Release(dep_id);
    }
    if (stats != nullptr) {
      stats->cache_peak_vertices =
          std::max(stats->cache_peak_vertices, cache->peak_vertices());
    }
  }
  return Status::OK();
}

/// Groups the live members of `cluster` that repeat a query: same
/// (s, t, hf, hb). Fills gs.group_of (position -> group, kNoGroup for a
/// member whose query appears once) and gs.leader (group -> its first
/// position), groups numbered in the order of their queries' keys.
void FindRepeatGroups(const std::vector<PathQuery>& queries,
                      const std::vector<size_t>& cluster,
                      const std::vector<bool>& skip,
                      const std::vector<Hop>& hf, const std::vector<Hop>& hb,
                      JoinGroupScratch& gs) {
  using Member = JoinGroupScratch::Member;
  gs.members.clear();
  gs.group_of.assign(cluster.size(), JoinGroupScratch::kNoGroup);
  gs.leader.clear();
  for (size_t pos = 0; pos < cluster.size(); ++pos) {
    if (skip[pos]) continue;
    const size_t qi = cluster[pos];
    gs.members.push_back({queries[qi].s, queries[qi].t, hf[qi], hb[qi],
                          static_cast<uint32_t>(pos)});
  }
  std::sort(gs.members.begin(), gs.members.end(),
            [](const Member& a, const Member& b) {
              return std::tie(a.s, a.t, a.hf, a.hb, a.pos) <
                     std::tie(b.s, b.t, b.hf, b.hb, b.pos);
            });
  auto same_query = [](const Member& a, const Member& b) {
    return a.s == b.s && a.t == b.t && a.hf == b.hf && a.hb == b.hb;
  };
  for (size_t i = 0, j; i < gs.members.size(); i = j) {
    j = i + 1;
    while (j < gs.members.size() && same_query(gs.members[i], gs.members[j])) {
      ++j;
    }
    if (j - i < 2) continue;
    const uint32_t group = static_cast<uint32_t>(gs.leader.size());
    gs.leader.push_back(gs.members[i].pos);
    for (size_t m = i; m < j; ++m) gs.group_of[gs.members[m].pos] = group;
  }
}

/// Phases 2+3 for one cluster: detection, shared enumeration, assembly.
/// Reads only immutable batch state (graph, queries, index, budgets), so
/// independent clusters can run on different workers; every mutable object
/// (sharing graphs, caches, sink, stats) is local to the call.
///
/// With a non-null `pool` and enough live queries
/// (BatchOptions::intra_cluster_min_queries) the cluster's own phases run
/// as sub-tasks on it: the two detection traversals and the two
/// sharing-graph enumerations pair up, deep root searches frontier-split
/// (search.cc), and the per-query assembly joins go through the same
/// buffered streaming merge as the clusters themselves. Otherwise the same
/// code runs inline. Every sub-merge is in input order, so the cluster's
/// emission stream, counters, and error outcome match the inline run —
/// this is what keeps thread scaling on skewed batches where one giant
/// cluster would otherwise serialize on one worker.
Status ProcessCluster(const Graph& g, const std::vector<PathQuery>& queries,
                      const BatchOptions& options,
                      const std::vector<size_t>& cluster,
                      const std::vector<Hop>& hf, const std::vector<Hop>& hb,
                      const std::vector<bool>& reachable,
                      const DistanceIndex& index, ThreadPool* pool,
                      BatchContext& bctx, PathSink* sink,
                      BatchStats* stats) {
  std::vector<Hop> fwd_budgets, bwd_budgets;
  std::vector<bool> skip;
  size_t live = 0;
  for (size_t qi : cluster) {
    fwd_budgets.push_back(hf[qi]);
    bwd_budgets.push_back(hb[qi]);
    skip.push_back(!reachable[qi]);
    if (reachable[qi]) ++live;
  }
  if (live == 0) return Status::OK();

  const size_t intra_min = static_cast<size_t>(
      std::max(2, options.intra_cluster_min_queries));
  ThreadPool* intra_pool = live >= intra_min ? pool : nullptr;

  DetectionResult fwd, bwd;
  {
    WallTimer detect_timer;
    DetectBothDirections(g, queries, cluster, fwd_budgets, bwd_budgets,
                         skip, index, options, intra_pool, &fwd, &bwd,
                         stats);
    if (stats != nullptr) stats->detect_seconds += detect_timer.ElapsedSeconds();
  }

  double enum_seconds = 0;
  {
    ScopedTimer timer(&enum_seconds);
    ResultCache fwd_cache, bwd_cache;
    // The two directions touch disjoint caches and private stats, so with
    // a pool they enumerate concurrently. The run keeps the inline order's
    // outcome: the backward direction does not start once the forward one
    // has failed, and its stats fold in only after a forward success.
    Status dir_status[2];
    BatchStats dir_stats[2];
    std::atomic<bool> forward_failed{false};
    ParallelFor(intra_pool, 2, [&](size_t d) {
      if (d == 1 && forward_failed.load(std::memory_order_acquire)) return;
      const Direction dir = d == 0 ? Direction::kForward : Direction::kBackward;
      dir_status[d] = EnumerateSharingGraph(
          g, dir, d == 0 ? fwd.psi : bwd.psi, queries, index, options,
          d == 0 ? &fwd_cache : &bwd_cache,
          stats != nullptr ? &dir_stats[d] : nullptr, intra_pool,
          &bctx.stamps);
      if (d == 0 && !dir_status[0].ok()) {
        forward_failed.store(true, std::memory_order_release);
      }
    });
    for (size_t d = 0; d < 2; ++d) {
      if (stats != nullptr) stats->Accumulate(dir_stats[d]);
      HCPATH_RETURN_NOT_OK(dir_status[d]);
    }

    // Assembly (Algorithm 4 lines 11-13): per-query concatenation join
    // over the shared root results, filtered to this query's budgets.
    auto spec_of = [&](size_t pos) {
      const size_t qi = cluster[pos];
      JoinSpec join;
      join.forward = &fwd_cache.Get(fwd.root_of[pos]);
      join.backward = &bwd_cache.Get(bwd.root_of[pos]);
      join.s = queries[qi].s;
      join.t = queries[qi].t;
      join.hf = hf[qi];
      join.hb = hb[qi];
      join.max_paths = options.max_paths_per_query;
      return join;
    };

    // Members repeating a query share it whole. Detection anchors one
    // root per start vertex, so members with the same (s, t, hf, hb) read
    // the same two root sets: their JoinSpecs are identical, and so are
    // their paths, path order, and Status. Each such group joins once, in
    // the item of its leader (its first position), where the
    // member-by-member assembly would have joined first, so the group's
    // counters and a max_paths failure land there too; later members
    // replay the set. An item the assembly merge hands the cluster's sink
    // runs after every earlier item has emitted, so its leader's set is
    // complete. A buffered member records a whole-set reference instead,
    // possibly while its leader is still joining on another thread: the
    // merge replays it only once the frontier has passed the leader, and
    // drains every buffer before it returns, inside this lease.
    ScratchLease<JoinGroupScratch> groups_lease(&bctx.join_groups);
    JoinGroupScratch& gs = *groups_lease;
    struct TrimOnExit {
      JoinGroupScratch& gs;
      ~TrimOnExit() { gs.TrimRetained(); }
    } trim_on_exit{gs};
    FindRepeatGroups(queries, cluster, skip, hf, hb, gs);
    if (gs.sets.size() < gs.leader.size()) gs.sets.resize(gs.leader.size());

    auto join_one = [&](size_t pos, PathSink* join_sink,
                        BatchStats* join_stats) -> Status {
      if (skip[pos]) return Status::OK();
      const uint32_t group = gs.group_of[pos];
      if (group == JoinGroupScratch::kNoGroup) {
        return JoinAndEmit(spec_of(pos), cluster[pos], join_sink, join_stats,
                           &bctx.join_scratch)
            .status();
      }
      PathSet& paths = gs.sets[group];
      Status st;
      if (gs.leader[group] == pos) {
        paths.Clear();
        st = JoinIntoSet(spec_of(pos), &paths, join_stats,
                         &bctx.join_scratch);
      }
      // A member's paths_emitted and join_replays fold in after the
      // assembly: a buffered member cannot know its set's size yet.
      if (join_sink == sink) {
        join_sink->OnPaths(cluster[pos], paths, 0, paths.size());
      } else {
        // Not the cluster's sink, so one of the merge's private buffers
        // (RunBufferedParallel's task sink contract).
        static_cast<BufferedSink*>(join_sink)->Reference(cluster[pos], paths);
      }
      return st;
    };
    // Query-parallel assembly: joins only read the caches, so the roots are
    // released after the merge (ResultCache is not thread-safe). The
    // streaming merge reproduces the inline per-query emission order, and
    // a worker joins later groups while the token holder delivers earlier
    // ones. Positions [0, emitted) reached the sink: all of them, or up to
    // and including the first failing leader or solo query.
    size_t emitted = 0;
    MergeMetrics mm;
    const Status assembly_status =
        RunBufferedParallel(intra_pool, cluster.size(), sink, stats, join_one,
                            &mm, &bctx.sinks, &emitted);
    FoldMergeMetrics(mm, stats);
    if (stats != nullptr) {
      for (size_t pos = 0; pos < emitted; ++pos) {
        const uint32_t group = gs.group_of[pos];
        if (group == JoinGroupScratch::kNoGroup || gs.leader[group] == pos) {
          continue;
        }
        stats->paths_emitted += gs.sets[group].size();
        ++stats->join_replays;
      }
    }
    HCPATH_RETURN_NOT_OK(assembly_status);
    for (size_t pos = 0; pos < cluster.size(); ++pos) {
      if (skip[pos]) continue;
      fwd_cache.Release(fwd.root_of[pos]);
      bwd_cache.Release(bwd.root_of[pos]);
    }
    HCPATH_DCHECK(fwd_cache.Drained());
    HCPATH_DCHECK(bwd_cache.Drained());
  }
  if (stats != nullptr) stats->enumerate_seconds += enum_seconds;
  return Status::OK();
}

}  // namespace

Status RunBatchEnum(const Graph& g, const std::vector<PathQuery>& queries,
                    const BatchOptions& options, bool optimized_order,
                    PathSink* sink, BatchStats* stats, BatchContext* ctx) {
  HCPATH_RETURN_NOT_OK(options.Validate());
  HCPATH_RETURN_NOT_OK(ValidateQueries(g, queries));
  WallTimer total;

  // One-shot callers get a call-local context; a long-lived caller's ctx
  // recycles the index storage, BFS scratch, clustering scratch, and merge
  // buffers, and carries the cross-batch distance cache.
  BatchContext local_ctx;
  BatchContext& c = ctx != nullptr ? *ctx : local_ctx;
  ThreadPool* pool = c.PoolFor(options.num_threads);

  // Phase 0: shared index (Algorithm 4 lines 1-2).
  DistanceIndex& index = c.index;
  BuildBatchIndex(g, queries, &index, stats, pool, &c);

  const size_t n = queries.size();
  std::vector<bool> reachable(n);
  for (size_t i = 0; i < n; ++i) {
    Hop d = index.DistToTarget(i, queries[i].s);
    reachable[i] = d != kUnreachable && d <= queries[i].k;
  }

  // Phase 1: query clustering (Algorithm 2).
  std::vector<std::vector<size_t>> clusters;
  {
    WallTimer cluster_timer;
    if (options.disable_clustering || n < 2) {
      clusters.emplace_back();
      for (size_t i = 0; i < n; ++i) clusters[0].push_back(i);
    } else {
      SimilarityMatrix sim =
          ComputeSimilarityMatrix(g, queries, index, options.similarity_mode,
                                  pool, &c.similarity);
      clusters = ClusterQueries(sim, options.gamma);
    }
    if (stats != nullptr) {
      stats->cluster_seconds += cluster_timer.ElapsedSeconds();
      stats->num_clusters += clusters.size();
    }
  }

  // Hop budget split per query. The optimized search order (the "+"
  // variants) only applies to queries clustered alone: queries that share
  // need aligned ⌈k/2⌉/⌊k/2⌋ budgets for dominating queries to meet at the
  // same remaining budget, and misaligned splits would both shrink sharing
  // and inflate the detection cones.
  std::vector<size_t> cluster_size_of(n, 1);
  for (const std::vector<size_t>& cluster : clusters) {
    for (size_t qi : cluster) cluster_size_of[qi] = cluster.size();
  }
  std::vector<Hop> hf(n), hb(n);
  for (size_t i = 0; i < n; ++i) {
    const bool optimize_this = optimized_order && cluster_size_of[i] == 1;
    hf[i] = ChooseForwardBudget(index.FromSourceMap(i), index.ToTargetMap(i),
                                queries[i].k, optimize_this);
    hb[i] = static_cast<Hop>(queries[i].k - hf[i]);
  }

  // Phases 2+3 per cluster: detection, shared enumeration, assembly.
  // Clusters are independent by construction (Algorithm 2 partitions the
  // batch), so each runs as one buffered task; the streaming ordered merge
  // (parallel_merge.h) reproduces the inline emission stream, counters,
  // and error semantics bit for bit while draining finished prefixes
  // early. A single cluster (or a run without a pool) goes inline, straight
  // into the sink; big clusters fan out into sub-tasks inside
  // ProcessCluster.
  MergeMetrics mm;
  Status st = RunBufferedParallel(
      pool, clusters.size(), sink, stats,
      [&](size_t ci, PathSink* cluster_sink, BatchStats* cluster_stats) {
        return ProcessCluster(g, queries, options, clusters[ci], hf, hb,
                              reachable, index, pool, c, cluster_sink,
                              cluster_stats);
      },
      &mm, &c.sinks);
  FoldMergeMetrics(mm, stats);
  HCPATH_RETURN_NOT_OK(st);

  if (stats != nullptr) stats->total_seconds += total.ElapsedSeconds();
  return Status::OK();
}

}  // namespace hcpath
