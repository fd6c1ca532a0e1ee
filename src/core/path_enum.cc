#include "core/path_enum.h"

#include <algorithm>
#include <array>

#include "bfs/bfs.h"
#include "core/join.h"
#include "core/search.h"
#include "util/timer.h"

namespace hcpath {

Hop ChooseForwardBudget(const VertexDistMap& from_source,
                        const VertexDistMap& to_target, int k,
                        bool optimized_order) {
  const Hop balanced = static_cast<Hop>((k + 1) / 2);
  if (!optimized_order) return balanced;

  // Cumulative reach counts per level: cum_s[l] = #vertices within l-1 hops
  // of s. The bidirectional cost is dominated by |forward set| x |backward
  // set| (the join bound), so we minimize the product of the two reaches —
  // a deliberately cheap proxy for PathEnum's cost-based join ordering.
  // The split is confined to a window of +-2 around the balanced split to
  // bound memory when the proxy is misleading.
  std::array<uint64_t, kMaxHops + 1> level_s{}, level_t{};
  from_source.ForEach([&](VertexId, Hop d) {
    if (d <= k) ++level_s[d];
  });
  to_target.ForEach([&](VertexId, Hop d) {
    if (d <= k) ++level_t[d];
  });
  std::array<uint64_t, kMaxHops + 2> cum_s{}, cum_t{};
  for (int l = 0; l <= k; ++l) {
    cum_s[l + 1] = cum_s[l] + level_s[l];
    cum_t[l + 1] = cum_t[l] + level_t[l];
  }

  const int lo = std::max(1, balanced - 2);
  const int hi = std::min(k, balanced + 2);
  // Sum of the two reaches as the cost proxy. DFS work is convex in the
  // hop budget, so a deviation from the balanced split must be backed by
  // strong evidence: we only move when the estimate improves by 2x (a
  // product proxy would chase degenerate extreme splits, and marginal
  // estimated wins lose to the convexity the proxy cannot see).
  const uint64_t balanced_cost =
      cum_s[balanced + 1] + cum_t[k - balanced + 1];
  Hop best = balanced;
  uint64_t best_cost = balanced_cost;
  for (int hf = lo; hf <= hi; ++hf) {
    if (hf == balanced) continue;
    const int hb = k - hf;
    const uint64_t cost = cum_s[hf + 1] + cum_t[hb + 1];
    if (cost * 2 <= balanced_cost && cost < best_cost) {
      best_cost = cost;
      best = static_cast<Hop>(hf);
    }
  }
  return best;
}

Status EnumerateWithMaps(const Graph& g, const PathQuery& q,
                         const VertexDistMap& from_source,
                         const VertexDistMap& to_target,
                         const SingleQueryOptions& options,
                         size_t query_index, PathSink* sink,
                         BatchStats* stats, EpochStampPool* stamps,
                         JoinScratchPool* join_scratch) {
  // Unreachable within k hops: no results.
  Hop st = to_target.Lookup(q.s);
  if (st == kUnreachable || st > q.k) return Status::OK();

  const Hop hf = ChooseForwardBudget(from_source, to_target, q.k,
                                     options.optimized_order);
  const Hop hb = static_cast<Hop>(q.k - hf);

  const TargetSlack fwd_slack[] = {{&to_target, q.k}};
  const TargetSlack bwd_slack[] = {{&from_source, q.k}};

  PathSet fwd_paths;
  HalfSearchSpec fwd;
  fwd.start = q.s;
  fwd.budget = hf;
  fwd.dir = Direction::kForward;
  fwd.slacks = fwd_slack;
  fwd.filter_for_join = true;
  fwd.store_target = q.t;
  fwd.max_paths = options.max_paths;
  fwd.stamps = stamps;
  HCPATH_RETURN_NOT_OK(RunHalfSearch(g, fwd, &fwd_paths, stats));

  PathSet bwd_paths;
  if (hb > 0) {
    HalfSearchSpec bwd;
    bwd.start = q.t;
    bwd.budget = hb;
    bwd.dir = Direction::kBackward;
    bwd.slacks = bwd_slack;
    bwd.max_paths = options.max_paths;
    bwd.stamps = stamps;
    HCPATH_RETURN_NOT_OK(RunHalfSearch(g, bwd, &bwd_paths, stats));
  }

  JoinSpec join;
  join.forward = &fwd_paths;
  join.backward = &bwd_paths;
  join.s = q.s;
  join.t = q.t;
  join.hf = hf;
  join.hb = hb;
  join.max_paths = options.max_paths;
  auto emitted = JoinAndEmit(join, query_index, sink, stats, join_scratch);
  if (!emitted.ok()) return emitted.status();
  return Status::OK();
}

Status PathEnumQuery(const Graph& g, const PathQuery& q,
                     const SingleQueryOptions& options, size_t query_index,
                     PathSink* sink, BatchStats* stats) {
  HCPATH_RETURN_NOT_OK(ValidateQueries(g, {q}));
  double index_seconds = 0;
  VertexDistMap from_source, to_target;
  {
    ScopedTimer timer(&index_seconds);
    from_source = HopCappedBfs(g, q.s, static_cast<Hop>(q.k),
                               Direction::kForward);
    to_target = HopCappedBfs(g, q.t, static_cast<Hop>(q.k),
                             Direction::kBackward);
  }
  if (stats != nullptr) stats->build_index_seconds += index_seconds;

  double enum_seconds = 0;
  Status st;
  {
    ScopedTimer timer(&enum_seconds);
    st = EnumerateWithMaps(g, q, from_source, to_target, options,
                           query_index, sink, stats);
  }
  if (stats != nullptr) {
    stats->enumerate_seconds += enum_seconds;
    stats->total_seconds += index_seconds + enum_seconds;
  }
  return st;
}

}  // namespace hcpath
