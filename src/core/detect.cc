#include "core/detect.h"

#include <algorithm>
#include <unordered_map>

#include "bfs/distance_map.h"
#include "util/thread_pool.h"

namespace hcpath {

namespace {

using NodeId = SharingGraph::NodeId;

void MergeSlack(std::vector<SharingGraph::SlackEntry>& slacks,
                uint32_t query, int slack) {
  for (auto& se : slacks) {
    if (se.query == query) {
      se.slack = std::max(se.slack, slack);
      return;
    }
  }
  slacks.push_back({query, slack});
}

/// Insert-only vertex set on top of the open-addressing distance map;
/// cheaper than unordered_set in the detection hot loop.
class VisitedSet {
 public:
  bool Insert(VertexId v) {
    if (map_.Contains(v)) return false;
    map_.InsertMin(v, 0);
    return true;
  }
  bool Contains(VertexId v) const { return map_.Contains(v); }

 private:
  VertexDistMap map_;
};

}  // namespace

DetectionResult DetectCommonQueries(
    const Graph& g, Direction dir, const std::vector<PathQuery>& queries,
    const std::vector<size_t>& cluster, const std::vector<Hop>& budgets,
    const std::vector<bool>& skip, const DistanceIndex& index,
    const BatchOptions& options, BatchStats* stats) {
  DetectionResult out;
  SharingGraph& psi = out.psi;
  out.root_of.assign(cluster.size(), SharingGraph::kNoNode);

  // --- roots, deduplicated per start vertex (max budget wins) ---
  std::unordered_map<VertexId, NodeId> anchored;
  Hop kmax = 0;
  int max_query_k = 0;
  size_t live = 0;
  for (size_t pos = 0; pos < cluster.size(); ++pos) {
    if (skip[pos]) continue;
    ++live;
    const size_t qi = cluster[pos];
    const VertexId v =
        dir == Direction::kForward ? queries[qi].s : queries[qi].t;
    NodeId r;
    auto it = anchored.find(v);
    if (it == anchored.end()) {
      r = psi.AddNode(v, budgets[pos], true);
      anchored.emplace(v, r);
    } else {
      r = it->second;
      if (psi.node(r).budget < budgets[pos]) {
        psi.mutable_node(r).budget = budgets[pos];
      }
    }
    psi.mutable_node(r).attached_queries.push_back(
        static_cast<uint32_t>(qi));
    MergeSlack(psi.mutable_node(r).slacks, static_cast<uint32_t>(qi),
               queries[qi].k);
    out.root_of[pos] = r;
    kmax = std::max(kmax, budgets[pos]);
    max_query_k = std::max(max_query_k, queries[qi].k);
  }
  auto finish = [&]() {
    psi.PropagateSlacks();
    if (stats != nullptr) {
      stats->sharing_nodes += psi.NumNodes();
      stats->sharing_edges += psi.NumEdges();
      stats->cycle_edges_skipped += psi.cycle_edges_skipped();
    }
    return std::move(out);
  };
  // A single live query (or a single shared root) has nobody to share
  // with: skip the traversal entirely. This keeps BatchEnum's overhead
  // near zero on dissimilar batches (Exp-1 at low µ_Q).
  if (psi.NumNodes() <= 1 || live <= 1 || kmax == 0) return finish();

  // --- synchronized descending-budget traversal ---
  const std::vector<Hop>& min_opp = index.MinDistToOpposite(dir);
  // buckets[rb] = (vertex, node) arrivals with remaining budget rb.
  std::vector<std::vector<std::pair<VertexId, NodeId>>> buckets(
      static_cast<size_t>(kmax) + 1);
  std::vector<VisitedSet> visited(psi.NumNodes());
  for (const auto& [v, r] : anchored) {
    buckets[psi.node(r).budget].push_back({v, r});
  }

  // Expansion is depth-pruned: a vertex at depth d of node N can only
  // matter if some query target is still within reach (d + 1 + dist <= k).
  auto expand = [&](NodeId n, VertexId v, Hop rb) {
    if (rb <= 1) return;
    const int depth = psi.node(n).budget - rb;  // depth of v within n
    for (VertexId u : g.Neighbors(v, dir)) {
      const Hop d = min_opp[u];
      if (d == kUnreachable || depth + 1 + d > max_query_k) continue;
      if (visited[n].Contains(u)) continue;
      buckets[rb - 1].push_back({u, n});
    }
  };

  uint64_t dominating_created = 0;
  const uint64_t dominating_cap =
      options.max_dominating_per_query <= 0
          ? UINT64_MAX
          : static_cast<uint64_t>(options.max_dominating_per_query *
                                  static_cast<double>(live)) +
                1;

  std::vector<NodeId> fresh, others, to_expand;
  for (Hop rb = kmax; rb >= 1; --rb) {
    auto& level = buckets[rb];
    if (level.empty()) continue;
    // Sort arrivals by (vertex id, node): the grouping loop below needs
    // equal vertices adjacent, and the node order fixes detection's
    // decisions (dominating-node creation order, reuse-edge order).
    std::sort(level.begin(), level.end());
    // Early exit: a level whose arrivals all belong to one node can still
    // discover reuse edges against anchored vertices, so only the
    // per-vertex grouping below is skipped when groups are trivial.
    size_t i = 0;
    while (i < level.size()) {
      size_t j = i;
      const VertexId v = level[i].first;
      while (j < level.size() && level[j].first == v) ++j;

      fresh.clear();
      for (size_t a = i; a < j; ++a) {
        NodeId n = level[a].second;
        if ((a == i || level[a].second != level[a - 1].second) &&
            visited[n].Insert(v)) {
          fresh.push_back(n);
        }
      }
      i = j;
      if (fresh.empty()) continue;

      auto anchor_it = anchored.find(v);
      NodeId anchor = anchor_it != anchored.end()
                          ? anchor_it->second
                          : SharingGraph::kNoNode;
      to_expand.clear();
      others.clear();
      for (NodeId n : fresh) {
        if (n == anchor) {
          to_expand.push_back(n);  // a node starting at its own anchor
        } else {
          others.push_back(n);
        }
      }

      if (anchor != SharingGraph::kNoNode &&
          psi.node(anchor).budget >= rb) {
        // Fig 5(b): reuse the anchored node; arrivals stop here.
        for (NodeId n : others) {
          if (!psi.TryAddEdge(anchor, n)) to_expand.push_back(n);
        }
      } else if (static_cast<int>(rb) >= options.min_dominating_budget &&
                 others.size() >= 2 &&
                 dominating_created < dominating_cap) {
        // Fig 6: several queries share vertex v with the same remaining
        // budget -> new dominating HC-s path query q_{v, rb}.
        NodeId dom = psi.AddNode(v, rb, false);
        visited.emplace_back();
        visited[dom].Insert(v);
        for (NodeId n : others) psi.TryAddEdge(dom, n);
        if (anchor != SharingGraph::kNoNode) {
          // The displaced smaller-budget node derives from the new one.
          psi.TryAddEdge(dom, anchor);
        }
        anchored[v] = dom;
        ++dominating_created;
        if (stats != nullptr) ++stats->dominating_nodes;
        to_expand.push_back(dom);
      } else {
        to_expand.insert(to_expand.end(), others.begin(), others.end());
      }

      for (NodeId n : to_expand) expand(n, v, rb);
    }
    buckets[rb].clear();
    buckets[rb].shrink_to_fit();
  }

  return finish();
}

void DetectBothDirections(const Graph& g,
                          const std::vector<PathQuery>& queries,
                          const std::vector<size_t>& cluster,
                          const std::vector<Hop>& fwd_budgets,
                          const std::vector<Hop>& bwd_budgets,
                          const std::vector<bool>& skip,
                          const DistanceIndex& index,
                          const BatchOptions& options, ThreadPool* pool,
                          DetectionResult* fwd, DetectionResult* bwd,
                          BatchStats* stats) {
  BatchStats dir_stats[2];
  ParallelFor(pool, 2, [&](size_t d) {
    if (d == 0) {
      *fwd = DetectCommonQueries(g, Direction::kForward, queries, cluster,
                                 fwd_budgets, skip, index, options,
                                 stats != nullptr ? &dir_stats[0] : nullptr);
    } else {
      *bwd = DetectCommonQueries(g, Direction::kBackward, queries, cluster,
                                 bwd_budgets, skip, index, options,
                                 stats != nullptr ? &dir_stats[1] : nullptr);
    }
  });
  if (stats != nullptr) {
    stats->Accumulate(dir_stats[0]);
    stats->Accumulate(dir_stats[1]);
  }
}

}  // namespace hcpath
