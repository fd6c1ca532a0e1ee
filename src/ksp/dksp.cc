#include "ksp/dksp.h"

#include <algorithm>
#include <queue>
#include <set>
#include <vector>

#include "util/timer.h"

namespace hcpath {

namespace {

/// BFS shortest path from `src` to `t` avoiding banned vertices and banned
/// out-edges of `src`; returns empty vector when unreachable within
/// `max_hops`. `banned_first_edges` only constrains the first hop, which is
/// how Yen's deviation search excludes previously emitted continuations.
std::vector<VertexId> ConstrainedShortestPath(
    const Graph& g, VertexId src, VertexId t, int max_hops,
    const std::vector<bool>& banned_vertex,
    const std::set<VertexId>& banned_first_edges) {
  if (src == t) return {src};
  std::vector<VertexId> parent(g.NumVertices(), kInvalidVertex);
  std::vector<bool> seen(g.NumVertices(), false);
  std::vector<VertexId> frontier = {src};
  seen[src] = true;
  for (int level = 0; level < max_hops && !frontier.empty(); ++level) {
    std::vector<VertexId> next;
    for (VertexId u : frontier) {
      for (VertexId v : g.OutNeighbors(u)) {
        if (seen[v] || banned_vertex[v]) continue;
        if (level == 0 && banned_first_edges.count(v) != 0) continue;
        seen[v] = true;
        parent[v] = u;
        if (v == t) {
          std::vector<VertexId> path = {t};
          for (VertexId w = t; w != src; w = parent[w]) {
            path.push_back(parent[w]);
          }
          std::reverse(path.begin(), path.end());
          return path;
        }
        next.push_back(v);
      }
    }
    frontier.swap(next);
  }
  return {};
}

}  // namespace

Status DkspEnumerate(const Graph& g, const PathQuery& q, size_t query_index,
                     PathSink* sink, const KspLimits& limits) {
  HCPATH_RETURN_NOT_OK(ValidateQueries(g, {q}));
  WallTimer timer;

  using Candidate = std::vector<VertexId>;
  auto longer = [](const Candidate& a, const Candidate& b) {
    if (a.size() != b.size()) return a.size() > b.size();
    return a > b;  // deterministic tiebreak
  };
  std::priority_queue<Candidate, std::vector<Candidate>, decltype(longer)>
      heap(longer);
  std::set<Candidate> enqueued;  // dedup candidates across spur choices

  std::vector<bool> banned_vertex(g.NumVertices(), false);
  Candidate first = ConstrainedShortestPath(g, q.s, q.t, q.k, banned_vertex,
                                            {});
  if (first.empty()) return Status::OK();
  heap.push(first);
  enqueued.insert(first);

  std::vector<Candidate> emitted;
  uint64_t count = 0;
  while (!heap.empty()) {
    if (limits.time_budget_seconds > 0 &&
        timer.ElapsedSeconds() > limits.time_budget_seconds) {
      return Status::DeadlineExceeded("DkSP exceeded time budget");
    }
    Candidate p = heap.top();
    heap.pop();
    if (p.size() - 1 > static_cast<size_t>(q.k)) break;
    sink->OnPath(query_index, p);
    emitted.push_back(p);
    if (limits.max_paths != 0 && ++count >= limits.max_paths) {
      return Status::ResourceExhausted("DkSP exceeded max_paths");
    }

    // Yen deviations: spur at every position of the emitted path.
    for (size_t i = 0; i + 1 < p.size(); ++i) {
      const VertexId spur = p[i];
      // Ban root prefix vertices (except the spur) so the spur path stays
      // simple, and ban the continuations already taken by emitted paths
      // sharing this root.
      std::fill(banned_vertex.begin(), banned_vertex.end(), false);
      for (size_t j = 0; j < i; ++j) banned_vertex[p[j]] = true;
      std::set<VertexId> banned_first;
      for (const Candidate& prev : emitted) {
        if (prev.size() > i &&
            std::equal(prev.begin(), prev.begin() + i + 1, p.begin())) {
          banned_first.insert(prev[i + 1]);
        }
      }
      const int remaining = q.k - static_cast<int>(i);
      Candidate spur_path = ConstrainedShortestPath(
          g, spur, q.t, remaining, banned_vertex, banned_first);
      if (spur_path.empty()) continue;
      Candidate full(p.begin(), p.begin() + i);
      full.insert(full.end(), spur_path.begin(), spur_path.end());
      if (full.size() - 1 > static_cast<size_t>(q.k)) continue;
      if (enqueued.insert(full).second) heap.push(full);
    }
  }
  return Status::OK();
}

}  // namespace hcpath
