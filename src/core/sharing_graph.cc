#include "core/sharing_graph.h"

#include <algorithm>

#include "util/logging.h"

namespace hcpath {

SharingGraph::NodeId SharingGraph::AddNode(VertexId vertex, Hop budget,
                                           bool is_root) {
  Node n;
  n.vertex = vertex;
  n.budget = budget;
  n.is_root = is_root;
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

bool SharingGraph::WouldCreateCycle(NodeId dep, NodeId user) const {
  // Edge dep -> user closes a cycle iff dep is already reachable from user
  // (following dep -> user edges, i.e. the `users` adjacency).
  if (dep == user) return true;
  std::vector<NodeId> stack = {user};
  std::vector<bool> visited(nodes_.size(), false);
  visited[user] = true;
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    for (NodeId next : nodes_[cur].users) {
      if (next == dep) return true;
      if (!visited[next]) {
        visited[next] = true;
        stack.push_back(next);
      }
    }
  }
  return false;
}

bool SharingGraph::TryAddEdge(NodeId dep, NodeId user) {
  HCPATH_DCHECK(dep < nodes_.size() && user < nodes_.size());
  Node& u = nodes_[user];
  for (NodeId existing : u.deps) {
    if (existing == dep) return true;  // already linked
  }
  if (WouldCreateCycle(dep, user)) {
    ++cycle_edges_skipped_;
    return false;
  }
  u.deps.push_back(dep);
  nodes_[dep].users.push_back(user);
  ++num_edges_;
  // Maintain the user's vertex -> dep lookup, keeping the larger budget on
  // collision (larger budgets can serve strictly more splice depths).
  const VertexId anchor = nodes_[dep].vertex;
  auto it = std::lower_bound(
      u.dep_at.begin(), u.dep_at.end(), anchor,
      [](const std::pair<VertexId, NodeId>& e, VertexId v) {
        return e.first < v;
      });
  if (it != u.dep_at.end() && it->first == anchor) {
    if (nodes_[it->second].budget < nodes_[dep].budget) it->second = dep;
  } else {
    u.dep_at.insert(it, {anchor, dep});
  }
  return true;
}

std::vector<SharingGraph::NodeId> SharingGraph::TopologicalOrder() const {
  std::vector<uint32_t> pending(nodes_.size(), 0);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    pending[i] = static_cast<uint32_t>(nodes_[i].deps.size());
  }
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  std::vector<NodeId> ready;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (pending[i] == 0) ready.push_back(static_cast<NodeId>(i));
  }
  while (!ready.empty()) {
    NodeId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (NodeId user : nodes_[id].users) {
      if (--pending[user] == 0) ready.push_back(user);
    }
  }
  HCPATH_CHECK_EQ(order.size(), nodes_.size());  // acyclic by construction
  return order;
}

void SharingGraph::PropagateSlacks() {
  if (num_edges_ == 0) return;
  // pos_of[query] is the query's entry in the current dep's slacks, or
  // kNoPos: filled from the dep's entries for each edge and reset after
  // it, so each edge costs O(|user.slacks| + |dep.slacks|) instead of
  // their product. Propagation only moves entries, so the roots' queries
  // bound the table.
  constexpr uint32_t kNoPos = UINT32_MAX;
  uint32_t max_query = 0;
  for (const Node& n : nodes_) {
    for (const SlackEntry& se : n.slacks) {
      max_query = std::max(max_query, se.query);
    }
  }
  std::vector<uint32_t> pos_of(static_cast<size_t>(max_query) + 1, kNoPos);

  // Users before deps == reverse topological order.
  std::vector<NodeId> topo = TopologicalOrder();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const Node& user = nodes_[*it];
    for (NodeId dep_id : user.deps) {
      Node& dep = nodes_[dep_id];
      const int shift =
          std::max(0, static_cast<int>(user.budget) -
                          static_cast<int>(dep.budget));
      // A query's first entry absorbs later ones, as a front-to-back scan
      // would.
      for (uint32_t i = 0; i < dep.slacks.size(); ++i) {
        uint32_t& pos = pos_of[dep.slacks[i].query];
        if (pos == kNoPos) pos = i;
      }
      for (const SlackEntry& se : user.slacks) {
        const int shifted = se.slack - shift;
        uint32_t& pos = pos_of[se.query];
        if (pos != kNoPos) {
          SlackEntry& existing = dep.slacks[pos];
          existing.slack = std::max(existing.slack, shifted);
        } else {
          pos = static_cast<uint32_t>(dep.slacks.size());
          dep.slacks.push_back({se.query, shifted});
        }
      }
      for (const SlackEntry& se : dep.slacks) pos_of[se.query] = kNoPos;
    }
  }
}

}  // namespace hcpath
