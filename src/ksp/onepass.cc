#include "ksp/onepass.h"

#include <queue>
#include <vector>

#include "bfs/bfs.h"
#include "util/timer.h"

namespace hcpath {

Status OnePassEnumerate(const Graph& g, const PathQuery& q,
                        size_t query_index, PathSink* sink,
                        const KspLimits& limits) {
  HCPATH_RETURN_NOT_OK(ValidateQueries(g, {q}));
  WallTimer timer;

  // One reverse BFS provides the admissible lower bound dist(v, t).
  std::vector<Hop> lb = HopCappedBfsDense(g, q.t, static_cast<Hop>(q.k),
                                          Direction::kBackward);
  if (lb[q.s] == kUnreachable) return Status::OK();

  struct Label {
    std::vector<VertexId> path;
    int f = 0;  // |path| - 1 + lb(tail)
  };
  auto worse = [](const Label& a, const Label& b) {
    if (a.f != b.f) return a.f > b.f;
    return a.path > b.path;  // deterministic tiebreak
  };
  std::priority_queue<Label, std::vector<Label>, decltype(worse)> heap(
      worse);
  heap.push({{q.s}, static_cast<int>(lb[q.s])});

  uint64_t count = 0;
  uint64_t pops = 0;
  while (!heap.empty()) {
    if ((++pops & 1023) == 0 && limits.time_budget_seconds > 0 &&
        timer.ElapsedSeconds() > limits.time_budget_seconds) {
      return Status::DeadlineExceeded("OnePass exceeded time budget");
    }
    Label label = heap.top();
    heap.pop();
    const VertexId tail = label.path.back();
    if (tail == q.t) {
      sink->OnPath(query_index, label.path);
      if (limits.max_paths != 0 && ++count >= limits.max_paths) {
        return Status::ResourceExhausted("OnePass exceeded max_paths");
      }
      continue;  // extending past t never yields another simple s-t path
    }
    const int len = static_cast<int>(label.path.size()) - 1;
    if (len >= q.k) continue;
    for (VertexId v : g.OutNeighbors(tail)) {
      if (lb[v] == kUnreachable) continue;
      const int f = len + 1 + lb[v];
      if (f > q.k) continue;
      bool on_path = false;
      for (VertexId w : label.path) {
        if (w == v) {
          on_path = true;
          break;
        }
      }
      if (on_path) continue;
      Label next;
      next.path = label.path;
      next.path.push_back(v);
      next.f = f;
      heap.push(std::move(next));
    }
  }
  return Status::OK();
}

}  // namespace hcpath
