#ifndef HCPATH_GRAPH_GRAPH_BUILDER_H_
#define HCPATH_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace hcpath {

/// One element of a graph-update batch (dynamic graphs, docs/DYNAMIC.md).
struct EdgeUpdate {
  enum class Op : uint8_t { kAddEdge, kRemoveEdge };

  Op op = Op::kAddEdge;
  VertexId u = kInvalidVertex;
  VertexId v = kInvalidVertex;

  static EdgeUpdate Add(VertexId u, VertexId v) {
    return {Op::kAddEdge, u, v};
  }
  static EdgeUpdate Remove(VertexId u, VertexId v) {
    return {Op::kRemoveEdge, u, v};
  }
};

/// What one ApplyUpdates batch actually did to the graph. The effective
/// edge lists drive cone-precise cache invalidation (docs/DYNAMIC.md):
/// no-op updates (adding a present edge, removing an absent one) touch
/// nothing and so appear in neither list.
struct UpdateApplyStats {
  std::vector<std::pair<VertexId, VertexId>> added;    ///< edges now present
  std::vector<std::pair<VertexId, VertexId>> removed;  ///< edges now absent
  uint64_t add_noops = 0;     ///< adds of already-present edges
  uint64_t remove_noops = 0;  ///< removes of absent edges
  uint64_t self_loops_dropped = 0;

  /// Pre-update out-neighbor span of each distinct tail of added∪removed,
  /// in ascending tail order — the spans ClassifyUpdates already resolved
  /// for its membership probes, saved so DeltaOverlay::Extend's forward
  /// side can merge without re-probing the same tables. Non-owning views
  /// into the classified-against graph: valid only while that snapshot is
  /// alive and unmodified, i.e. for the ApplyUpdates call that produced
  /// them. MergeRebuild ignores them.
  std::vector<std::span<const VertexId>> tail_views;
};

/// Accumulates directed edges and finalizes them into a CSR Graph.
///
/// Duplicate edges are deduplicated and self-loops dropped at Build() time
/// (a simple path can never use a self-loop, so keeping them would only
/// waste index space). Vertex count may be declared up front or inferred
/// from the largest endpoint.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  explicit GraphBuilder(VertexId num_vertices)
      : num_vertices_(num_vertices) {}

  /// Adds edge (u, v). Ids beyond the declared vertex count grow the graph.
  void AddEdge(VertexId u, VertexId v);

  void Reserve(size_t num_edges) { edges_.reserve(num_edges); }

  /// Number of self-loops dropped so far (populated by Build).
  uint64_t self_loops_dropped() const { return self_loops_dropped_; }
  /// Number of duplicate edges removed (populated by Build).
  uint64_t duplicates_dropped() const { return duplicates_dropped_; }

  /// Sorts, dedups and builds the CSR graph. The builder is left empty.
  StatusOr<Graph> Build();

  /// Applies a batch of edge updates to `base` and returns the resulting
  /// graph as a fresh CSR (base is untouched — snapshot semantics; see
  /// GraphStore for the epoch-stamped lifecycle around this).
  ///
  /// Semantics, chosen so a batch always has one deterministic outcome:
  ///  * several updates to the same (u, v) collapse to the LAST one in
  ///    batch order;
  ///  * adding a present edge / removing an absent one is a counted no-op;
  ///  * self-loop adds are dropped (as in Build);
  ///  * ids beyond base's vertex count grow the graph (isolated vertices
  ///    stay); kInvalidVertex endpoints fail with InvalidArgument.
  ///
  /// The result is structurally identical — same CSR content as a
  /// from-scratch Build over the surviving edge set — which the
  /// update-interleaved differential fuzz suite cross-checks.
  ///
  /// This is the full-rebuild path — O(|E|) regardless of batch size.
  /// GraphStore routes small batches through DeltaOverlay::Extend instead
  /// (O(touched)) and calls back into this only at compaction points.
  static StatusOr<Graph> ApplyUpdates(const Graph& base,
                                      std::span<const EdgeUpdate> updates,
                                      UpdateApplyStats* stats = nullptr);

  /// Classification half of ApplyUpdates, shared with the overlay path:
  /// collapses the batch last-wins, drops self-loops, classifies each
  /// deciding update against `base` (present → remove effective / add
  /// no-op, absent → add effective / remove no-op) and fills `stats` with
  /// the sorted effective `added` / `removed` lists plus the no-op
  /// counters. `base` may itself be an overlay snapshot. Fails with
  /// InvalidArgument on kInvalidVertex endpoints, leaving `stats` empty.
  static Status ClassifyUpdates(const Graph& base,
                                std::span<const EdgeUpdate> updates,
                                UpdateApplyStats* stats);

  /// Rebuild half of ApplyUpdates: merges a classified delta into a fresh
  /// flat CSR. Reads `base` only through its neighbor spans, so calling
  /// it on an overlay snapshot folds base + overlay + delta in one pass —
  /// this is GraphStore's compaction primitive.
  static Graph MergeRebuild(const Graph& base, const UpdateApplyStats& delta);

 private:
  VertexId num_vertices_ = 0;
  std::vector<std::pair<VertexId, VertexId>> edges_;
  uint64_t self_loops_dropped_ = 0;
  uint64_t duplicates_dropped_ = 0;
};

}  // namespace hcpath

#endif  // HCPATH_GRAPH_GRAPH_BUILDER_H_
