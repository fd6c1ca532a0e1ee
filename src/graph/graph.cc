#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "graph/delta_overlay.h"

namespace hcpath {

void Graph::Rebind() {
  if (overlay_ != nullptr || storage_ != nullptr) return;
  if (out_offsets_.empty()) {
    out_offsets_p_ = nullptr;
    out_adj_p_ = nullptr;
    in_offsets_p_ = nullptr;
    in_adj_p_ = nullptr;
    n_ = 0;
    m_ = 0;
    return;
  }
  out_offsets_p_ = out_offsets_.data();
  out_adj_p_ = out_adj_.data();
  in_offsets_p_ = in_offsets_.data();
  in_adj_p_ = in_adj_.data();
  n_ = static_cast<VertexId>(out_offsets_.size() - 1);
  m_ = out_adj_.size();
}

void Graph::CopyFrom(const Graph& other) {
  out_offsets_ = other.out_offsets_;
  out_adj_ = other.out_adj_;
  in_offsets_ = other.in_offsets_;
  in_adj_ = other.in_adj_;
  overlay_ = other.overlay_;
  storage_ = other.storage_;
  out_offsets_p_ = other.out_offsets_p_;
  out_adj_p_ = other.out_adj_p_;
  in_offsets_p_ = other.in_offsets_p_;
  in_adj_p_ = other.in_adj_p_;
  n_ = other.n_;
  m_ = other.m_;
  // External pointers aim at shared pinned storage and stay valid as-is;
  // owned pointers must re-aim at this object's fresh vector copies.
  Rebind();
}

void Graph::MoveFrom(Graph&& other) noexcept {
  out_offsets_ = std::move(other.out_offsets_);
  out_adj_ = std::move(other.out_adj_);
  in_offsets_ = std::move(other.in_offsets_);
  in_adj_ = std::move(other.in_adj_);
  overlay_ = std::move(other.overlay_);
  storage_ = std::move(other.storage_);
  out_offsets_p_ = other.out_offsets_p_;
  out_adj_p_ = other.out_adj_p_;
  in_offsets_p_ = other.in_offsets_p_;
  in_adj_p_ = other.in_adj_p_;
  n_ = other.n_;
  m_ = other.m_;
  // Vector moves may transfer or reuse heap buffers; re-derive the views
  // rather than trusting the stolen pointers, and leave the source as a
  // valid empty graph.
  Rebind();
  other.out_offsets_.clear();
  other.out_adj_.clear();
  other.in_offsets_.clear();
  other.in_adj_.clear();
  other.Rebind();
}

Graph::Graph(std::vector<uint64_t> out_offsets, std::vector<VertexId> out_adj,
             std::vector<uint64_t> in_offsets, std::vector<VertexId> in_adj)
    : out_offsets_(std::move(out_offsets)),
      out_adj_(std::move(out_adj)),
      in_offsets_(std::move(in_offsets)),
      in_adj_(std::move(in_adj)) {
  HCPATH_CHECK_EQ(out_offsets_.size(), in_offsets_.size());
  HCPATH_CHECK(!out_offsets_.empty());
  HCPATH_CHECK_EQ(out_offsets_.back(), out_adj_.size());
  HCPATH_CHECK_EQ(in_offsets_.back(), in_adj_.size());
  HCPATH_CHECK_EQ(out_adj_.size(), in_adj_.size());
  Rebind();
}

Graph::Graph(std::shared_ptr<const void> storage,
             std::span<const uint64_t> out_offsets,
             std::span<const VertexId> out_adj,
             std::span<const uint64_t> in_offsets,
             std::span<const VertexId> in_adj)
    : storage_(std::move(storage)) {
  HCPATH_CHECK(storage_ != nullptr);
  HCPATH_CHECK_EQ(out_offsets.size(), in_offsets.size());
  HCPATH_CHECK(!out_offsets.empty());
  HCPATH_CHECK_EQ(out_offsets.back(), out_adj.size());
  HCPATH_CHECK_EQ(in_offsets.back(), in_adj.size());
  HCPATH_CHECK_EQ(out_adj.size(), in_adj.size());
  out_offsets_p_ = out_offsets.data();
  out_adj_p_ = out_adj.data();
  in_offsets_p_ = in_offsets.data();
  in_adj_p_ = in_adj.data();
  n_ = static_cast<VertexId>(out_offsets.size() - 1);
  m_ = out_adj.size();
}

Graph::Graph(std::shared_ptr<const DeltaOverlay> overlay)
    : overlay_(std::move(overlay)) {
  HCPATH_CHECK(overlay_ != nullptr);
}

std::span<const VertexId> Graph::OverlayNeighbors(VertexId v,
                                                  Direction d) const {
  return overlay_->Neighbors(v, d);
}

void Graph::OverlayPrefetchSlot(VertexId v, Direction d) const {
  overlay_->PrefetchSlot(v, d);
}

VertexId Graph::OverlayNumVertices() const {
  return overlay_->num_vertices();
}

uint64_t Graph::OverlayNumEdges() const { return overlay_->num_edges(); }

uint64_t Graph::OverlayMemoryBytes() const {
  return overlay_->MemoryBytes();
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  auto nbrs = OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<std::pair<VertexId, VertexId>> Graph::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> out;
  out.reserve(NumEdges());
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (VertexId v : OutNeighbors(u)) out.emplace_back(u, v);
  }
  return out;
}

}  // namespace hcpath
