#include "bfs/distance_map.h"

#include <algorithm>

namespace hcpath {

const VertexDistMap::Slot* VertexDistMap::SentinelTable() {
  static const Slot kSentinel[1] = {};
  return kSentinel;
}

VertexDistMap& VertexDistMap::operator=(const VertexDistMap& other) {
  if (this == &other) return *this;
  slots_ = other.slots_;
  size_ = other.size_;
  universe_ = other.universe_;
  dense_bound_ = other.dense_bound_;
  dense_ = other.dense_;
  view_masks_ = other.view_masks_;
  view_within_ = other.view_within_;
  view_bit_ = other.view_bit_;
  view_source_ = other.view_source_;
  view_cap_ = other.view_cap_;
  sorted_keys_ = other.sorted_keys_;
  sorted_valid_ = other.sorted_valid_;
  RefreshTable();
  return *this;
}

VertexDistMap& VertexDistMap::operator=(VertexDistMap&& other) noexcept {
  if (this == &other) return *this;
  slots_ = std::move(other.slots_);
  size_ = other.size_;
  universe_ = other.universe_;
  dense_bound_ = other.dense_bound_;
  dense_ = std::move(other.dense_);
  view_masks_ = std::move(other.view_masks_);
  view_within_ = other.view_within_;
  view_bit_ = other.view_bit_;
  view_source_ = other.view_source_;
  view_cap_ = other.view_cap_;
  sorted_keys_ = std::move(other.sorted_keys_);
  sorted_valid_ = other.sorted_valid_;
  RefreshTable();
  other.slots_.clear();
  other.dense_.clear();
  other.ResetView();
  other.size_ = 0;
  other.dense_bound_ = 0;
  other.sorted_valid_ = false;
  other.RefreshTable();
  return *this;
}

void VertexDistMap::SetUniverse(size_t num_vertices) {
  universe_ = num_vertices;
  if (dense_bound_ == 0 && universe_ != 0 && size_ * 8 >= universe_) {
    ConvertToDense();
  }
}

void VertexDistMap::Reserve(size_t expected) {
  if (dense_bound_ != 0) return;  // dense backing needs no reservation
  if (universe_ != 0 && expected * 8 >= universe_) {
    ConvertToDense();
    return;
  }
  size_t cap = 16;
  while (cap < expected * 2) cap <<= 1;
  // A recycled table far larger than this build needs is reallocated, so
  // a long-lived index does not keep every map at its all-time largest
  // size (and ClearKeepCapacity does not refill the whole of it).
  if (cap > slots_.size() || slots_.size() > kMaxRetainedSlack * cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    RefreshTable();
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key != kEmptyKey) InsertMin(s.key, s.dist);
    }
  }
}

void VertexDistMap::ClearKeepCapacity() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  dense_.clear();        // keeps capacity for the next ConvertToDense
  ResetView();
  sorted_keys_.clear();  // keeps capacity for the next SortedKeys
  size_ = 0;
  universe_ = 0;
  dense_bound_ = 0;
  sorted_valid_ = false;
  RefreshTable();
}

void VertexDistMap::SetView(std::shared_ptr<const std::vector<uint64_t>> within,
                            size_t num_vertices, unsigned slot, Hop cap,
                            VertexId source, size_t size) {
  HCPATH_DCHECK(slot < 64);
  HCPATH_DCHECK(source < num_vertices);
  HCPATH_DCHECK(within->size() >= cap * num_vertices);
  // A view never probes the hash table; keeping its slots would hold a
  // past build's table for as long as the map stays a view.
  slots_ = std::vector<Slot>();
  ClearKeepCapacity();
  view_within_ = within->data();
  view_masks_ = std::move(within);
  view_bit_ = 1ULL << slot;
  view_source_ = source;
  view_cap_ = cap;
  size_ = size;
  universe_ = num_vertices;
  dense_bound_ = num_vertices;
}

void VertexDistMap::ResetView() {
  view_masks_.reset();
  view_within_ = nullptr;
  view_bit_ = 0;
  view_source_ = kInvalidVertex;
  view_cap_ = 0;
}

void VertexDistMap::MakeOwning() {
  if (view_bit_ == 0) return;
  // Deepest level first, so each vertex ends at the first level holding it.
  dense_.assign(universe_, kUnreachable);
  for (Hop d = view_cap_; d >= 1; --d) {
    const uint64_t* row = view_within_ + (d - 1) * universe_;
    for (size_t v = 0; v < universe_; ++v) {
      if ((row[v] & view_bit_) != 0) dense_[v] = d;
    }
  }
  dense_[view_source_] = 0;
  ResetView();
}

void VertexDistMap::InsertMin(VertexId v, Hop dist) {
  HCPATH_DCHECK(v != kEmptyKey);
  HCPATH_DCHECK(view_bit_ == 0);
  if (dense_bound_ != 0) {
    HCPATH_DCHECK(v < dense_bound_);
    Hop& d = dense_[v];
    if (d == kUnreachable) {
      ++size_;
      sorted_valid_ = false;
    }
    if (dist < d) d = dist;
    return;
  }
  if (slots_.empty() || (size_ + 1) * 2 > slots_.size()) Grow();
  const size_t mask = mask_;
  size_t i = Probe(v) & mask;
  while (true) {
    Slot& s = slots_[i];
    if (s.key == kEmptyKey) {
      s.key = v;
      s.dist = dist;
      ++size_;
      sorted_valid_ = false;
      if (universe_ != 0 && size_ * 8 >= universe_) ConvertToDense();
      return;
    }
    if (s.key == v) {
      if (dist < s.dist) s.dist = dist;
      return;
    }
    i = (i + 1) & mask;
  }
}

void VertexDistMap::Grow() {
  size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(cap, Slot{});
  RefreshTable();
  size_t old_size = size_;
  size_ = 0;
  for (const Slot& s : old) {
    if (s.key != kEmptyKey) InsertMin(s.key, s.dist);
  }
  HCPATH_CHECK_EQ(size_, old_size);
}

void VertexDistMap::ConvertToDense() {
  HCPATH_DCHECK(universe_ != 0);
  dense_.assign(universe_, kUnreachable);
  for (const Slot& s : slots_) {
    if (s.key != kEmptyKey) {
      HCPATH_DCHECK(s.key < universe_);
      dense_[s.key] = s.dist;
    }
  }
  dense_bound_ = universe_;
  slots_.clear();
  slots_.shrink_to_fit();
  RefreshTable();
}

const std::vector<VertexId>& VertexDistMap::SortedKeys() const {
  if (!sorted_valid_) {
    // Like Reserve: drop a recycled key buffer far larger than this map.
    if (sorted_keys_.capacity() >
        kMaxRetainedSlack * std::max<size_t>(size_, 16)) {
      sorted_keys_ = std::vector<VertexId>();
    }
    sorted_keys_.clear();
    sorted_keys_.reserve(size_);
    if (view_bit_ != 0 && view_cap_ == 0) {
      sorted_keys_.push_back(view_source_);
    } else if (view_bit_ != 0) {
      // Branch-free: every vertex is stored at the cursor, which advances
      // past members only. The extra slot takes the stores after the last.
      sorted_keys_.resize(size_ + 1);
      VertexId* out = sorted_keys_.data();
      const uint64_t* row = view_within_ + (view_cap_ - 1) * universe_;
      const int shift = __builtin_ctzll(view_bit_);
      size_t n = 0;
      for (size_t v = 0; v < dense_bound_; ++v) {
        out[n] = static_cast<VertexId>(v);
        n += (row[v] >> shift) & 1;
      }
      HCPATH_DCHECK(n == size_);
      sorted_keys_.resize(n);
    } else if (dense_bound_ != 0) {
      for (size_t v = 0; v < dense_bound_; ++v) {
        if (dense_[v] != kUnreachable) {
          sorted_keys_.push_back(static_cast<VertexId>(v));
        }
      }
    } else {
      for (const Slot& s : slots_) {
        if (s.key != kEmptyKey) sorted_keys_.push_back(s.key);
      }
      std::sort(sorted_keys_.begin(), sorted_keys_.end());
    }
    sorted_valid_ = true;
  }
  return sorted_keys_;
}

}  // namespace hcpath
