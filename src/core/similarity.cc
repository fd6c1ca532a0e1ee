#include "core/similarity.h"

#include <algorithm>
#include <bit>

#include "util/bitset.h"
#include "util/hash.h"

namespace hcpath {

namespace {

constexpr size_t kSketchSize = 256;

double HarmonicMu(double fwd, double bwd) {
  if (fwd <= 0.0 || bwd <= 0.0) return 0.0;
  return 2.0 * fwd * bwd / (fwd + bwd);
}

/// Keeps the kSketchSize smallest of `hashes`, sorted.
void KeepSmallest(std::vector<uint64_t>* hashes) {
  if (hashes->size() > kSketchSize) {
    std::nth_element(hashes->begin(), hashes->begin() + kSketchSize - 1,
                     hashes->end());
    hashes->resize(kSketchSize);
  }
  std::sort(hashes->begin(), hashes->end());
}

/// Bottom-k sketch of a vertex set: the k smallest Mix64 hashes, sorted.
/// Built straight from the distance map to avoid materializing and sorting
/// the full key set; `hashes` is a recycled output vector.
void BuildSketch(const VertexDistMap& set, std::vector<uint64_t>* hashes) {
  hashes->clear();
  hashes->reserve(set.size());
  set.ForEach([&](VertexId v, Hop) { hashes->push_back(Mix64(v)); });
  KeepSmallest(hashes);
}

/// Buckets the vertices [0, nv) by the top ceil(log2 nv) bits of their
/// sketch hash Mix64(v) (counting sort). `order` lists the vertices bucket
/// by bucket in ascending hash-prefix order; `bucket_end[b]` is the end of
/// bucket b in `order`. Depends on nv alone.
void BuildHashOrder(size_t nv, std::vector<VertexId>* order,
                    std::vector<uint32_t>* bucket_end) {
  const int bits = std::bit_width(std::max<size_t>(nv, 2) - 1);
  const int shift = 64 - bits;
  auto bucket = [&](VertexId v) {
    return static_cast<size_t>(Mix64(v) >> shift);
  };
  bucket_end->assign(size_t{1} << bits, 0);
  for (VertexId v = 0; v < nv; ++v) ++(*bucket_end)[bucket(v)];
  uint32_t begin = 0;
  for (uint32_t& b : *bucket_end) {
    const uint32_t count = b;
    b = begin;
    begin += count;
  }
  order->resize(nv);
  // Each bucket's cursor advances from its begin to its end.
  for (VertexId v = 0; v < nv; ++v) (*order)[(*bucket_end)[bucket(v)]++] = v;
}

/// The BuildSketch result for a map, found by probing vertices in hash
/// order (BuildHashOrder) instead of hashing every entry. Mix64 is a
/// bijection, so distinct vertices have distinct hashes and the sketch is
/// the set's first kSketchSize members in that order. Every member of a
/// bucket hashes below every member of later buckets, so the walk can stop
/// at the first bucket boundary with kSketchSize members collected. For a
/// set S the walk probes ~kSketchSize·|V|/|S| vertices: at most ~2048 for
/// a dense map (|S| >= |V|/8).
void BuildSketchInHashOrder(const VertexDistMap& set,
                            const std::vector<VertexId>& order,
                            const std::vector<uint32_t>& bucket_end,
                            std::vector<uint64_t>* hashes) {
  hashes->clear();
  size_t pos = 0;
  for (uint32_t end : bucket_end) {
    for (; pos < end; ++pos) {
      const VertexId v = order[pos];
      if (set.Contains(v)) hashes->push_back(Mix64(v));
    }
    if (hashes->size() >= kSketchSize) break;
  }
  KeepSmallest(hashes);
}

/// Bit-sliced counters: bit j of plane p is bit p of set j's count, so
/// counts up to 2^kPlanes - 1 = 511 fit. Every counted set adds at most
/// kSketchSize = 256 masks.
constexpr size_t kPlanes = 9;

/// The key -> membership-mask table of one direction, over its scratch
/// vectors.
class MembershipTable {
 public:
  MembershipTable(SimilarityScratch::Direction& d, size_t words)
      : d_(d), words_(words) {}

  /// Empties the table, sized for up to `max_keys` distinct keys.
  void Reset(size_t max_keys) {
    const size_t capacity = std::bit_ceil(std::max<size_t>(2 * max_keys, 16));
    shift_ = 64 - std::countr_zero(capacity);
    d_.slots.assign(capacity, 0);
    d_.keys.clear();
    d_.masks.clear();
  }

  size_t size() const { return d_.keys.size(); }
  uint64_t key(uint32_t e) const { return d_.keys[e]; }
  uint64_t* mask(uint32_t e) { return &d_.masks[e * words_]; }

  /// The entry of `key`, added with an all-zero mask when new.
  uint32_t Insert(uint64_t key) {
    size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    const size_t m = d_.slots.size() - 1;
    for (;; i = (i + 1) & m) {
      const uint32_t slot = d_.slots[i];
      if (slot == 0) break;
      if (d_.keys[slot - 1] == key) return slot - 1;
    }
    const uint32_t e = static_cast<uint32_t>(d_.keys.size());
    d_.slots[i] = e + 1;
    d_.keys.push_back(key);
    d_.masks.resize(d_.masks.size() + words_, 0);
    return e;
  }

 private:
  SimilarityScratch::Direction& d_;
  size_t words_;
  int shift_ = 64;
};

void SetBit(uint64_t* mask, size_t j) {
  mask[j >> 6] |= uint64_t{1} << (j & 63);
}

/// Sums the masks of set i's entries into d.planes: a ripple-carry add per
/// word, as MultiSourceBfs counts its discoveries.
void CountMembers(SimilarityScratch::Direction& d, MembershipTable& table,
                  size_t words, size_t i) {
  d.planes.assign(kPlanes * words, 0);
  for (size_t m = i == 0 ? 0 : d.members_end[i - 1]; m < d.members_end[i];
       ++m) {
    const uint64_t* mask = table.mask(d.members[m]);
    for (size_t w = 0; w < words; ++w) {
      uint64_t* p = &d.planes[w];
      for (uint64_t carry = mask[w]; carry != 0; p += words) {
        const uint64_t both = *p & carry;
        *p ^= carry;
        carry = both;
      }
    }
  }
}

/// Set j's count in the planes CountMembers filled.
size_t ReadCount(const SimilarityScratch::Direction& d, size_t words,
                 size_t j) {
  size_t count = 0;
  for (size_t p = 0; p < kPlanes; ++p) {
    count |= ((d.planes[p * words + (j >> 6)] >> (j & 63)) & 1) << p;
  }
  return count;
}

/// Numbers one direction's distinct Γ sets ("rows"): a query's set is
/// fixed by its endpoint in that direction and its cap k. Fills
/// d.row_of[i], query i's row, and d.rows[r], the first query of row r.
void AssignRows(const std::vector<PathQuery>& queries, bool forward,
                SimilarityScratch::Direction& d) {
  const size_t n = queries.size();
  auto key = [&](size_t i) {
    const PathQuery& q = queries[i];
    return (static_cast<uint64_t>(forward ? q.s : q.t) << 32) |
           static_cast<uint32_t>(q.k);
  };
  d.order.resize(n);
  for (size_t i = 0; i < n; ++i) d.order[i] = static_cast<uint32_t>(i);
  std::sort(d.order.begin(), d.order.end(), [&](uint32_t a, uint32_t b) {
    const uint64_t ka = key(a), kb = key(b);
    return ka != kb ? ka < kb : a < b;
  });
  d.row_of.resize(n);
  d.rows.clear();
  for (size_t r = 0; r < n; ++r) {
    if (r == 0 || key(d.order[r]) != key(d.order[r - 1])) {
      d.rows.push_back(d.order[r]);
    }
    d.row_of[d.order[r]] = static_cast<uint32_t>(d.rows.size() - 1);
  }
}

/// Fills d.overlap with the overlap coefficient of every pair of one
/// direction's distinct Γ sets (sources on G when `forward`, else targets
/// on Gr), given the sets' representative queries in d.rows and their
/// sizes and sketches in `d`.
void ScoreDirection(const DistanceIndex& index, bool forward,
                    SimilarityScratch::Direction& d) {
  const size_t n = d.rows.size();
  auto map = [&](size_t i) -> const VertexDistMap& {
    return forward ? index.FromSourceMap(d.rows[i])
                   : index.ToTargetMap(d.rows[i]);
  };
  auto small = [&](size_t i) {
    return d.size[i] != 0 && d.size[i] <= kSketchSize;
  };
  auto large = [&](size_t i) { return d.size[i] > kSketchSize; };
  const size_t words = (n + 63) / 64;
  MembershipTable table(d, words);
  d.overlap.assign(n * n, 0.0);
  d.members_end.resize(n);

  // Pairs with a small side: exact |Γi ∩ Γj| over the union of the small
  // sets' keys, which each small set marks while walking its keys and
  // each large set marks by probing.
  size_t small_keys = 0;
  for (size_t i = 0; i < n; ++i) small_keys += small(i) ? d.size[i] : 0;
  table.Reset(small_keys);
  d.members.clear();
  for (size_t i = 0; i < n; ++i) {
    if (small(i)) {
      map(i).ForEach([&](VertexId v, Hop) {
        const uint32_t e = table.Insert(v);
        SetBit(table.mask(e), i);
        d.members.push_back(e);
      });
    }
    d.members_end[i] = static_cast<uint32_t>(d.members.size());
  }
  for (size_t j = 0; j < n; ++j) {
    if (!large(j)) continue;
    const VertexDistMap& m = map(j);
    for (uint32_t e = 0; e < table.size(); ++e) {
      if (m.Contains(static_cast<VertexId>(table.key(e)))) {
        SetBit(table.mask(e), j);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!small(i)) continue;
    CountMembers(d, table, words, i);
    for (size_t j = 0; j < n; ++j) {
      // A pair of small sets is scored by its smaller index.
      if (j == i || d.size[j] == 0 || (small(j) && j < i)) continue;
      d.overlap[std::min(i, j) * n + std::max(i, j)] =
          static_cast<double>(ReadCount(d, words, j)) /
          static_cast<double>(std::min(d.size[i], d.size[j]));
    }
  }

  // Pairs of large sets: shared sketch hashes. Both sketches are full, so
  // τ = min of their last hashes, and every hash they share is <= τ.
  size_t sketch_keys = 0;
  for (size_t i = 0; i < n; ++i) sketch_keys += large(i) ? kSketchSize : 0;
  table.Reset(sketch_keys);
  d.members.clear();
  for (size_t i = 0; i < n; ++i) {
    if (large(i)) {
      for (uint64_t h : d.sketch[i]) {
        const uint32_t e = table.Insert(h);
        SetBit(table.mask(e), i);
        d.members.push_back(e);
      }
    }
    d.members_end[i] = static_cast<uint32_t>(d.members.size());
  }
  for (size_t i = 0; i < n; ++i) {
    if (!large(i)) continue;
    CountMembers(d, table, words, i);
    const std::vector<uint64_t>& si = d.sketch[i];
    for (size_t j = i + 1; j < n; ++j) {
      if (!large(j)) continue;
      const std::vector<uint64_t>& sj = d.sketch[j];
      const uint64_t tau = std::min(si.back(), sj.back());
      const size_t a_in = static_cast<size_t>(
          std::upper_bound(si.begin(), si.end(), tau) - si.begin());
      const size_t b_in = static_cast<size_t>(
          std::upper_bound(sj.begin(), sj.end(), tau) - sj.begin());
      const size_t denom = std::min(a_in, b_in);
      if (denom == 0) continue;
      d.overlap[i * n + j] =
          std::clamp(static_cast<double>(ReadCount(d, words, j)) /
                         static_cast<double>(denom),
                     0.0, 1.0);
    }
  }
}

}  // namespace

double SimilarityMatrix::Average() const {
  if (n_ < 2) return 0.0;
  double acc = 0;
  for (size_t i = 0; i < n_; ++i) {
    for (size_t j = i + 1; j < n_; ++j) acc += Get(i, j);
  }
  return acc / (static_cast<double>(n_) * (n_ - 1) / 2.0);
}

double OverlapCoefficient(const std::vector<VertexId>& a,
                          const std::vector<VertexId>& b) {
  if (a.empty() || b.empty()) return 0.0;
  size_t i = 0, j = 0, inter = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(inter) /
         static_cast<double>(std::min(a.size(), b.size()));
}

SimilarityMatrix ComputeSimilarityMatrix(
    const Graph& g, const std::vector<PathQuery>& queries,
    const DistanceIndex& index, SimilarityMode mode, ThreadPool* pool,
    SimilarityScratch* scratch) {
  const size_t n = queries.size();
  SimilarityMatrix sim(n);
  if (n < 2) return sim;

  // Working memory: the caller's recycled scratch, or a call-local one.
  SimilarityScratch local_scratch;
  SimilarityScratch& sc = scratch != nullptr ? *scratch : local_scratch;

  bool use_sketch = mode == SimilarityMode::kSketch;
  if (mode == SimilarityMode::kAuto) {
    // Exact bitset intersections cost |Q|^2 * |V|/64 word operations plus
    // the bitset fills; switch to sketches once that exceeds a small
    // fixed budget.
    const double exact_ops = static_cast<double>(n) * n *
                             (static_cast<double>(g.NumVertices()) / 64.0);
    use_sketch = exact_ops > 10e6;
  }

  if (use_sketch) {
    // Queries with the same (s, k) share one forward Γ set, and with the
    // same (t, k) one backward set: each distinct set is sketched and
    // scored once, through one representative query (row).
    AssignRows(queries, true, sc.fwd);
    AssignRows(queries, false, sc.bwd);
    const size_t fwd_rows = sc.fwd.rows.size();
    const size_t num_rows = fwd_rows + sc.bwd.rows.size();
    auto row_map = [&](size_t r) -> const VertexDistMap& {
      return r < fwd_rows ? index.FromSourceMap(sc.fwd.rows[r])
                          : index.ToTargetMap(sc.bwd.rows[r - fwd_rows]);
    };
    // A map of at most kSketchSize entries gets no sketch: every pair
    // containing it is counted exactly. Dense maps are sketched by a walk
    // in hash order, built once per vertex count; hash-backed maps hash
    // their entries.
    bool any_dense = false;
    for (size_t r = 0; r < num_rows && !any_dense; ++r) {
      const VertexDistMap& m = row_map(r);
      any_dense = m.size() > kSketchSize && m.IsDense();
    }
    if (any_dense && sc.hash_order.size() != g.NumVertices()) {
      BuildHashOrder(g.NumVertices(), &sc.hash_order, &sc.hash_bucket_end);
    }
    for (SimilarityScratch::Direction* d : {&sc.fwd, &sc.bwd}) {
      d->sketch.resize(d->rows.size());
      d->size.assign(d->rows.size(), 0);
    }
    auto sketch_row = [&](size_t r) {
      const VertexDistMap& m = row_map(r);
      SimilarityScratch::Direction& d = r < fwd_rows ? sc.fwd : sc.bwd;
      const size_t dr = r < fwd_rows ? r : r - fwd_rows;
      std::vector<uint64_t>* out = &d.sketch[dr];
      if (m.size() <= kSketchSize) {
        out->clear();
      } else if (m.IsDense()) {
        BuildSketchInHashOrder(m, sc.hash_order, sc.hash_bucket_end, out);
      } else {
        BuildSketch(m, out);
      }
      d.size[dr] = m.size();
    };
    // The directions share no memory: one task each.
    auto score = [&](size_t dir) {
      ScoreDirection(index, dir == 0, dir == 0 ? sc.fwd : sc.bwd);
    };
    ParallelFor(pool, num_rows, sketch_row);
    ParallelFor(pool, 2, score);
    // Expand to every query pair. Two queries on one row share the set,
    // so their overlap is |S| / |S| = 1 exactly, as scoring the pair would
    // give (0 for an empty set).
    auto overlap = [](const SimilarityScratch::Direction& d, size_t i,
                      size_t j) {
      const size_t a = d.row_of[i], b = d.row_of[j];
      if (a == b) return d.size[a] != 0 ? 1.0 : 0.0;
      return d.overlap[std::min(a, b) * d.rows.size() + std::max(a, b)];
    };
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        sim.Set(i, j,
                HarmonicMu(overlap(sc.fwd, i, j), overlap(sc.bwd, i, j)));
      }
    }
    return sim;
  }

  // Exact mode: per-endpoint bitsets, word-parallel intersections.
  const size_t nv = g.NumVertices();
  std::vector<DynamicBitset>& fwd_bits = sc.fwd.bits;
  std::vector<DynamicBitset>& bwd_bits = sc.bwd.bits;
  std::vector<size_t>& fwd_size = sc.fwd.size;
  std::vector<size_t>& bwd_size = sc.bwd.size;
  fwd_bits.resize(n);
  bwd_bits.resize(n);
  fwd_size.assign(n, 0);
  bwd_size.assign(n, 0);
  // Safe row-parallel: task i only touches query i's bitsets and lazy key
  // caches. Resize re-zeroes recycled bitsets while keeping their word
  // storage, so bits a previous batch left behind cannot leak in.
  ParallelFor(pool, n, [&](size_t i) {
    fwd_bits[i].Resize(nv);
    for (VertexId v : index.Gamma(i)) fwd_bits[i].Set(v);
    fwd_size[i] = index.Gamma(i).size();
    bwd_bits[i].Resize(nv);
    for (VertexId v : index.GammaR(i)) bwd_bits[i].Set(v);
    bwd_size[i] = index.GammaR(i).size();
  });
  auto intersect_count = [](const DynamicBitset& a, const DynamicBitset& b) {
    const uint64_t* wa = a.words();
    const uint64_t* wb = b.words();
    size_t c = 0;
    for (size_t w = 0; w < a.num_words(); ++w) {
      c += static_cast<size_t>(__builtin_popcountll(wa[w] & wb[w]));
    }
    return c;
  };
  // Pair (i, j > i) is scored by row task i alone, and Set writes only that
  // pair's two mirror cells, so rows never touch the same memory.
  ParallelFor(pool, n, [&](size_t i) {
    for (size_t j = i + 1; j < n; ++j) {
      double f = 0, b = 0;
      if (fwd_size[i] != 0 && fwd_size[j] != 0) {
        f = static_cast<double>(intersect_count(fwd_bits[i], fwd_bits[j])) /
            static_cast<double>(std::min(fwd_size[i], fwd_size[j]));
      }
      if (bwd_size[i] != 0 && bwd_size[j] != 0) {
        b = static_cast<double>(intersect_count(bwd_bits[i], bwd_bits[j])) /
            static_cast<double>(std::min(bwd_size[i], bwd_size[j]));
      }
      sim.Set(i, j, HarmonicMu(f, b));
    }
  });
  return sim;
}

}  // namespace hcpath
