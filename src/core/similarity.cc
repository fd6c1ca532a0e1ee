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
/// the full key set; `hashes` is a recycled output vector. Hashes key on
/// *original* vertex ids so the sketch — and therefore clustering — is
/// invariant under a GraphRemap renumbering.
void BuildSketch(const Graph& g, const VertexDistMap& set,
                 std::vector<uint64_t>* hashes) {
  hashes->clear();
  hashes->reserve(set.size());
  set.ForEach(
      [&](VertexId v, Hop) { hashes->push_back(Mix64(g.OriginalId(v))); });
  KeepSmallest(hashes);
}

/// Buckets every vertex by the top ceil(log2 |V|) bits of its sketch hash
/// Mix64(OriginalId(v)) (counting sort). `order` lists the vertices bucket
/// by bucket in ascending hash-prefix order; `bucket_end[b]` is the end of
/// bucket b in `order`.
void BuildHashOrder(const Graph& g, std::vector<VertexId>* order,
                    std::vector<uint32_t>* bucket_end) {
  const size_t nv = g.NumVertices();
  const int bits = std::bit_width(std::max<size_t>(nv, 2) - 1);
  const int shift = 64 - bits;
  auto bucket = [&](VertexId v) {
    return static_cast<size_t>(Mix64(g.OriginalId(v)) >> shift);
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
void BuildSketchInHashOrder(const Graph& g, const VertexDistMap& set,
                            const std::vector<VertexId>& order,
                            const std::vector<uint32_t>& bucket_end,
                            std::vector<uint64_t>* hashes) {
  hashes->clear();
  size_t pos = 0;
  for (uint32_t end : bucket_end) {
    for (; pos < end; ++pos) {
      const VertexId v = order[pos];
      if (set.Contains(v)) hashes->push_back(Mix64(g.OriginalId(v)));
    }
    if (hashes->size() >= kSketchSize) break;
  }
  KeepSmallest(hashes);
}

/// Estimates |A ∩ B| / min(|A|, |B|) from two bottom-k sketches and the
/// true set sizes. Within the hash window below both sketches' thresholds
/// each sketch is a *complete* uniform sample of its set, so
///   shared_in_window / min(a_in_window, b_in_window)
/// is a consistent estimator of the overlap coefficient.
double SketchOverlap(const std::vector<uint64_t>& sa, size_t size_a,
                     const std::vector<uint64_t>& sb, size_t size_b) {
  if (size_a == 0 || size_b == 0 || sa.empty() || sb.empty()) return 0.0;
  // A sketch is truncated only when its set exceeds kSketchSize; its last
  // hash is then the completeness threshold.
  const uint64_t cap_a = size_a > kSketchSize ? sa.back() : UINT64_MAX;
  const uint64_t cap_b = size_b > kSketchSize ? sb.back() : UINT64_MAX;
  const uint64_t tau = std::min(cap_a, cap_b);
  size_t i = 0, j = 0, shared = 0, a_in = 0, b_in = 0;
  while (i < sa.size() && sa[i] <= tau) ++i;
  a_in = i;
  while (j < sb.size() && sb[j] <= tau) ++j;
  b_in = j;
  i = 0;
  j = 0;
  while (i < a_in && j < b_in) {
    if (sa[i] == sb[j]) {
      ++shared;
      ++i;
      ++j;
    } else if (sa[i] < sb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t denom = std::min(a_in, b_in);
  if (denom == 0) return 0.0;
  return std::clamp(
      static_cast<double>(shared) / static_cast<double>(denom), 0.0, 1.0);
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

  // Row-parallel driver: pair (i, j > i) is computed by row task i alone,
  // and Set writes only that pair's two mirror cells, so rows never touch
  // the same memory. Sequential when no pool is given.
  auto for_each_row = [&](const std::function<void(size_t)>& row_fn) {
    if (pool != nullptr) {
      pool->ParallelFor(n, row_fn);
    } else {
      for (size_t i = 0; i < n; ++i) row_fn(i);
    }
  };

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
    std::vector<std::vector<uint64_t>>& fwd_sketch = sc.fwd_sketch;
    std::vector<std::vector<uint64_t>>& bwd_sketch = sc.bwd_sketch;
    std::vector<size_t>& fwd_size = sc.fwd_size;
    std::vector<size_t>& bwd_size = sc.bwd_size;
    fwd_sketch.resize(n);
    bwd_sketch.resize(n);
    fwd_size.assign(n, 0);
    bwd_size.assign(n, 0);
    // A map of at most kSketchSize entries gets no sketch: every pair
    // containing it is scored exactly below. Dense maps are sketched by a
    // walk in hash order, which needs the vertex bucketing built once
    // here; hash-backed maps hash their entries.
    bool any_dense = false;
    for (size_t i = 0; i < n && !any_dense; ++i) {
      for (const VertexDistMap* m :
           {&index.FromSourceMap(i), &index.ToTargetMap(i)}) {
        any_dense |= m->size() > kSketchSize && m->IsDense();
      }
    }
    if (any_dense) BuildHashOrder(g, &sc.hash_order, &sc.hash_bucket_end);
    auto sketch = [&](const VertexDistMap& m, std::vector<uint64_t>* out) {
      if (m.size() <= kSketchSize) {
        out->clear();
      } else if (m.IsDense()) {
        BuildSketchInHashOrder(g, m, sc.hash_order, sc.hash_bucket_end, out);
      } else {
        BuildSketch(g, m, out);
      }
    };
    for_each_row([&](size_t i) {
      sketch(index.FromSourceMap(i), &fwd_sketch[i]);
      sketch(index.ToTargetMap(i), &bwd_sketch[i]);
      fwd_size[i] = index.FromSourceMap(i).size();
      bwd_size[i] = index.ToTargetMap(i).size();
    });
    auto overlap = [&](size_t i, size_t j, bool fwd) {
      const size_t si = fwd ? fwd_size[i] : bwd_size[i];
      const size_t sj = fwd ? fwd_size[j] : bwd_size[j];
      if (std::min(si, sj) <= kSketchSize) {
        // One side fits in a sketch entirely: count the intersection
        // exactly by probing each of its entries in the other's map (tiny
        // sets vs huge reaches are common for low-in-degree targets).
        const VertexDistMap& mi =
            fwd ? index.FromSourceMap(i) : index.ToTargetMap(i);
        const VertexDistMap& mj =
            fwd ? index.FromSourceMap(j) : index.ToTargetMap(j);
        const VertexDistMap& small = si <= sj ? mi : mj;
        const VertexDistMap& big = si <= sj ? mj : mi;
        if (small.empty()) return 0.0;
        size_t inter = 0;
        small.ForEach([&](VertexId v, Hop) { inter += big.Contains(v); });
        return static_cast<double>(inter) / static_cast<double>(small.size());
      }
      return fwd ? SketchOverlap(fwd_sketch[i], si, fwd_sketch[j], sj)
                 : SketchOverlap(bwd_sketch[i], si, bwd_sketch[j], sj);
    };
    for_each_row([&](size_t i) {
      for (size_t j = i + 1; j < n; ++j) {
        sim.Set(i, j, HarmonicMu(overlap(i, j, true), overlap(i, j, false)));
      }
    });
    return sim;
  }

  // Exact mode: per-endpoint bitsets, word-parallel intersections.
  const size_t nv = g.NumVertices();
  std::vector<DynamicBitset>& fwd_bits = sc.fwd_bits;
  std::vector<DynamicBitset>& bwd_bits = sc.bwd_bits;
  std::vector<size_t>& fwd_size = sc.fwd_size;
  std::vector<size_t>& bwd_size = sc.bwd_size;
  fwd_bits.resize(n);
  bwd_bits.resize(n);
  fwd_size.assign(n, 0);
  bwd_size.assign(n, 0);
  // Safe row-parallel: task i only touches query i's bitsets and lazy key
  // caches. Resize re-zeroes recycled bitsets while keeping their word
  // storage, so bits a previous batch left behind cannot leak in.
  for_each_row([&](size_t i) {
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
  for_each_row([&](size_t i) {
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
