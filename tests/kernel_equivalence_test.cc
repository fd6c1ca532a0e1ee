// Kernel-equivalence suite for the epoch-stamped membership probes
// (docs/PERF.md): the stamped kernels must make byte-identical decisions
// to the naive O(k^2) scans they replaced. Each test keeps a from-scratch
// naive reference implementation *here* (the old linear-scan code) and
// cross-checks it against the library on fuzz-generated inputs:
//
//   * JoinEquivalence — JoinAndEmit vs the old hash-map + nested-scan
//     join: emission stream, Status, and every counter, across dense-
//     overlap, no-overlap, capped, hb==0, and empty-side configurations;
//   * SearchEquivalence — RunHalfSearch vs a naive linear-scan DFS with a
//     naive cached-path splice on random graphs and random shortcut
//     tables: stored paths (order included) and work counters;
//   * StampProbeDifferential — TestBatch's AVX2 and scalar kernels vs
//     per-vertex Contains().

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/join.h"
#include "core/search.h"
#include "graph/generators.h"
#include "util/epoch_stamp.h"
#include "util/rng.h"

namespace hcpath {
namespace {

class RecordingSink : public PathSink {
 public:
  using Event = std::pair<size_t, std::vector<VertexId>>;
  void OnPath(size_t qi, PathView p) override {
    events_.emplace_back(qi, std::vector<VertexId>(p.begin(), p.end()));
  }
  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
};

// ---------------------------------------------------------------------------
// Naive reference: the pre-stamp JoinAndEmit, verbatim — per-query hash
// map keyed by backward tail, O(|pb| x |pf|) nested-scan disjointness.
// ---------------------------------------------------------------------------
StatusOr<uint64_t> NaiveJoinAndEmit(const JoinSpec& spec, size_t query_index,
                                    PathSink* sink, BatchStats* stats) {
  const PathSet& fwd = *spec.forward;
  const PathSet& bwd = *spec.backward;

  std::unordered_map<VertexId, std::vector<uint32_t>> by_midpoint;
  by_midpoint.reserve(bwd.size());
  for (size_t i = 0; i < bwd.size(); ++i) {
    const size_t len = bwd.Length(i);
    if (len < 1 || len > spec.hb) continue;
    by_midpoint[bwd.Tail(i)].push_back(static_cast<uint32_t>(i));
  }

  uint64_t emitted = 0;
  std::vector<VertexId> buf;
  auto emit = [&](PathView p) -> bool {
    if (spec.max_paths != 0 && emitted >= spec.max_paths) return false;
    sink->OnPath(query_index, p);
    ++emitted;
    if (stats != nullptr) ++stats->paths_emitted;
    return true;
  };

  for (size_t i = 0; i < fwd.size(); ++i) {
    const size_t len = fwd.Length(i);
    if (len > spec.hf) continue;
    PathView pf = fwd[i];
    if (pf.back() == spec.t) {
      if (!emit(pf)) {
        return Status::ResourceExhausted("query exceeded max_paths");
      }
    }
    if (len != spec.hf || spec.hb == 0) continue;
    auto it = by_midpoint.find(pf.back());
    if (it == by_midpoint.end()) continue;
    for (uint32_t bi : it->second) {
      PathView pb = bwd[bi];
      if (stats != nullptr) ++stats->join_probes;
      bool disjoint = true;
      for (size_t j = 0; j + 1 < pb.size(); ++j) {
        for (VertexId w : pf) {
          if (w == pb[j]) {
            disjoint = false;
            break;
          }
        }
        if (!disjoint) break;
      }
      if (!disjoint) {
        if (stats != nullptr) ++stats->join_rejected;
        continue;
      }
      buf.assign(pf.begin(), pf.end());
      for (size_t j = pb.size() - 1; j-- > 0;) buf.push_back(pb[j]);
      if (!emit(buf)) {
        return Status::ResourceExhausted("query exceeded max_paths");
      }
    }
  }
  return emitted;
}

/// Random *simple* path of `len` hops starting at `head`, optionally
/// forced to end at `tail` — JoinAndEmit requires vertex-distinct forward
/// paths (the half searches produce nothing else; see JoinSpec). Sampled
/// without replacement; the path comes out shorter than `len` when the
/// universe is exhausted, and small universes force dense vertex overlap
/// *between* paths (the rejection-heavy probe regime).
std::vector<VertexId> RandomSimplePath(Rng& rng, VertexId head, size_t len,
                                       uint32_t universe,
                                       VertexId tail = kInvalidVertex) {
  std::vector<VertexId> p = {head};
  const bool forced = tail != kInvalidVertex && tail != head && len >= 1;
  const size_t hops = forced ? len - 1 : len;
  for (size_t i = 0; i < hops; ++i) {
    if (p.size() + (forced ? 1 : 0) >= universe) break;
    VertexId v;
    do {
      v = static_cast<VertexId>(rng.NextBounded(universe));
    } while (v == tail || std::find(p.begin(), p.end(), v) != p.end());
    p.push_back(v);
  }
  if (forced) p.push_back(tail);
  return p;
}

void RunOneJoinConfig(uint64_t seed) {
  Rng rng(seed);
  // Small universes provoke dense overlap (rejection-heavy joins), large
  // ones keep paths disjoint (acceptance-heavy); both regimes matter.
  const uint32_t universes[] = {6, 12, 40, 10000};
  const uint32_t universe = universes[rng.NextBounded(4)];
  JoinSpec spec;
  spec.s = static_cast<VertexId>(rng.NextBounded(universe));
  spec.t = static_cast<VertexId>(rng.NextBounded(universe));
  spec.hf = static_cast<Hop>(1 + rng.NextBounded(10));
  // hb == 0 included; backward budgets up to 14 give candidates longer
  // than any benchmark query's, so the stamped loop is fuzzed past the
  // budgets the workloads reach.
  spec.hb = static_cast<Hop>(rng.NextBounded(15));
  if (rng.NextBounded(6) == 0) spec.max_paths = 1 + rng.NextBounded(20);

  PathSet fwd, bwd;
  const size_t nf = rng.NextBounded(60);  // empty sides included
  const size_t nb = rng.NextBounded(60);
  // Shared midpoint pool: forces tail collisions so buckets hold several
  // backward paths and probes actually happen.
  std::vector<VertexId> midpoints;
  for (int i = 0; i < 4; ++i) {
    midpoints.push_back(static_cast<VertexId>(rng.NextBounded(universe)));
  }
  for (size_t i = 0; i < nf; ++i) {
    // Lengths straddle hf so the len == hf filter is exercised.
    const size_t len = rng.NextBounded(spec.hf + 3);
    VertexId tail = kInvalidVertex;
    if (rng.NextBounded(2) == 0) {
      tail = midpoints[rng.NextBounded(midpoints.size())];
    }
    if (rng.NextBounded(8) == 0) tail = spec.t;
    fwd.Add(RandomSimplePath(rng, spec.s, len, universe, tail));
  }
  for (size_t i = 0; i < nb; ++i) {
    const size_t len = rng.NextBounded(spec.hb + 3);
    VertexId tail = kInvalidVertex;
    if (rng.NextBounded(3) != 0) {
      tail = midpoints[rng.NextBounded(midpoints.size())];
    }
    bwd.Add(RandomSimplePath(rng, spec.t, len, universe, tail));
  }
  spec.forward = &fwd;
  spec.backward = &bwd;

  SCOPED_TRACE("universe=" + std::to_string(universe) +
               " hf=" + std::to_string(spec.hf) +
               " hb=" + std::to_string(spec.hb) +
               " |fwd|=" + std::to_string(nf) +
               " |bwd|=" + std::to_string(nb) +
               " cap=" + std::to_string(spec.max_paths));

  RecordingSink naive_sink;
  BatchStats naive_stats;
  auto naive = NaiveJoinAndEmit(spec, 7, &naive_sink, &naive_stats);

  // The library flips between nested scans and the stamped probe on
  // forward-path length (both sides of the cutover appear in the fuzzed
  // lengths); either way it must reproduce the reference byte for byte.
  RecordingSink sink;
  BatchStats stats;
  auto got = JoinAndEmit(spec, 7, &sink, &stats);

  EXPECT_EQ(got.status().code(), naive.status().code());
  EXPECT_EQ(got.status().message(), naive.status().message());
  if (naive.ok() && got.ok()) {
    EXPECT_EQ(*got, *naive);
  }
  EXPECT_EQ(sink.events(), naive_sink.events()) << "emission streams diverge";
  EXPECT_EQ(stats.paths_emitted, naive_stats.paths_emitted);
  EXPECT_EQ(stats.join_probes, naive_stats.join_probes);
  EXPECT_EQ(stats.join_rejected, naive_stats.join_rejected);
}

TEST(KernelEquivalence, JoinEquivalence) {
  constexpr uint64_t kBaseSeed = 0xAB12CD34EF56ull;
  for (int c = 0; c < 400; ++c) {
    SCOPED_TRACE("join config #" + std::to_string(c));
    RunOneJoinConfig(kBaseSeed + static_cast<uint64_t>(c));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Naive reference half search: the pre-stamp DFS, linear-scanning the
// current path per expanded edge, and the pre-stamp cached-path splice
// (Algorithm 4 lines 22-23), linear-scanning the path per suffix vertex.
// Shortcut tables, the join filter, and caps are exercised.
// ---------------------------------------------------------------------------
struct NaiveCtx {
  const Graph& g;
  const HalfSearchSpec& spec;
  PathSet* out;
  BatchStats* stats;
  std::vector<VertexId> path;
  Status status = Status::OK();
};

bool NaiveAdmissible(const HalfSearchSpec& spec, VertexId u, int depth) {
  if (spec.slacks.empty()) return true;
  for (const TargetSlack& ts : spec.slacks) {
    Hop d = ts.dist->Lookup(u);
    if (d != kUnreachable && d <= ts.slack - depth) return true;
  }
  return false;
}

bool NaiveOnPath(const std::vector<VertexId>& path, VertexId u) {
  return std::find(path.begin(), path.end(), u) != path.end();
}

bool NaiveStore(NaiveCtx& c, const std::vector<VertexId>& p) {
  if (c.spec.max_paths != 0 && c.out->size() >= c.spec.max_paths) {
    c.status = Status::ResourceExhausted("half search exceeded max_paths = " +
                                         std::to_string(c.spec.max_paths));
    return false;
  }
  c.out->Add(p);
  return true;
}

/// Splices every cached path of `dep` that fits the remaining budget and
/// shares no vertex past its head (== the shortcut vertex) with the path.
bool NaiveSplice(NaiveCtx& c, const SearchDep& dep, Hop remaining) {
  for (size_t i = 0; i < dep.paths->size(); ++i) {
    PathView cp = (*dep.paths)[i];
    if (cp.size() > static_cast<size_t>(remaining) + 1) continue;
    bool disjoint = true;
    for (size_t j = 1; j < cp.size() && disjoint; ++j) {
      disjoint = !NaiveOnPath(c.path, cp[j]);
    }
    if (!disjoint) continue;
    std::vector<VertexId> joined = c.path;
    joined.insert(joined.end(), cp.begin(), cp.end());
    if (!NaiveStore(c, joined)) return false;
    if (c.stats != nullptr) ++c.stats->shortcut_splices;
  }
  return true;
}

bool NaiveDfs(NaiveCtx& c) {
  const size_t len = c.path.size() - 1;
  bool store = true;
  if (c.spec.filter_for_join) {
    store = len == c.spec.budget || c.path.back() == c.spec.store_target;
  }
  if (store && !NaiveStore(c, c.path)) return false;
  if (len >= c.spec.budget) return true;
  const int depth = static_cast<int>(len) + 1;
  for (VertexId u : c.g.Neighbors(c.path.back(), c.spec.dir)) {
    if (c.stats != nullptr) ++c.stats->edges_expanded;
    if (!NaiveAdmissible(c.spec, u, depth)) {
      if (c.stats != nullptr) ++c.stats->edges_pruned;
      continue;
    }
    if (NaiveOnPath(c.path, u)) continue;
    const Hop remaining = static_cast<Hop>(c.spec.budget - depth);
    const SearchDep* dep = nullptr;
    for (const SearchDep& d : c.spec.deps) {
      if (d.vertex == u) dep = &d;
    }
    if (dep != nullptr && dep->budget >= remaining) {
      if (!NaiveSplice(c, *dep, remaining)) return false;
      continue;
    }
    c.path.push_back(u);
    const bool keep_going = NaiveDfs(c);
    c.path.pop_back();
    if (!keep_going) return false;
  }
  return true;
}

void RunOneSearchConfig(uint64_t seed) {
  Rng rng(seed);
  // Complete graphs of 17+ vertices have adjacency blocks of 16+, which
  // take the DFS's batched TestBatch probe; their budget stays <= 3 to
  // keep the path count small. Every other graph probes per neighbor.
  const uint64_t shape = rng.NextBounded(4);
  Graph g = [&] {
    switch (shape) {
      case 0:
        return *GenerateErdosRenyi(
            static_cast<VertexId>(8 + rng.NextBounded(30)),
            20 + rng.NextBounded(80), rng);
      case 1:
        return *GenerateComplete(
            static_cast<VertexId>(5 + rng.NextBounded(4)));
      case 2:
        return *GenerateComplete(
            static_cast<VertexId>(17 + rng.NextBounded(4)));
      default:
        return *GenerateSmallWorld(
            static_cast<VertexId>(10 + rng.NextBounded(30)), 3, 0.2, rng);
    }
  }();

  HalfSearchSpec spec;
  spec.start = static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
  spec.budget = static_cast<Hop>(1 + rng.NextBounded(shape == 2 ? 3 : 6));
  spec.dir = rng.NextBounded(2) == 0 ? Direction::kForward
                                     : Direction::kBackward;
  if (rng.NextBounded(5) == 0) spec.max_paths = 1 + rng.NextBounded(40);
  if (rng.NextBounded(3) == 0) {
    spec.filter_for_join = true;
    spec.store_target =
        static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
  }

  // Shortcut table for half the configs: a few distinct vertices (sorted,
  // as RunHalfSearch requires), each with a budget in [0, budget] and
  // cached simple paths headed by that vertex. Lengths straddle the budget
  // so the size filter rejects some; a small graph makes suffixes overlap
  // the DFS path often, so both disjointness verdicts occur.
  std::vector<VertexId> dep_vertices;
  if (rng.NextBounded(2) == 0) {
    const size_t num_deps = 1 + rng.NextBounded(4);
    for (size_t i = 0; i < num_deps; ++i) {
      dep_vertices.push_back(
          static_cast<VertexId>(rng.NextBounded(g.NumVertices())));
    }
    std::sort(dep_vertices.begin(), dep_vertices.end());
    dep_vertices.erase(std::unique(dep_vertices.begin(), dep_vertices.end()),
                       dep_vertices.end());
  }
  std::vector<PathSet> cached(dep_vertices.size());
  std::vector<SearchDep> deps;
  for (size_t i = 0; i < dep_vertices.size(); ++i) {
    const Hop dep_budget =
        static_cast<Hop>(rng.NextBounded(spec.budget + 1));
    const size_t num_paths = rng.NextBounded(12);
    for (size_t p = 0; p < num_paths; ++p) {
      cached[i].Add(RandomSimplePath(rng, dep_vertices[i],
                                     rng.NextBounded(dep_budget + 2),
                                     g.NumVertices()));
    }
    deps.push_back({dep_vertices[i], dep_budget, &cached[i]});
  }
  spec.deps = deps;

  SCOPED_TRACE("n=" + std::to_string(g.NumVertices()) +
               " start=" + std::to_string(spec.start) +
               " budget=" + std::to_string(spec.budget) +
               " cap=" + std::to_string(spec.max_paths) +
               " deps=" + std::to_string(deps.size()));

  PathSet naive_out;
  BatchStats naive_stats;
  NaiveCtx naive{g, spec, &naive_out, &naive_stats, {}, Status::OK()};
  naive.path.push_back(spec.start);
  NaiveDfs(naive);

  PathSet out;
  BatchStats stats;
  Status st = RunHalfSearch(g, spec, &out, &stats);

  EXPECT_EQ(st.code(), naive.status.code());
  EXPECT_EQ(st.message(), naive.status.message());
  ASSERT_EQ(out.size(), naive_out.size());
  for (size_t i = 0; i < naive_out.size(); ++i) {
    ASSERT_TRUE(std::ranges::equal(out[i], naive_out[i]))
        << "path " << i << " diverges (order matters)";
  }
  EXPECT_EQ(stats.edges_expanded, naive_stats.edges_expanded);
  EXPECT_EQ(stats.edges_pruned, naive_stats.edges_pruned);
  EXPECT_EQ(stats.shortcut_splices, naive_stats.shortcut_splices);
}

TEST(KernelEquivalence, SearchEquivalence) {
  constexpr uint64_t kBaseSeed = 0x5EA2C4D8F00Dull;
  for (int c = 0; c < 200; ++c) {
    SCOPED_TRACE("search config #" + std::to_string(c));
    RunOneSearchConfig(kBaseSeed + static_cast<uint64_t>(c));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Stamp-probe differential: TestBatch against a per-vertex Contains()
// loop on the same table — the ground truth both the AVX2 gather and the
// unrolled scalar kernel must reproduce. Covers span lengths 0..40
// (straddling the 8-lane SIMD entry and the DFS's block cutover),
// unaligned sub-spans, vertex ids past the table's capacity
// (masked gather lanes), Unmark'ed slots, and an epoch wraparound
// mid-sequence. The whole sweep runs twice, once per dispatch target.
// ---------------------------------------------------------------------------
void CheckProbesMatchContains(const EpochStampTable& table,
                              std::span<const uint32_t> vs) {
  std::vector<uint8_t> want(vs.size(), 0);
  for (size_t i = 0; i < vs.size(); ++i) {
    want[i] = table.Contains(vs[i]) ? 1 : 0;
  }

  std::vector<uint8_t> hits(vs.size() + 1, 0xCD);
  table.TestBatch(vs, hits.data());
  for (size_t i = 0; i < vs.size(); ++i) {
    ASSERT_EQ(hits[i], want[i]) << "lane " << i << " of " << vs.size();
  }
  EXPECT_EQ(hits[vs.size()], 0xCD) << "TestBatch wrote past the span";
}

void RunStampProbeSweep() {
  // 97 is not a multiple of the lane width, so every length hits a scalar
  // tail; the table only grows to the highest Mark'ed id, so pool entries
  // above it exercise the masked out-of-bounds gather lanes.
  constexpr uint32_t kUniverse = 97;
  Rng rng(0x51A3B007C4F5ull);
  EpochStampTable table;
  std::vector<uint32_t> marked;
  for (uint32_t v = 0; v < kUniverse; ++v) {
    if (rng.NextBounded(3) == 0) {
      table.Mark(v);
      marked.push_back(v);
    }
  }
  std::vector<uint32_t> pool;
  for (int i = 0; i < 64; ++i) {
    pool.push_back(rng.NextBounded(kUniverse));
  }
  const std::span<const uint32_t> all(pool);
  for (size_t len = 0; len <= 40; ++len) {
    for (size_t off = 0; off < 4; ++off) {
      SCOPED_TRACE("len=" + std::to_string(len) +
                   " off=" + std::to_string(off));
      CheckProbesMatchContains(table, all.subspan(off, len));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Unmark'ed slots hold stamp 0, which no live epoch equals.
  for (size_t i = 0; i < marked.size(); i += 2) table.Unmark(marked[i]);
  CheckProbesMatchContains(table, all);

  // Epoch wraparound mid-sequence: marks stamped UINT32_MAX must read as
  // present, then Clear() wraps to epoch 1 — stale UINT32_MAX stamps must
  // not resurface as hits.
  table.TestOnlySetEpoch(UINT32_MAX - 1);
  table.Clear();  // epoch UINT32_MAX
  for (uint32_t v = 0; v < kUniverse; v += 2) table.Mark(v);
  CheckProbesMatchContains(table, all);
  table.Clear();  // wraps: storage re-zeroed, epoch restarts at 1
  EXPECT_EQ(table.epoch(), 1u);
  for (uint32_t v : pool) EXPECT_FALSE(table.Contains(v));
  CheckProbesMatchContains(table, all);
  for (uint32_t v = 1; v < kUniverse; v += 3) table.Mark(v);
  CheckProbesMatchContains(table, all);
}

TEST(KernelEquivalence, StampProbeDifferential) {
  struct DispatchGuard {  // restore default dispatch even on early failure
    ~DispatchGuard() { EpochStampTable::TestOnlyForceScalar(-1); }
  } guard;
  // Forced scalar first (the oracle), then whatever the host dispatches
  // to — AVX2 where supported. Identical seed, identical expectations:
  // any SIMD-vs-scalar divergence fails one leg and not the other.
  EpochStampTable::TestOnlyForceScalar(1);
  {
    SCOPED_TRACE("dispatch=forced-scalar");
    RunStampProbeSweep();
  }
  EpochStampTable::TestOnlyForceScalar(0);
  {
    SCOPED_TRACE(EpochStampTable::UsingSimd() ? "dispatch=avx2"
                                              : "dispatch=scalar-host");
    RunStampProbeSweep();
  }
}

}  // namespace
}  // namespace hcpath
