#include "core/join.h"

#include <algorithm>
#include <type_traits>

namespace hcpath {

namespace {

/// Counting-sorts the usable backward paths (length in [1, hb]) into a CSR
/// bucket index keyed by their stored tail (== forward-orientation head).
/// Slots are assigned in first-appearance order and each bucket keeps its
/// paths in ascending index order, so probing yields candidates in exactly
/// the order the old per-query hash map produced them. Returns the number
/// of distinct tails; every array lives in the recycled scratch.
uint32_t BuildMidpointIndex(const PathSet& bwd, Hop hb, JoinScratch& s) {
  s.tails.Clear();
  s.counts.clear();
  uint32_t num_slots = 0;
  for (size_t i = 0; i < bwd.size(); ++i) {
    const size_t len = bwd.Length(i);
    if (len < 1 || len > hb) continue;
    const VertexId v = bwd.Tail(i);
    if (s.tails.Mark(v)) {
      if (v >= s.slot_of.size()) {
        s.slot_of.resize(std::max<size_t>(v + 1, s.slot_of.size() * 2));
      }
      s.slot_of[v] = num_slots++;
      s.counts.push_back(1);
    } else {
      ++s.counts[s.slot_of[v]];
    }
  }
  s.offsets.resize(num_slots + 1);
  s.offsets[0] = 0;
  for (uint32_t k = 0; k < num_slots; ++k) {
    s.offsets[k + 1] = s.offsets[k] + s.counts[k];
  }
  s.cursor.assign(s.offsets.begin(), s.offsets.end() - 1);
  s.items.resize(s.offsets[num_slots]);
  for (size_t i = 0; i < bwd.size(); ++i) {
    const size_t len = bwd.Length(i);
    if (len < 1 || len > hb) continue;
    s.items[s.cursor[s.slot_of[bwd.Tail(i)]]++] =
        static_cast<uint32_t>(i);
  }
  return num_slots;
}

/// Adaptive cutover of the disjointness probe: forward paths at or below
/// this many vertices probe with the nested scan instead of the stamp
/// table — at that size the whole forward path fits in two cache lines
/// and the restamp + probe round trip cannot beat re-scanning it
/// (docs/PERF.md "Adaptive cutover").
constexpr size_t kJoinNaiveCutover = 4;

/// Does backward candidate `pb` share a vertex other than its last (the
/// shared midpoint) with forward path `pf`? Nested scan of `pf`.
inline bool ScanOverlaps(PathView pf, PathView pb) {
  for (size_t j = 0; j + 1 < pb.size(); ++j) {
    for (VertexId w : pf) {
      if (pb[j] == w) return true;
    }
  }
  return false;
}

/// ScanOverlaps against `pf` stamped into `mark`: one load per vertex.
inline bool MarkOverlaps(const EpochStampTable& mark, PathView pb) {
  for (size_t j = 0; j + 1 < pb.size(); ++j) {
    if (mark.Contains(pb[j])) return true;
  }
  return false;
}

/// Re-points fwd_mark at `pf`, touching only the suffix that differs from
/// the previously stamped path. Consecutive forward paths come out of a
/// DFS in lexicographic-by-prefix order, so runs of equal-midpoint probes
/// share long prefixes and the amortized restamp cost per path is the few
/// vertices that actually changed, not |pf|. All Unmarks are issued before
/// any Mark so a vertex moving between positions ends marked.
void RestampTo(JoinScratch& s, PathView pf) {
  size_t c = 0;
  const size_t lim = std::min(s.stamped.size(), pf.size());
  while (c < lim && s.stamped[c] == pf[c]) ++c;
  for (size_t j = c; j < s.stamped.size(); ++j) {
    s.fwd_mark.Unmark(s.stamped[j]);
  }
  s.stamped.resize(c);
  for (size_t j = c; j < pf.size(); ++j) {
    s.fwd_mark.Mark(pf[j]);
    s.stamped.push_back(pf[j]);
  }
}

}  // namespace

StatusOr<uint64_t> JoinAndEmit(const JoinSpec& spec, size_t query_index,
                               PathSink* sink, BatchStats* stats,
                               JoinScratchPool* scratch) {
  HCPATH_CHECK(spec.forward != nullptr && spec.backward != nullptr);
  HCPATH_CHECK(sink != nullptr);
  const PathSet& fwd = *spec.forward;
  const PathSet& bwd = *spec.backward;

  ScratchLease<JoinScratch> lease(scratch);
  JoinScratch& s = *lease;

  // The midpoint index only ever feeds probes of forward paths of length
  // exactly hf with hb > 0; when hb == 0 or there is nothing to bucket,
  // skip building it entirely.
  const bool need_index = spec.hb > 0 && !bwd.empty();
  if (need_index) {
    BuildMidpointIndex(bwd, spec.hb, s);
    if (stats != nullptr) ++stats->join_index_rebuilds;
  }

  // One Clear per join call; within the call the mark table follows the
  // forward paths by incremental restamps (RestampTo). `stamped` always
  // mirrors the marks actually in the table, so paths probed by scan (the
  // cutover) simply skip the restamp without invalidating it.
  s.fwd_mark.Clear();
  s.stamped.clear();

  uint64_t emitted = 0;
  auto emit = [&](PathView p) -> bool {
    if (spec.max_paths != 0 && emitted >= spec.max_paths) return false;
    sink->OnPath(query_index, p);
    ++emitted;
    if (stats != nullptr) ++stats->paths_emitted;
    return true;
  };

  for (size_t i = 0; i < fwd.size(); ++i) {
    const size_t len = fwd.Length(i);
    if (len > spec.hf) continue;  // shared cache may hold longer paths
    PathView pf = fwd[i];
    if (pf.back() == spec.t) {
      // Canonical split with an empty backward part.
      if (!emit(pf)) {
        return Status::ResourceExhausted("query exceeded max_paths");
      }
    }
    if (len != spec.hf || !need_index) continue;
    const VertexId mid = pf.back();
    if (!s.tails.Contains(mid)) continue;
    // Probe for this forward path: at or below kJoinNaiveCutover
    // vertices a nested scan of pf per candidate; above it, restamp the
    // mark table to pf (suffix-diff only) and test each candidate with
    // early-exit Contains() loads.
    //
    // pb is (t, x1, ..., xm) with xm == pf.back(); the forward suffix is
    // (x_{m-1}, ..., x1, t). Simplicity: none of pb's vertices except the
    // shared midpoint may appear in pf. `probes` counts consumed
    // candidates. The loop is instantiated once per probe kind, so it
    // carries no kind branch; it returns false once emit hits max_paths.
    const uint32_t slot = s.slot_of[mid];
    const uint32_t end = s.offsets[slot + 1];
    uint64_t probes = 0;
    uint64_t rejected = 0;
    auto probe_bucket = [&](auto scan) -> bool {
      for (uint32_t idx = s.offsets[slot]; idx < end; ++idx) {
        PathView pb = bwd[s.items[idx]];
        ++probes;
        bool overlaps;
        if constexpr (decltype(scan)::value) {
          overlaps = ScanOverlaps(pf, pb);
        } else {
          overlaps = MarkOverlaps(s.fwd_mark, pb);
        }
        if (overlaps) {
          ++rejected;
          continue;
        }
        s.buf.assign(pf.begin(), pf.end());
        for (size_t j = pb.size() - 1; j-- > 0;) s.buf.push_back(pb[j]);
        if (!emit(s.buf)) return false;
      }
      return true;
    };
    bool ok;
    if (pf.size() <= kJoinNaiveCutover) {
      ok = probe_bucket(std::true_type{});
    } else {
      RestampTo(s, pf);
      ok = probe_bucket(std::false_type{});
    }
    if (stats != nullptr) {
      stats->join_probes += probes;
      stats->join_rejected += rejected;
    }
    if (!ok) return Status::ResourceExhausted("query exceeded max_paths");
  }
  return emitted;
}

Status JoinIntoSet(const JoinSpec& spec, PathSet* out, BatchStats* stats,
                   JoinScratchPool* scratch) {
  class SetSink : public PathSink {
   public:
    explicit SetSink(PathSet* out) : out_(out) {}
    void OnPath(size_t, PathView path) override { out_->Add(path); }

   private:
    PathSet* out_;
  };
  SetSink sink(out);
  return JoinAndEmit(spec, 0, &sink, stats, scratch).status();
}

}  // namespace hcpath
