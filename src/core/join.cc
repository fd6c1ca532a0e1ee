#include "core/join.h"

#include <algorithm>

namespace hcpath {

namespace {

/// Counting-sorts the usable backward paths (length in [1, hb]) into a CSR
/// bucket index keyed by their stored tail (== forward-orientation head).
/// Slots are assigned in first-appearance order and each bucket keeps its
/// paths in ascending index order, so probing yields candidates in exactly
/// the order the old per-query hash map produced them. Returns the number
/// of distinct tails; every array lives in the recycled scratch.
uint32_t BuildMidpointIndex(const PathSet& bwd, Hop hb, bool with_spans,
                            JoinScratch& s) {
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
  // Room for the lazily staged probe spans (JoinScratch::probe); the
  // spans themselves are written bucket-by-bucket on first probe, so
  // unprobed buckets never pay the staging pass. Skipped for the naive
  // kernel, which re-scans the paths directly.
  if (with_spans) s.probe.resize(s.items.size());
  return num_slots;
}

/// Adaptive cutover of KernelMode::kAuto: forward paths at or below this
/// many vertices probe with the naive nested scan instead of the stamp
/// table — at that size the whole forward path fits in two cache lines
/// and the restamp + probe round trip cannot beat re-scanning it. The
/// threshold sits well below the BM_StampTestAny scalar/SIMD crossover
/// (docs/PERF.md "Adaptive cutover") because the batched path here is
/// run-amortized: one TestAnySpans call probes a whole bucket run, so it
/// already wins at backward-span length 8 (BM_JoinProbeDisjoint).
constexpr size_t kJoinNaiveCutover = 4;

/// Minimum backward budget for the run-batched TestAnySpans probe. A
/// backward path of length hb holds hb + 1 vertices, so its interior
/// probe span holds at most hb: below this budget no span can ever fill
/// an 8-lane gather and the batched machinery (staging, verdict buffer,
/// out-of-line call) is pure overhead against the fused per-candidate
/// loop of stamped Contains() early-exits — measured ~5% end to end on
/// exp7's k<=7 workloads. At hb >= 8 runs batch.
constexpr Hop kJoinBatchMinHb = 8;

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
  // Run-batched probing only engages when a probe span could fill a
  // gather; below kJoinBatchMinHb the stamped probes run fused (below).
  const bool batch_runs = spec.kernel != KernelMode::kNaive &&
                          spec.hb >= kJoinBatchMinHb;
  if (need_index) {
    BuildMidpointIndex(bwd, spec.hb, batch_runs, s);
    if (stats != nullptr) ++stats->join_index_rebuilds;
  }

  // One Clear per join call; within the call the mark table follows the
  // forward paths by incremental restamps (RestampTo). `stamped` always
  // mirrors the marks actually in the table, so paths probed naively (the
  // kAuto cutover) simply skip the restamp without invalidating it.
  if (spec.kernel != KernelMode::kNaive) {
    s.fwd_mark.Clear();
    s.stamped.clear();
    s.staged_slots.Clear();
  }

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
    // Probe-kernel choice for this forward path. Stamped restamps the
    // mark table to pf (suffix-diff only), then either probes the whole
    // bucket run with one TestAnySpans call — O(|pb|) lookups per
    // candidate, 8 per gather, with the kernel dispatch and SIMD
    // constants paid once per run — and consumes the verdicts in the emit
    // loop below, or, when spans are too short to ever fill a gather
    // (hb < kJoinBatchMinHb), runs fused: per-candidate early-exit
    // Contains() loads with inline emission, the naive loop's exact shape
    // with the nested scan replaced by one stamp load per vertex. Naive
    // (the oracle, and kAuto's cutover for very short pf): nested scans
    // per candidate.
    //
    // pb is (t, x1, ..., xm) with xm == pf.back(); the forward suffix is
    // (x_{m-1}, ..., x1, t). Simplicity: none of pb's vertices except the
    // shared midpoint may appear in pf, so the probe span is pb minus its
    // last vertex. Counters accumulate in locals and flush on every exit;
    // `probes` counts consumed candidates, which keeps the counter
    // identical across kernel modes even when max_paths stops a run early.
    const bool naive_probe =
        spec.kernel == KernelMode::kNaive ||
        (spec.kernel == KernelMode::kAuto && pf.size() <= kJoinNaiveCutover);
    const uint32_t slot = s.slot_of[mid];
    const uint32_t begin = s.offsets[slot];
    const uint32_t end = s.offsets[slot + 1];
    uint64_t probes = 0;
    uint64_t rejected = 0;
    if (naive_probe) {
      for (uint32_t idx = begin; idx < end; ++idx) {
        PathView pb = bwd[s.items[idx]];
        ++probes;
        bool disjoint = true;
        for (size_t j = 0; j + 1 < pb.size() && disjoint; ++j) {
          for (VertexId w : pf) {
            if (pb[j] == w) {
              disjoint = false;
              break;
            }
          }
        }
        if (!disjoint) {
          ++rejected;
          continue;
        }
        s.buf.assign(pf.begin(), pf.end());
        for (size_t j = pb.size() - 1; j-- > 0;) s.buf.push_back(pb[j]);
        if (!emit(s.buf)) {
          if (stats != nullptr) {
            stats->join_probes += probes;
            stats->join_rejected += rejected;
          }
          return Status::ResourceExhausted("query exceeded max_paths");
        }
      }
    } else if (!batch_runs) {
      RestampTo(s, pf);
      for (uint32_t idx = begin; idx < end; ++idx) {
        PathView pb = bwd[s.items[idx]];
        ++probes;
        bool disjoint = true;
        for (size_t j = 0; j + 1 < pb.size(); ++j) {
          if (s.fwd_mark.Contains(pb[j])) {
            disjoint = false;
            break;
          }
        }
        if (!disjoint) {
          ++rejected;
          continue;
        }
        s.buf.assign(pf.begin(), pf.end());
        for (size_t j = pb.size() - 1; j-- > 0;) s.buf.push_back(pb[j]);
        if (!emit(s.buf)) {
          if (stats != nullptr) {
            stats->join_probes += probes;
            stats->join_rejected += rejected;
          }
          return Status::ResourceExhausted("query exceeded max_paths");
        }
      }
    } else {
      RestampTo(s, pf);
      if (s.staged_slots.Mark(slot)) {
        // First stamped probe of this bucket this call: stage the runs'
        // interior probe spans (candidate minus shared-midpoint tail).
        for (uint32_t idx = begin; idx < end; ++idx) {
          PathView pb = bwd[s.items[idx]];
          s.probe[idx] = pb.first(pb.size() - 1);
        }
      }
      const size_t run = end - begin;
      if (s.hits.size() < run) s.hits.resize(run);
      s.fwd_mark.TestAnySpans(
          std::span<const PathView>(s.probe).subspan(begin, run),
          s.hits.data());
      // The whole run was physically probed above, but `probes` stays
      // "consumed candidates" (adjusted down on the rare early exit) so
      // the counter matches the naive loop exactly in every mode.
      probes += run;
      for (size_t j = 0; j < run; ++j) {
        if (s.hits[j] != 0) {
          ++rejected;
          continue;
        }
        // The probe span is the candidate minus its shared-midpoint tail;
        // the full view is the same storage, one vertex longer.
        const PathView& ps = s.probe[begin + j];
        PathView pb(ps.data(), ps.size() + 1);
        s.buf.assign(pf.begin(), pf.end());
        for (size_t x = pb.size() - 1; x-- > 0;) s.buf.push_back(pb[x]);
        if (!emit(s.buf)) {
          if (stats != nullptr) {
            stats->join_probes += probes - (run - (j + 1));
            stats->join_rejected += rejected;
          }
          return Status::ResourceExhausted("query exceeded max_paths");
        }
      }
    }
    if (stats != nullptr) {
      stats->join_probes += probes;
      stats->join_rejected += rejected;
    }
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
