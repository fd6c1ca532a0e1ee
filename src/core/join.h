#ifndef HCPATH_CORE_JOIN_H_
#define HCPATH_CORE_JOIN_H_

#include <cstdint>
#include <vector>

#include "bfs/distance_map.h"
#include "core/path.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "util/epoch_stamp.h"
#include "util/status.h"

namespace hcpath {

/// Recyclable working set of JoinAndEmit, leased from a BatchContext pool
/// (or a per-thread fallback) so the join performs zero heap allocations
/// in steady state: the midpoint index is a counting-sorted CSR over
/// recycled flat arrays instead of a per-query hash map, and disjointness
/// is tested against an epoch-stamped mark table instead of nested scans.
/// All arrays grow to the high-water mark of the queries they serve and
/// are reused as-is; validity is epoch-gated, so nothing is re-zeroed.
struct JoinScratch {
  EpochStampTable fwd_mark;   ///< vertices of the current forward path
  EpochStampTable tails;      ///< stamped iff slot_of[tail] is valid
  std::vector<uint32_t> slot_of;  ///< tail vertex -> dense bucket slot
  std::vector<uint32_t> counts;   ///< slot -> usable backward paths
  std::vector<uint32_t> offsets;  ///< CSR bucket offsets (size slots + 1)
  std::vector<uint32_t> cursor;   ///< per-slot fill cursors
  std::vector<uint32_t> items;    ///< CSR payload: backward path indices
  std::vector<VertexId> buf;      ///< concatenation buffer for emission
  /// The forward path currently marked in fwd_mark. Consecutive forward
  /// paths come out of a DFS, so they share long prefixes; the join
  /// restamps only the suffix that differs (Unmark old tail, Mark new
  /// tail) instead of Clear + full re-Mark per path.
  std::vector<VertexId> stamped;
};

using JoinScratchPool = ScratchPool<JoinScratch>;

/// Recyclable working set of one cluster's assembly when members repeat a
/// query (batch_enum.cc): members with the same (s, t, hf, hb) are joined
/// once into a group set, in the assembly item of the group's first
/// member, and every later member replays that set. Leased from
/// BatchContext::join_groups, one per ProcessCluster call — a worker that
/// helps another cluster's ParallelFor re-enters ProcessCluster on the
/// same thread, so thread-local storage would be shared between two live
/// assemblies. Group sets keep their capacity between clusters, up to
/// kMaxRetainedBytes in total.
struct JoinGroupScratch {
  static constexpr uint64_t kMaxRetainedBytes = 1 << 20;
  static constexpr uint32_t kNoGroup = ~uint32_t{0};

  struct Member {
    VertexId s;
    VertexId t;
    Hop hf;
    Hop hb;
    uint32_t pos;  ///< position in the cluster
  };
  std::vector<Member> members;     ///< live members, sorted to find groups
  std::vector<uint32_t> group_of;  ///< position -> group, or kNoGroup
  std::vector<uint32_t> leader;    ///< group -> its first position
  std::vector<PathSet> sets;       ///< group -> the joined paths

  /// Frees the group sets past kMaxRetainedBytes of retained capacity;
  /// the rest keep it for the next cluster.
  void TrimRetained() {
    uint64_t kept = 0;
    for (PathSet& set : sets) {
      if (kept + set.MemoryBytes() > kMaxRetainedBytes) {
        set = PathSet();
      } else {
        kept += set.MemoryBytes();
      }
    }
  }
};

using JoinGroupScratchPool = ScratchPool<JoinGroupScratch>;

/// Inputs to the path concatenation operator ⊕ (Def 3.1), specialized to
/// the canonical split that makes the join duplicate-free (DESIGN.md D2):
/// a result path of length L splits at m = min(L, hf), so
///   * a forward path of length exactly `hf` joins every backward path of
///     length in [1, hb] whose forward-orientation head matches its tail;
///   * a forward path ending at `t` (any length <= hf) is emitted alone.
///
/// `forward` holds paths from s in forward orientation; `backward` holds
/// paths from t in Gr orientation (t first). Both may contain extra paths
/// (longer than the per-query budgets, or pruned for other sharing
/// queries); they are filtered here, which is what lets several queries
/// share one materialized HC-s path result.
///
/// Precondition: every forward path is SIMPLE (vertex-distinct) — the half
/// searches guarantee this by construction. The incremental prefix-diff
/// restamp of the probe kernel depends on it: unmarking a departing suffix
/// vertex must never erase the mark of a vertex the kept prefix still
/// holds, which only a repeated vertex could cause.
struct JoinSpec {
  const PathSet* forward = nullptr;
  const PathSet* backward = nullptr;
  VertexId s = kInvalidVertex;
  VertexId t = kInvalidVertex;
  Hop hf = 0;  ///< forward budget for this query
  Hop hb = 0;  ///< backward budget for this query
  uint64_t max_paths = 0;  ///< 0 = unlimited
};

/// Joins the two halves and emits every HC-s-t path of the query to `sink`
/// (tagged with `query_index`). Returns the number of paths emitted or
/// ResourceExhausted if `max_paths` was exceeded.
///
/// `scratch` recycles the midpoint index and mark tables across queries
/// (BatchContext::join_scratch); nullptr falls back to a per-thread
/// working set. Emission order, counters, and error points are identical
/// either way — the scratch only changes where the index storage lives.
StatusOr<uint64_t> JoinAndEmit(const JoinSpec& spec, size_t query_index,
                               PathSink* sink, BatchStats* stats,
                               JoinScratchPool* scratch = nullptr);

/// JoinAndEmit into `out`: appends the query's paths in emission order, so
/// one join can serve several identical queries, each replaying `out` with
/// a single PathSink::OnPaths call. Paths, counters, and Status (including
/// the max_paths error point) are those of JoinAndEmit.
Status JoinIntoSet(const JoinSpec& spec, PathSet* out, BatchStats* stats,
                   JoinScratchPool* scratch = nullptr);

}  // namespace hcpath

#endif  // HCPATH_CORE_JOIN_H_
