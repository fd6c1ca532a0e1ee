#ifndef HCPATH_KSP_DKSP_H_
#define HCPATH_KSP_DKSP_H_

#include "core/path.h"
#include "core/query.h"
#include "graph/graph.h"
#include "ksp/ksp_common.h"
#include "util/status.h"

namespace hcpath {

/// DkSP (Luo et al., VLDB'22 [34]) adapted to HC-s-t path enumeration per
/// Section V: the diversity/similarity constraint is dropped and the
/// algorithm keeps generating results "until reaching the hop constraint".
/// What remains is Yen-style loopless path enumeration in length order:
/// repeatedly pop the shortest candidate, emit it, and push its deviations
/// (BFS shortest paths from each spur node avoiding the root prefix and
/// previously taken deviation edges). Stops once candidates exceed k hops.
///
/// Returns ResourceExhausted when `max_paths` fires (the bench reports CAP)
/// and DeadlineExceeded when the time budget runs out (the bench reports
/// OT).
Status DkspEnumerate(const Graph& g, const PathQuery& q, size_t query_index,
                     PathSink* sink, const KspLimits& limits);

}  // namespace hcpath

#endif  // HCPATH_KSP_DKSP_H_
