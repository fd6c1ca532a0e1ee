#ifndef HCPATH_KSP_ONEPASS_H_
#define HCPATH_KSP_ONEPASS_H_

#include "core/path.h"
#include "core/query.h"
#include "graph/graph.h"
#include "ksp/ksp_common.h"
#include "util/status.h"

namespace hcpath {

/// OnePass (Chondrogiannis et al., VLDBJ'20 [35]) adapted to HC-s-t path
/// enumeration per Section V: the overlap constraint is dropped and results
/// are generated until the hop constraint is reached. The remaining core is
/// the OnePass label expansion: partial simple paths kept in a min-heap
/// keyed by length + lower-bound distance to t (from one reverse BFS), each
/// pop either emits a complete path or expands labels one hop.
///
/// Returns ResourceExhausted when `max_paths` fires (the bench reports CAP)
/// and DeadlineExceeded when the time budget runs out (the bench reports
/// OT).
Status OnePassEnumerate(const Graph& g, const PathQuery& q,
                        size_t query_index, PathSink* sink,
                        const KspLimits& limits);

}  // namespace hcpath

#endif  // HCPATH_KSP_ONEPASS_H_
