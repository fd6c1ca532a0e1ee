#ifndef HCPATH_KSP_KSP_COMMON_H_
#define HCPATH_KSP_KSP_COMMON_H_

#include <cstdint>

namespace hcpath {

/// Resource limits for the adapted k-shortest-path baselines. The paper
/// reports OT (over time) for these algorithms on most datasets; the time
/// budget lets the bench harness reproduce that without hanging.
struct KspLimits {
  uint64_t max_paths = 0;           ///< 0 = unlimited
  /// 0 = unlimited. Exhausting it returns DeadlineExceeded, never the
  /// ResourceExhausted of the `max_paths` cap.
  double time_budget_seconds = 0;
};

}  // namespace hcpath

#endif  // HCPATH_KSP_KSP_COMMON_H_
