#ifndef HCPATH_UTIL_TIMER_H_
#define HCPATH_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace hcpath {

/// Monotonic wall-clock timer with microsecond resolution.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates elapsed time into a double on destruction; used to attribute
/// time to the processing phases reported by Exp-3 (Fig 9).
class ScopedTimer {
 public:
  explicit ScopedTimer(double* sink) : sink_(sink) {}
  ~ScopedTimer() {
    if (sink_ != nullptr) *sink_ += timer_.ElapsedSeconds();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* sink_;
  WallTimer timer_;
};

}  // namespace hcpath

#endif  // HCPATH_UTIL_TIMER_H_
