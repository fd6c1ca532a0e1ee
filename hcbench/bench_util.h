// Shared pieces of the hcbench program: path digests, span tracing, metric
// records, percentiles, and process measurements (peak RSS).
//
// Everything here lives outside the library: the benchmark only calls
// public entry points and reads counters the library already returns.

#ifndef HCBENCH_BENCH_UTIL_H_
#define HCBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/path.h"
#include "core/query.h"
#include "util/hash.h"

namespace hcbench {

using hcpath::PathQuery;
using hcpath::PathSet;
using hcpath::PathView;

// ------------------------------------------------------------------ digests

/// Hash of one path's vertex sequence (order-sensitive within the path).
inline uint64_t PathHash(PathView p) {
  uint64_t h = 0x243f6a8885a308d3ULL ^ p.size();
  for (hcpath::VertexId v : p) h = (h + v + 1) * 0x9e3779b97f4a7c15ULL;
  return hcpath::Mix64(h);
}

/// Count plus order-insensitive digest (sum of path hashes) of one query's
/// result set. Equal digests mean equal path multisets up to collisions.
struct QueryDigest {
  uint64_t count = 0;
  uint64_t digest = 0;

  void Add(PathView p) {
    ++count;
    digest += PathHash(p);
  }
  bool operator==(const QueryDigest& o) const {
    return count == o.count && digest == o.digest;
  }
};

/// Batch sink: one QueryDigest per query of the batch.
class DigestSink : public hcpath::PathSink {
 public:
  explicit DigestSink(size_t num_queries) : digests_(num_queries) {}

  void OnPath(size_t query_index, PathView path) override {
    digests_[query_index].Add(path);
  }
  void OnPaths(size_t query_index, const PathSet& paths, size_t begin,
               size_t end) override {
    QueryDigest& d = digests_[query_index];
    for (size_t i = begin; i < end; ++i) d.Add(paths[i]);
  }
  const std::vector<QueryDigest>& digests() const { return digests_; }

 private:
  std::vector<QueryDigest> digests_;
};

/// Per-query sink for PathEngine::Submit: ignores the in-batch index.
class SingleDigestSink : public hcpath::PathSink {
 public:
  void OnPath(size_t, PathView path) override { digest_.Add(path); }
  void OnPaths(size_t, const PathSet& paths, size_t begin,
               size_t end) override {
    for (size_t i = begin; i < end; ++i) digest_.Add(paths[i]);
  }
  const QueryDigest& digest() const { return digest_; }

 private:
  QueryDigest digest_;
};

/// Order-sensitive hash of a query list (run header input identity).
uint64_t HashQueries(const std::vector<PathQuery>& queries);

/// 16-digit lowercase hex of a 64-bit value.
std::string Hex(uint64_t v);

// ------------------------------------------------------------------ timing

using SteadyClock = std::chrono::steady_clock;

/// Seconds since the process-wide benchmark epoch (first call).
double NowSeconds();

/// Percentile by linear interpolation between closest ranks; 0 when empty.
double Percentile(std::vector<double> values, double p);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

// ------------------------------------------------------------------ tracing

/// In-memory span recorder. Spans carry name, start, end (seconds since the
/// benchmark epoch) and the id of the span that caused them; they are kept
/// in memory and written once, as Chrome trace-event JSON, at the end of
/// the run. A disabled tracer records nothing and returns id 0.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t id = 0;
    int lane = 0;         ///< Chrome trace "tid": which benchmark thread
    std::string note;     ///< e.g. "program-reported"
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when disabled).
  uint64_t Add(const std::string& name, double start, double end,
               uint64_t parent = 0, int lane = 0, std::string note = "");

  /// Moves the end of an already recorded span (a root span whose
  /// children finish after it was recorded).
  void SetEnd(uint64_t id, double end) {
    if (id != 0) spans_[id - 1].end = end;
  }

  /// Per span name: summed duration and summed self time (duration minus
  /// the part of its interval covered by its child spans).
  struct NameTotals {
    double total = 0;
    double self = 0;
    uint64_t count = 0;
  };
  std::map<std::string, NameTotals> Totals() const;

  /// Writes the spans as a Chrome trace-event JSON array ("ph": "X").
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------------ metrics

/// One named measurement with its unit, in emission order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one workload run produces. `e2e` holds the end-to-end
/// metrics, `layers` the per-layer ledger, `inputs` the run-header input
/// identities (graph checksums, query-set hashes).
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::pair<std::string, std::string>> inputs;
  /// Where the ledger's layer times come from (printed with the table).
  std::string ledger_source;
  /// Share of the box's CPU time the hypervisor took (steal) during the
  /// timed phase; a high value marks a run measured on a contended host.
  double steal_share = 0;
  /// Wall seconds of the run's phases (inputs+setup, timed, verify).
  std::vector<std::pair<std::string, double>> phases;
  /// Verification failures, one line each.
  std::vector<std::string> mismatches;

  void Fail(const std::string& why) {
    correct = false;
    if (mismatches.size() < 20) mismatches.push_back(why);
  }
};

// ------------------------------------------------------------------ process

/// Resets the kernel's peak-RSS high-water mark (VmHWM) for this process.
/// Returns false when the kernel refuses (the peak then covers the whole
/// process lifetime, which the run header states).
bool ResetPeakRss();

/// System-wide CPU time counters from /proc/stat (clock ticks).
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();

/// Steal ticks over all ticks between two readings; 0 when unavailable.
double StealShare(const CpuTimes& from, const CpuTimes& to);

/// Returns heap memory the allocator holds but no longer uses to the
/// kernel (glibc malloc_trim; a no-op elsewhere).
void ReleaseFreeMemory();

/// Peak resident set size (VmHWM) in MiB; 0 when unavailable.
double PeakRssMb();

}  // namespace hcbench

#endif  // HCBENCH_BENCH_UTIL_H_
