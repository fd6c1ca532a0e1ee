// The hcbench workloads (README.md has why each was chosen):
//
//   batch_shared   EP stand-in, 100-query batches at mu_Q ~ 0.9, k = 6
//   batch_index    WT stand-in, 100 random queries at k = 4
//   serve_updates  EP stand-in, store-backed PathEngine under an open loop
//                  (Zipf 1.1) with edge-update batches
//
// Every workload runs the library with num_threads = 2 and otherwise
// default options, loads its graph from the snapshot file written by
// `hcbench prep`, measures for `seconds`, verifies every output it checks
// with untimed one-shot runs of an independent algorithm, and fills a
// RunReport with the end-to-end metrics and the per-layer ledger.

#ifndef HCBENCH_WORKLOADS_H_
#define HCBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"
#include "core/options.h"
#include "graph/graph.h"
#include "util/status.h"

namespace hcbench {

/// Compute threads the library runs with on every workload.
inline constexpr int kComputeThreads = 2;
/// Setup is measured this many times per run; setup_s is the median.
inline constexpr int kSetupRepetitions = 5;

struct WorkloadConfig {
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  /// Self-test hook: flip one reference digest so verification must fail.
  bool corrupt_digest = false;
};

/// Loads a snapshot with full verification (the timed graph.load span).
hcpath::StatusOr<hcpath::Graph> LoadSnapshot(const WorkloadConfig& cfg,
                                             const std::string& graph);

/// BatchOptions every workload runs with: library defaults (BatchEnum+,
/// gamma 0.5) at kComputeThreads.
hcpath::BatchOptions EngineBatchOptions();

/// The reference algorithm for verification: BasicEnum+ on one thread.
hcpath::BatchOptions ReferenceBatchOptions();

/// Runs batch_shared or batch_index.
RunReport RunBatchWorkload(const WorkloadConfig& cfg, Tracer& tracer);

/// Runs serve_updates.
RunReport RunServeWorkload(const WorkloadConfig& cfg, Tracer& tracer);

}  // namespace hcbench

#endif  // HCBENCH_WORKLOADS_H_
