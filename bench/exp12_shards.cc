// Exp-12: fault-tolerant sharded serving replay (docs/SHARDING.md). A
// Zipf-skewed query stream runs through ShardedPathService at shard
// counts {1, 2, 4, 8} in virtual time, per scenario:
//
//   * clean:      no faults — the routing/merge overhead baseline.
//   * faulty:     a seeded random schedule of transient faults (fail-N,
//                 drop-reply, slow) at --fault_rate faults per query;
//                 retries and attempt timeouts absorb them.
//   * shard_down: shard 0 crashes on its first dispatch (4-shard run) —
//                 heartbeats detect it, in-flight attempts fail over, the
//                 supervisor restarts it, and availability must stay
//                 >= 75% with a quarter of the fleet down.
//   * straggler:  shard 0 serves --straggler_factor slower for the whole
//                 run (4-shard run) — the hedged pass must not worsen,
//                 and in practice cuts, tail latency versus the unhedged
//                 pass on the identical schedule.
//
// Every scenario runs with hedging off and on. Besides the JSON metrics,
// the driver *verifies* the PR's acceptance criteria live and exits
// non-zero on violation (the CI bench-smoke runs `exp12_shards --quick`):
//   1. every completed query's path count equals the 1-shard no-fault
//      reference (the byte-level stream identity is asserted by
//      sharded_service_test and the ShardedFaultParity fuzz suite),
//   2. query and attempt conservation close with zero stalled merges,
//   3. shard_down availability >= 0.75,
//   4. straggler p99 with hedging <= p99 without.
//
//   ./build/exp12_shards --stream=2000 --fault_rate=0.02 \
//       --straggler_factor=8 --json=BENCH_PR9.json

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "graph/generators.h"
#include "service/admission_status.h"
#include "service/fault_injector.h"
#include "service/sharded_service.h"
#include "service/clock.h"
#include "util/rng.h"
#include "workload/query_gen.h"

using namespace hcpath;
using namespace hcpath::bench;

namespace {

/// Zipf-ish sampler over ranks [0, n): P(r) ~ 1 / (r + 1)^alpha.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double alpha) : cdf_(n) {
    double acc = 0;
    for (size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

double Percentile(const std::vector<double>& sorted_values, double p) {
  if (sorted_values.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted_values.size() - 1));
  return sorted_values[idx];
}

struct Scenario {
  const char* name;
  int shards;
  bool one_shard_down;  ///< crash shard 0 at its first dispatch
  bool straggler;       ///< slow shard 0 for the whole run
  bool random_faults;   ///< seeded transient schedule at --fault_rate
};

struct RunResult {
  uint64_t completed = 0, failed = 0;
  double availability = 0;
  double p50 = 0, p99 = 0;  ///< virtual-time submit-to-finish latency
  bool parity_ok = true;
  bool statuses_documented = true;
  bool conservation_ok = true;
  ShardedServiceStats stats;
};

bool ConservationHolds(const ShardedServiceStats& s) {
  return s.queries_submitted ==
             s.queries_completed + s.queries_failed + s.queries_rejected &&
         s.dispatches == s.attempts_completed + s.attempts_failed +
                             s.attempts_cancelled + s.attempts_dropped &&
         s.attempts_in_flight == 0 && s.queries_stalled == 0;
}

FaultInjector MakeInjector(const Scenario& sc, double fault_rate,
                           double straggler_factor, size_t stream_size,
                           uint64_t seed) {
  FaultInjector injector;
  if (sc.one_shard_down) {
    injector.AddRule(FaultRule{/*shard=*/0, /*at_dispatch=*/0, /*count=*/1,
                               FaultKind::kCrash, 0.0, 1.0});
  }
  if (sc.straggler) {
    injector.AddRule(FaultRule{/*shard=*/0, /*at_dispatch=*/0,
                               /*count=*/4 * stream_size, FaultKind::kSlow,
                               0.0, straggler_factor});
  }
  if (sc.random_faults) {
    // Transient kinds only: crash belongs to shard_down, so availability
    // under this schedule isolates retry/timeout absorption.
    Rng frng(seed);
    const FaultKind kinds[] = {FaultKind::kFailN, FaultKind::kDropReply,
                               FaultKind::kSlow};
    const size_t n_faults = static_cast<size_t>(
        fault_rate * static_cast<double>(stream_size));
    for (size_t i = 0; i < n_faults; ++i) {
      FaultRule rule;
      rule.shard = static_cast<int>(frng.NextBounded(sc.shards));
      rule.at_dispatch = frng.NextBounded(stream_size);
      rule.count = 1 + frng.NextBounded(2);
      rule.kind = kinds[frng.NextBounded(3)];
      rule.seconds = 0.0625;
      rule.factor = 4.0;
      injector.AddRule(rule);
    }
  }
  return injector;
}

}  // namespace

int main(int argc, char** argv) {
  CommonFlags cf;
  int64_t* stream_size = cf.flags.AddInt64("stream", 2000, "queries in the replayed stream");
  int64_t* endpoints = cf.flags.AddInt64("endpoints", 64, "distinct query templates in the pool");
  int64_t* vertices = cf.flags.AddInt64("vertices", 8000, "graph size");
  int64_t* k = cf.flags.AddInt64("k", 4, "hop constraint");
  double* fault_rate = cf.flags.AddDouble("fault_rate", 0.02, "transient faults per streamed query (faulty scenario)");
  double* straggler_factor = cf.flags.AddDouble("straggler_factor", 8.0, "slow-down of shard 0 in the straggler scenario");
  int64_t* max_retries = cf.flags.AddInt64("retries", 3, "per-query retry budget");
  std::string* json = cf.flags.AddString("json", "", "also append JSON here");
  ParseOrDie(cf, argc, argv);

  size_t n_stream = static_cast<size_t>(*stream_size);
  VertexId n_vertices = static_cast<VertexId>(*vertices);
  if (*cf.quick) {
    n_stream = std::min<size_t>(n_stream, 300);
    n_vertices = std::min<VertexId>(n_vertices, 2000);
  }

  Rng grng(static_cast<uint64_t>(*cf.seed));
  auto g = GenerateSmallWorld(n_vertices, 6, 0.05, grng);
  if (!g.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 g.status().ToString().c_str());
    return 1;
  }
  Rng qrng(static_cast<uint64_t>(*cf.seed) + 1);
  QueryGenOptions qopt;
  qopt.k_min = static_cast<int>(*k);
  qopt.k_max = static_cast<int>(*k);
  qopt.min_distance = 2;
  auto pool = GenerateRandomQueries(*g, static_cast<size_t>(*endpoints),
                                    qopt, qrng);
  if (!pool.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 pool.status().ToString().c_str());
    return 1;
  }
  ZipfSampler endpoint_sampler(pool->size(), 1.1);
  std::vector<PathQuery> stream;
  stream.reserve(n_stream);
  for (size_t i = 0; i < n_stream; ++i) {
    stream.push_back((*pool)[endpoint_sampler.Sample(qrng)]);
  }
  std::fprintf(stderr,
               "[exp12] |V|=%lld stream=%zu fault_rate=%.3f straggler=%.1fx\n",
               static_cast<long long>(n_vertices), stream.size(), *fault_rate,
               *straggler_factor);

  ShardedServiceOptions base;
  base.batch = MakeBatchOptions(cf);
  base.collect_paths = false;  // serving-style: count, don't materialize
  base.service_time_seconds = 0.01;
  base.heartbeat_interval_seconds = 0.0625;
  base.suspect_after_missed = 2;
  base.down_after_missed = 4;
  base.restart_delay_seconds = 0.125;
  base.restart_duration_seconds = 0.25;
  base.max_retries = static_cast<int>(*max_retries);
  base.retry_backoff_seconds = 0.0625;
  // Attempt timeouts are the detection path for dropped replies; generous
  // enough that a deep virtual queue alone never trips them.
  base.attempt_timeout_seconds = 60.0;
  base.hedge_after_seconds = 0.5;
  base.hedge_quantile = 0.9;
  base.hedge_min_samples = 32;
  base.seed = static_cast<uint64_t>(*cf.seed);

  // 1-shard no-fault reference: per-query path counts for the parity
  // verification in every scenario below.
  std::vector<uint64_t> reference_counts(stream.size(), 0);
  std::vector<bool> reference_ok(stream.size(), false);
  {
    VirtualClock vc;
    ShardedServiceOptions opt = base;
    opt.num_shards = 1;
    ShardedPathService svc(&*g, opt, &vc);
    if (!svc.init_status().ok()) {
      std::fprintf(stderr, "service construction failed: %s\n",
                   svc.init_status().ToString().c_str());
      return 1;
    }
    auto futures = svc.SubmitBatch("bench", stream, nullptr);
    svc.RunToCompletion(&vc);
    for (size_t i = 0; i < futures.size(); ++i) {
      QueryResult r = futures[i].get();
      if (!r.status.ok()) {
        std::fprintf(stderr, "[exp12] reference query %zu failed: %s\n", i,
                     r.status.ToString().c_str());
        return 1;
      }
      reference_counts[i] = r.path_count;
      reference_ok[i] = true;
    }
    if (!ConservationHolds(svc.GetStats())) {
      std::fprintf(stderr, "[exp12] reference run broke conservation\n");
      return 3;
    }
  }

  std::FILE* jf = nullptr;
  if (!json->empty()) {
    jf = std::fopen(json->c_str(), "a");
    if (jf == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json->c_str());
      return 2;
    }
  }

  std::vector<Scenario> scenarios;
  for (int shards : {1, 2, 4, 8}) {
    scenarios.push_back({"clean", shards, false, false, false});
    scenarios.push_back({"faulty", shards, false, false, true});
  }
  scenarios.push_back({"shard_down", 4, true, false, false});
  scenarios.push_back({"straggler", 4, false, true, false});

  bool all_ok = true;
  double straggler_p99[2] = {0, 0};  // [unhedged, hedged]
  for (const Scenario& sc : scenarios) {
    for (bool hedging : {false, true}) {
      FaultInjector injector =
          MakeInjector(sc, *fault_rate, *straggler_factor, stream.size(),
                       static_cast<uint64_t>(*cf.seed) + 7);
      ShardedServiceOptions opt = base;
      opt.num_shards = sc.shards;
      opt.enable_hedging = hedging;

      VirtualClock vc;
      ShardedPathService svc(&*g, opt, &vc, &injector);
      if (!svc.init_status().ok()) {
        std::fprintf(stderr, "service construction failed: %s\n",
                     svc.init_status().ToString().c_str());
        return 1;
      }
      auto futures = svc.SubmitBatch("bench", stream, nullptr);
      svc.RunToCompletion(&vc);

      RunResult out;
      std::vector<double> latencies;
      for (size_t i = 0; i < futures.size(); ++i) {
        QueryResult r = futures[i].get();
        if (r.status.ok()) {
          ++out.completed;
          latencies.push_back(r.batch_seconds);
          if (!reference_ok[i] || r.path_count != reference_counts[i]) {
            out.parity_ok = false;
            std::fprintf(
                stderr, "[exp12] PARITY VIOLATION query %zu: got %llu want "
                        "%llu (%s/%d shards)\n",
                i, static_cast<unsigned long long>(r.path_count),
                static_cast<unsigned long long>(reference_counts[i]), sc.name,
                sc.shards);
          }
        } else {
          ++out.failed;
          // Degraded queries must carry the canonical serving statuses.
          if (!IsShardUnavailable(r.status) && !IsQueryDeadline(r.status)) {
            out.statuses_documented = false;
            std::fprintf(stderr, "[exp12] UNDOCUMENTED status: %s\n",
                         r.status.ToString().c_str());
          }
        }
      }
      out.availability = stream.empty()
                             ? 1.0
                             : static_cast<double>(out.completed) /
                                   static_cast<double>(stream.size());
      std::sort(latencies.begin(), latencies.end());
      out.p50 = Percentile(latencies, 0.50);
      out.p99 = Percentile(latencies, 0.99);
      out.stats = svc.GetStats();
      out.conservation_ok = ConservationHolds(out.stats);

      uint64_t crashes = 0, restarts = 0;
      for (const ShardStats& ss : out.stats.shards) {
        crashes += ss.crashes;
        restarts += ss.restarts;
      }
      char line[1024];
      std::snprintf(
          line, sizeof(line),
          "{\"bench\":\"exp12_shards\",\"scenario\":\"%s\",\"shards\":%d,"
          "\"hedging\":%s,\"stream\":%zu,\"fault_rate\":%.4f,"
          "\"straggler_factor\":%.1f,\"completed\":%llu,\"failed\":%llu,"
          "\"availability\":%.4f,\"p50_s\":%.4f,\"p99_s\":%.4f,"
          "\"retries\":%llu,\"hedges\":%llu,\"hedged_wins\":%llu,"
          "\"failovers\":%llu,\"attempt_timeouts\":%llu,\"crashes\":%llu,"
          "\"restarts\":%llu,\"stalled\":%llu,\"parity_ok\":%s,"
          "\"conservation_ok\":%s}\n",
          sc.name, sc.shards, hedging ? "true" : "false", stream.size(),
          sc.random_faults ? *fault_rate : 0.0,
          sc.straggler ? *straggler_factor : 1.0,
          static_cast<unsigned long long>(out.completed),
          static_cast<unsigned long long>(out.failed), out.availability,
          out.p50, out.p99,
          static_cast<unsigned long long>(out.stats.retries),
          static_cast<unsigned long long>(out.stats.hedges),
          static_cast<unsigned long long>(out.stats.hedged_wins),
          static_cast<unsigned long long>(out.stats.failovers),
          static_cast<unsigned long long>(out.stats.attempt_timeouts),
          static_cast<unsigned long long>(crashes),
          static_cast<unsigned long long>(restarts),
          static_cast<unsigned long long>(out.stats.queries_stalled),
          out.parity_ok ? "true" : "false",
          out.conservation_ok ? "true" : "false");
      std::fputs(line, stdout);
      if (jf != nullptr) std::fputs(line, jf);

      if (!out.parity_ok || !out.statuses_documented ||
          !out.conservation_ok) {
        all_ok = false;
      }
      if (sc.one_shard_down && out.availability < 0.75) {
        std::fprintf(stderr,
                     "[exp12] AVAILABILITY %.3f < 0.75 with 1/%d shards "
                     "down (hedging=%d)\n",
                     out.availability, sc.shards, hedging ? 1 : 0);
        all_ok = false;
      }
      if (sc.straggler) straggler_p99[hedging ? 1 : 0] = out.p99;
    }
  }
  if (jf != nullptr) std::fclose(jf);

  // Acceptance: on the identical straggler schedule, first-reply-wins
  // hedging must not worsen the tail.
  if (straggler_p99[1] > straggler_p99[0]) {
    std::fprintf(stderr,
                 "[exp12] HEDGING WORSENED straggler p99: %.4fs -> %.4fs\n",
                 straggler_p99[0], straggler_p99[1]);
    all_ok = false;
  }
  std::fprintf(stderr, "[exp12] straggler p99 unhedged=%.4fs hedged=%.4fs\n",
               straggler_p99[0], straggler_p99[1]);

  if (!all_ok) {
    std::fprintf(stderr, "[exp12] VERIFICATION FAILED\n");
    return 3;
  }
  return 0;
}
