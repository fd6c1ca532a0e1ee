#ifndef HCPATH_SERVICE_PATH_ENGINE_H_
#define HCPATH_SERVICE_PATH_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bfs/msbfs.h"
#include "core/batch_context.h"
#include "core/enumerator.h"
#include "core/options.h"
#include "core/path.h"
#include "core/query.h"
#include "core/stats.h"
#include "graph/graph.h"
#include "graph/graph_store.h"
#include "index/endpoint_cache.h"
#include "service/clock.h"
#include "service/tenant_queue.h"
#include "util/status.h"

namespace hcpath {

/// Tenant id used by the tenant-less Submit overload.
inline const std::string kDefaultTenant;

/// Options of a PathEngine (see docs/SERVICE.md).
struct PathEngineOptions {
  /// Pipeline configuration shared by every micro-batch: algorithm,
  /// clustering γ, thread count, per-query caps. Validated at engine
  /// construction.
  BatchOptions batch;

  /// Multi-tenant admission: bounded queue budgets, backpressure policy,
  /// overload shedding, WFQ tenant weights. Validated at engine
  /// construction alongside `batch`.
  AdmissionOptions admission;

  /// Admission cut by size: a micro-batch is dispatched as soon as this
  /// many queries are pending. Values < 1 behave as 1.
  size_t max_batch_size = 64;

  /// Timed vs untimed cuts. > 0 (timed): the background dispatcher is
  /// work-conserving — whenever it is free and queries are pending it cuts
  /// them at once (an idle cut), so a batch grows only while the previous
  /// one runs; the value itself bounds the wait only under manual dispatch,
  /// where StepDispatch cuts once the oldest pending query has waited this
  /// long on the injected clock. <= 0 (untimed): cuts happen on size,
  /// Flush, or shutdown only — the deterministic mode the differential
  /// tests drive.
  double max_wait_seconds = 0.002;

  /// Time source and wait strategy for every admission timing decision
  /// (wait cuts, shed patience, blocked-submit deadlines). nullptr = the
  /// process-wide WallClock. Tests inject a VirtualClock to make cut and
  /// shed ordering exactly assertable; the clock must outlive the engine.
  Clock* clock = nullptr;

  /// Manual dispatch: no background admission thread is started; cuts only
  /// happen when StepDispatch() is called (and at destruction, which still
  /// drains). Combined with a VirtualClock this is the deterministic
  /// scheduler simulation the admission tests drive: the test interleaves
  /// Submit / AdvanceTo / StepDispatch and observes exactly one schedule.
  bool manual_dispatch = false;

  /// Materialize each query's paths into its QueryResult when the caller
  /// gave no per-query sink. Disable for count-only serving.
  bool collect_paths = true;

  /// Cross-batch endpoint distance cache (docs/SERVICE.md): repeated
  /// endpoints skip their BFS in later batches' index builds. Served maps
  /// are content-identical to fresh builds, so results are unaffected.
  bool enable_distance_cache = true;
  size_t distance_cache_max_entries = 4096;
  uint64_t distance_cache_max_bytes = 256ull << 20;

  /// Incremental endpoint-cache repair (store mode, docs/DYNAMIC.md): after
  /// an update batch invalidates cache entries cone-precisely, ApplyUpdates
  /// re-runs the capped BFS for up to this many of the erased
  /// (vertex, direction, cap) keys against the NEW snapshot — most recently
  /// used first — and reinserts the results before the new view is
  /// published. Repaired entries are bit-identical to what the next index
  /// build would have computed on a miss (a capped BFS is a pure function
  /// of (source, cap, graph)), so this trades update-path latency for
  /// post-update hit rate without affecting any query result. 0 disables
  /// repair (invalidated keys refill lazily on their next miss).
  size_t cache_repair_max_keys = 1024;
};

/// Outcome of one submitted query.
struct QueryResult {
  Status status;
  /// Tenant the query was submitted under (kDefaultTenant when none).
  std::string tenant;
  uint64_t path_count = 0;
  /// Epoch of the graph snapshot this query was admitted against and ran
  /// on (GraphStore / docs/DYNAMIC.md). Always 0 on a fixed-graph engine;
  /// on a store-backed engine the result is byte-identical to a
  /// from-scratch run on exactly this snapshot, regardless of updates
  /// applied while the query was queued or running.
  uint64_t graph_epoch = 0;
  /// The query's paths, when the engine collects (collect_paths and no
  /// per-query sink); empty otherwise.
  PathSet paths;
  /// Submit-to-dispatch time in the engine clock's seconds, INCLUDING any
  /// time the Submit call spent blocked on admission backpressure.
  double wait_seconds = 0;
  /// Pipeline wall time of the micro-batch that carried this query.
  double batch_seconds = 0;
};

/// Aggregate engine counters (monotonic since construction).
struct PathEngineStats {
  uint64_t queries_submitted = 0;
  uint64_t queries_rejected = 0;  ///< failed admission-time validation
  uint64_t queries_completed = 0;
  /// Admission-control outcomes (docs/SERVICE.md, "Overload behavior").
  uint64_t queries_shed = 0;        ///< dropped by overload shedding
  uint64_t submits_fast_failed = 0; ///< ResourceExhausted at a full queue
  uint64_t backpressure_blocks = 0; ///< submits that waited for queue space
  uint64_t shed_rounds = 0;         ///< shedding episodes
  uint64_t peak_queued_queries = 0; ///< admission-queue entry high-water mark
  uint64_t peak_queued_bytes = 0;   ///< admission-queue byte high-water mark
  /// Pipeline invocations. Equals the number of micro-batch cuts on a
  /// fixed-graph engine; on a store-backed engine a cut whose queries pin
  /// different snapshots executes once per distinct pinned epoch.
  uint64_t batches_run = 0;
  uint64_t size_cuts = 0;   ///< micro-batches cut on max_batch_size
  uint64_t wait_cuts = 0;   ///< manual dispatch: cut on max_wait_seconds
  uint64_t flush_cuts = 0;  ///< micro-batches cut by Flush() or shutdown
  /// Timed mode, background dispatcher: underfull micro-batches cut as
  /// soon as the dispatcher was free to run them.
  uint64_t idle_cuts = 0;
  uint64_t distance_cache_hits = 0;
  uint64_t distance_cache_misses = 0;
  /// Successful ApplyUpdates calls on a store-backed engine.
  uint64_t graph_updates = 0;
  /// Endpoint-cache entries rebuilt against the new snapshot by incremental
  /// repair (PathEngineOptions::cache_repair_max_keys), and invalidated
  /// keys left for lazy refill because the per-update repair budget was
  /// exhausted.
  uint64_t cache_entries_repaired = 0;
  uint64_t cache_repair_skipped = 0;
  /// Pipeline counters accumulated across all micro-batches.
  BatchStats batch_stats;
  /// Per-tenant admission counters, keyed by tenant id (kDefaultTenant for
  /// the tenant-less Submit overload).
  std::map<std::string, TenantAdmissionStats> tenants;
};

/// Long-lived batch path-query service: the architectural seam between the
/// BatchEnum pipeline (a pure batch function) and sustained multi-tenant
/// query traffic.
///
/// A PathEngine owns the graph reference, the shared thread pool, a
/// recycled BatchContext (index storage, BFS/cluster scratch, merge
/// buffers), and the cross-batch endpoint distance cache. Submit() feeds a
/// bounded per-tenant admission queue and returns a future; the dispatcher
/// cuts micro-batches by max-size, or in timed mode whenever it is idle
/// (plus explicit Flush() and shutdown drain), drains them by weighted
/// fair queueing across tenants,
/// and drives each through RunPipeline (the entry point
/// BatchPathEnumerator::Run uses too) with the recycled context, streaming
/// paths to the per-query sinks in the pipeline's deterministic emission
/// order.
///
/// Overload behavior (docs/SERVICE.md has the state machine):
///  * The admission queue is bounded by entry and byte budgets
///    (AdmissionOptions). A Submit that would exceed them either blocks —
///    blocked submitters are admitted in FIFO order — or fails fast with
///    ResourceExhausted ("admission queue full ..."), per
///    `admission.backpressure`.
///  * Once the queue has been at or above the high watermark for
///    `shed_patience_seconds`, waiting queries are shed lowest-weight-first
///    (ties: lexicographically greatest tenant, newest-first within a
///    tenant) down to the low watermark. A shed query's future resolves
///    with ResourceExhausted ("query shed by admission control ...").
///    These two messages are the complete, documented vocabulary by which
///    the engine fails an already-submitted query for policy reasons.
///
/// Determinism: admission never alters results — each admitted query's
/// paths, count, and Status are byte-identical to an unloaded one-shot
/// Run{Batch,Basic}Enum call on any batch containing it, regardless of
/// tenant mix, queue pressure, thread count, or cache warmth (asserted by
/// differential_fuzz_test's EngineMultiTenantParity and the virtual-clock
/// suite in admission_sim_test; coherence argument in docs/SERVICE.md).
/// Queries that fail validation are rejected at admission (their future
/// carries InvalidArgument) and never poison co-batched queries; a
/// mid-batch pipeline error (e.g. a max_paths cap) fails every query of
/// that micro-batch with the batch's Status, exactly as the one-shot call
/// would.
///
/// Dynamic graphs (docs/DYNAMIC.md): a PathEngine constructed over a
/// GraphStore serves queries against epoch-stamped snapshots. Submit pins
/// the snapshot current at admission into the query; ApplyUpdates installs
/// a new snapshot without touching in-flight or queued work — each query
/// enumerates exactly the graph it was admitted against, so its result is
/// byte-identical to a from-scratch run on that snapshot. Endpoint-cache
/// entries are invalidated cone-precisely (only keys whose capped BFS can
/// reach a touched edge; EndpointDistanceCache::InvalidateUpdated), and
/// retired snapshots are reclaimed by the store's deferred GC once no
/// pinned query or caller reference remains.
///
/// Thread-safety: Submit/Flush/Drain/RunBatch/GetStats/StepDispatch and
/// (store mode) ApplyUpdates may be called from any thread. In fixed mode
/// the graph must outlive the engine and stay immutable; in store mode the
/// store must outlive the engine and all mutation must go through
/// ApplyUpdates on this engine (mutating the store directly would bypass
/// cache invalidation).
class PathEngine {
 public:
  /// Fixed-graph engine: every query runs on `g`, epoch 0.
  PathEngine(const Graph& g, const PathEngineOptions& options);

  /// Store-backed (dynamic) engine: queries pin the store's current
  /// snapshot at admission; ApplyUpdates advances it.
  PathEngine(GraphStore* store, const PathEngineOptions& options);

  /// Drains every pending query (shutdown acts as a final Flush — in
  /// manual mode the destructor steps the dispatcher itself), wakes blocked
  /// submitters (they fail with FailedPrecondition), then joins the
  /// admission thread. Futures of drained queries are fulfilled.
  ~PathEngine();

  PathEngine(const PathEngine&) = delete;
  PathEngine& operator=(const PathEngine&) = delete;

  /// Construction outcome: InvalidArgument when PathEngineOptions.batch or
  /// .admission fails validation. A failed engine rejects every
  /// Submit/RunBatch.
  const Status& status() const { return init_status_; }

  /// Enqueues one query under `tenant_id`; the future resolves when its
  /// micro-batch completes (or admission control sheds/rejects it — see the
  /// class comment for the documented Status vocabulary). With a `sink`,
  /// the query's paths stream there (tagged with the query's index inside
  /// its micro-batch) and QueryResult.paths stays empty. Sink calls across
  /// a micro-batch are totally ordered (the merge lets one thread at a time
  /// own the sink) and follow the pipeline's deterministic emission order,
  /// but at num_threads > 1 they may arrive on any pool worker thread —
  /// sinks must not assume thread affinity. Invalid queries resolve
  /// immediately with InvalidArgument. May block when the admission queue
  /// is full and `admission.backpressure` is kBlock.
  std::future<QueryResult> Submit(const std::string& tenant_id,
                                  const PathQuery& query,
                                  PathSink* sink = nullptr);

  /// Tenant-less convenience overload: submits under kDefaultTenant.
  std::future<QueryResult> Submit(const PathQuery& query,
                                  PathSink* sink = nullptr);

  /// Requests an immediate cut of everything currently queued (possibly
  /// several max_batch_size micro-batches). Non-blocking; pair with the
  /// returned futures or Drain() to wait (in manual mode, with
  /// StepDispatch).
  void Flush();

  /// Blocks until the admission queue is empty and no batch is in flight.
  /// In manual mode some other thread must call StepDispatch for this to
  /// make progress.
  void Drain();

  /// Manual mode only: performs one dispatcher iteration synchronously on
  /// the calling thread — sheds if overload patience has expired, then, if
  /// a cut condition holds (size, wait per the injected clock, Flush, or
  /// shutdown), cuts one micro-batch by weighted fair queueing and runs it
  /// inline. Returns the number of queries carried (0 = no cut fired).
  size_t StepDispatch();

  /// Synchronous path: runs `queries` as one micro-batch through the same
  /// recycled context and distance cache, bypassing the admission queue
  /// (serialized against it). Exactly the one-shot pipeline semantics,
  /// including whole-batch validation.
  Status RunBatch(const std::vector<PathQuery>& queries, PathSink* sink,
                  BatchStats* stats = nullptr);

  /// Store mode only: applies one batch of edge updates, producing the
  /// store's next snapshot, and reconciles the engine's caches with it —
  /// endpoint-distance entries are invalidated cone-precisely against the
  /// batch's effective delta, and a new serving view pins the new
  /// snapshot. Queries already admitted keep their
  /// pinned snapshot; queries submitted after return see the new one.
  /// Concurrent ApplyUpdates calls serialize; batches need not pause.
  /// Returns FailedPrecondition on a fixed-graph engine, otherwise the
  /// store's result (new snapshot + effective delta).
  StatusOr<GraphUpdateResult> ApplyUpdates(std::span<const EdgeUpdate> updates);

  /// The epoch queries submitted now would pin (always 0 in fixed mode).
  uint64_t current_epoch() const;

  PathEngineStats GetStats() const;

  /// Drops every cached distance map (counters and budgets stay).
  void InvalidateDistanceCache();

  /// Spills the endpoint-distance cache to `path` (index/cache_persist.h,
  /// docs/PERSIST.md): every entry valid at the current serving epoch,
  /// keyed to the current graph's content checksum. Pair with
  /// GraphStore::SaveSnapshot taken under the same quiesced epoch for a
  /// consistent checkpoint. FailedPrecondition when the cache is disabled.
  Status SaveDistanceCache(const std::string& path);

  /// Restores a spill written by SaveDistanceCache into this engine's
  /// cache, stamped at the current epoch. The spill is revalidated against
  /// the current graph's content checksum and refused on mismatch
  /// (FailedPrecondition) — restoring is then exactly a warm cache, never
  /// a wrong one. Returns the number of entries resident after the
  /// restore.
  StatusOr<size_t> RestoreDistanceCache(const std::string& path);

  /// The engine's distance cache, or nullptr when disabled. The cache
  /// object is unsynchronized (the dispatcher mutates it while batches
  /// run), so reading its counters requires a quiesced engine — Drain()
  /// with no concurrent Submit/RunBatch. Concurrent monitoring should use
  /// GetStats(), whose cache totals are mutex-guarded.
  const EndpointDistanceCache* distance_cache() const {
    return options_.enable_distance_cache ? &cache_ : nullptr;
  }

  const PathEngineOptions& options() const { return options_; }

 private:
  /// One immutable serving view: a graph snapshot and its epoch. Built
  /// once per snapshot (at construction, then per ApplyUpdates) and
  /// shared read-only by every query pinned to it; the shared_ptr keeps
  /// the snapshot alive until its last pinned query resolves, which is
  /// what the store's deferred GC keys on.
  struct EngineView {
    std::shared_ptr<const GraphSnapshot> snapshot;  ///< null in fixed mode
    uint64_t epoch = 0;
    /// The snapshot's graph; outlives the view via `snapshot` / the fixed
    /// graph's engine-outliving contract.
    const Graph* graph = nullptr;
  };

  struct Pending {
    PathQuery query;
    PathSink* sink = nullptr;
    std::promise<QueryResult> promise;
    /// The serving view pinned at admission: this query enumerates this
    /// snapshot no matter how many updates land before it runs.
    std::shared_ptr<const EngineView> view;
    /// When the Submit call entered the engine — BEFORE any backpressure
    /// blocking, unlike the queue item's enqueue stamp (which drives the
    /// wait cut) — so QueryResult.wait_seconds covers the full
    /// submit-to-dispatch interval.
    double submitted_seconds = 0;
  };
  using QueueItem = WeightedFairQueue<Pending>::Item;
  enum class CutReason { kSize, kWait, kFlush, kIdle };

  /// Bookkeeping bytes one queued query charges against the byte budget.
  static uint64_t QueryCostBytes(const std::string& tenant_id);

  /// Shared construction tail (view bootstrap, tenant weights, pool,
  /// dispatcher start).
  void Init();
  /// Builds a serving view over a snapshot's graph. `snapshot` is null in
  /// fixed mode.
  std::shared_ptr<const EngineView> MakeView(
      std::shared_ptr<const GraphSnapshot> snapshot, const Graph* graph,
      uint64_t epoch) const;
  /// The view a query submitted now pins.
  std::shared_ptr<const EngineView> CurrentView() const;

  void DispatchLoop();
  size_t StepDispatchLocked(std::unique_lock<std::mutex>& lk);
  void RunMicroBatch(std::vector<QueueItem> batch, CutReason reason);

  /// True when a query of `cost` bytes fits the queue budgets (an empty
  /// queue always admits).
  bool HasSpaceLocked(uint64_t cost) const;
  /// Refreshes overload_since_ from the current queue level.
  void UpdateOverloadLocked();
  /// The low-watermark shed targets: shedding stops once both hold.
  void ShedTargetsLocked(size_t* target_items, uint64_t* target_bytes) const;
  /// True when shedding would actually remove something (queue above the
  /// low-watermark targets).
  bool AboveShedTargetsLocked() const;
  /// True when the overload episode has outlasted the shed patience and
  /// there is something to shed.
  bool ShedDueLocked() const;
  /// When overload has persisted past patience, sheds down to the low
  /// watermark and moves the victims into *shed (resolve them with
  /// ResolveShed AFTER releasing mu_). Returns whether anything was shed.
  bool ShedIfDueLocked(std::vector<QueueItem>* shed);
  /// Completes shed queries' futures with the documented Status.
  static void ResolveShed(std::vector<QueueItem> shed);
  /// When shedding is due, sheds under `lk`, wakes space/drain waiters,
  /// and resolves the victims' futures with `lk` released (relocked on
  /// return). Returns whether anything was shed.
  bool ShedAndResolveLocked(std::unique_lock<std::mutex>& lk);
  /// Marks one Submit as leaving the admission critical region (wakes the
  /// destructor when the last one leaves).
  void FinishSubmitLocked();
  /// WFQ-drains `take` queries, refreshes overload state, wakes blocked
  /// submitters.
  std::vector<QueueItem> CutBatchLocked(size_t take);

  /// Incremental cache repair (store mode; caller holds update_mu_, the
  /// new view is NOT yet published): re-runs the capped BFS for up to
  /// cache_repair_max_keys of the invalidated keys — `dead` arrives
  /// MRU-first from InvalidateUpdated's LRU scan, so budget truncation
  /// keeps the hottest keys — on `view`'s graph and reinserts the maps at
  /// `view`'s epoch. Updates the repaired/skipped counters under mu_.
  void RepairCacheEntries(const EngineView& view,
                          std::vector<EndpointDistanceCache::RepairKey>& dead);

  /// Exactly one of these is set: the immutable fixed-mode graph, or the
  /// dynamic-mode snapshot store.
  const Graph* fixed_graph_ = nullptr;
  GraphStore* store_ = nullptr;
  const PathEngineOptions options_;
  Status init_status_;
  Clock* clock_;
  /// The serving view queries pin at admission. Swapped atomically (under
  /// view_mu_) by ApplyUpdates; each view is immutable once published, so
  /// readers only need the pointer load. In fixed mode this is built once
  /// at construction and never changes.
  mutable std::mutex view_mu_;
  std::shared_ptr<const EngineView> view_;
  /// Serializes ApplyUpdates callers (store writes, cache reconciliation,
  /// view swap). Ordered before run_mu_/mu_ is never needed: updates touch
  /// neither; batches keep running on their pinned views throughout.
  std::mutex update_mu_;
  /// Recycled storage of RepairCacheEntries (guarded by update_mu_ like
  /// the repair pass itself): the MS-BFS scratch/result plus the
  /// source/cap staging vectors, so a steady-state update's repair pass
  /// reuses capacity instead of allocating.
  MsBfsScratch repair_scratch_;
  MsBfsResult repair_result_;
  std::vector<VertexId> repair_sources_;
  std::vector<Hop> repair_caps_;
  EndpointDistanceCache cache_;

  /// Serializes pipeline execution (admission batches vs RunBatch): the
  /// BatchContext and the distance cache admit one batch at a time.
  std::mutex run_mu_;
  BatchContext ctx_;

  // Admission state, guarded by mu_.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;    // dispatcher wakeups
  std::condition_variable space_cv_;   // blocked-submitter wakeups
  std::condition_variable drained_cv_; // Drain() waiters
  WeightedFairQueue<Pending> queue_;
  /// FIFO tickets of submits blocked on queue space; the front ticket is
  /// admitted first (deterministic backpressure release ordering).
  std::deque<uint64_t> blocked_;
  uint64_t next_ticket_ = 0;
  /// Submit and StepDispatch calls currently inside the engine. The
  /// destructor waits (idle_cv_) until this drops to zero after setting
  /// stopping_, so a submit woken at shutdown — or a batch an external
  /// stepper is still running — finishes with the engine's members alive.
  size_t submits_active_ = 0;
  std::condition_variable idle_cv_;
  /// Clock time the current overload episode began (queue at/above the
  /// high watermark); empty when not overloaded.
  std::optional<double> overload_since_;
  bool flush_requested_ = false;
  bool stopping_ = false;
  /// Micro-batches currently executing outside the lock. A counter, not a
  /// flag: StepDispatch may be called from several threads at once.
  size_t batches_in_flight_ = 0;
  PathEngineStats stats_;

  std::thread dispatcher_;
};

}  // namespace hcpath

#endif  // HCPATH_SERVICE_PATH_ENGINE_H_
