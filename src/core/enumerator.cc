#include "core/enumerator.h"

#include "core/basic_enum.h"
#include "core/batch_enum.h"
#include "core/path_enum.h"
#include "util/timer.h"

namespace hcpath {

namespace {

/// Counts per query and forwards to an optional downstream sink.
class TeeSink : public PathSink {
 public:
  TeeSink(size_t num_queries, PathSink* downstream)
      : counts_(num_queries, 0), downstream_(downstream) {}

  void OnPath(size_t query_index, PathView path) override {
    ++counts_[query_index];
    if (downstream_ != nullptr) downstream_->OnPath(query_index, path);
  }

  void OnPaths(size_t query_index, const PathSet& paths, size_t begin,
               size_t end) override {
    counts_[query_index] += end - begin;
    if (downstream_ != nullptr) {
      downstream_->OnPaths(query_index, paths, begin, end);
    }
  }

  std::vector<uint64_t> TakeCounts() { return std::move(counts_); }

 private:
  std::vector<uint64_t> counts_;
  PathSink* downstream_;
};

}  // namespace

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kPathEnum:
      return "PathEnum";
    case Algorithm::kBasicEnum:
      return "BasicEnum";
    case Algorithm::kBasicEnumPlus:
      return "BasicEnum+";
    case Algorithm::kBatchEnum:
      return "BatchEnum";
    case Algorithm::kBatchEnumPlus:
      return "BatchEnum+";
  }
  return "?";
}

StatusOr<Algorithm> ParseAlgorithm(const std::string& name) {
  if (name == "pathenum" || name == "PathEnum") return Algorithm::kPathEnum;
  if (name == "basic" || name == "BasicEnum") return Algorithm::kBasicEnum;
  if (name == "basic+" || name == "BasicEnum+") {
    return Algorithm::kBasicEnumPlus;
  }
  if (name == "batch" || name == "BatchEnum") return Algorithm::kBatchEnum;
  if (name == "batch+" || name == "BatchEnum+") {
    return Algorithm::kBatchEnumPlus;
  }
  return Status::InvalidArgument("unknown algorithm: " + name);
}

const GraphRemap& BatchPathEnumerator::RemapFor(RemapMode mode) {
  // Keyed on the graph's content version, not just the mode: the reference
  // g_ is stable but the Graph object behind it may be assigned a rebuilt
  // graph between Run calls, and a remap of the dead content would
  // silently translate queries and paths through the wrong renumbering.
  const uint64_t graph_version = g_.version();
  if (remap_cache_ == nullptr || cached_mode_ != mode ||
      cached_graph_version_ != graph_version) {
    remap_cache_ = std::make_unique<GraphRemap>(GraphRemap::Build(g_, mode));
    cached_mode_ = mode;
    cached_graph_version_ = graph_version;
  }
  return *remap_cache_;
}

const ResolvedKernel& BatchPathEnumerator::KernelFor(KernelMode mode,
                                                     const Graph& run_g) {
  const uint64_t graph_version = run_g.version();
  if (kernel_cache_graph_version_ != graph_version ||
      kernel_cache_mode_ != mode) {
    kernel_cache_ = ResolveKernel(mode, run_g);
    kernel_cache_mode_ = mode;
    kernel_cache_graph_version_ = graph_version;
  }
  return kernel_cache_;
}

StatusOr<BatchResult> BatchPathEnumerator::Run(
    const std::vector<PathQuery>& queries, const BatchOptions& options,
    PathSink* sink) {
  // The batch engines validate too, but kPathEnum bypasses them, so every
  // algorithm must range-check its options here.
  Status validated = options.Validate();
  if (!validated.ok()) return validated;
  BatchResult result;
  TeeSink tee(queries.size(), sink);

  // Remapping is handled entirely at this facade: the engines below run on
  // the renumbered graph with translated queries and never see remap_mode,
  // and every emitted path is translated back before reaching `tee`.
  // Queries are validated against the ORIGINAL graph before translation —
  // at the same points the engines validate, so failure ordering and error
  // messages (which embed query ids) are byte-identical to a kNone run.
  const GraphRemap& remap = RemapFor(options.remap_mode);
  TranslatingSink translating(remap, &tee);
  // Translation exists for the caller's sink; per-query counts only key on
  // the query index. With no downstream sink nobody observes path bytes,
  // so the per-path translate-and-copy is skipped and the engines feed the
  // counting tee directly (counts are id-invariant, so this is unobservable
  // apart from the time saved).
  const bool translate = !remap.is_identity() && sink != nullptr;
  PathSink* engine_sink =
      translate ? static_cast<PathSink*>(&translating) : &tee;
  const Graph& run_g = remap.is_identity() ? g_ : remap.remapped();
  BatchOptions run_options = options;
  run_options.remap_mode = RemapMode::kNone;

  Status st = Status::OK();
  switch (options.algorithm) {
    case Algorithm::kPathEnum: {
      WallTimer total;
      SingleQueryOptions sq;
      sq.max_paths = options.max_paths_per_query;
      sq.kernel = options.kernel_mode;
      sq.resolved = KernelFor(options.kernel_mode, run_g);
      // Per-query validation, matching the sequencing of PathEnumQuery
      // itself: queries before an invalid one still emit.
      for (size_t i = 0; i < queries.size() && st.ok(); ++i) {
        PathQuery q = queries[i];
        if (!remap.is_identity()) {
          st = ValidateQueries(g_, {q});
          if (!st.ok()) break;
          q.s = remap.ToNew(q.s);
          q.t = remap.ToNew(q.t);
        }
        st = PathEnumQuery(run_g, q, sq, i, engine_sink, &result.stats);
      }
      result.stats.total_seconds = total.ElapsedSeconds();
      break;
    }
    default: {
      const std::vector<PathQuery>* run_queries = &queries;
      std::vector<PathQuery> translated;
      if (!remap.is_identity()) {
        // Mirrors the batch engines' own up-front whole-batch validation.
        st = ValidateQueries(g_, queries);
        if (!st.ok()) return st;
        translated = remap.TranslateQueries(queries);
        run_queries = &translated;
      }
      const bool optimized = options.algorithm == Algorithm::kBasicEnumPlus ||
                             options.algorithm == Algorithm::kBatchEnumPlus;
      if (options.algorithm == Algorithm::kBasicEnum ||
          options.algorithm == Algorithm::kBasicEnumPlus) {
        st = RunBasicEnum(run_g, *run_queries, run_options, optimized,
                          engine_sink, &result.stats);
      } else {
        st = RunBatchEnum(run_g, *run_queries, run_options, optimized,
                          engine_sink, &result.stats);
      }
      break;
    }
  }
  if (!st.ok()) return st;
  result.path_counts = tee.TakeCounts();
  return result;
}

}  // namespace hcpath
