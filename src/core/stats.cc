#include "core/stats.h"

#include <algorithm>
#include <cstdio>

namespace hcpath {

void BatchStats::Accumulate(const BatchStats& other) {
  build_index_seconds += other.build_index_seconds;
  cluster_seconds += other.cluster_seconds;
  detect_seconds += other.detect_seconds;
  enumerate_seconds += other.enumerate_seconds;
  total_seconds += other.total_seconds;
  edges_expanded += other.edges_expanded;
  edges_pruned += other.edges_pruned;
  paths_emitted += other.paths_emitted;
  join_probes += other.join_probes;
  join_rejected += other.join_rejected;
  join_replays += other.join_replays;
  join_index_rebuilds += other.join_index_rebuilds;
  num_clusters += other.num_clusters;
  sharing_nodes += other.sharing_nodes;
  dominating_nodes += other.dominating_nodes;
  sharing_edges += other.sharing_edges;
  shortcut_splices += other.shortcut_splices;
  cached_paths += other.cached_paths;
  cache_peak_vertices = std::max(cache_peak_vertices,
                                 other.cache_peak_vertices);
  cycle_edges_skipped += other.cycle_edges_skipped;
  distance_cache_hits += other.distance_cache_hits;
  distance_cache_misses += other.distance_cache_misses;
  bfs_bottom_up_levels += other.bfs_bottom_up_levels;
  // Concurrent peaks don't sum; the max is a sound (conservative) bound.
  merge_peak_buffered_bytes = std::max(merge_peak_buffered_bytes,
                                       other.merge_peak_buffered_bytes);
  merge_total_buffered_bytes += other.merge_total_buffered_bytes;
  merge_streamed_items += other.merge_streamed_items;
  merge_final_items += other.merge_final_items;
}

std::string BatchStats::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "total=%.3fs (index=%.3fs cluster=%.3fs detect=%.3fs enum=%.3fs) "
      "paths=%llu expanded=%llu pruned=%llu clusters=%llu "
      "nodes=%llu dominating=%llu splices=%llu cached=%llu joinidx=%llu "
      "replays=%llu bottom_up_levels=%llu",
      total_seconds, build_index_seconds, cluster_seconds, detect_seconds,
      enumerate_seconds, static_cast<unsigned long long>(paths_emitted),
      static_cast<unsigned long long>(edges_expanded),
      static_cast<unsigned long long>(edges_pruned),
      static_cast<unsigned long long>(num_clusters),
      static_cast<unsigned long long>(sharing_nodes),
      static_cast<unsigned long long>(dominating_nodes),
      static_cast<unsigned long long>(shortcut_splices),
      static_cast<unsigned long long>(cached_paths),
      static_cast<unsigned long long>(join_index_rebuilds),
      static_cast<unsigned long long>(join_replays),
      static_cast<unsigned long long>(bfs_bottom_up_levels));
  return buf;
}

void TenantAdmissionStats::Accumulate(const TenantAdmissionStats& other) {
  submitted += other.submitted;
  admitted += other.admitted;
  completed += other.completed;
  rejected += other.rejected;
  fast_failed += other.fast_failed;
  shed += other.shed;
  blocked += other.blocked;
}

std::string TenantAdmissionStats::ToString() const {
  char buf[192];
  std::snprintf(
      buf, sizeof(buf),
      "submitted=%llu admitted=%llu completed=%llu rejected=%llu "
      "fast_failed=%llu shed=%llu blocked=%llu",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(fast_failed),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(blocked));
  return buf;
}

}  // namespace hcpath
