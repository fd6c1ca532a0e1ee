#ifndef HCPATH_INDEX_CACHE_PERSIST_H_
#define HCPATH_INDEX_CACHE_PERSIST_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"
#include "index/endpoint_cache.h"
#include "util/status.h"

namespace hcpath {

/// Endpoint-distance cache spill/restore (docs/PERSIST.md): serializes the
/// cache's live entries at shutdown and reloads them at startup, so a
/// restarted PathEngine warms from disk instead of re-running one BFS per
/// hot endpoint.
///
/// Correctness rests on a revalidation argument, not trust: each cached
/// map is a pure function of (graph content, vertex, direction, hop cap).
/// The spill header records GraphContentChecksum of the graph the entries
/// were valid against plus the checkpoint epoch; restore recomputes the
/// checksum of the graph it is restoring against and refuses on mismatch
/// (FailedPrecondition). When the checksums agree the graphs have
/// identical CSR arrays, so every restored map equals the BFS the engine
/// would have rebuilt — the restore is indistinguishable from a warm
/// cache, and the entries are stamped with the restoring store's epoch.
///
/// File layout (native-endian; sizes in bytes):
///   header (72): magic "HCPCACH1" u64, version u32, reserved u32,
///     endian marker u64, epoch u64, graph_checksum u64, num_vertices u64,
///     entry_count u64, payload_bytes u64, payload_checksum u64,
///     header_checksum u64 (Checksum64 over the preceding 64 bytes)
///   per entry: vertex u32, dir u8, cap u8, reserved u16, pair_count u32,
///     then pair_count × (vertex u32, hop u8) sorted by vertex id.
struct CacheSpillInfo {
  uint64_t epoch = 0;           ///< checkpoint epoch recorded at save
  uint64_t graph_checksum = 0;  ///< GraphContentChecksum of the graph
  uint64_t num_vertices = 0;
  uint64_t entry_count = 0;     ///< entries in the file
  uint64_t file_bytes = 0;
};

/// Spills every entry of `cache` valid at `epoch` to `path`, recording
/// `graph`'s content checksum for restore-time revalidation. `graph` must
/// be the graph the engine serves at `epoch`
/// (PathEngine::SaveDistanceCache passes the right one). Entries are
/// written in LRU order (hottest first) so a truncating reader or a
/// smaller restore target keeps the most valuable prefix.
Status SaveEndpointCacheSpill(const EndpointDistanceCache& cache,
                              uint64_t epoch, const Graph& graph,
                              const std::string& path,
                              CacheSpillInfo* info = nullptr);

/// Restores a spill into `cache`, stamping every entry with `epoch` (the
/// restoring store's current epoch). Refuses with FailedPrecondition when
/// the spill's graph checksum or vertex count does not match `graph` —
/// the spill was taken against different content and its maps would be
/// silently wrong. Corrupt files are InvalidArgument/IOError. Returns the
/// number of entries resident in the cache after the restore (budgets may
/// evict cold imports).
StatusOr<size_t> RestoreEndpointCacheSpill(EndpointDistanceCache* cache,
                                           uint64_t epoch, const Graph& graph,
                                           const std::string& path,
                                           CacheSpillInfo* info = nullptr);

/// Header-only peek: epoch, checksum, and entry count of a spill file.
StatusOr<CacheSpillInfo> ReadCacheSpillInfo(const std::string& path);

}  // namespace hcpath

#endif  // HCPATH_INDEX_CACHE_PERSIST_H_
