#include "index/cache_persist.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

#include "graph/graph_snapshot_io.h"
#include "util/atomic_write.h"

namespace hcpath {

namespace {

constexpr uint64_t kSpillMagic = 0x3148434143504348ULL;  // "HCPCACH1" LE
constexpr uint32_t kSpillFormatVersion = 1;
constexpr uint64_t kEndianMarker = 0x0102030405060708ULL;

struct SpillHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t reserved;
  uint64_t endian;
  uint64_t epoch;
  uint64_t graph_checksum;
  uint64_t num_vertices;
  uint64_t entry_count;
  uint64_t payload_bytes;
  uint64_t payload_checksum;
  uint64_t header_checksum;  ///< Checksum64 over the preceding 72 bytes
};
static_assert(sizeof(SpillHeader) == 80);
constexpr size_t kHeaderChecksumOffset =
    offsetof(SpillHeader, header_checksum);

struct EntryHeader {
  uint32_t vertex;
  uint8_t dir;
  uint8_t cap;
  uint16_t reserved;
  uint32_t pair_count;
};
static_assert(sizeof(EntryHeader) == 12);

struct Pair {
  uint32_t vertex;
  uint8_t hop;
};
constexpr size_t kPairBytes = 5;  // packed on disk: u32 vertex + u8 hop

void AppendBytes(std::vector<char>& out, const void* p, size_t len) {
  const char* c = static_cast<const char*>(p);
  out.insert(out.end(), c, c + len);
}

}  // namespace

Status SaveEndpointCacheSpill(const EndpointDistanceCache& cache,
                              uint64_t epoch, const Graph& graph,
                              const std::string& path, CacheSpillInfo* info) {
  std::vector<EndpointDistanceCache::PersistedEntry> entries =
      cache.ExportEntries(epoch);

  // Serialize the payload in memory first (spills are small relative to
  // the graph: bounded by the cache's byte budget).
  std::vector<char> payload;
  std::vector<Pair> pairs;
  for (const auto& e : entries) {
    pairs.clear();
    pairs.reserve(e.map.size());
    e.map.ForEach([&](VertexId v, Hop d) {
      pairs.push_back(Pair{v, d});
    });
    // ForEach order depends on the backing (hash vs dense); sort so the
    // spill bytes are deterministic for identical cache content.
    std::sort(pairs.begin(), pairs.end(),
              [](const Pair& a, const Pair& b) { return a.vertex < b.vertex; });
    EntryHeader eh{e.vertex, static_cast<uint8_t>(e.dir == Direction::kBackward ? 1 : 0),
                   e.cap, 0, static_cast<uint32_t>(pairs.size())};
    AppendBytes(payload, &eh, sizeof(eh));
    for (const Pair& p : pairs) {
      AppendBytes(payload, &p.vertex, sizeof(p.vertex));
      AppendBytes(payload, &p.hop, sizeof(p.hop));
    }
  }

  SpillHeader h{};
  h.magic = kSpillMagic;
  h.version = kSpillFormatVersion;
  h.reserved = 0;
  h.endian = kEndianMarker;
  h.epoch = epoch;
  h.graph_checksum = GraphContentChecksum(graph);
  h.num_vertices = graph.NumVertices();
  h.entry_count = entries.size();
  h.payload_bytes = payload.size();
  h.payload_checksum = Checksum64(payload.data(), payload.size(), 0);
  h.header_checksum = Checksum64(&h, kHeaderChecksumOffset, 0);

  HCPATH_RETURN_NOT_OK(
      WriteFileAtomically(path, "cache spill", [&](std::ostream& out) {
        out.write(reinterpret_cast<const char*>(&h), sizeof(h));
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        return Status::OK();
      }));
  if (info != nullptr) {
    *info = {h.epoch, h.graph_checksum, h.num_vertices, h.entry_count,
             sizeof(h) + payload.size()};
  }
  return Status::OK();
}

namespace {

Status ValidateSpillHeader(const std::string& path, const SpillHeader& h,
                           uint64_t file_bytes) {
  if (h.magic != kSpillMagic) {
    return Status::InvalidArgument("not a cache spill (bad magic): " + path);
  }
  if (h.header_checksum != Checksum64(&h, kHeaderChecksumOffset, 0)) {
    return Status::InvalidArgument("cache spill header checksum mismatch: " +
                                   path);
  }
  if (h.endian != kEndianMarker) {
    return Status::InvalidArgument(
        "cache spill written with different byte order: " + path);
  }
  if (h.version != kSpillFormatVersion) {
    return Status::InvalidArgument("unsupported cache spill version " +
                                   std::to_string(h.version) + ": " + path);
  }
  if (file_bytes != sizeof(SpillHeader) + h.payload_bytes) {
    return Status::InvalidArgument(
        "cache spill size inconsistent with header: " + path);
  }
  // Every entry costs at least an EntryHeader; bounds entry_count before
  // anyone sizes anything from it.
  if (h.entry_count > h.payload_bytes / sizeof(EntryHeader) + 1) {
    return Status::InvalidArgument("cache spill entry count corrupt: " + path);
  }
  return Status::OK();
}

}  // namespace

StatusOr<size_t> RestoreEndpointCacheSpill(EndpointDistanceCache* cache,
                                           uint64_t epoch, const Graph& graph,
                                           const std::string& path,
                                           CacheSpillInfo* info) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open cache spill: " + path);
  in.seekg(0, std::ios::end);
  const uint64_t file_bytes = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (file_bytes < sizeof(SpillHeader)) {
    return Status::InvalidArgument("cache spill file too small: " + path);
  }
  SpillHeader h;
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!in) return Status::IOError("cannot read cache spill header: " + path);
  HCPATH_RETURN_NOT_OK(ValidateSpillHeader(path, h, file_bytes));

  // Revalidation gate: the spill must have been taken against exactly this
  // graph content, or every map in it is potentially wrong.
  const uint64_t n = graph.NumVertices();
  if (h.num_vertices != n ||
      h.graph_checksum != GraphContentChecksum(graph)) {
    return Status::FailedPrecondition(
        "cache spill was taken against different graph content: " + path);
  }

  std::vector<char> payload(static_cast<size_t>(h.payload_bytes));
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!in) return Status::IOError("truncated cache spill: " + path);
  if (Checksum64(payload.data(), payload.size(), 0) != h.payload_checksum) {
    return Status::InvalidArgument("cache spill payload checksum mismatch: " +
                                   path);
  }

  std::vector<EndpointDistanceCache::PersistedEntry> entries;
  entries.reserve(static_cast<size_t>(h.entry_count));
  size_t pos = 0;
  for (uint64_t i = 0; i < h.entry_count; ++i) {
    if (pos + sizeof(EntryHeader) > payload.size()) {
      return Status::InvalidArgument("cache spill truncated entry: " + path);
    }
    EntryHeader eh;
    std::memcpy(&eh, payload.data() + pos, sizeof(eh));
    pos += sizeof(eh);
    if (eh.vertex >= n || eh.dir > 1 || eh.reserved != 0 ||
        eh.cap == kUnreachable) {
      return Status::InvalidArgument("cache spill entry corrupt: " + path);
    }
    const size_t pair_bytes = static_cast<size_t>(eh.pair_count) * kPairBytes;
    if (pos + pair_bytes > payload.size()) {
      return Status::InvalidArgument("cache spill truncated pairs: " + path);
    }
    EndpointDistanceCache::PersistedEntry pe;
    pe.vertex = eh.vertex;
    pe.dir = eh.dir == 1 ? Direction::kBackward : Direction::kForward;
    pe.cap = eh.cap;
    pe.map.SetUniverse(static_cast<size_t>(n));
    pe.map.Reserve(eh.pair_count);
    VertexId prev = kInvalidVertex;
    for (uint32_t p = 0; p < eh.pair_count; ++p) {
      uint32_t v;
      uint8_t d;
      std::memcpy(&v, payload.data() + pos, sizeof(v));
      d = static_cast<uint8_t>(payload[pos + sizeof(v)]);
      pos += kPairBytes;
      // Sorted-ascending is part of the format; it also rejects duplicate
      // keys. Hops beyond the entry's cap (or kUnreachable) are corrupt.
      if (v >= n || d > eh.cap || (prev != kInvalidVertex && v <= prev)) {
        return Status::InvalidArgument("cache spill pair corrupt: " + path);
      }
      prev = v;
      pe.map.InsertMin(v, d);
    }
    entries.push_back(std::move(pe));
  }
  if (pos != payload.size()) {
    return Status::InvalidArgument("cache spill trailing bytes: " + path);
  }

  const size_t resident = cache->RestoreEntries(std::move(entries), epoch);
  if (info != nullptr) {
    *info = {h.epoch, h.graph_checksum, h.num_vertices, h.entry_count,
             file_bytes};
  }
  return resident;
}

StatusOr<CacheSpillInfo> ReadCacheSpillInfo(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open cache spill: " + path);
  in.seekg(0, std::ios::end);
  const uint64_t file_bytes = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (file_bytes < sizeof(SpillHeader)) {
    return Status::InvalidArgument("cache spill file too small: " + path);
  }
  SpillHeader h;
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!in) return Status::IOError("cannot read cache spill header: " + path);
  HCPATH_RETURN_NOT_OK(ValidateSpillHeader(path, h, file_bytes));
  return CacheSpillInfo{h.epoch, h.graph_checksum, h.num_vertices,
                        h.entry_count, file_bytes};
}

}  // namespace hcpath
