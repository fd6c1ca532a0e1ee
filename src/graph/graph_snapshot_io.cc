#include "graph/graph_snapshot_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <vector>

#include "graph/graph_builder.h"
#include "util/atomic_write.h"

namespace hcpath {

namespace {

constexpr uint64_t kSnapshotMagic = 0x3150414E53504348ULL;  // "HCPSNAP1" LE
constexpr uint32_t kSnapshotFormatVersion = 1;
constexpr uint64_t kEndianMarker = 0x0102030405060708ULL;
constexpr size_t kSectionAlign = 64;

constexpr size_t AlignUp(size_t x) {
  return (x + (kSectionAlign - 1)) & ~(kSectionAlign - 1);
}

// Header mirror of the byte layout documented in graph_snapshot_io.h.
// Packed 8/4-byte fields at naturally aligned offsets — static_asserts
// below pin the layout so the documented offsets can't drift.
struct SnapshotHeader {
  uint64_t magic;
  uint32_t version;
  uint32_t flags;
  uint64_t endian;
  uint64_t num_vertices;
  uint64_t num_edges;
  uint64_t epoch;
  uint64_t payload_bytes;
  uint64_t reserved;
  uint64_t payload_checksum;
  uint64_t header_checksum;
};
static_assert(offsetof(SnapshotHeader, magic) == kSnapshotMagicOffset);
static_assert(offsetof(SnapshotHeader, version) == kSnapshotVersionOffset);
static_assert(offsetof(SnapshotHeader, endian) == kSnapshotEndianOffset);
static_assert(offsetof(SnapshotHeader, num_vertices) ==
              kSnapshotNumVerticesOffset);
static_assert(offsetof(SnapshotHeader, num_edges) == kSnapshotNumEdgesOffset);
static_assert(offsetof(SnapshotHeader, epoch) == kSnapshotEpochOffset);
static_assert(offsetof(SnapshotHeader, payload_bytes) ==
              kSnapshotPayloadBytesOffset);
static_assert(offsetof(SnapshotHeader, payload_checksum) ==
              kSnapshotPayloadChecksumOffset);
static_assert(offsetof(SnapshotHeader, header_checksum) ==
              kSnapshotHeaderChecksumOffset);
static_assert(sizeof(SnapshotHeader) == 80);

struct SectionLayout {
  size_t out_offsets_pos;
  size_t out_adj_pos;
  size_t in_offsets_pos;
  size_t in_adj_pos;
  size_t offsets_bytes;  ///< per offsets section: 8*(n+1)
  size_t adj_bytes;      ///< per adjacency section: 4*m
  size_t payload_bytes;  ///< total from kSnapshotHeaderBytes to EOF
};

// Overflow-safe section layout for validated (n, m). Callers must have
// bounded n and m against the file size first.
SectionLayout ComputeLayout(uint64_t n, uint64_t m) {
  SectionLayout l{};
  l.offsets_bytes = static_cast<size_t>(n + 1) * sizeof(uint64_t);
  l.adj_bytes = static_cast<size_t>(m) * sizeof(VertexId);
  l.out_offsets_pos = kSnapshotHeaderBytes;
  l.out_adj_pos = AlignUp(l.out_offsets_pos + l.offsets_bytes);
  l.in_offsets_pos = AlignUp(l.out_adj_pos + l.adj_bytes);
  l.in_adj_pos = AlignUp(l.in_offsets_pos + l.offsets_bytes);
  l.payload_bytes =
      AlignUp(l.in_adj_pos + l.adj_bytes) - kSnapshotHeaderBytes;
  return l;
}

/// RAII owner of the mmapped file region; the loaded Graph pins it via an
/// aliasing shared_ptr, so the mapping lives exactly as long as the last
/// Graph copy reading it.
class MappedRegion {
 public:
  MappedRegion(void* addr, size_t len) : addr_(addr), len_(len) {}
  ~MappedRegion() {
    if (addr_ != nullptr) ::munmap(addr_, len_);
  }
  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;
  const std::byte* data() const {
    return static_cast<const std::byte*>(addr_);
  }

 private:
  void* addr_;
  size_t len_;
};

Status WriteSection(std::ostream& out, const void* data, size_t bytes,
                    size_t end_pad) {
  static const char kZeros[kSectionAlign] = {};
  if (bytes > 0) out.write(static_cast<const char*>(data), bytes);
  if (end_pad > 0) out.write(kZeros, end_pad);
  if (!out) return Status::IOError("short write while saving snapshot");
  return Status::OK();
}

}  // namespace

uint64_t Checksum64(const void* data, size_t len, uint64_t seed) {
  // Murmur-style: mix whole 64-bit words, fold the tail, avalanche. The
  // length is folded in so that e.g. trailing zero bytes change the sum.
  constexpr uint64_t kMul = 0xC6A4A7935BD1E995ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ (static_cast<uint64_t>(len) * kMul);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t k;
    std::memcpy(&k, p + i, 8);
    k *= kMul;
    k ^= k >> 47;
    k *= kMul;
    h ^= k;
    h *= kMul;
  }
  uint64_t tail = 0;
  for (size_t j = len; j > i; --j) tail = (tail << 8) | p[j - 1];
  if (len > i) {
    h ^= tail;
    h *= kMul;
  }
  h ^= h >> 47;
  h *= kMul;
  h ^= h >> 47;
  return h;
}

uint64_t GraphContentChecksum(const Graph& g) {
  if (g.overlay() != nullptr) {
    // Overlay arrays are virtual; fold to a flat CSR and checksum that.
    // Identical edge sets fold to identical arrays (docs/DYNAMIC.md), so
    // the identity is storage-independent.
    Graph flat = GraphBuilder::MergeRebuild(g, UpdateApplyStats{});
    return GraphContentChecksum(flat);
  }
  auto oo = g.OutOffsetsView();
  auto oa = g.OutAdjView();
  auto io = g.InOffsetsView();
  auto ia = g.InAdjView();
  uint64_t h = Checksum64(oo.data(), oo.size_bytes(), 0);
  h = Checksum64(oa.data(), oa.size_bytes(), h);
  h = Checksum64(io.data(), io.size_bytes(), h);
  h = Checksum64(ia.data(), ia.size_bytes(), h);
  return h;
}

Status SaveGraphSnapshot(const Graph& g, const std::string& path,
                         uint64_t epoch, GraphSnapshotInfo* info) {
  if (g.overlay() != nullptr) {
    Graph flat = GraphBuilder::MergeRebuild(g, UpdateApplyStats{});
    return SaveGraphSnapshot(flat, path, epoch, info);
  }
  auto oo = g.OutOffsetsView();
  auto oa = g.OutAdjView();
  auto io = g.InOffsetsView();
  auto ia = g.InAdjView();
  // A default-constructed graph has no arrays at all; serialize it as the
  // canonical empty CSR (n = 0: one zero offset per direction) so every
  // snapshot round-trips to a structurally valid graph.
  static const uint64_t kZeroOffset = 0;
  if (oo.empty()) {
    oo = {&kZeroOffset, 1};
    io = {&kZeroOffset, 1};
  }
  const uint64_t n = oo.size() - 1;
  const uint64_t m = oa.size();
  const SectionLayout l = ComputeLayout(n, m);

  SnapshotHeader h{};
  h.magic = kSnapshotMagic;
  h.version = kSnapshotFormatVersion;
  h.flags = 0;
  h.endian = kEndianMarker;
  h.num_vertices = n;
  h.num_edges = m;
  h.epoch = epoch;
  h.payload_bytes = l.payload_bytes;
  h.reserved = 0;
  uint64_t payload = Checksum64(oo.data(), oo.size_bytes(), 0);
  payload = Checksum64(oa.data(), oa.size_bytes(), payload);
  payload = Checksum64(io.data(), io.size_bytes(), payload);
  payload = Checksum64(ia.data(), ia.size_bytes(), payload);
  h.payload_checksum = payload;
  h.header_checksum = Checksum64(&h, kSnapshotHeaderChecksumOffset, 0);

  // Written to a temporary file and renamed over `path`: `g` may be an
  // mmap of `path` itself (a store checkpointing over the file it was
  // opened from), and truncating in place would pull its storage away.
  HCPATH_RETURN_NOT_OK(
      WriteFileAtomically(path, "snapshot", [&](std::ostream& out) {
        out.write(reinterpret_cast<const char*>(&h), sizeof(h));
        static const char kZeros[kSectionAlign] = {};
        out.write(kZeros, kSnapshotHeaderBytes - sizeof(h));
        HCPATH_RETURN_NOT_OK(WriteSection(out, oo.data(), oo.size_bytes(),
                                          l.out_adj_pos - l.out_offsets_pos -
                                              l.offsets_bytes));
        HCPATH_RETURN_NOT_OK(WriteSection(out, oa.data(), oa.size_bytes(),
                                          l.in_offsets_pos - l.out_adj_pos -
                                              l.adj_bytes));
        HCPATH_RETURN_NOT_OK(WriteSection(out, io.data(), io.size_bytes(),
                                          l.in_adj_pos - l.in_offsets_pos -
                                              l.offsets_bytes));
        return WriteSection(out, ia.data(), ia.size_bytes(),
                            kSnapshotHeaderBytes + l.payload_bytes -
                                l.in_adj_pos - l.adj_bytes);
      }));
  if (info != nullptr) {
    *info = {epoch, n, m, payload,
             static_cast<uint64_t>(kSnapshotHeaderBytes + l.payload_bytes)};
  }
  return Status::OK();
}

namespace {

/// Reads and fully validates the header against the real file size.
/// Nothing downstream (allocation, mmap length, span construction) uses a
/// header field this function hasn't bounded — that is the contract the
/// corruption tests lock.
Status ValidateHeader(const std::string& path, const SnapshotHeader& h,
                      uint64_t file_bytes, SectionLayout* layout) {
  const uint64_t expect =
      Checksum64(&h, kSnapshotHeaderChecksumOffset, 0);
  if (h.magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a graph snapshot (bad magic): " +
                                   path);
  }
  if (h.header_checksum != expect) {
    return Status::InvalidArgument("snapshot header checksum mismatch: " +
                                   path);
  }
  if (h.endian != kEndianMarker) {
    return Status::InvalidArgument(
        "snapshot written with different byte order: " + path);
  }
  if (h.version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot format version " + std::to_string(h.version) +
        ": " + path);
  }
  if (h.flags != 0 || h.reserved != 0) {
    return Status::InvalidArgument("snapshot reserved fields nonzero: " +
                                   path);
  }
  // Bound n and m by what the payload could physically hold BEFORE
  // computing the layout, so hostile counts can't overflow the layout
  // arithmetic or size an allocation/mapping.
  if (h.num_vertices >= kInvalidVertex) {
    return Status::InvalidArgument("snapshot vertex count too large: " +
                                   path);
  }
  const uint64_t payload_avail =
      file_bytes > kSnapshotHeaderBytes ? file_bytes - kSnapshotHeaderBytes
                                        : 0;
  if (h.num_vertices + 1 > payload_avail / sizeof(uint64_t) ||
      h.num_edges > payload_avail / sizeof(VertexId)) {
    return Status::InvalidArgument(
        "snapshot header counts exceed file size (truncated or oversized "
        "header): " +
        path);
  }
  const SectionLayout l = ComputeLayout(h.num_vertices, h.num_edges);
  if (h.payload_bytes != l.payload_bytes ||
      file_bytes != kSnapshotHeaderBytes + l.payload_bytes) {
    return Status::InvalidArgument(
        "snapshot size inconsistent with header counts (truncated or "
        "oversized header): " +
        path);
  }
  *layout = l;
  return Status::OK();
}

}  // namespace

StatusOr<Graph> LoadGraphSnapshot(const std::string& path,
                                  const GraphSnapshotLoadOptions& options,
                                  GraphSnapshotInfo* info) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open snapshot: " + path + " (" +
                           std::strerror(errno) + ")");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat snapshot: " + path + " (" +
                           std::strerror(err) + ")");
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes < kSnapshotHeaderBytes) {
    ::close(fd);
    return Status::InvalidArgument("snapshot file too small: " + path);
  }
  SnapshotHeader h;
  ssize_t got = ::pread(fd, &h, sizeof(h), 0);
  if (got != static_cast<ssize_t>(sizeof(h))) {
    ::close(fd);
    return Status::IOError("cannot read snapshot header: " + path);
  }
  SectionLayout l;
  Status st_hdr = ValidateHeader(path, h, file_bytes, &l);
  if (!st_hdr.ok()) {
    ::close(fd);
    return st_hdr;
  }

  void* addr = ::mmap(nullptr, static_cast<size_t>(file_bytes), PROT_READ,
                      MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the inode; the fd is not
  // needed afterwards.
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("mmap failed for snapshot: " + path + " (" +
                           std::strerror(errno) + ")");
  }
  auto region = std::make_shared<MappedRegion>(
      addr, static_cast<size_t>(file_bytes));
  const std::byte* base = region->data();

  const uint64_t n = h.num_vertices;
  const uint64_t m = h.num_edges;
  std::span<const uint64_t> oo{
      reinterpret_cast<const uint64_t*>(base + l.out_offsets_pos),
      static_cast<size_t>(n + 1)};
  std::span<const VertexId> oa{
      reinterpret_cast<const VertexId*>(base + l.out_adj_pos),
      static_cast<size_t>(m)};
  std::span<const uint64_t> io{
      reinterpret_cast<const uint64_t*>(base + l.in_offsets_pos),
      static_cast<size_t>(n + 1)};
  std::span<const VertexId> ia{
      reinterpret_cast<const VertexId*>(base + l.in_adj_pos),
      static_cast<size_t>(m)};

  if (options.verify) {
    uint64_t payload = Checksum64(oo.data(), oo.size_bytes(), 0);
    payload = Checksum64(oa.data(), oa.size_bytes(), payload);
    payload = Checksum64(io.data(), io.size_bytes(), payload);
    payload = Checksum64(ia.data(), ia.size_bytes(), payload);
    if (payload != h.payload_checksum) {
      return Status::InvalidArgument("snapshot payload checksum mismatch: " +
                                     path);
    }
    // Structural invariants the Graph constructor would otherwise CHECK
    // (abort) on: offsets monotone from 0 to m, adjacency ids in range.
    for (auto [offsets, name] :
         {std::pair{oo, "out"}, std::pair{io, "in"}}) {
      if (offsets.front() != 0 || offsets.back() != m) {
        return Status::InvalidArgument(
            std::string("snapshot ") + name + "-offsets corrupt: " + path);
      }
      for (size_t i = 0; i + 1 < offsets.size(); ++i) {
        if (offsets[i] > offsets[i + 1]) {
          return Status::InvalidArgument(
              std::string("snapshot ") + name +
              "-offsets not monotone: " + path);
        }
      }
    }
    for (auto adj : {oa, ia}) {
      for (VertexId v : adj) {
        if (v >= n) {
          return Status::InvalidArgument(
              "snapshot adjacency id out of range: " + path);
        }
      }
    }
  } else {
    // Trusted open: still refuse layouts the Graph ctor would abort on.
    if (oo.front() != 0 || oo.back() != m || io.front() != 0 ||
        io.back() != m) {
      return Status::InvalidArgument("snapshot offsets corrupt: " + path);
    }
  }

  if (info != nullptr) {
    *info = {h.epoch, n, m, h.payload_checksum, file_bytes};
  }
  // Aliasing shared_ptr: the Graph pins the whole mapped region.
  std::shared_ptr<const void> storage(region, base);
  return Graph(std::move(storage), oo, oa, io, ia);
}

StatusOr<GraphSnapshotInfo> ReadGraphSnapshotInfo(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open snapshot: " + path + " (" +
                           std::strerror(errno) + ")");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("cannot stat snapshot: " + path + " (" +
                           std::strerror(err) + ")");
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  SnapshotHeader h;
  const bool header_read =
      file_bytes >= kSnapshotHeaderBytes &&
      ::pread(fd, &h, sizeof(h), 0) == static_cast<ssize_t>(sizeof(h));
  ::close(fd);
  if (file_bytes < kSnapshotHeaderBytes) {
    return Status::InvalidArgument("snapshot file too small: " + path);
  }
  if (!header_read) {
    return Status::IOError("cannot read snapshot header: " + path);
  }
  SectionLayout l;
  HCPATH_RETURN_NOT_OK(ValidateHeader(path, h, file_bytes, &l));
  return GraphSnapshotInfo{h.epoch, h.num_vertices, h.num_edges,
                           h.payload_checksum, file_bytes};
}

}  // namespace hcpath
