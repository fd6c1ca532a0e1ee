#include "graph/graph_snapshot_io.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/batch_enum.h"
#include "core/path.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_store.h"
#include "util/atomic_write.h"
#include "util/rng.h"
#include "workload/query_gen.h"

namespace hcpath {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Reads the whole file into a byte string.
std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Patches a little-endian u64 field in a raw snapshot image and repairs
/// the header checksum so only the targeted corruption is visible.
void PatchHeaderField(std::string* bytes, size_t offset, uint64_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
  uint64_t hc = Checksum64(bytes->data(), kSnapshotHeaderChecksumOffset, 0);
  std::memcpy(bytes->data() + kSnapshotHeaderChecksumOffset, &hc, sizeof(hc));
}

TEST(GraphSnapshotIO, RoundTripMmapStructuralEquality) {
  Rng rng(11);
  auto g = GenerateBarabasiAlbert(500, 6, rng);
  std::string path = TempPath("snap_rt.hcs");
  GraphSnapshotInfo save_info;
  ASSERT_TRUE(SaveGraphSnapshot(*g, path, 0, &save_info).ok());

  GraphSnapshotInfo load_info;
  auto loaded = LoadGraphSnapshot(path, {}, &load_info);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->uses_external_storage());
  EXPECT_FALSE(g->uses_external_storage());

  // Structural equality: same dimensions, same edges, same per-direction
  // views, same content checksum as both the saved info and the original.
  EXPECT_EQ(loaded->NumVertices(), g->NumVertices());
  EXPECT_EQ(loaded->NumEdges(), g->NumEdges());
  EXPECT_EQ(loaded->Edges(), g->Edges());
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    ASSERT_TRUE(std::equal(loaded->InNeighbors(v).begin(),
                           loaded->InNeighbors(v).end(),
                           g->InNeighbors(v).begin(),
                           g->InNeighbors(v).end()));
  }
  EXPECT_EQ(GraphContentChecksum(*loaded), GraphContentChecksum(*g));
  EXPECT_EQ(save_info.payload_checksum, GraphContentChecksum(*g));
  EXPECT_EQ(load_info.payload_checksum, save_info.payload_checksum);
  EXPECT_EQ(load_info.num_edges, g->NumEdges());

  // Differential: the enumeration pipeline must be byte-identical on the
  // mmapped graph — storage mode is invisible to every engine.
  auto queries = GenerateRandomQueries(*g, 8, QueryGenOptions{}, rng);
  ASSERT_TRUE(queries.ok()) << queries.status();
  BatchOptions opt;
  CollectingSink ref(queries->size()), got(queries->size());
  ASSERT_TRUE(RunBatchEnum(*g, *queries, opt, true, &ref, nullptr).ok());
  ASSERT_TRUE(RunBatchEnum(*loaded, *queries, opt, true, &got, nullptr).ok());
  for (size_t i = 0; i < queries->size(); ++i) {
    EXPECT_EQ(got.paths(i).ToSortedVectors(), ref.paths(i).ToSortedVectors());
  }
  std::remove(path.c_str());
}

TEST(GraphSnapshotIO, CopyOfMmappedGraphSharesMapping) {
  Rng rng(12);
  auto g = GenerateErdosRenyi(100, 400, rng);
  std::string path = TempPath("snap_copy.hcs");
  ASSERT_TRUE(SaveGraphSnapshot(*g, path).ok());
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Deleting the file while mapped is safe (POSIX inode lifetime), and a
  // copy must keep the mapping alive after the original dies.
  std::remove(path.c_str());
  Graph copy = *loaded;
  EXPECT_TRUE(copy.uses_external_storage());
  *loaded = Graph();  // drop the original's pin
  EXPECT_EQ(copy.Edges(), g->Edges());
}

TEST(GraphSnapshotIO, EmptyAndDefaultGraphRoundTrip) {
  // A default-constructed graph serializes as the canonical empty CSR.
  Graph empty;
  std::string path = TempPath("snap_empty.hcs");
  ASSERT_TRUE(SaveGraphSnapshot(empty, path).ok());
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumVertices(), 0u);
  EXPECT_EQ(loaded->NumEdges(), 0u);
  std::remove(path.c_str());
}

TEST(GraphSnapshotIO, IsolatedVerticesPreserved) {
  GraphBuilder b(50);  // vertices 3.. have no edges
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  auto built = b.Build();
  ASSERT_TRUE(built.ok()) << built.status();
  const Graph& g = *built;
  std::string path = TempPath("snap_iso.hcs");
  ASSERT_TRUE(SaveGraphSnapshot(g, path).ok());
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->NumVertices(), 50u);
  EXPECT_EQ(loaded->Edges(), g.Edges());
  std::remove(path.c_str());
}

TEST(GraphSnapshotIO, OverlayFoldedOnSave) {
  // A store with a huge compaction threshold keeps an overlay alive;
  // SaveSnapshot must fold it, and the loaded graph must equal the
  // overlay's logical edge set.
  Rng rng(13);
  auto seed = GenerateErdosRenyi(120, 500, rng);
  GraphStoreOptions opt;
  opt.compaction_threshold = 100.0;
  GraphStore store(*seed, opt);
  std::vector<EdgeUpdate> ups = {EdgeUpdate::Add(0, 99),
                                 EdgeUpdate::Add(99, 100),
                                 EdgeUpdate::Remove(0, 1)};
  auto res = store.ApplyUpdates(ups);
  ASSERT_TRUE(res.ok()) << res.status();
  ASSERT_TRUE(res->used_overlay);
  ASSERT_NE(store.Current()->graph.overlay(), nullptr);

  std::string path = TempPath("snap_overlay.hcs");
  ASSERT_TRUE(store.SaveSnapshot(path).ok());
  GraphSnapshotInfo info;
  auto loaded = LoadGraphSnapshot(path, {}, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(info.epoch, 1u);
  EXPECT_EQ(loaded->overlay(), nullptr);
  EXPECT_EQ(loaded->Edges(), store.Current()->graph.Edges());
  // GraphContentChecksum folds overlays the same way.
  EXPECT_EQ(GraphContentChecksum(*loaded),
            GraphContentChecksum(store.Current()->graph));
  std::remove(path.c_str());
}

TEST(GraphSnapshotIO, OpenSnapshotResumesEpochAndUpdates) {
  Rng rng(14);
  auto seed = GenerateErdosRenyi(80, 300, rng);
  GraphStore store(*seed);
  std::vector<EdgeUpdate> u1 = {EdgeUpdate::Add(0, 50)};
  std::vector<EdgeUpdate> u2 = {EdgeUpdate::Add(1, 60)};
  ASSERT_TRUE(store.ApplyUpdates(u1).ok());
  ASSERT_TRUE(store.ApplyUpdates(u2).ok());
  ASSERT_EQ(store.epoch(), 2u);

  std::string path = TempPath("snap_store.hcs");
  ASSERT_TRUE(store.SaveSnapshot(path).ok());

  auto reopened = GraphStore::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->epoch(), 2u);
  EXPECT_EQ((*reopened)->Current()->graph.Edges(),
            store.Current()->graph.Edges());
  EXPECT_TRUE((*reopened)->Current()->graph.uses_external_storage());

  // A reopened store keeps updating normally — including against the
  // mmapped seed (the overlay path reads it only through accessors).
  std::vector<EdgeUpdate> u3 = {EdgeUpdate::Add(2, 70),
                                EdgeUpdate::Remove(0, 50)};
  auto ra = (*reopened)->ApplyUpdates(u3);
  auto rb = store.ApplyUpdates(u3);
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_EQ(ra->snapshot->epoch, 3u);
  EXPECT_EQ(ra->snapshot->graph.Edges(), rb->snapshot->graph.Edges());
  std::remove(path.c_str());
}

/// Files in `dir` whose name starts with `prefix` (temp-file leftovers).
std::vector<std::string> FilesWithPrefix(const std::string& dir,
                                         const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  }
  return out;
}

/// A fresh empty directory under the test temp dir.
std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(GraphSnapshotIO, SaveOverOwnMmappedSourceRoundTrips) {
  // The restart flow: open a checkpoint, checkpoint again to the same
  // path. The store's graph is an mmap of that very file, so the save
  // must not rewrite it in place.
  Rng rng(22);
  auto g = GenerateErdosRenyi(200, 900, rng);
  const std::string path = TempPath("snap_self.hcs");
  GraphStore seed(*g);
  ASSERT_TRUE(seed.SaveSnapshot(path).ok());

  auto store = GraphStore::OpenSnapshot(path);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->Current()->graph.uses_external_storage());
  const Status saved = (*store)->SaveSnapshot(path);
  ASSERT_TRUE(saved.ok()) << saved;

  // The live store still reads its old mapping intact...
  EXPECT_EQ((*store)->Current()->graph.Edges(), g->Edges());
  // ...and the checkpoint reopens to the same graph.
  auto reopened = GraphStore::OpenSnapshot(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->Current()->graph.Edges(), g->Edges());

  // Saving over the source again after an update keeps working too.
  std::vector<EdgeUpdate> u = {EdgeUpdate::Add(3, 150)};
  ASSERT_TRUE((*reopened)->ApplyUpdates(u).ok());
  ASSERT_TRUE((*reopened)->SaveSnapshot(path).ok());
  auto again = GraphStore::OpenSnapshot(path);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again)->epoch(), 1u);
  EXPECT_EQ((*again)->Current()->graph.Edges(),
            (*reopened)->Current()->graph.Edges());
  std::remove(path.c_str());
}

TEST(GraphSnapshotIO, SaveLeavesNoTempFile) {
  Rng rng(23);
  auto g = GenerateErdosRenyi(50, 200, rng);
  const std::string dir = FreshDir("snap_no_temp");
  const std::string path = dir + "/graph.hcs";
  ASSERT_TRUE(SaveGraphSnapshot(*g, path).ok());
  ASSERT_TRUE(SaveGraphSnapshot(*g, path).ok());  // over an existing file
  EXPECT_EQ(FilesWithPrefix(dir, ""), std::vector<std::string>{"graph.hcs"});
  std::filesystem::remove_all(dir);
}

TEST(GraphSnapshotIO, FailedSaveKeepsOldFile) {
  Rng rng(24);
  auto small = GenerateErdosRenyi(20, 60, rng);
  auto large = GenerateErdosRenyi(2000, 20000, rng);
  const std::string dir = FreshDir("snap_failed_save");
  const std::string path = dir + "/graph.hcs";
  ASSERT_TRUE(SaveGraphSnapshot(*small, path).ok());
  const std::string before = Slurp(path);

  // Cap this process's file size below the large snapshot so its write
  // fails part way (EFBIG; SIGXFSZ ignored for the duration).
  struct rlimit old_limit;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  void (*old_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit capped = old_limit;
  capped.rlim_cur = before.size() + 4096;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  const Status st = SaveGraphSnapshot(*large, path);
  setrlimit(RLIMIT_FSIZE, &old_limit);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_EQ(st.code(), StatusCode::kIOError) << st;
  EXPECT_EQ(Slurp(path), before);
  EXPECT_EQ(FilesWithPrefix(dir, ""), std::vector<std::string>{"graph.hcs"});
  auto loaded = LoadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->Edges(), small->Edges());
  std::filesystem::remove_all(dir);
}

TEST(GraphSnapshotIO, WriterErrorKeepsOldFile) {
  const std::string dir = FreshDir("atomic_write_error");
  const std::string path = dir + "/data.bin";
  Spit(path, "old contents");
  const Status st =
      WriteFileAtomically(path, "test file", [](std::ostream& out) {
        out << "partial new contents";
        return Status::Internal("writer gave up");
      });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(Slurp(path), "old contents");
  EXPECT_EQ(FilesWithPrefix(dir, ""), std::vector<std::string>{"data.bin"});
  std::filesystem::remove_all(dir);
}

TEST(GraphSnapshotIO, TruncatedFileIsInvalidArgument) {
  Rng rng(15);
  auto g = GenerateErdosRenyi(60, 240, rng);
  std::string path = TempPath("snap_trunc.hcs");
  ASSERT_TRUE(SaveGraphSnapshot(*g, path).ok());
  const auto full = std::filesystem::file_size(path);
  for (uintmax_t keep : {full / 2, full - 1, uintmax_t{100}, uintmax_t{0}}) {
    std::filesystem::resize_file(path, keep);
    auto loaded = LoadGraphSnapshot(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "keep=" << keep << ": " << loaded.status();
  }
  std::remove(path.c_str());
}

TEST(GraphSnapshotIO, BadMagicIsInvalidArgument) {
  Rng rng(16);
  auto g = GenerateErdosRenyi(40, 160, rng);
  std::string path = TempPath("snap_magic.hcs");
  ASSERT_TRUE(SaveGraphSnapshot(*g, path).ok());
  std::string bytes = Slurp(path);
  bytes[0] ^= 0x5A;
  Spit(path, bytes);
  auto loaded = LoadGraphSnapshot(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GraphSnapshotIO, HeaderCorruptionIsInvalidArgument) {
  // Flipping a header byte without repairing the header checksum must be
  // caught by the checksum, whatever the byte was.
  Rng rng(17);
  auto g = GenerateErdosRenyi(40, 160, rng);
  std::string path = TempPath("snap_hdr.hcs");
  ASSERT_TRUE(SaveGraphSnapshot(*g, path).ok());
  std::string pristine = Slurp(path);
  for (size_t off : {kSnapshotVersionOffset, kSnapshotNumVerticesOffset,
                     kSnapshotNumEdgesOffset, kSnapshotPayloadBytesOffset}) {
    std::string bytes = pristine;
    bytes[off] ^= 0xFF;
    Spit(path, bytes);
    auto loaded = LoadGraphSnapshot(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "offset " << off;
  }
  std::remove(path.c_str());
}

TEST(GraphSnapshotIO, PayloadCorruptionCaughtByVerify) {
  Rng rng(18);
  auto g = GenerateErdosRenyi(60, 240, rng);
  std::string path = TempPath("snap_payload.hcs");
  ASSERT_TRUE(SaveGraphSnapshot(*g, path).ok());
  std::string bytes = Slurp(path);
  // Flip one adjacency byte deep in the payload.
  bytes[bytes.size() - 3] ^= 0x01;
  Spit(path, bytes);
  auto verified = LoadGraphSnapshot(path);
  EXPECT_EQ(verified.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(verified.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(GraphSnapshotIO, OversizedHeaderCountsRejectedBeforeAllocation) {
  // A consistent header checksum with hostile n/m (petabyte-scale counts)
  // must be rejected fast by the file-size bound — this is the snapshot
  // analogue of the edge-list OOM bugfix.
  Rng rng(19);
  auto g = GenerateErdosRenyi(40, 160, rng);
  std::string path = TempPath("snap_counts.hcs");
  ASSERT_TRUE(SaveGraphSnapshot(*g, path).ok());
  std::string pristine = Slurp(path);

  std::string bytes = pristine;
  PatchHeaderField(&bytes, kSnapshotNumEdgesOffset, uint64_t{1} << 50);
  Spit(path, bytes);
  auto loaded = LoadGraphSnapshot(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);

  bytes = pristine;
  PatchHeaderField(&bytes, kSnapshotNumVerticesOffset, uint64_t{1} << 40);
  Spit(path, bytes);
  loaded = LoadGraphSnapshot(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(GraphSnapshotIO, UnwritablePathIsIOError) {
  Rng rng(20);
  auto g = GenerateErdosRenyi(10, 30, rng);
  EXPECT_EQ(SaveGraphSnapshot(*g, "/no/such/dir/snap.hcs").code(),
            StatusCode::kIOError);
  EXPECT_EQ(LoadGraphSnapshot("/no/such/file.hcs").status().code(),
            StatusCode::kIOError);
  EXPECT_EQ(ReadGraphSnapshotInfo("/no/such/file.hcs").status().code(),
            StatusCode::kIOError);
}

TEST(GraphSnapshotIO, ReadInfoMatchesSave) {
  Rng rng(21);
  auto g = GenerateErdosRenyi(70, 280, rng);
  std::string path = TempPath("snap_info.hcs");
  GraphSnapshotInfo save_info;
  ASSERT_TRUE(SaveGraphSnapshot(*g, path, 7, &save_info).ok());
  auto info = ReadGraphSnapshotInfo(path);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->epoch, 7u);
  EXPECT_EQ(info->num_vertices, g->NumVertices());
  EXPECT_EQ(info->num_edges, g->NumEdges());
  EXPECT_EQ(info->payload_checksum, save_info.payload_checksum);
  EXPECT_EQ(info->file_bytes, save_info.file_bytes);
  std::remove(path.c_str());
}

/// Fuzz (rides the fuzz ctest label): random byte mutations and random
/// truncations of a valid snapshot must never crash the loader — every
/// outcome is a clean Status, and when a mutation happens to slip past
/// validation (e.g. it only touched padding) the loaded graph must still
/// equal the original.
TEST(GraphSnapshotIO, MutationFuzzLoadsCleanly) {
  Rng rng(22);
  auto g = GenerateErdosRenyi(90, 360, rng);
  std::string path = TempPath("snap_fuzz.hcs");
  ASSERT_TRUE(SaveGraphSnapshot(*g, path).ok());
  const std::string pristine = Slurp(path);
  const auto original_edges = g->Edges();

  const int rounds = 300;
  int survived = 0;
  for (int round = 0; round < rounds; ++round) {
    std::string bytes = pristine;
    if (round % 5 == 4) {
      bytes.resize(rng.Next() % (bytes.size() + 1));  // random truncation
    } else {
      const int flips = 1 + static_cast<int>(rng.Next() % 8);
      for (int f = 0; f < flips; ++f) {
        size_t pos = static_cast<size_t>(rng.Next() % bytes.size());
        bytes[pos] ^= static_cast<char>(1 + (rng.Next() % 255));
      }
    }
    Spit(path, bytes);
    auto loaded = LoadGraphSnapshot(path);
    if (loaded.ok()) {
      ++survived;
      EXPECT_EQ(loaded->Edges(), original_edges)
          << "round " << round
          << ": a mutation that passes validation must be content-neutral";
    }
  }
  // Sanity: the vast majority of random mutations must be rejected (the
  // checksums are doing their job). Padding-only flips may survive.
  EXPECT_LT(survived, rounds / 10);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hcpath
