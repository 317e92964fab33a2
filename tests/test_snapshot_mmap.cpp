// Satellite battery for the mmap zero-copy snapshot path (io/snapshot_mmap):
//
//   * golden equivalence — a snapshot loaded through MappedSnapshot (borrowed-
//     buffer decode, no heap copy of the file) serves byte-identical
//     fingerprints to the same snapshot decoded from a heap vector, for all
//     four schemes at 1 and 4 workers;
//   * corruption battery — every truncation/bit-flip mutant the heap path
//     rejects is also rejected BY THE MMAP PATH with the same typed
//     SnapshotError (audit_snapshot_corruption_mmap);
//   * subset snapshots (zero-length scheme sections) round-trip through the
//     mapping with absent schemes null and present schemes intact;
//   * MappedSnapshot error paths: missing and empty files throw SnapshotError,
//     never crash.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "audit/snapshot_audit.hpp"
#include "core/parallel.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "io/snapshot_mmap.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/serve.hpp"

namespace compactroute {
namespace {

constexpr double kEps = 0.5;
constexpr std::size_t kFingerprintRequests = 256;
constexpr std::uint64_t kSeed = 99;

/// A path under the test temp directory, named after the running test.
/// ctest runs each test as its own process, concurrently: a shared
/// cwd-relative name let one test rewrite a file another had mapped, and the
/// reader died of SIGBUS.
std::string scratch_path() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "test_snapshot_mmap_" +
         info->test_suite_name() + "_" + info->name() + "_" +
         std::to_string(getpid()) + ".snap";
}

/// A scratch file that cleans up after itself even when a test fails.
struct ScratchFile {
  ScratchFile() : path(scratch_path()) {}
  ~ScratchFile() { std::remove(path.c_str()); }
  std::string path;
};

/// One fresh 8x8-grid stack, encoded once, shared by every test in this file.
struct Fixture {
  SnapshotStack stack = build_stack(make_grid(8, 8), kEps);
  std::vector<std::uint8_t> bytes = encode_snapshot(stack);
};

const Fixture& fixture() {
  static const Fixture* f = new Fixture();
  return *f;
}

void expect_equal_fingerprints(const audit::ServeFingerprints& a,
                               const audit::ServeFingerprints& b) {
  EXPECT_EQ(a.hier, b.hier);
  EXPECT_EQ(a.scale_free, b.scale_free);
  EXPECT_EQ(a.simple, b.simple);
  EXPECT_EQ(a.scale_free_ni, b.scale_free_ni);
}

/// mmap decode == vector decode, certified at the serve-fingerprint level:
/// all four schemes route identically whichever way the bytes came in.
void run_golden_equivalence(std::size_t workers) {
  Executor::global().set_workers(workers);
  const Fixture& f = fixture();
  ScratchFile snap;
  write_snapshot_file(snap.path, f.bytes);

  const SnapshotStack from_vector = decode_snapshot(f.bytes);
  const SnapshotStack from_mmap = load_snapshot_mmap(snap.path);
  ASSERT_EQ(from_mmap.n, from_vector.n);
  ASSERT_EQ(from_mmap.epsilon, from_vector.epsilon);

  const audit::ServeFingerprints vec_fp =
      audit::serve_fingerprints(from_vector, kFingerprintRequests, kSeed);
  const audit::ServeFingerprints map_fp =
      audit::serve_fingerprints(from_mmap, kFingerprintRequests, kSeed);
  expect_equal_fingerprints(vec_fp, map_fp);

  // And both match the fresh build — mmap did not trade fidelity for speed.
  const audit::ServeFingerprints fresh_fp =
      audit::serve_fingerprints(f.stack, kFingerprintRequests, kSeed);
  expect_equal_fingerprints(fresh_fp, map_fp);
}

TEST(SnapshotMmap, GoldenEquivalenceOneWorker) { run_golden_equivalence(1); }
TEST(SnapshotMmap, GoldenEquivalenceFourWorkers) { run_golden_equivalence(4); }

TEST(SnapshotMmap, MappedSpanMatchesFileBytes) {
  const Fixture& f = fixture();
  ScratchFile snap;
  write_snapshot_file(snap.path, f.bytes);

  MappedSnapshot mapped(snap.path);
  ASSERT_EQ(mapped.size(), f.bytes.size());
  EXPECT_EQ(std::vector<std::uint8_t>(mapped.data(),
                                      mapped.data() + mapped.size()),
            f.bytes);
  EXPECT_EQ(mapped.directory().size(), snapshot_directory(f.bytes).size());

  // Move transfers the mapping; the moved-from object is empty and its
  // destructor must not double-unmap (ASan would catch it).
  MappedSnapshot moved(std::move(mapped));
  EXPECT_EQ(moved.size(), f.bytes.size());
  EXPECT_EQ(moved.decode().n, f.stack.n);
}

/// The full corruption battery — every mutant written to disk and pushed
/// through MappedSnapshot + borrowed-buffer decode. The zero-copy path must
/// reject everything the heap path rejects, as the same typed error.
TEST(SnapshotMmap, CorruptionBattery) {
  Executor::global().set_workers(1);
  const Fixture& f = fixture();
  const ScratchFile snap;
  const audit::Report report = audit::audit_snapshot_corruption_mmap(
      f.bytes, snap.path, audit::Options{});
  EXPECT_GT(report.checks, 40u);
  EXPECT_TRUE(report.ok()) << report.summary();
}

/// Subset snapshot (zero-length scheme sections) through the mapping: the
/// stream writer emits nullptr schemes as empty payloads; the mmap loader
/// must restore them as absent and keep the present schemes fully serving.
TEST(SnapshotMmap, SubsetSnapshotZeroLengthSections) {
  Executor::global().set_workers(1);
  const SnapshotStack& s = fixture().stack;
  ScratchFile snap;
  {
    SnapshotStreamWriter writer(snap.path);
    writer.add_meta(*s.metric, kEps);
    writer.add_graph(*s.metric);
    writer.add_hierarchy(*s.hierarchy, s.n);
    writer.add_naming(*s.naming, s.n);
    writer.add_hier(s.hier.get(), s.n);
    writer.add_scale_free(nullptr, s.n);
    writer.add_simple(s.simple.get());
    writer.add_sfni(nullptr, s.n);
    writer.finish();
  }

  const SnapshotStack loaded = load_snapshot_mmap(snap.path);
  EXPECT_EQ(loaded.n, s.n);
  EXPECT_NE(loaded.hier, nullptr);
  EXPECT_NE(loaded.simple, nullptr);
  EXPECT_EQ(loaded.sf, nullptr);
  EXPECT_EQ(loaded.sfni, nullptr);

  // The subset's present schemes must still match the heap decode of the
  // same file, byte for byte at the route level.
  const SnapshotStack heap = load_snapshot_file(snap.path);
  const auto requests = make_requests(
      loaded.n, kFingerprintRequests, kSeed,
      [&](NodeId v) { return std::uint64_t{loaded.hierarchy->leaf_label(v)}; });
  const auto arena_mmap = loaded.build_arena();
  const auto arena_heap = heap.build_arena();
  ServeOptions fp_only;
  fp_only.collect_latencies = false;
  HierarchicalHopScheme hop_mmap(*loaded.hier, arena_mmap);
  HierarchicalHopScheme hop_heap(*heap.hier, arena_heap);
  EXPECT_EQ(serve_batch(loaded.csr, hop_mmap, requests, fp_only).fingerprint,
            serve_batch(heap.csr, hop_heap, requests, fp_only).fingerprint);
}

/// Snapshot writes replace the file atomically (tmp, fsync, rename), so a
/// live mapping of the old file keeps the old inode: rewriting the path with
/// a smaller graph's snapshot cannot truncate the pages under the mapping.
/// The decode runs in a child process, which an in-place rewrite would kill.
TEST(SnapshotMmap, MappingSurvivesRewriteOfItsPath) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Fixture& f = fixture();
  ScratchFile snap;
  write_snapshot_file(snap.path, f.bytes);
  const MappedSnapshot mapped(snap.path);
  write_snapshot_file(snap.path,
                      encode_snapshot(build_stack(make_grid(4, 4), kEps)));
  ASSERT_LT(read_snapshot_file(snap.path).size(), f.bytes.size());
  ASSERT_EXIT(
      {
        const SnapshotStack old = mapped.decode();
        std::exit(old.n == f.stack.n ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(SnapshotMmap, MissingFileThrowsSnapshotError) {
  EXPECT_THROW(MappedSnapshot("definitely_not_a_real_file.snap"),
               SnapshotError);
  EXPECT_THROW(load_snapshot_mmap("definitely_not_a_real_file.snap"),
               SnapshotError);
}

TEST(SnapshotMmap, EmptyFileThrowsSnapshotError) {
  ScratchFile snap;
  { std::ofstream out(snap.path, std::ios::binary); }
  EXPECT_THROW(MappedSnapshot{snap.path}, SnapshotError);
}

}  // namespace
}  // namespace compactroute
