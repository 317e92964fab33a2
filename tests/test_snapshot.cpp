#include <gtest/gtest.h>

#include <cstdio>
#include <tuple>
#include <vector>

#include "audit/snapshot_audit.hpp"
#include "core/parallel.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/serve.hpp"

namespace compactroute {
namespace {

constexpr double kEps = 0.5;

/// The fixture stack: `graph` at kEps under `backend`, default naming.
SnapshotStack fresh_stack(const Graph& graph, MetricBackendKind backend) {
  return build_stack(graph, kEps, {.backend = backend});
}

/// Save → load → serve fingerprints equal to the fresh build, for all four
/// schemes, plus the full corruption battery — one (backend, workers) cell of
/// the acceptance matrix.
void run_roundtrip(MetricBackendKind backend, std::size_t workers) {
  Executor::global().set_workers(workers);
  const audit::Report report = audit::audit_snapshot_roundtrip(
      fresh_stack(make_grid(8, 8), backend), audit::Options{});
  EXPECT_GT(report.checks, 40u);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SnapshotRoundTrip, DenseOneWorker) {
  run_roundtrip(MetricBackendKind::kDense, 1);
}
TEST(SnapshotRoundTrip, DenseFourWorkers) {
  run_roundtrip(MetricBackendKind::kDense, 4);
}
TEST(SnapshotRoundTrip, RowFreeOneWorker) {
  run_roundtrip(MetricBackendKind::kRowFree, 1);
}
TEST(SnapshotRoundTrip, RowFreeFourWorkers) {
  run_roundtrip(MetricBackendKind::kRowFree, 4);
}

TEST(SnapshotRoundTrip, EncodeIsWorkerCountAndBackendInvariant) {
  Executor::global().set_workers(1);
  const std::vector<std::uint8_t> serial = encode_snapshot(
      fresh_stack(make_grid(7, 9), MetricBackendKind::kDense));
  Executor::global().set_workers(4);
  const std::vector<std::uint8_t> parallel = encode_snapshot(
      fresh_stack(make_grid(7, 9), MetricBackendKind::kDense));
  const std::vector<std::uint8_t> rowfree = encode_snapshot(
      fresh_stack(make_grid(7, 9), MetricBackendKind::kRowFree));
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, rowfree);
}

TEST(SnapshotRoundTrip, DirectoryListsAllEightSections) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(
      fresh_stack(make_grid(6, 6), MetricBackendKind::kDense));
  const auto sections = snapshot_directory(bytes);
  ASSERT_EQ(sections.size(), 8u);
  for (std::size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(sections[i].id, i + 1);
    EXPECT_GT(sections[i].size, 0u);
  }
  // Payloads tile the file exactly.
  EXPECT_EQ(sections.back().offset + sections.back().size, bytes.size());
}

TEST(SnapshotRoundTrip, MetaSurvives) {
  const SnapshotStack stack =
      fresh_stack(make_grid(6, 6), MetricBackendKind::kDense);
  const SnapshotStack loaded = decode_snapshot(encode_snapshot(stack));
  EXPECT_EQ(loaded.metric, nullptr);
  EXPECT_EQ(loaded.n, stack.metric->n());
  EXPECT_EQ(loaded.epsilon, kEps);
  EXPECT_EQ(loaded.num_levels, stack.metric->num_levels());
  EXPECT_EQ(loaded.graph.num_edges(), stack.graph.num_edges());
  for (NodeId v = 0; v < loaded.n; ++v) {
    EXPECT_EQ(loaded.naming->name_of(v), stack.naming->name_of(v));
    EXPECT_EQ(loaded.hierarchy->leaf_label(v), stack.hierarchy->leaf_label(v));
  }
}

// A decoded stack re-encodes to the file it came from, section for section:
// decode restores every byte the encoder reads.
TEST(SnapshotRoundTrip, ReencodeOfDecodedStackReproducesFile) {
  for (const MetricBackendKind backend :
       {MetricBackendKind::kDense, MetricBackendKind::kRowFree}) {
    const std::vector<std::uint8_t> bytes =
        encode_snapshot(fresh_stack(make_grid(8, 8), backend));
    const std::vector<std::uint8_t> again =
        encode_snapshot(decode_snapshot(bytes));
    const auto sections = snapshot_directory(bytes);
    const auto sections_again = snapshot_directory(again);
    ASSERT_EQ(sections.size(), sections_again.size());
    for (std::size_t i = 0; i < sections.size(); ++i) {
      EXPECT_EQ(sections[i].size, sections_again[i].size) << sections[i].name;
      EXPECT_EQ(sections[i].crc, sections_again[i].crc) << sections[i].name;
    }
    EXPECT_TRUE(bytes == again);
  }
}

// The labeled schemes require ε ≤ 1/2: above it build_stack clamps their ε
// and hands the raw value to the name-independent schemes and the meta.
TEST(SnapshotRoundTrip, BuildStackClampsOnlyTheLabeledEpsilon) {
  const SnapshotStack stack = build_stack(make_grid(6, 6), 0.75);
  EXPECT_EQ(stack.hier->epsilon(), 0.5);
  EXPECT_EQ(stack.sf->epsilon(), 0.5);
  EXPECT_EQ(stack.simple->epsilon(), 0.75);
  EXPECT_EQ(stack.sfni->epsilon(), 0.75);
  EXPECT_EQ(stack.epsilon, 0.75);
  EXPECT_EQ(decode_snapshot(encode_snapshot(stack)).epsilon, 0.75);
}

TEST(SnapshotRoundTrip, FileRoundTrip) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(
      fresh_stack(make_grid(6, 6), MetricBackendKind::kDense));
  const std::string path = ::testing::TempDir() + "cr_test_snapshot.snap";
  write_snapshot_file(path, bytes);
  EXPECT_EQ(read_snapshot_file(path), bytes);
  const SnapshotStack loaded = load_snapshot_file(path);
  EXPECT_EQ(loaded.n, 36u);
  std::remove(path.c_str());
  EXPECT_THROW(read_snapshot_file(path), SnapshotError);
}

// Loader fuzz: every truncation at a section boundary and every per-section
// byte flip must surface as SnapshotError — exercised directly here (the
// audit battery repeats this inside run_roundtrip, but this spells out the
// exact mutation set the ASan/UBSan CI job runs).
TEST(SnapshotFuzz, TruncationAtEveryBoundaryIsRejected) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(
      fresh_stack(make_grid(6, 6), MetricBackendKind::kDense));
  std::vector<std::size_t> cuts = {0, 1, 7, 8, 12, 19, 20,
                                   bytes.size() - 1};
  for (const SnapshotSection& s : snapshot_directory(bytes)) {
    cuts.push_back(static_cast<std::size_t>(s.offset));
    cuts.push_back(static_cast<std::size_t>(s.offset + s.size) - 1);
  }
  for (std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    const std::vector<std::uint8_t> truncated(
        bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(decode_snapshot(truncated), SnapshotError)
        << "truncation to " << cut << " bytes was accepted";
  }
}

TEST(SnapshotFuzz, ByteFlipInEverySectionIsRejected) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(
      fresh_stack(make_grid(6, 6), MetricBackendKind::kDense));
  std::vector<std::size_t> positions = {0, 9, 13, 17, 21};  // header + dir
  for (const SnapshotSection& s : snapshot_directory(bytes)) {
    positions.push_back(static_cast<std::size_t>(s.offset));
    positions.push_back(static_cast<std::size_t>(s.offset + s.size / 2));
    positions.push_back(static_cast<std::size_t>(s.offset + s.size) - 1);
  }
  for (std::size_t pos : positions) {
    for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[pos] ^= mask;
      EXPECT_THROW(decode_snapshot(mutated), SnapshotError)
          << "flip of byte " << pos << " (mask " << int{mask}
          << ") was accepted";
    }
  }
}

TEST(SnapshotFuzz, EmptyAndGarbageInputsAreRejected) {
  EXPECT_THROW(decode_snapshot({}), SnapshotError);
  EXPECT_THROW(snapshot_directory({}), SnapshotError);
  std::vector<std::uint8_t> garbage(4096, 0x5a);
  EXPECT_THROW(decode_snapshot(garbage), SnapshotError);
  // Right magic, nonsense afterwards.
  const char* magic = "CRSNAP01";
  std::copy(magic, magic + 8, garbage.begin());
  EXPECT_THROW(decode_snapshot(garbage), SnapshotError);
}

TEST(SnapshotServe, LoadedStackServesWithoutMetric) {
  const SnapshotStack loaded = decode_snapshot(
      encode_snapshot(fresh_stack(make_grid(8, 8), MetricBackendKind::kDense)));
  // The loaded schemes carry no metric backend at all; routing runs purely
  // on restored tables.
  const HierarchicalHopScheme hop(*loaded.hier);
  const auto requests = make_requests(loaded.n, 256, 3, [&](NodeId v) {
    return std::uint64_t{loaded.hierarchy->leaf_label(v)};
  });
  const ServeStats stats = serve_batch(loaded.csr, hop, requests);
  EXPECT_EQ(stats.requests, 256u);
  EXPECT_EQ(stats.delivered, 256u);
  EXPECT_GT(stats.total_hops, 0u);
  EXPECT_NE(stats.fingerprint, 0u);

  // The batch fingerprint is worker-count independent.
  Executor::global().set_workers(1);
  const std::uint64_t serial = serve_batch(loaded.csr, hop, requests).fingerprint;
  Executor::global().set_workers(4);
  const std::uint64_t parallel =
      serve_batch(loaded.csr, hop, requests).fingerprint;
  EXPECT_EQ(stats.fingerprint, serial);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace compactroute
