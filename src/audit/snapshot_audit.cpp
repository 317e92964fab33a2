#include "audit/snapshot_audit.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "io/snapshot_mmap.hpp"
#include "runtime/hop_arena.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "runtime/serve.hpp"

namespace compactroute::audit {

namespace {

constexpr const char* kAuditor = "snapshot";

std::string hex64(std::uint64_t x) {
  std::ostringstream out;
  out << "0x" << std::hex << x;
  return out.str();
}

/// The loader under battery must reject `bytes` with SnapshotError. Files an
/// Issue if it accepts, or if a differently-typed exception escapes.
template <typename Loader>
void expect_rejected_by(Report& report, Loader&& load,
                        const std::vector<std::uint8_t>& bytes,
                        const std::string& what) {
  ++report.checks;
  try {
    SnapshotStack stack = load(bytes);
    (void)stack;
    report.add(kAuditor, "corruption rejected",
               what + ": corrupt snapshot was accepted");
  } catch (const SnapshotError&) {
    // The one acceptable outcome.
  } catch (const std::exception& e) {
    report.add(kAuditor, "corruption rejected",
               what + ": escaped with non-SnapshotError: " + e.what());
  }
}

/// Shared mutant generator: truncations at every structural boundary and
/// byte flips in the magic, directory, and every payload, each handed to
/// expect_rejected_by over the caller's loader (heap decode or mmap).
template <typename Loader>
Report run_corruption_battery(const std::vector<std::uint8_t>& bytes,
                              Loader&& load) {
  Report report;

  // The battery needs the honest directory to aim its mutations; if the
  // input itself is invalid there is nothing meaningful to corrupt.
  std::vector<SnapshotSection> sections;
  try {
    sections = snapshot_directory(bytes);
  } catch (const SnapshotError& e) {
    report.add(kAuditor, "battery input valid",
               std::string("input snapshot does not parse: ") + e.what());
    return report;
  }
  report.expect(!sections.empty(), kAuditor, "battery input valid",
                "snapshot has no sections");
  if (sections.empty()) return report;

  // Truncations: empty file, mid-magic, mid-header, every section boundary
  // (start and end of each payload), and one-byte-short. Offset tiling means
  // each of these changes the expected exact file size.
  std::vector<std::size_t> cuts = {0, 4, 12, bytes.size() - 1};
  for (const SnapshotSection& s : sections) {
    cuts.push_back(static_cast<std::size_t>(s.offset));
    cuts.push_back(static_cast<std::size_t>(s.offset + s.size) - 1);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  for (std::size_t cut : cuts) {
    if (cut >= bytes.size()) continue;
    std::vector<std::uint8_t> truncated(bytes.begin(),
                                        bytes.begin() + static_cast<long>(cut));
    expect_rejected_by(report, load, truncated,
                       "truncate to " + std::to_string(cut) + " bytes");
  }

  // Bit flips: one byte in the magic, one in the directory, and the first,
  // middle, and last byte of every section payload. Section CRCs (and the
  // directory CRC) must catch each one.
  const auto flip = [&](std::size_t pos, const std::string& what) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[pos] ^= 0x40;
    expect_rejected_by(report, load, mutated,
                       what + " (byte " + std::to_string(pos) + ")");
  };
  flip(0, "flip magic");
  flip(20, "flip directory");
  for (const SnapshotSection& s : sections) {
    // Zero-size sections (absent schemes in a subset snapshot) have no
    // payload bytes to flip — and offset == file size for a trailing one,
    // so indexing would run off the buffer.
    if (s.size == 0) continue;
    const std::size_t first = static_cast<std::size_t>(s.offset);
    const std::size_t last = static_cast<std::size_t>(s.offset + s.size) - 1;
    flip(first, "flip first byte of section " + s.name);
    flip(first + (last - first) / 2, "flip middle byte of section " + s.name);
    flip(last, "flip last byte of section " + s.name);
  }
  return report;
}

}  // namespace

ServeFingerprints serve_fingerprints(const SnapshotStack& stack,
                                     std::size_t requests,
                                     std::uint64_t seed) {
  CR_CHECK_MSG(stack.hier && stack.sf && stack.simple && stack.sfni,
               "serve fingerprints need all four schemes");
  const CsrGraph& csr = stack.csr;
  const auto labeled = make_requests(stack.n, requests, seed, [&](NodeId v) {
    return std::uint64_t{stack.hierarchy->leaf_label(v)};
  });
  const auto named = make_requests(stack.n, requests, seed + 1, [&](NodeId v) {
    return stack.naming->name_of(v);
  });

  ServeOptions options;
  options.collect_latencies = false;  // fingerprints only

  // One arena for all four steppers — compiled once, not per scheme.
  const std::shared_ptr<const HopArena> arena = stack.build_arena();

  ServeFingerprints fps;
  {
    HierarchicalHopScheme hop(*stack.hier, arena);
    fps.hier = serve_batch(csr, hop, labeled, options).fingerprint;
  }
  {
    ScaleFreeHopScheme hop(*stack.sf, arena);
    fps.scale_free = serve_batch(csr, hop, labeled, options).fingerprint;
  }
  {
    SimpleNameIndependentHopScheme hop(*stack.simple, *stack.hier, arena);
    fps.simple = serve_batch(csr, hop, named, options).fingerprint;
  }
  {
    ScaleFreeNameIndependentHopScheme hop(*stack.sfni, *stack.sf, arena);
    fps.scale_free_ni = serve_batch(csr, hop, named, options).fingerprint;
  }
  return fps;
}

Report audit_snapshot_corruption(const std::vector<std::uint8_t>& bytes,
                                 const Options& options) {
  (void)options;
  return run_corruption_battery(bytes, [](const std::vector<std::uint8_t>& b) {
    return decode_snapshot(b);
  });
}

Report audit_snapshot_corruption_mmap(const std::vector<std::uint8_t>& bytes,
                                      const std::string& scratch_path,
                                      const Options& options) {
  (void)options;
  Report report =
      run_corruption_battery(bytes, [&](const std::vector<std::uint8_t>& b) {
        write_snapshot_file(scratch_path, b);
        return load_snapshot_mmap(scratch_path);
      });
  std::remove(scratch_path.c_str());
  return report;
}

Report audit_snapshot_roundtrip(const SnapshotStack& original,
                                const Options& options) {
  Report report;

  const std::vector<std::uint8_t> bytes = encode_snapshot(original);
  const std::vector<std::uint8_t> again = encode_snapshot(original);
  report.expect(bytes == again, kAuditor, "encode deterministic",
                "two encodes of the same stack differ");

  SnapshotStack stack;
  ++report.checks;
  try {
    stack = decode_snapshot(bytes);
  } catch (const std::exception& e) {
    report.add(kAuditor, "round trip decodes",
               std::string("fresh encode failed to decode: ") + e.what());
    return report;
  }

  report.expect(stack.n == original.n && stack.epsilon == original.epsilon,
                kAuditor, "meta round trip",
                "n/epsilon mismatch after round trip");

  const std::size_t requests = std::max<std::size_t>(options.sample_pairs, 8);
  const ServeFingerprints fresh =
      serve_fingerprints(original, requests, options.seed);
  const ServeFingerprints loaded =
      serve_fingerprints(stack, requests, options.seed);

  const auto expect_fp = [&](const char* scheme, std::uint64_t a,
                             std::uint64_t b) {
    report.expect(a == b, kAuditor, "serve fingerprint matches fresh build",
                  std::string(scheme) + ": fresh " + hex64(a) + " vs loaded " +
                      hex64(b));
  };
  expect_fp("labeled/hierarchical", fresh.hier, loaded.hier);
  expect_fp("labeled/scale-free", fresh.scale_free, loaded.scale_free);
  expect_fp("ni/simple", fresh.simple, loaded.simple);
  expect_fp("ni/scale-free", fresh.scale_free_ni, loaded.scale_free_ni);

  report.merge(audit_snapshot_corruption(bytes, options));
  return report;
}

}  // namespace compactroute::audit
