#pragma once
//
// Snapshot auditor: certifies the io/snapshot round trip.
//
// Two properties make a snapshot trustworthy. First, fidelity: a loaded
// stack must *route identically* to the fresh build it was saved from —
// checked by replaying a deterministic request batch through all four
// hop-by-hop schemes on both stacks and comparing serve fingerprints (a
// digest of every route taken; see runtime/serve.hpp). Second, rejection:
// any corruption — truncation at every section boundary, a bit flip in any
// section, header or directory damage — must surface as the typed
// SnapshotError, never a crash, hang, or silently wrong tables.
//
#include <cstdint>
#include <vector>

#include "audit/audit.hpp"
#include "io/snapshot.hpp"

namespace compactroute::audit {

/// Serve fingerprints of the four hop schemes over a deterministic batch —
/// computable for a fresh stack and for a loaded SnapshotStack alike.
struct ServeFingerprints {
  std::uint64_t hier = 0;
  std::uint64_t scale_free = 0;
  std::uint64_t simple = 0;
  std::uint64_t scale_free_ni = 0;
};

/// The stack's hop schemes (all four must be present) over a deterministic
/// batch: labeled schemes draw with `seed`, name-independent ones with
/// `seed + 1`.
ServeFingerprints serve_fingerprints(const SnapshotStack& stack,
                                     std::size_t requests, std::uint64_t seed);

/// Corruption battery over a valid encoded snapshot: truncations at every
/// section boundary (plus mid-header and one-byte-short), a flipped byte in
/// the header, the directory, and every section payload. Each variant must
/// fail to load with SnapshotError.
Report audit_snapshot_corruption(const std::vector<std::uint8_t>& bytes,
                                 const Options& options);

/// The same corruption battery driven through the mmap loader: every mutant
/// is written to `scratch_path` (overwritten per variant, removed at the
/// end) and loaded with load_snapshot_mmap, which must throw SnapshotError —
/// the zero-copy path gets no laxer validation than the heap path.
Report audit_snapshot_corruption_mmap(const std::vector<std::uint8_t>& bytes,
                                      const std::string& scratch_path,
                                      const Options& options);

/// Full round trip of a stack: encode determinism, decode meta fidelity,
/// loaded-vs-original serve-fingerprint equality across all four schemes,
/// then the corruption battery.
Report audit_snapshot_roundtrip(const SnapshotStack& stack,
                                const Options& options);

}  // namespace compactroute::audit
