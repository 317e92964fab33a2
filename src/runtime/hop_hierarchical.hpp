#pragma once
//
// Hop-by-hop adapter for the hierarchical labeled scheme: the simplest
// possible compact-routing FSM. The header carries nothing but the
// destination label; every step is "find the minimal ring hit, forward one
// edge toward it" — stateless greedy descent.
//
// The scheme steps against the flat HopArena ring slab (one branchless
// containment scan, next node's rows prefetched): a private arena compiled
// from the scheme, or one shared with the other runtimes of a loaded
// snapshot.
//
#include <memory>

#include "labeled/hierarchical_labeled.hpp"
#include "runtime/hop_scheme.hpp"

namespace compactroute {

class HierarchicalHopScheme final : public HopScheme {
 public:
  /// Compiles a private arena from the scheme's rings.
  explicit HierarchicalHopScheme(const HierarchicalLabeledScheme& scheme);
  /// Steps against a shared prebuilt arena, which must carry the hier slab
  /// compiled from `scheme`.
  HierarchicalHopScheme(const HierarchicalLabeledScheme& scheme,
                        std::shared_ptr<const HopArena> arena);

  std::string name() const override { return "hop/labeled-hierarchical"; }

  HopHeader make_header(NodeId /*src*/, std::uint64_t dest_key) const override {
    HopHeader header;
    header.dest = dest_key;
    return header;
  }

  bool step_inplace(NodeId at, HopHeader& header, NodeId* next) const override;

  /// Every hop is greedy ring descent toward the destination label.
  TracePhase phase_of(const HopHeader& /*header*/) const override {
    return TracePhase::kLabelLookup;
  }

 private:
  std::shared_ptr<const HopArena> arena_;
};

}  // namespace compactroute
