#pragma once
//
// Hop-by-hop adapter for the scale-free name-independent scheme — the full
// Theorem 1.1 stack (Algorithms 3 + 4) as a layered packet FSM.
//
// Layering: the outer machine carries the name-independent state and a
// *nested* header of the scale-free labeled scheme (Theorem 1.2). Every
// physical hop executes one step of the inner machine toward the current
// ride target; when the inner ride delivers, the outer machine advances:
// climb the zooming sequence, detour to the delegated packed-ball tree
// (Algorithm 4's "go to c"), descend/ascend the search tree, or take the
// final leg. Header sizes add: O(log n) outer + the inner scheme's header.
//
// Outer header fields:
//   dest        — destination original name
//   level / aux — zoom level i and anchor u(i)
//   extra       — root of the active search structure (anchor or ball center)
//   target      — search-tree cursor
//   tree_dfs    — the retrieved routing label l(v) (once found)
//   inner_phase — continuation after the current ride arrives
//   nested      — the inner ScaleFreeHopScheme header (kept allocated and
//                 reused across rides, so rides cost zero allocations)
//   phase       — 1 while a ride is active
//
// Both machines step against one HopArena. Every emitted hop happens
// mid-ride, so every metered header carries the nested one.
//
#include <memory>

#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scheme.hpp"

namespace compactroute {

class ScaleFreeNameIndependentHopScheme final : public HopScheme {
 public:
  /// Compiles a private arena from both schemes' tables.
  ScaleFreeNameIndependentHopScheme(const ScaleFreeNameIndependentScheme& scheme,
                                    const ScaleFreeLabeledScheme& underlying);
  /// Shared prebuilt arena, which must carry the sf + sfni slabs compiled
  /// from these schemes. The inner labeled machine steps against the same
  /// arena.
  ScaleFreeNameIndependentHopScheme(const ScaleFreeNameIndependentScheme& scheme,
                                    const ScaleFreeLabeledScheme& underlying,
                                    std::shared_ptr<const HopArena> arena);

  std::string name() const override {
    return "hop/name-independent-scale-free";
  }

  HopHeader make_header(NodeId src, std::uint64_t dest_key) const override;
  bool step_inplace(NodeId at, HopHeader& header, NodeId* next) const override;
  TracePhase phase_of(const HopHeader& header) const override;

 private:
  enum Continuation : std::uint8_t {
    kAtAnchor = 0,    // arrived at u(level): run Search(·, u(level), level)
    kAtRoot = 1,      // arrived at the search structure's root: descend
    kSearchNode = 2,  // arrived at the next search-tree node
    kSearchBack = 3,  // returning toward the search root
    kBackAtAnchor = 4,  // Algorithm 4 line 7: returned from c to u
    kDeliver = 5,     // final leg arrived
  };

  /// Begins a ride of the inner scheme toward `label`: the nested header is
  /// reset in place to what inner_.make_header produces, no allocation.
  void begin_ride(HopHeader& header, NodeId label,
                  Continuation continuation) const;

  std::shared_ptr<const HopArena> arena_;  // before inner_: it rides on this
  ScaleFreeHopScheme inner_;
};

}  // namespace compactroute
