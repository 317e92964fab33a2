#pragma once
//
// Ground truth for delivered routes, independent of the library: the
// harness's own graph copy, its own Dijkstra, and the stretch ceilings the
// docs state (1 + 20ε labeled, 9 + 70ε name-independent).
//
#include <cstdint>
#include <vector>

#include "workload.hpp"

namespace compactroute {
class HopScheme;
}

namespace perfbench {

/// Documented stretch ceiling of scheme `s` (kSchemeNames order) built at
/// user-level ε. The labeled schemes are built at min(ε, 0.5).
double stretch_ceiling(int s, double eps);

/// Single-source shortest-path distances over the harness's graph copy.
std::vector<double> dijkstra(const OwnGraph& graph, std::uint32_t src);

enum class Verdict : std::uint8_t {
  kOk = 0,
  kNotDelivered,   // walk ran out of hop budget
  kBadStart,       // first node is not the source
  kNonEdge,        // a hop is not an edge of the graph copy
  kWrongEnd,       // the walk ends elsewhere than the destination
  kBelowDistance,  // cost below the shortest-path distance
  kAboveCeiling,   // cost above ceiling x distance
};

const char* verdict_name(Verdict v);

struct RouteCheck {
  Verdict verdict = Verdict::kOk;
  double cost = 0;
  double stretch = 0;
};

/// Checks a walked route `path` (every node visited, source first) from src
/// to dest against the graph copy, the distance `dist` and the ceiling.
RouteCheck check_route(const OwnGraph& graph, std::uint32_t src,
                       std::uint32_t dest, const std::vector<std::uint32_t>& path,
                       double dist, double ceiling, bool delivered);

/// Walks a route through the scheme's public step_inplace, recording every
/// node visited. Returns false when the hop budget runs out.
bool walk_route(const compactroute::HopScheme& scheme, std::uint32_t src,
                std::uint64_t dest_key, std::size_t max_hops,
                std::vector<std::uint32_t>* path);

}  // namespace perfbench
