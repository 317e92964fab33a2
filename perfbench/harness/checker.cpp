#include "checker.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "runtime/hop_scheme.hpp"

namespace perfbench {

namespace {
// Relative slack for floating-point sums along a path.
constexpr double kSlack = 1e-9;
}  // namespace

double stretch_ceiling(int s, double eps) {
  return scheme_is_labeled(s) ? 1.0 + 20.0 * std::min(eps, 0.5)
                              : 9.0 + 70.0 * eps;
}

std::vector<double> dijkstra(const OwnGraph& graph, std::uint32_t src) {
  std::vector<double> dist(graph.n, std::numeric_limits<double>::infinity());
  using Item = std::pair<double, std::uint32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[src] = 0;
  heap.push({0.0, src});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (const auto& [v, w] : graph.adj[u]) {
      if (d + w < dist[v]) {
        dist[v] = d + w;
        heap.push({dist[v], v});
      }
    }
  }
  return dist;
}

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kNotDelivered: return "not-delivered";
    case Verdict::kBadStart: return "bad-start";
    case Verdict::kNonEdge: return "non-edge";
    case Verdict::kWrongEnd: return "wrong-end";
    case Verdict::kBelowDistance: return "below-distance";
    case Verdict::kAboveCeiling: return "above-ceiling";
  }
  return "unknown";
}

RouteCheck check_route(const OwnGraph& graph, std::uint32_t src,
                       std::uint32_t dest, const std::vector<std::uint32_t>& path,
                       double dist, double ceiling, bool delivered) {
  RouteCheck out;
  if (!delivered) {
    out.verdict = Verdict::kNotDelivered;
    return out;
  }
  if (path.empty() || path.front() != src) {
    out.verdict = Verdict::kBadStart;
    return out;
  }
  for (std::size_t i = 1; i < path.size(); ++i) {
    const double w = graph.edge_weight(path[i - 1], path[i]);
    if (w < 0) {
      out.verdict = Verdict::kNonEdge;
      return out;
    }
    out.cost += w;
  }
  if (path.back() != dest) {
    out.verdict = Verdict::kWrongEnd;
    return out;
  }
  out.stretch = dist > 0 ? out.cost / dist : 1.0;
  if (out.cost < dist * (1 - kSlack)) {
    out.verdict = Verdict::kBelowDistance;
  } else if (out.cost > ceiling * dist * (1 + kSlack)) {
    out.verdict = Verdict::kAboveCeiling;
  }
  return out;
}

bool walk_route(const compactroute::HopScheme& scheme, std::uint32_t src,
                std::uint64_t dest_key, std::size_t max_hops,
                std::vector<std::uint32_t>* path) {
  path->clear();
  path->push_back(src);
  compactroute::HopHeader header = scheme.make_header(src, dest_key);
  compactroute::NodeId at = src;
  for (std::size_t hops = 0; hops <= max_hops; ++hops) {
    compactroute::NodeId next = compactroute::kInvalidNode;
    if (scheme.step_inplace(at, header, &next)) return true;
    path->push_back(next);
    at = next;
  }
  return false;
}

}  // namespace perfbench
