#include "graph/metric.hpp"

#include <cmath>

#include "core/check.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"

namespace compactroute {

MetricSpace::MetricSpace(const Graph& graph, MetricOptions options)
    : graph_(graph),
      n_(graph.num_nodes()),
      csr_(std::make_unique<CsrGraph>(graph_)) {
  CR_OBS_SCOPED_TIMER("preprocess.metric");
  CR_OBS_SPAN("preprocess.metric", "construct");
  CR_CHECK_MSG(n_ >= 2, "metric needs at least two nodes");
  CR_CHECK_MSG(graph.is_connected(), "metric requires a connected graph");
  CR_OBS_ADD("mem.metric.csr_bytes", csr_->memory_bytes());

  backend_kind_ = options.backend;
  if (options.backend == MetricBackendKind::kDense) {
    backend_ = make_dense_backend(*csr_);
    dense_dist_ = backend_->dense_dist_data();
    dense_parent_ = backend_->dense_parent_data();
  } else {
    backend_ = make_rowfree_backend(*csr_);
  }
  scale_ = backend_->scale();
  delta_ = backend_->delta();
  balls_ = std::make_unique<BallOracle>(*csr_, scale_);

  num_levels_ = 0;
  while (std::ldexp(1.0, num_levels_) < delta_) ++num_levels_;
}

OrderView MetricSpace::sorted_by_distance(NodeId u) const {
  const MetricRowView row = backend_->row(u);
  return OrderView(row.order(), row.pin());
}

Weight MetricSpace::radius_of_count(NodeId u, std::size_t m) const {
  CR_CHECK(m >= 1);
  return backend_->radius_of_count(u, m);
}

Path MetricSpace::shortest_path(NodeId u, NodeId v) const {
  // Row-free: a stop-bounded Dijkstra from v reproduces the same canonical
  // parent chain without materializing v's row.
  if (backend_kind_ == MetricBackendKind::kRowFree) {
    return balls_->path_between(u, v);
  }
  Path path;
  path.push_back(u);
  if (u == v) return path;
  // One row fetch: v's row holds the next hop of every node toward v.
  const MetricRowView row = backend_->row(v);
  NodeId cur = u;
  while (cur != v) {
    cur = row.parent(cur);
    CR_CHECK(cur != kInvalidNode);
    path.push_back(cur);
    CR_CHECK_MSG(path.size() <= n_, "next-hop cycle detected");
  }
  return path;
}

NodeId MetricSpace::nearest_in(NodeId u, std::span<const NodeId> candidates) const {
  CR_CHECK(!candidates.empty());
  const MetricRowView row = backend_->row(u);
  NodeId best = candidates[0];
  Weight best_dist = row.dist(best);
  for (NodeId c : candidates.subspan(1)) {
    const Weight dc = row.dist(c);
    if (dc < best_dist || (dc == best_dist && c < best)) {
      best = c;
      best_dist = dc;
    }
  }
  return best;
}

}  // namespace compactroute
