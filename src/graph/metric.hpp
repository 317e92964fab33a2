#pragma once
//
// Shortest-path metric of a connected weighted graph (Section 2).
//
// Distances are normalized so the minimum pairwise distance is 1 — the
// paper's w.l.o.g. — hence the normalized diameter is simply
// Δ = max_{u,v} d(u, v). MetricSpace is a facade over a MetricBackend
// (graph/metric_backend.hpp): the dense backend precomputes all-pairs
// matrices, the row-free backend answers every query with a bounded
// Dijkstra and holds no rows. Both power the
// ball queries B_u(r) and the size-radius function r_u(j) ("radius of the
// smallest ball around u holding 2^j nodes") used by every scheme in the
// paper, with bit-identical results.
//
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "graph/ball_oracle.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/metric_backend.hpp"

namespace compactroute {

class MetricSpace {
 public:
  /// Builds the metric. Requires a connected graph with >= 2 nodes.
  explicit MetricSpace(const Graph& graph, MetricOptions options = {});

  MetricSpace(MetricSpace&&) = default;
  MetricSpace& operator=(MetricSpace&&) = default;

  std::size_t n() const { return n_; }
  const Graph& graph() const { return graph_; }
  /// Flat CSR view of the graph, shared with the backend; use it for any
  /// auxiliary Dijkstra runs (it is cheaper to scan than Graph's adjacency).
  const CsrGraph& csr() const { return *csr_; }

  const char* backend_name() const { return backend_->name(); }
  MetricBackendKind backend_kind() const { return backend_kind_; }

  /// Bounded-query front end for construction (DESIGN.md §10): batched ball
  /// requests, size radii, nearest-marked and multi-source assignment — all
  /// in normalized units, all without materializing a metric row. Shared by
  /// every builder so results are identical on every backend.
  const BallOracle& balls_oracle() const { return *balls_; }

  /// Normalized distance d(u, v); d(u, u) == 0, min_{u != v} d(u, v) == 1.
  Weight dist(NodeId u, NodeId v) const {
    if (dense_dist_ != nullptr) return dense_dist_[index(u, v)];
    return backend_->dist(u, v);
  }

  /// Factor by which original graph distances were divided.
  Weight normalization_scale() const { return scale_; }

  /// Normalized diameter Δ = max d(u, v).
  Weight delta() const { return delta_; }

  /// Smallest L with 2^L >= Δ. Net levels run i = 0..L (Section 2).
  int num_levels() const { return num_levels_; }

  /// Borrowed view of u's full metric row (distances, next hops toward u,
  /// distance-sorted order). On the row-free backend this materializes one
  /// transient row; prefer it over repeated dist(u, ·) calls in loops over a
  /// fixed u.
  MetricRowView row(NodeId u) const { return backend_->row(u); }

  /// Nodes ordered by (distance from u, id); position 0 is u itself. The
  /// view pins the row for its lifetime (see metric_backend.hpp).
  OrderView sorted_by_distance(NodeId u) const;

  /// Distance from u to the m-th nearest node counting u itself (m >= 1).
  /// radius_of_count(u, 2^j) is the paper's r_u(j).
  Weight radius_of_count(NodeId u, std::size_t m) const;

  /// Nodes within distance r of u, ordered by (distance, id). This is the
  /// ball B_u(r) of the paper. On the row-free backend this settles only
  /// the ball's members (bounded Dijkstra), never a full row.
  std::vector<NodeId> ball(NodeId u, Weight r) const {
    return backend_->ball(u, r);
  }

  /// |B_u(r)|.
  std::size_t ball_size(NodeId u, Weight r) const {
    return backend_->ball_size(u, r);
  }

  /// Neighbor of u on the canonical shortest path u -> target (target itself
  /// if adjacent); kInvalidNode if u == target.
  NodeId next_hop(NodeId u, NodeId target) const {
    if (dense_parent_ != nullptr) return dense_parent_[index(target, u)];
    return backend_->next_hop(u, target);
  }

  /// Canonical shortest path from u to v, inclusive of both endpoints.
  Path shortest_path(NodeId u, NodeId v) const;

  /// The candidate nearest to u; ties broken toward the smaller id.
  /// candidates must be non-empty.
  NodeId nearest_in(NodeId u, std::span<const NodeId> candidates) const;

  /// Bytes held by the backend's metric state: the three n×n matrices for
  /// the dense backend (counters mem.metric.{dist,parent,order}_bytes), zero
  /// for the row-free one.
  std::size_t memory_bytes() const { return backend_->memory_bytes(); }

 private:
  std::size_t index(NodeId row, NodeId col) const {
    return static_cast<std::size_t>(row) * n_ + col;
  }

  Graph graph_;
  std::size_t n_ = 0;
  // unique_ptr so the CSR's address is stable across moves: the backend
  // keeps a pointer to it.
  std::unique_ptr<const CsrGraph> csr_;
  std::unique_ptr<MetricBackend> backend_;
  std::unique_ptr<BallOracle> balls_;
  MetricBackendKind backend_kind_ = MetricBackendKind::kDense;
  Weight scale_ = 1;
  Weight delta_ = 0;
  int num_levels_ = 0;
  // Fast-path aliases into the dense backend's matrices (null when row-free):
  // keeps dist()/next_hop() branch-plus-load on the default backend.
  const Weight* dense_dist_ = nullptr;
  const NodeId* dense_parent_ = nullptr;
};

}  // namespace compactroute
