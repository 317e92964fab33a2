#pragma once
//
// Metric storage backends (DESIGN.md §6).
//
// Every scheme in the paper is built on d(u, v), B_u(r), and r_u(j) queries.
// A MetricBackend answers them from one of two representations:
//
//  * DenseMetricBackend — the classic three n×n matrices (dist, parent,
//    order). O(n²) memory, O(1) queries; the default and the right choice
//    while the matrices fit in RAM.
//  * RowFreeMetricBackend — no rows at all (DESIGN.md §10). Every query is
//    a bounded Dijkstra: balls stop at the radius, point queries stop the
//    moment the target settles, and the diameter comes from an exact iFUB
//    sweep. The construction pipeline routes its queries through BallOracle
//    on this backend, so peak build memory is O(largest ball), not O(n²);
//    the legacy row() escape hatch still works but counts each transient
//    row in metric.rows.materialized.
//
// Determinism: a row is a pure function of the graph (canonical Dijkstra
// tie-breaking), so a transient row is bit-identical to the dense matrix
// row and thread interleaving can never change a query result. The
// equivalence suite (tests/test_metric_backend.cpp) enforces
// dense == row-free down to scheme fingerprints.
//
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "graph/csr.hpp"

namespace compactroute {

enum class MetricBackendKind { kDense, kRowFree };

struct MetricOptions {
  MetricBackendKind backend = MetricBackendKind::kDense;
};

/// One root's fully materialized view of the metric: normalized distances,
/// shortest-path-tree parents (parent[u] = predecessor of u on the canonical
/// path root->u, i.e. u's next hop toward root), and nodes sorted by
/// (distance, id).
struct MetricRow {
  std::vector<Weight> dist;
  std::vector<NodeId> parent;
  std::vector<NodeId> order;

  std::size_t bytes() const {
    return sizeof(MetricRow) + dist.size() * sizeof(Weight) +
           parent.size() * sizeof(NodeId) + order.size() * sizeof(NodeId);
  }
};

using MetricRowPtr = std::shared_ptr<const MetricRow>;

/// Borrowed view of one root's row. For the row-free backend the view owns
/// the transient row it was computed into; hold it only as long as needed.
class MetricRowView {
 public:
  MetricRowView(std::span<const Weight> dist, std::span<const NodeId> parent,
                std::span<const NodeId> order, MetricRowPtr pin)
      : dist_(dist), parent_(parent), order_(order), pin_(std::move(pin)) {}

  /// d(root, v), normalized.
  Weight dist(NodeId v) const { return dist_[v]; }
  /// Predecessor of v on the canonical path root->v (v's next hop toward
  /// the row's root); kInvalidNode for the root itself.
  NodeId parent(NodeId v) const { return parent_[v]; }
  /// Nodes by (distance from root, id); position 0 is the root.
  std::span<const NodeId> order() const { return order_; }
  std::span<const Weight> dists() const { return dist_; }
  std::size_t size() const { return dist_.size(); }
  /// The transient row backing this view (null for the dense backend).
  const MetricRowPtr& pin() const { return pin_; }

 private:
  std::span<const Weight> dist_;
  std::span<const NodeId> parent_;
  std::span<const NodeId> order_;
  MetricRowPtr pin_;
};

/// Pinned distance-sorted node order of one root (see MetricRowView for the
/// lifetime contract).
class OrderView {
 public:
  OrderView(std::span<const NodeId> order, MetricRowPtr pin)
      : order_(order), pin_(std::move(pin)) {}

  NodeId operator[](std::size_t k) const { return order_[k]; }
  std::size_t size() const { return order_.size(); }
  const NodeId* begin() const { return order_.data(); }
  const NodeId* end() const { return order_.data() + order_.size(); }
  std::span<const NodeId> span() const { return order_; }

 private:
  std::span<const NodeId> order_;
  MetricRowPtr pin_;
};

/// Query interface shared by all backends. Construction computes the
/// normalization scale (the minimum edge weight == the minimum pairwise
/// distance) and the normalized diameter delta (exact iFUB sweep) through
/// functions shared by every backend — shared code, not equivalent code,
/// because a full-APSP maximum and an iFUB maximum can disagree by 1 ulp
/// (Dijkstra path sums from opposite endpoints associate differently), and
/// delta is serialized into snapshot meta bytes that must not depend on the
/// backend.
class MetricBackend {
 public:
  virtual ~MetricBackend() = default;

  virtual const char* name() const = 0;
  virtual MetricRowView row(NodeId u) const = 0;
  virtual Weight dist(NodeId u, NodeId v) const = 0;
  /// Next hop of u toward target (== parent of u in target's row).
  virtual NodeId next_hop(NodeId u, NodeId target) const = 0;
  virtual std::vector<NodeId> ball(NodeId u, Weight r) const = 0;
  virtual std::size_t ball_size(NodeId u, Weight r) const = 0;
  virtual Weight radius_of_count(NodeId u, std::size_t m) const = 0;
  /// Bytes held by the backend's metric state (the dense matrices; zero for
  /// the row-free backend).
  virtual std::size_t memory_bytes() const = 0;

  /// Fast-path escape hatch: dense row-major matrices, or nullptr.
  virtual const Weight* dense_dist_data() const { return nullptr; }
  virtual const NodeId* dense_parent_data() const { return nullptr; }

  Weight scale() const { return scale_; }
  Weight delta() const { return delta_; }

 protected:
  Weight scale_ = 1;
  Weight delta_ = 0;
};

std::unique_ptr<MetricBackend> make_dense_backend(const CsrGraph& csr);
/// Row-free backend: no matrices, no row cache — every query is a bounded
/// Dijkstra, the normalized diameter comes from an exact iFUB sweep instead
/// of an all-rows pass, and a row() call (legacy/eval paths only) computes a
/// transient row and bumps "metric.rows.materialized". O(n·workers) memory.
std::unique_ptr<MetricBackend> make_rowfree_backend(const CsrGraph& csr);

}  // namespace compactroute
