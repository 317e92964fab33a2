#include "graph/metric_backend.hpp"

#include <algorithm>
#include <cmath>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "graph/dijkstra.hpp"
#include "obs/metrics.hpp"

namespace compactroute {

namespace {

// Rows per chunk for the parallel loops below: small enough to balance load
// across workers, large enough that chunk bookkeeping is negligible. Chunk
// geometry is part of the determinism contract (core/parallel.hpp).
constexpr std::size_t kRowChunk = 8;

// One warm Dijkstra workspace per thread: rows are computed from executor
// workers during construction and from arbitrary caller threads afterwards,
// and the touched-list reset keeps bounded queries O(|ball|) on any of them.
DijkstraWorkspace& tls_workspace() {
  static thread_local DijkstraWorkspace ws;
  return ws;
}

// Canonical node order of one row: ascending (normalized distance, id). The
// comparator is a total order (ids are unique), so the result is independent
// of the input permutation — dense matrix rows and row-free transient rows
// sort to the same sequence.
void sort_order_row(const Weight* dist, std::size_t n, NodeId* order) {
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  std::sort(order, order + n, [&](NodeId a, NodeId b) {
    if (dist[a] != dist[b]) return dist[a] < dist[b];
    return a < b;
  });
}

// One full-row materialization (the row-free backend's transient rows): a
// pure function of (graph, scale), bit-identical to the dense matrix row.
MetricRowPtr materialize_row(const CsrGraph& csr, Weight scale, NodeId root) {
  DijkstraWorkspace& ws = tls_workspace();
  const NodeId sources[] = {root};
  dijkstra_into(csr, sources, ws);
  const std::size_t n = csr.num_nodes();
  CR_CHECK_MSG(ws.settled().size() == n,
               "on-demand metric requires a connected graph");
  auto row = std::make_shared<MetricRow>();
  row->dist.resize(n);
  row->parent.resize(n);
  row->order.resize(n);
  const std::span<const Weight> dist = ws.dist();
  const std::span<const NodeId> parent = ws.parent();
  for (NodeId v = 0; v < n; ++v) {
    row->dist[v] = dist[v] / scale;
    row->parent[v] = parent[v];
  }
  sort_order_row(row->dist.data(), n, row->order.data());
  return row;
}

// ---------------------------------------------------------------------------
// Shared normalization: scale and delta.
//
// Every backend computes scale_ and delta_ through the two functions below —
// the SAME code, not equivalent code. That is load-bearing: a Dijkstra path
// sum from u to v and the sum of the same edges run from v associate
// differently, so d(u→v) and d(v→u) can differ by 1 ulp, and a full-APSP
// maximum can land 1 ulp away from an iFUB maximum that evaluated the same
// diametral pair from a different root. Sharing the computation makes the
// snapshot meta section (which serializes delta) bit-identical across
// backends by construction.
// ---------------------------------------------------------------------------

// The minimum pairwise shortest-path distance equals the minimum edge
// weight: any path weighs at least one of its edges, and Dijkstra computes
// the lightest edge's endpoint distance as exactly that weight (a one-edge
// relaxation from 0, no rounding) — so this matches an APSP-wide minimum bit
// for bit without materializing anything.
Weight normalization_scale(const CsrGraph& csr) {
  const Weight scale = csr.min_edge_weight();
  CR_CHECK_MSG(scale > 0 && scale < kInfiniteWeight,
               "metric requires a non-empty edge set");
  return scale;
}

struct DiamSweep {
  NodeId far;   // farthest settled node (largest id among raw-dist ties)
  Weight ecc;   // its raw distance = root's eccentricity
};

DiamSweep diameter_sweep(const CsrGraph& csr, NodeId root,
                         DijkstraWorkspace& ws) {
  const NodeId sources[] = {root};
  dijkstra_into(csr, sources, ws);
  CR_CHECK_MSG(ws.settled().size() == csr.num_nodes(),
               "metric requires a connected graph");
  const NodeId far = ws.settled().back();
  return {far, ws.dist()[far]};
}

// Exact raw diameter without touching all rows: iFUB, rooted by an explicit
// center hunt.
//
// iFUB correctness: process nodes by decreasing depth from a root; once
// 2·depth ≤ lb, every remaining pair (u, v) satisfies
// d(u, v) ≤ d(u, root) + d(root, v) ≤ 2·depth ≤ lb, and all pairs involving
// a processed node are covered by its eccentricity — so lb is the exact
// diameter for ANY root. Root quality only controls the sweep count, and
// the classic "midpoint of the double-sweep path" root is a trap on grids:
// the canonical corner-to-corner Dijkstra path is L-shaped, so its midpoint
// is another corner with maximal eccentricity and the confirmation loop
// degenerates to Θ(n) sweeps. Instead, hunt for a center: accumulate
// distance arrays from the extreme nodes the sweeps discover, and root at
// the node minimizing the maximum distance to that register (≈ the metric
// 1-center of the extremes). On a grid this converges to the true center in
// a few iterations and the confirmation processes a handful of nodes.
//
// The result is a graph invariant (deterministic sweep sequence, max over a
// set), so batch geometry and worker count cannot change it.
Weight exact_raw_diameter(const CsrGraph& csr) {
  CR_OBS_SCOPED_TIMER("metric.diameter");
  const std::size_t n = csr.num_nodes();
  DijkstraWorkspace& ws = tls_workspace();

  Weight lb = 0;
  NodeId best_root = 0;
  Weight best_ecc = kInfiniteWeight;
  std::uint64_t sweeps = 0;
  const auto probe = [&](NodeId root) {
    const DiamSweep s = diameter_sweep(csr, root, ws);
    ++sweeps;
    lb = std::max(lb, s.ecc);
    if (s.ecc < best_ecc || (s.ecc == best_ecc && root < best_root)) {
      best_ecc = s.ecc;
      best_root = root;
    }
    return s;
  };

  // Phase 1 — center hunt. `extreme_dist` holds full distance arrays from
  // registered extreme nodes (bounded by kCenterIters, so O(n) memory);
  // every probe also tightens lb and the best-known root.
  std::vector<NodeId> extreme_ids;
  std::vector<std::vector<Weight>> extreme_dist;
  const auto registered = [&](NodeId v) {
    return std::find(extreme_ids.begin(), extreme_ids.end(), v) !=
           extreme_ids.end();
  };
  const auto register_extreme = [&](NodeId v) {
    const DiamSweep s = probe(v);
    extreme_ids.push_back(v);
    extreme_dist.emplace_back(ws.dist().begin(), ws.dist().end());
    return s.far;
  };
  const auto center_candidate = [&]() {
    NodeId arg = 0;
    Weight best = kInfiniteWeight;
    for (NodeId v = 0; v < n; ++v) {
      Weight m = 0;
      for (const std::vector<Weight>& d : extreme_dist) {
        m = std::max(m, d[v]);
      }
      if (m < best) {
        best = m;
        arg = v;
      }
    }
    return arg;
  };

  constexpr int kCenterIters = 8;
  NodeId pending = probe(0).far;
  NodeId last_center = kInvalidNode;
  for (int it = 0; it < kCenterIters; ++it) {
    bool progress = false;
    if (pending != kInvalidNode && !registered(pending)) {
      pending = register_extreme(pending);
      progress = true;
    }
    const NodeId c = center_candidate();
    if (c != last_center && !registered(c)) {
      last_center = c;
      const DiamSweep sc = probe(c);
      if (!registered(sc.far)) pending = sc.far;
      progress = true;
    }
    if (!progress) break;
  }
  extreme_dist.clear();

  // Phase 2 — iFUB confirmation from the minimum-eccentricity root seen.
  {
    const NodeId sources[] = {best_root};
    dijkstra_into(csr, sources, ws);
    ++sweeps;
  }
  std::vector<NodeId> by_depth(ws.settled().rbegin(), ws.settled().rend());
  std::vector<Weight> depth(ws.dist().begin(), ws.dist().end());

  constexpr std::size_t kDiamBatch = 32;
  std::vector<Weight> ecc(kDiamBatch);
  std::size_t done = 0;
  while (done < by_depth.size() && 2 * depth[by_depth[done]] > lb) {
    const std::size_t batch = std::min(kDiamBatch, by_depth.size() - done);
    parallel_for("metric.diameter", batch, 1,
                 [&](std::size_t first, std::size_t last) {
                   for (std::size_t k = first; k < last; ++k) {
                     DijkstraWorkspace& wk = tls_workspace();
                     ecc[k] = diameter_sweep(csr, by_depth[done + k], wk).ecc;
                   }
                 });
    for (std::size_t k = 0; k < batch; ++k) lb = std::max(lb, ecc[k]);
    done += batch;
    sweeps += batch;
  }
  CR_OBS_ADD("metric.diameter_sweeps", sweeps);
  return lb;
}

// ---------------------------------------------------------------------------
// Ball queries over a materialized row (the dense backend)
// ---------------------------------------------------------------------------

std::size_t ball_size_in_row(const MetricRowView& row, Weight r) {
  // Binary search over the sorted order: count of nodes with d(u, .) <= r.
  const std::span<const NodeId> order = row.order();
  std::size_t lo = 0, hi = order.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (row.dist(order[mid]) <= r) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<NodeId> ball_in_row(const MetricRowView& row, Weight r) {
  const std::size_t count = ball_size_in_row(row, r);
  const std::span<const NodeId> order = row.order();
  return std::vector<NodeId>(order.begin(), order.begin() + count);
}

// ---------------------------------------------------------------------------
// Dense backend: three n×n matrices, O(1) queries.
// ---------------------------------------------------------------------------

class DenseMetricBackend final : public MetricBackend {
 public:
  explicit DenseMetricBackend(const CsrGraph& csr)
      : csr_(&csr), n_(csr.num_nodes()) {
    // Normalize so the minimum pairwise distance is 1 (paper, Section 2).
    // Scale and delta come from the backend-shared functions, never from the
    // matrices, so the snapshot meta bytes cannot depend on the backend.
    scale_ = normalization_scale(csr);
    delta_ = exact_raw_diameter(csr) / scale_;

    dist_.resize(n_ * n_);
    parent_.resize(n_ * n_);
    order_.resize(n_ * n_);
    CR_OBS_ADD("mem.metric.dist_bytes", dist_.size() * sizeof(Weight));
    CR_OBS_ADD("mem.metric.parent_bytes", parent_.size() * sizeof(NodeId));
    CR_OBS_ADD("mem.metric.order_bytes", order_.size() * sizeof(NodeId));

    // All-pairs shortest paths: one Dijkstra per root, rows normalized as
    // they land; each chunk owns a disjoint slice of matrix rows, so no
    // synchronization is needed.
    parallel_for("metric.apsp", n_, kRowChunk,
                 [&](std::size_t first, std::size_t last) {
                   DijkstraWorkspace& ws = tls_workspace();
                   for (NodeId t = static_cast<NodeId>(first); t < last; ++t) {
                     const NodeId sources[] = {t};
                     dijkstra_into(*csr_, sources, ws);
                     const std::span<const Weight> dist = ws.dist();
                     const std::span<const NodeId> parent = ws.parent();
                     Weight* drow = dist_.data() + index(t, 0);
                     NodeId* prow = parent_.data() + index(t, 0);
                     for (NodeId u = 0; u < n_; ++u) {
                       CR_CHECK(dist[u] < kInfiniteWeight);
                       drow[u] = dist[u] / scale_;
                       prow[u] = parent[u];
                     }
                   }
                 });

    // Per-node orders by (distance, id), also parallel over rows.
    parallel_for("metric.order", n_, kRowChunk,
                 [&](std::size_t first, std::size_t last) {
                   for (NodeId u = static_cast<NodeId>(first); u < last; ++u) {
                     sort_order_row(dist_.data() + index(u, 0), n_,
                                    order_.data() + index(u, 0));
                   }
                 });
  }

  const char* name() const override { return "dense"; }

  MetricRowView row(NodeId u) const override {
    return MetricRowView({dist_.data() + index(u, 0), n_},
                         {parent_.data() + index(u, 0), n_},
                         {order_.data() + index(u, 0), n_}, nullptr);
  }

  Weight dist(NodeId u, NodeId v) const override { return dist_[index(u, v)]; }

  NodeId next_hop(NodeId u, NodeId target) const override {
    return parent_[index(target, u)];
  }

  std::vector<NodeId> ball(NodeId u, Weight r) const override {
    return ball_in_row(row(u), r);
  }

  std::size_t ball_size(NodeId u, Weight r) const override {
    return ball_size_in_row(row(u), r);
  }

  Weight radius_of_count(NodeId u, std::size_t m) const override {
    if (m > n_) m = n_;
    return dist_[index(u, order_[index(u, 0) + (m - 1)])];
  }

  std::size_t memory_bytes() const override {
    return dist_.size() * sizeof(Weight) + parent_.size() * sizeof(NodeId) +
           order_.size() * sizeof(NodeId);
  }

  const Weight* dense_dist_data() const override { return dist_.data(); }
  const NodeId* dense_parent_data() const override { return parent_.data(); }

 private:
  std::size_t index(NodeId row, NodeId col) const {
    return static_cast<std::size_t>(row) * n_ + col;
  }

  const CsrGraph* csr_;
  std::size_t n_;
  std::vector<Weight> dist_;    // n*n, normalized
  std::vector<NodeId> parent_;  // parent_[t*n + u] = next hop of u toward t
  std::vector<NodeId> order_;   // order_[u*n + k] = k-th nearest node to u
};

// ---------------------------------------------------------------------------
// Row-free backend: no matrices, no row cache. Queries are bounded Dijkstra;
// the diameter comes from an exact iFUB sweep; a full row is only ever
// materialized transiently through the legacy row() escape hatch (counted in
// metric.rows.materialized). O(n·workers) memory.
// ---------------------------------------------------------------------------

class RowFreeMetricBackend final : public MetricBackend {
 public:
  explicit RowFreeMetricBackend(const CsrGraph& csr)
      : csr_(&csr), n_(csr.num_nodes()) {
    scale_ = normalization_scale(csr);
    delta_ = exact_raw_diameter(csr) / scale_;
  }

  const char* name() const override { return "rowfree"; }

  MetricRowView row(NodeId u) const override {
    // Legacy/eval escape hatch: audits, route simulation, and pre-row-free
    // call sites still work, each paying one transient Dijkstra. The counter
    // is the regression tripwire — a row-free *build* must keep it at zero.
    CR_OBS_COUNT("metric.rows.materialized");
    MetricRowPtr row = materialize_row(*csr_, scale_, u);
    const MetricRow& r = *row;
    return MetricRowView(r.dist, r.parent, r.order, std::move(row));
  }

  Weight dist(NodeId u, NodeId v) const override {
    if (u == v) return 0;
    DijkstraWorkspace& ws = tls_workspace();
    const NodeId sources[] = {u};
    dijkstra_into(*csr_, sources, ws, {.stop_node = v});
    CR_CHECK_MSG(!ws.settled().empty() && ws.settled().back() == v,
                 "row-free metric requires a connected graph");
    return ws.dist()[v] / scale_;
  }

  NodeId next_hop(NodeId u, NodeId target) const override {
    if (u == target) return kInvalidNode;
    DijkstraWorkspace& ws = tls_workspace();
    const NodeId sources[] = {target};
    dijkstra_into(*csr_, sources, ws, {.stop_node = u});
    CR_CHECK_MSG(!ws.settled().empty() && ws.settled().back() == u,
                 "row-free metric requires a connected graph");
    return ws.parent()[u];
  }

  std::vector<NodeId> ball(NodeId u, Weight r) const override {
    CR_OBS_COUNT("metric.ball.bounded");
    DijkstraWorkspace& ws = tls_workspace();
    const NodeId sources[] = {u};
    dijkstra_into(*csr_, sources, ws, {.radius = r, .scale = scale_});
    std::vector<std::pair<Weight, NodeId>> members;
    members.reserve(ws.settled().size());
    for (const NodeId v : ws.settled()) {
      members.emplace_back(ws.dist()[v] / scale_, v);
    }
    std::sort(members.begin(), members.end());
    std::vector<NodeId> result;
    result.reserve(members.size());
    for (const auto& [d, v] : members) result.push_back(v);
    return result;
  }

  std::size_t ball_size(NodeId u, Weight r) const override {
    CR_OBS_COUNT("metric.ball.bounded");
    DijkstraWorkspace& ws = tls_workspace();
    const NodeId sources[] = {u};
    dijkstra_into(*csr_, sources, ws, {.radius = r, .scale = scale_});
    return ws.settled().size();
  }

  Weight radius_of_count(NodeId u, std::size_t m) const override {
    if (m > n_) m = n_;
    CR_OBS_COUNT("metric.ball.bounded");
    DijkstraWorkspace& ws = tls_workspace();
    const NodeId sources[] = {u};
    dijkstra_into(*csr_, sources, ws, {.max_settled = m});
    CR_CHECK(ws.settled().size() == m);
    return ws.dist()[ws.settled().back()] / scale_;
  }

  std::size_t memory_bytes() const override { return 0; }

 private:
  const CsrGraph* csr_;
  std::size_t n_;
};

}  // namespace

std::unique_ptr<MetricBackend> make_dense_backend(const CsrGraph& csr) {
  return std::make_unique<DenseMetricBackend>(csr);
}

std::unique_ptr<MetricBackend> make_rowfree_backend(const CsrGraph& csr) {
  return std::make_unique<RowFreeMetricBackend>(csr);
}

}  // namespace compactroute
