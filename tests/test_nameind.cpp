#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/bits.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "routing/baselines.hpp"
#include "routing/simulator.hpp"
#include "test_util.hpp"

namespace compactroute {
namespace {

using testing::small_graph_zoo;

SnapshotStack stack_of(const Graph& graph, double eps,
                       std::uint64_t naming_seed) {
  return build_stack(graph, eps, {},
                     Naming::random(graph.num_nodes(), naming_seed));
}

class NameIndZooTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    const auto zoo = small_graph_zoo();
    graph_name_ = zoo[GetParam()].name;
    fixture_ = std::make_unique<SnapshotStack>(
        stack_of(zoo[GetParam()].graph, 0.5, 1000 + GetParam()));
  }
  std::string graph_name_;
  std::unique_ptr<SnapshotStack> fixture_;
};

TEST_P(NameIndZooTest, SimpleSchemeDeliversAllPairs) {
  SCOPED_TRACE(graph_name_);
  Prng prng(1);
  const StretchStats stats = evaluate_name_independent(
      *fixture_->simple, *fixture_->metric, *fixture_->naming, 0, prng);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.pairs, fixture_->n * (fixture_->n - 1));
}

TEST_P(NameIndZooTest, ScaleFreeSchemeDeliversAllPairs) {
  SCOPED_TRACE(graph_name_);
  Prng prng(2);
  const StretchStats stats = evaluate_name_independent(
      *fixture_->sfni, *fixture_->metric, *fixture_->naming, 0, prng);
  EXPECT_EQ(stats.failures, 0u);
}

TEST_P(NameIndZooTest, StretchIsNinePlusOEpsilon) {
  SCOPED_TRACE(graph_name_);
  Prng prng(3);
  // Lemma 3.4: 9 + O(ε) — the proof's constant is 8(1/ε+1)/(1/ε-2) + 1; for
  // ε = 0.5 that ceiling is 1 + 8·3/0 (degenerate), so test with margin on
  // the measured stretch instead: the bound below holds for all zoo graphs
  // with room to spare and regresses if the search hierarchy breaks.
  const StretchStats simple_stats = evaluate_name_independent(
      *fixture_->simple, *fixture_->metric, *fixture_->naming, 0, prng);
  const StretchStats sf_stats = evaluate_name_independent(
      *fixture_->sfni, *fixture_->metric, *fixture_->naming, 0, prng);
  EXPECT_LE(simple_stats.max_stretch, 30.0);
  EXPECT_LE(sf_stats.max_stretch, 40.0);
}

INSTANTIATE_TEST_SUITE_P(Zoo, NameIndZooTest, ::testing::Range(0, 12),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return testing::small_graph_zoo()[info.param].name;
                         });

TEST(NameInd, TighterEpsilonTightensStretch) {
  // With ε = 0.2 the Lemma 3.4 ceiling 1 + 8(1/ε+1)/(1/ε-2) = 17 applies
  // (plus underlying-scheme slack).
  const Graph g = make_random_geometric(80, 2, 4, 41);
  const SnapshotStack f = stack_of(g, 0.2, 77);
  Prng prng(4);
  const StretchStats stats =
      evaluate_name_independent(*f.simple, *f.metric, *f.naming, 0, prng);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_LE(stats.max_stretch, 18.0);
}

TEST(NameInd, WorksUnderManyNamings) {
  // Name-independence: the same topology must route correctly under
  // arbitrary (here: several random) namings.
  const Graph g = make_grid(6, 6);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const SnapshotStack f = stack_of(g, 0.5, seed);
    Prng prng(seed);
    const StretchStats stats =
        evaluate_name_independent(*f.sfni, *f.metric, *f.naming, 200, prng);
    EXPECT_EQ(stats.failures, 0u) << "naming seed " << seed;
  }
}

TEST(NameInd, IdentityNamingAlsoWorks) {
  const Graph g = make_cycle(24);
  const MetricSpace metric(g);
  const NetHierarchy hierarchy(metric);
  const Naming naming = Naming::identity(metric.n());
  const HierarchicalLabeledScheme labeled(metric, hierarchy, 0.5);
  const SimpleNameIndependentScheme scheme(metric, hierarchy, naming, labeled, 0.5);
  Prng prng(5);
  const StretchStats stats =
      evaluate_name_independent(scheme, metric, naming, 0, prng);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(NameInd, TraceFindsLabelAtDistanceMatchedLevel) {
  // Lemma 3.4's core inequality: if the label is found at level j >= 1, then
  // d(u(j-1), v) > 2^{j-1}/ε, which lower-bounds d(u, v). Check the traces.
  const Graph g = make_random_geometric(70, 2, 4, 53);
  const SnapshotStack f = stack_of(g, 0.5, 11);
  Prng prng(6);
  for (int trial = 0; trial < 60; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(f.n));
    const NodeId v = static_cast<NodeId>(prng.next_below(f.n));
    if (u == v) continue;
    SimpleNameIndependentScheme::Trace trace;
    const RouteResult r =
        f.simple->route_with_trace(u, f.naming->name_of(v), &trace);
    ASSERT_TRUE(r.delivered);
    ASSERT_GE(trace.found_level, 0);
    if (trace.found_level > 0) {
      const NodeId anchor = f.hierarchy->zoom(trace.found_level - 1, u);
      EXPECT_GT(f.metric->dist(anchor, v),
                level_radius(trace.found_level - 1) / f.simple->epsilon() - 1e-9)
          << "search at level " << trace.found_level - 1 << " must have missed";
    }
  }
}

TEST(NameInd, ScaleFreeDelegatesSearchesOnDeepInstances) {
  // On a huge-Δ instance many net balls must be subsumed by packed balls —
  // that is the whole point of the ℬ_j structures (set S(u) non-empty).
  const Graph g = make_exponential_spider(14, 3);
  const SnapshotStack f = stack_of(g, 0.5, 13);
  std::size_t subsumed = 0;
  for (NodeId u = 0; u < f.n; ++u) {
    subsumed += f.sfni->subsumed_levels(u);
  }
  EXPECT_GT(subsumed, 0u) << "no level was ever delegated to a packed ball";

  Prng prng(7);
  const StretchStats stats =
      evaluate_name_independent(*f.sfni, *f.metric, *f.naming, 300, prng);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(NameInd, Claim39DistinctDelegationsBound) {
  // Claim 3.9: the number of distinct balls H(u, i) over i ∈ S(u) is at most
  // 4 log n — the key to charging the delegation links O(log² n) bits.
  for (const auto& [arms, len] :
       std::vector<std::pair<std::size_t, std::size_t>>{{10, 6}, {20, 3}}) {
    const SnapshotStack f =
        stack_of(make_exponential_spider(arms, len), 0.5, arms);
    const double bound = 4 * std::log2(static_cast<double>(f.n));
    for (NodeId u = 0; u < f.n; ++u) {
      EXPECT_LE(f.sfni->distinct_delegations(u), bound)
          << "node " << u << " on spider " << arms << "x" << len;
    }
  }
}

TEST(NameInd, Lemma35TreeMembershipBound) {
  // Lemma 3.5: each node belongs to at most (1/ε)^O(α) log n search trees;
  // crucially this must NOT grow with log Δ on deep instances.
  std::vector<double> per_log_n;
  for (const auto& [arms, len] :
       std::vector<std::pair<std::size_t, std::size_t>>{{8, 9}, {18, 4}, {36, 2}}) {
    const SnapshotStack f =
        stack_of(make_exponential_spider(arms, len), 0.5, arms);
    std::size_t worst = 0;
    for (NodeId v = 0; v < f.n; ++v) {
      worst = std::max(worst, f.sfni->trees_containing(v));
    }
    per_log_n.push_back(static_cast<double>(worst) /
                        std::log2(static_cast<double>(f.n)));
  }
  // Same n across the family: membership counts must stay flat although the
  // depth grows almost 4x.
  EXPECT_LE(per_log_n.back(), 1.5 * per_log_n.front() + 1.0);
}

TEST(NameInd, StorageScaleFreeVersusSimple) {
  // Theorem 1.1 vs 1.4: on exponential-Δ instances the simple scheme's
  // storage grows with log Δ, the scale-free scheme's must not.
  // Fixed n, Δ growing exponentially with the arm count.
  std::vector<double> simple_avg, sf_avg, depths;
  for (const auto& [arms, len] : std::vector<std::pair<std::size_t, std::size_t>>{
           {6, 12}, {9, 8}, {18, 4}}) {
    const SnapshotStack f =
        stack_of(make_exponential_spider(arms, len), 0.5, arms);
    ASSERT_EQ(f.n, 73u);
    std::vector<std::size_t> si(f.n), sf(f.n);
    for (NodeId u = 0; u < f.n; ++u) {
      si[u] = f.simple->storage_bits(u);
      sf[u] = f.sfni->storage_bits(u);
    }
    simple_avg.push_back(summarize_storage(si).avg_bits);
    sf_avg.push_back(summarize_storage(sf).avg_bits);
    depths.push_back(f.hierarchy->top_level());
  }
  EXPECT_GT(depths.back() / depths.front(), 1.5);
  const double simple_growth = simple_avg.back() / simple_avg.front();
  const double sf_growth = sf_avg.back() / sf_avg.front();
  EXPECT_LT(sf_growth, simple_growth)
      << "scale-free storage must grow slower than the simple scheme's";
}

TEST(NameInd, HashLocationBaselineDeliversButStretches) {
  const Graph g = make_grid(8, 8);
  const MetricSpace metric(g);
  const Naming naming = Naming::random(metric.n(), 3);
  const HashLocationScheme baseline(metric, naming);
  Prng prng(8);
  const StretchStats stats =
      evaluate_name_independent(baseline, metric, naming, 0, prng);
  EXPECT_EQ(stats.failures, 0u);
  // Rendezvous routing pays Θ(Δ) even for adjacent pairs: stretch far above
  // the compact schemes' 9+ε on at least some pair.
  EXPECT_GT(stats.max_stretch, 5.0);
}

TEST(NameInd, RouteToSelf) {
  const Graph g = make_path(20);
  const SnapshotStack f = stack_of(g, 0.5, 21);
  const RouteResult r = f.sfni->route(7, f.naming->name_of(7));
  EXPECT_TRUE(r.delivered);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

TEST(NameInd, HeaderAndStorageArePolylogOnModerateDelta) {
  const Graph g = make_random_geometric(90, 2, 4, 59);
  const SnapshotStack f = stack_of(g, 0.5, 23);
  const double log_n = std::log2(static_cast<double>(f.n));
  EXPECT_LE(f.sfni->header_bits(),
            static_cast<std::size_t>(12 * log_n * log_n));
  std::vector<std::size_t> bits(f.n);
  for (NodeId u = 0; u < f.n; ++u) bits[u] = f.sfni->storage_bits(u);
  const StorageStats stats = summarize_storage(bits);
  // (1/ε)^{O(α)} log³ n with implementation constants; ensure we are far
  // from the Θ(n log n) oracle regime.
  EXPECT_LT(stats.max_bits, f.n * 40 * log_n);
  EXPECT_GT(stats.max_bits, 0u);
}

}  // namespace
}  // namespace compactroute
