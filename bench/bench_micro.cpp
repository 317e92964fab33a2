// Experiment E4 — microbenchmarks (google-benchmark): construction cost of
// every substrate and the served routing throughput of every scheme. These
// quantify the preprocessing/routing split the paper's model assumes
// (preprocessing is offline; routing decisions must be cheap).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "graph/dijkstra.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/ball_packing.hpp"
#include "nets/rnet.hpp"
#include "routing/naming.hpp"
#include "runtime/hop_arena.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "search/search_tree.hpp"

namespace compactroute {
namespace {

const Graph& shared_graph(std::size_t n) {
  static std::map<std::size_t, Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, make_random_geometric(n, 2, 5, 12345)).first;
  }
  return it->second;
}

const MetricSpace& shared_metric(std::size_t n) {
  static std::map<std::size_t, std::unique_ptr<MetricSpace>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, std::make_unique<MetricSpace>(shared_graph(n))).first;
  }
  return *it->second;
}

const NetHierarchy& shared_hierarchy(std::size_t n) {
  static std::map<std::size_t, std::unique_ptr<NetHierarchy>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, std::make_unique<NetHierarchy>(shared_metric(n))).first;
  }
  return *it->second;
}

void BM_Dijkstra(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  NodeId src = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(g, src));
    src = (src + 17) % g.num_nodes();
  }
}
BENCHMARK(BM_Dijkstra)->Arg(128)->Arg(256)->Arg(512);

void BM_MetricConstruction(benchmark::State& state) {
  const Graph& g = shared_graph(state.range(0));
  for (auto _ : state) {
    MetricSpace metric(g);
    benchmark::DoNotOptimize(metric.delta());
  }
}
BENCHMARK(BM_MetricConstruction)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_NetHierarchy(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(state.range(0));
  for (auto _ : state) {
    NetHierarchy hierarchy(metric);
    benchmark::DoNotOptimize(hierarchy.top_level());
  }
}
BENCHMARK(BM_NetHierarchy)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_BallPacking(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(256);
  for (auto _ : state) {
    BallPacking packing(metric, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(packing.balls().size());
  }
}
BENCHMARK(BM_BallPacking)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_SearchTreeBuild(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(256);
  for (auto _ : state) {
    SearchTree tree(metric, 0, metric.delta(), 0.5);
    benchmark::DoNotOptimize(tree.tree().size());
  }
}
BENCHMARK(BM_SearchTreeBuild)->Unit(benchmark::kMillisecond);

void BM_SearchTreeLookup(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(256);
  SearchTree tree(metric, 0, metric.delta(), 0.5);
  std::vector<std::pair<SearchTree::Key, SearchTree::Data>> pairs;
  for (NodeId v = 0; v < metric.n(); ++v) pairs.emplace_back(v, v);
  tree.store(std::move(pairs));
  SearchTree::Key key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.lookup(key));
    key = (key + 41) % metric.n();
  }
}
BENCHMARK(BM_SearchTreeLookup);

void BM_ScaleFreeLabeledBuild(benchmark::State& state) {
  const MetricSpace& metric = shared_metric(state.range(0));
  const NetHierarchy& hierarchy = shared_hierarchy(state.range(0));
  for (auto _ : state) {
    ScaleFreeLabeledScheme scheme(metric, hierarchy, 0.5);
    benchmark::DoNotOptimize(scheme.label_bits());
  }
}
BENCHMARK(BM_ScaleFreeLabeledBuild)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

// Served routing: one whole route per iteration, walked through the scheme's
// step_inplace over one shared HopArena — the per-request work a Server does,
// minus the queue. The arena is compiled from all four schemes, as a
// snapshot-loaded epoch compiles it.
struct ServedStack {
  explicit ServedStack(std::size_t n)
      : stack(build_stack(shared_graph(n), 0.5, {}, Naming::random(n, 6))),
        arena(stack.build_arena()),
        hier_hop(*stack.hier, arena),
        sf_hop(*stack.sf, arena),
        simple_hop(*stack.simple, *stack.hier, arena),
        sfni_hop(*stack.sfni, *stack.sf, arena) {}

  SnapshotStack stack;
  std::shared_ptr<const HopArena> arena;
  HierarchicalHopScheme hier_hop;
  ScaleFreeHopScheme sf_hop;
  SimpleNameIndependentHopScheme simple_hop;
  ScaleFreeNameIndependentHopScheme sfni_hop;
};

const ServedStack& served_stack() {
  static const ServedStack stack(256);
  return stack;
}

/// Walks one route to delivery; returns its hop count.
std::size_t walk(const HopScheme& scheme, NodeId src, std::uint64_t key) {
  HopHeader header = scheme.make_header(src, key);
  NodeId at = src;
  NodeId next = kInvalidNode;
  std::size_t hops = 0;
  while (!scheme.step_inplace(at, header, &next)) {
    at = next;
    ++hops;
  }
  return hops;
}

template <typename KeyOf>
void run_served(benchmark::State& state, const HopScheme& scheme,
                std::uint64_t seed, const KeyOf& key_of) {
  const std::size_t n = served_stack().stack.n;
  Prng prng(seed);
  std::size_t hops = 0;
  for (auto _ : state) {
    const NodeId u = static_cast<NodeId>(prng.next_below(n));
    const NodeId v = static_cast<NodeId>(prng.next_below(n));
    hops += walk(scheme, u, key_of(v));
  }
  state.counters["hops_per_route"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kAvgIterations);
}

std::uint64_t label_key(NodeId v) {
  return served_stack().stack.hierarchy->leaf_label(v);
}
std::uint64_t name_key(NodeId v) {
  return served_stack().stack.naming->name_of(v);
}

void BM_ServedHierarchicalLabeledRoute(benchmark::State& state) {
  run_served(state, served_stack().hier_hop, 1, label_key);
}
BENCHMARK(BM_ServedHierarchicalLabeledRoute);

void BM_ServedScaleFreeLabeledRoute(benchmark::State& state) {
  run_served(state, served_stack().sf_hop, 2, label_key);
}
BENCHMARK(BM_ServedScaleFreeLabeledRoute);

void BM_ServedSimpleNameIndependentRoute(benchmark::State& state) {
  run_served(state, served_stack().simple_hop, 3, name_key);
}
BENCHMARK(BM_ServedSimpleNameIndependentRoute);

void BM_ServedScaleFreeNameIndependentRoute(benchmark::State& state) {
  run_served(state, served_stack().sfni_hop, 4, name_key);
}
BENCHMARK(BM_ServedScaleFreeNameIndependentRoute);

}  // namespace
}  // namespace compactroute

BENCHMARK_MAIN();
