// Experiment F1 — regenerates Figure 1 as an executable trace: the
// name-independent routing execution "climb the zooming sequence, search each
// ball, route to the destination" (Algorithm 3), with the per-phase cost
// decomposition that the Lemma 3.4 stretch proof charges:
//   climb  <= sum d(u(i-1), u(i)) < 2^{j+1}        (Eqn 2)
//   search <= sum 2 (1+eps) 2^i / eps              (per-level round trips)
//   final  <= d(u(j), v)
#include <cstdio>

#include "bench_util.hpp"
#include "core/prng.hpp"

using namespace compactroute;
using namespace compactroute::bench;

int main() {
  const double eps = 0.4;
  const SnapshotStack stack =
      build_stack(make_random_geometric(256, 2, 5, 77), eps);
  const MetricSpace& metric = *stack.metric;
  Prng prng(3);

  std::printf("Figure 1 (executable): Algorithm 3 traces on geometric-256, "
              "eps=%.2f\n\n", eps);
  std::printf("%5s %5s %9s %6s %10s %10s %10s %10s %9s\n", "src", "dst",
              "d(u,v)", "level", "climb", "search", "final", "total",
              "stretch");
  print_rule(84);

  double worst = 0;
  for (int trial = 0; trial < 18; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(metric.n()));
    NodeId v = static_cast<NodeId>(prng.next_below(metric.n() - 1));
    if (v >= u) ++v;
    SimpleNameIndependentScheme::Trace trace;
    const RouteResult r =
        stack.simple->route_with_trace(u, stack.naming->name_of(v), &trace);
    const Weight d = metric.dist(u, v);
    const double stretch = r.cost / d;
    worst = std::max(worst, stretch);
    std::printf("%5u %5u %9.3f %6d %10.3f %10.3f %10.3f %10.3f %9.3f\n", u, v, d,
                trace.found_level, trace.climb_cost, trace.search_cost,
                trace.final_cost, r.cost, stretch);
  }
  std::printf("\nworst sampled stretch %.3f (paper bound: 9 + O(eps))\n", worst);

  // The level histogram: labels of distant nodes are found at higher levels —
  // the locality the search hierarchy is built for.
  std::printf("\nfound-level histogram over 3000 random pairs:\n");
  std::vector<std::size_t> histogram(stack.hierarchy->top_level() + 1, 0);
  for (int trial = 0; trial < 3000; ++trial) {
    const NodeId u = static_cast<NodeId>(prng.next_below(metric.n()));
    NodeId v = static_cast<NodeId>(prng.next_below(metric.n() - 1));
    if (v >= u) ++v;
    SimpleNameIndependentScheme::Trace trace;
    stack.simple->route_with_trace(u, stack.naming->name_of(v), &trace);
    ++histogram[trace.found_level];
  }
  for (int i = 0; i <= stack.hierarchy->top_level(); ++i) {
    if (histogram[i] == 0) continue;
    std::printf("  level %2d: %5zu  ", i, histogram[i]);
    for (std::size_t b = 0; b < histogram[i] / 25; ++b) std::putchar('#');
    std::putchar('\n');
  }
  return 0;
}
