// Experiment E3 — storage scaling with n: per-node bits of the compact
// schemes against the paper's polylog budgets, with the Θ(n log n)-bit
// shortest-path oracle for contrast. Printed alongside log³ n so the polylog
// shape is visible directly.
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"

using namespace compactroute;
using namespace compactroute::bench;

int main() {
  const double eps = 0.5;
  std::printf("E3: per-node storage vs n (geometric graphs), eps=%.2f\n\n", eps);
  std::printf("%6s %8s | %10s | %12s %12s %12s | %14s\n", "n", "log^3 n",
              "oracle", "hier-lab", "sf-lab", "sf-ni", "sf-ni / log^3 n");
  print_rule(96);

  for (const std::size_t n : {64u, 128u, 256u, 512u, 768u, 1024u}) {
    const SnapshotStack stack =
        build_stack(make_random_geometric(n, 2, 5, 3000 + n), eps);
    const MetricSpace& metric = *stack.metric;
    const ShortestPathScheme oracle(metric);
    const double log3 = std::pow(std::log2(static_cast<double>(n)), 3.0);
    const StorageStats orc = storage_of(oracle, metric.n());
    const StorageStats hier = storage_of(*stack.hier, metric.n());
    const StorageStats sf = storage_of(*stack.sf, metric.n());
    const StorageStats sfni = storage_of(*stack.sfni, metric.n());
    std::printf("%6zu %8.0f | %10.0f | %12.0f %12.0f %12.0f | %14.1f\n", n, log3,
                orc.avg_bits, hier.avg_bits, sf.avg_bits, sfni.avg_bits,
                sfni.avg_bits / log3);
  }
  std::printf("\nShape check: the oracle column grows ~linearly in n; the "
              "compact columns grow polylogarithmically\n(the last column "
              "should stay roughly flat).\n");
  return 0;
}
