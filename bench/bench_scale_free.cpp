// Experiment E1 — the scale-freeness claim of Theorems 1.1/1.2 versus the
// non-scale-free Theorem 1.4 / Lemma 3.1 schemes: per-node storage as the
// normalized diameter Δ grows exponentially at (almost) fixed n. The
// exponential spider family keeps n = arms·len + 1 constant while each extra
// arm doubles the heaviest edge weight, so log Δ grows linearly down the
// rows. The paper's claim: the log Δ factor appears in the Thm 1.4 / Lemma
// 3.1 columns and is absent from the Thm 1.1 / 1.2 columns.
#include <cstdio>

#include <cmath>

#include "bench_util.hpp"

using namespace compactroute;
using namespace compactroute::bench;

int main() {
  const double eps = 0.5;
  std::printf("E1: storage vs normalized diameter at fixed n, eps=%.2f\n\n", eps);
  std::printf("%6s %6s %8s %7s | %12s %12s | %12s %12s\n", "arms", "n",
              "logDelta", "levels", "hier-lab", "sf-lab", "simple-ni", "sf-ni");
  std::printf("%38s | %12s %12s | %12s %12s\n", "", "(avg bits)", "(avg bits)",
              "(avg bits)", "(avg bits)");
  print_rule(100);

  // arms * len = 72 throughout: n = 73 fixed, Delta doubles per extra arm.
  const std::pair<std::size_t, std::size_t> family[] = {
      {6, 12}, {8, 9}, {9, 8}, {12, 6}, {18, 4}, {24, 3}, {36, 2}};
  for (const auto& [arms, len] : family) {
    const SnapshotStack stack =
        build_stack(make_exponential_spider(arms, len), eps);
    const MetricSpace& metric = *stack.metric;
    const StorageStats hier = storage_of(*stack.hier, metric.n());
    const StorageStats sf = storage_of(*stack.sf, metric.n());
    const StorageStats sni = storage_of(*stack.simple, metric.n());
    const StorageStats sfni = storage_of(*stack.sfni, metric.n());
    std::printf("%6zu %6zu %8.1f %7d | %12.0f %12.0f | %12.0f %12.0f\n", arms,
                metric.n(), std::log2(metric.delta()),
                stack.hierarchy->top_level(), hier.avg_bits, sf.avg_bits,
                sni.avg_bits, sfni.avg_bits);
  }
  std::printf("\nShape check: the hier-lab and simple-ni columns grow with "
              "logDelta;\nthe sf-lab and sf-ni columns stay (near) flat — the "
              "paper's scale-free separation.\n");
  return 0;
}
