// Experiment E2 — stretch versus ε for all four schemes: Theorems 1.1, 1.2,
// 1.4 and the Lemma 3.1 stand-in. The paper's claims: labeled stretch
// 1 + O(ε); name-independent stretch 9 + O(ε) — so the measured stretch
// should fall as ε shrinks, the labeled curves toward 1 and the
// name-independent curves toward (at most) 9; storage grows as (1/ε)^O(α).
#include <cstdio>

#include "bench_util.hpp"
#include "core/prng.hpp"

using namespace compactroute;
using namespace compactroute::bench;

int main() {
  const std::size_t samples = 3000;
  std::printf("E2: stretch vs eps on geometric-256 (max over %zu pairs)\n\n",
              samples);
  std::printf("%6s | %9s %9s | %9s %9s | %12s %12s\n", "eps", "hier-lab",
              "sf-lab", "simple-ni", "sf-ni", "sf-lab bits", "sf-ni bits");
  print_rule(84);

  for (const double eps : {0.5, 0.4, 0.3, 0.2, 0.125}) {
    const SnapshotStack stack =
        build_stack(make_random_geometric(256, 2, 5, 2024), eps);
    const MetricSpace& metric = *stack.metric;
    Prng prng(13);
    const StretchStats hier =
        evaluate_labeled(*stack.hier, metric, samples, prng);
    const StretchStats sf =
        evaluate_labeled(*stack.sf, metric, samples, prng);
    const StretchStats sni = evaluate_name_independent(
        *stack.simple, metric, *stack.naming, samples, prng);
    const StretchStats sfni = evaluate_name_independent(
        *stack.sfni, metric, *stack.naming, samples, prng);
    const StorageStats sf_bits = storage_of(*stack.sf, metric.n());
    const StorageStats sfni_bits = storage_of(*stack.sfni, metric.n());
    std::printf("%6.3f | %9.3f %9.3f | %9.3f %9.3f | %12.0f %12.0f\n", eps,
                hier.max_stretch, sf.max_stretch, sni.max_stretch,
                sfni.max_stretch, sf_bits.avg_bits, sfni_bits.avg_bits);
  }
  std::printf("\nShape check: labeled columns decrease toward 1, "
              "name-independent columns stay bounded (<= 9+O(eps)) while\n"
              "storage rises as (1/eps)^O(alpha) — the paper's stretch/space "
              "trade-off.\n");
  return 0;
}
