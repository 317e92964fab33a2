// Scale-freeness in action: a sensor backbone whose link weights span many
// orders of magnitude (an exponential spider), i.e. normalized diameter Δ
// exponential in the network size. Non-scale-free schemes (Theorem 1.4 /
// Lemma 3.1) pay a log Δ factor per node; the scale-free schemes (Theorems
// 1.1 / 1.2) do not — this example prints the per-node ledger side by side
// as arms are added at constant n.
//
//   $ ./examples/spider_scalefree
//
#include <cmath>
#include <cstdio>

#include "core/bits.hpp"
#include "gen/generators.hpp"
#include "io/snapshot.hpp"
#include "routing/simulator.hpp"

using namespace compactroute;

namespace {

StorageStats storage_of_labeled(const LabeledScheme& scheme, std::size_t n) {
  std::vector<std::size_t> bits(n);
  for (NodeId u = 0; u < n; ++u) bits[u] = scheme.storage_bits(u);
  return summarize_storage(bits);
}

StorageStats storage_of_ni(const NameIndependentScheme& scheme, std::size_t n) {
  std::vector<std::size_t> bits(n);
  for (NodeId u = 0; u < n; ++u) bits[u] = scheme.storage_bits(u);
  return summarize_storage(bits);
}

}  // namespace

int main() {
  const double epsilon = 0.5;
  std::printf("Scale-free vs non-scale-free storage, n fixed = 61 nodes\n\n");
  std::printf("%6s %10s | %12s %12s | %12s %12s\n", "arms", "logDelta",
              "Lem3.1 (avg)", "Thm1.2 (avg)", "Thm1.4 (avg)", "Thm1.1 (avg)");

  for (const auto& [arms, len] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {5, 12}, {10, 6}, {15, 4}, {20, 3}, {30, 2}}) {
    const Graph graph = make_exponential_spider(arms, len);
    const SnapshotStack s =
        build_stack(graph, epsilon, {}, Naming::random(graph.num_nodes(), 3));
    std::printf("%6zu %10.1f | %12.0f %12.0f | %12.0f %12.0f\n", arms,
                std::log2(s.delta), storage_of_labeled(*s.hier, s.n).avg_bits,
                storage_of_labeled(*s.sf, s.n).avg_bits,
                storage_of_ni(*s.simple, s.n).avg_bits,
                storage_of_ni(*s.sfni, s.n).avg_bits);
  }
  std::printf("\nThe Lem 3.1 / Thm 1.4 columns track logDelta; the Thm 1.2 / "
              "1.1 columns stay flat.\n");
  return 0;
}
