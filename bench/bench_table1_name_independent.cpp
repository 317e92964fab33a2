// Experiment T1 — regenerates Table 1 (name-independent schemes) with
// measured numbers: stretch, per-node routing-table bits, header bits, for
//   * hash-location rendezvous baseline (context row),
//   * Theorem 1.4 (simple, non-scale-free; PODC'06),
//   * Theorem 1.1 (scale-free; SODA'07),
// across doubling-network families. The paper's asymptotic claims to compare
// against: both schemes 9+ε stretch; Thm 1.4 tables (1/ε)^O(α) log Δ log n,
// O(log n) headers; Thm 1.1 tables (1/ε)^O(α) log³ n, O(log²n/loglog n)
// headers.
#include <cstdio>

#include "bench_util.hpp"
#include "core/prng.hpp"

using namespace compactroute;
using namespace compactroute::bench;

int main() {
  const double eps = 0.5;
  const std::size_t samples = 4000;
  std::printf("Table 1 (measured): name-independent compact routing, eps=%.2f\n",
              eps);
  std::printf("paper bounds: stretch 9+eps for both schemes; tables log D log n "
              "(Thm 1.4) vs log^3 n (Thm 1.1)\n\n");
  std::printf("%-14s %-22s %9s %9s %9s %12s %12s %8s\n", "graph", "scheme",
              "stretch", "avg-str", "p95-str", "max-bits", "avg-bits",
              "hdr-bits");
  print_rule(104);

  obs::JsonValue doc = obs::JsonValue::object();
  doc["bench"] = "table1_name_independent";
  doc["epsilon"] = eps;
  doc["samples"] = samples;
  doc["rows"] = obs::JsonValue::array();
  doc["phases_ms"] = obs::JsonValue::object();

  for (const auto& [name, graph] : table_graphs()) {
    const PreprocessPhases phases;
    const SnapshotStack stack = build_stack(graph, eps);
    const MetricSpace& metric = *stack.metric;
    doc["phases_ms"][name] = phases.to_json();
    Prng prng(7);

    const HashLocationScheme baseline(metric, *stack.naming);
    struct Row {
      const NameIndependentScheme* scheme;
      const char* label;
    };
    const Row rows[] = {
        {&baseline, "hash-location"},
        {stack.simple.get(), "Thm1.4 simple"},
        {stack.sfni.get(), "Thm1.1 scale-free"},
    };
    for (const Row& row : rows) {
      const StretchStats stats = evaluate_name_independent(
          *row.scheme, metric, *stack.naming, samples, prng);
      const StorageStats storage = storage_of(*row.scheme, metric.n());
      std::printf("%-14s %-22s %9.3f %9.3f %9.3f %12zu %12.0f %8zu%s\n",
                  name.c_str(), row.label, stats.max_stretch,
                  stats.avg_stretch(), stats.p95(), storage.max_bits,
                  storage.avg_bits, row.scheme->header_bits(),
                  stats.failures ? "  [FAILURES!]" : "");

      obs::JsonValue entry = obs::JsonValue::object();
      entry["graph"] = name;
      entry["n"] = metric.n();
      entry["delta"] = metric.delta();
      entry["levels"] = stack.hierarchy->top_level();
      entry["scheme"] = row.label;
      entry["stretch"] = stretch_to_json(stats);
      entry["storage"] = storage_to_json(storage);
      entry["header_bits"] = row.scheme->header_bits();
      doc["rows"].push_back(std::move(entry));
    }
    std::printf("  (n=%zu, Delta=%.3g, levels=%d)\n\n", metric.n(),
                metric.delta(), stack.hierarchy->top_level());
  }
  std::printf("Shape check vs paper: both compact schemes stay below 9+O(eps) "
              "stretch;\nthe scale-free scheme's tables do not grow with log "
              "Delta (see bench_scale_free).\n");
  write_bench_json("BENCH_table1.json", doc);
  return 0;
}
