#pragma once
//
// Shared helpers for the experiment harness: fixture bundles and fixed-width
// table printing so every bench emits paper-style rows.
//
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/bits.hpp"
#include "gen/generators.hpp"
#include "graph/metric.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nets/rnet.hpp"
#include "obs/json_export.hpp"
#include "obs/sharded.hpp"
#include "routing/baselines.hpp"
#include "routing/naming.hpp"
#include "routing/simulator.hpp"

namespace compactroute::bench {

/// Per-phase construction cost of whatever is built after this object is
/// made. The constructors meter themselves into the sharded registry
/// (CR_OBS_SCOPED_TIMER), but benches sweep many graph families through one
/// process, so the raw scraped totals conflate families. PreprocessPhases
/// snapshots every `preprocess.*` timer when constructed; to_json() reports
/// the deltas accumulated since, in milliseconds, keyed by timer name. Under
/// CR_OBS_DISABLED every delta is 0.
class PreprocessPhases {
 public:
  PreprocessPhases() {
    const auto scraped = obs::scrape_global();
    for (const auto& [name, timer] : scraped->timers()) {
      if (is_phase(name)) before_[name] = timer.total_ms();
    }
  }

  obs::JsonValue to_json() const {
    obs::JsonValue v = obs::JsonValue::object();
    const auto scraped = obs::scrape_global();
    for (const auto& [name, timer] : scraped->timers()) {
      if (!is_phase(name)) continue;
      const auto it = before_.find(name);
      v[name] = timer.total_ms() - (it == before_.end() ? 0 : it->second);
    }
    return v;
  }

 private:
  static bool is_phase(const std::string& name) {
    return name.rfind("preprocess.", 0) == 0;
  }

  std::map<std::string, double> before_;
};

/// The metric, nets and naming of one (graph, ε) configuration, with the
/// labeled schemes built on demand — for the benches that measure labeled
/// schemes alone or build their own variants on these parts. Benches that
/// need the whole four-scheme stack call build_stack() (io/snapshot.hpp).
struct Stack {
  Stack(Graph g, double eps, std::uint64_t naming_seed = kStackNamingSeed,
        MetricOptions metric_options = {})
      : graph(std::move(g)),
        epsilon(eps),
        metric(graph, metric_options),
        hierarchy(metric),
        naming(Naming::random(metric.n(), naming_seed)) {}

  void build_labeled() {
    if (!hier_labeled) {
      hier_labeled = std::make_unique<HierarchicalLabeledScheme>(
          metric, hierarchy, labeled_epsilon(epsilon));
      sf_labeled = std::make_unique<ScaleFreeLabeledScheme>(
          metric, hierarchy, labeled_epsilon(epsilon));
    }
  }

  /// Per-phase construction cost of THIS stack (metric, nets, and whichever
  /// schemes have been built so far).
  obs::JsonValue phases_to_json() const { return phases_.to_json(); }

  // Declared first so the snapshot is taken before any member constructor
  // below starts a preprocess timer.
  PreprocessPhases phases_;
  Graph graph;
  double epsilon;
  MetricSpace metric;
  NetHierarchy hierarchy;
  Naming naming;
  std::unique_ptr<HierarchicalLabeledScheme> hier_labeled;
  std::unique_ptr<ScaleFreeLabeledScheme> sf_labeled;
};

template <typename Scheme>
StorageStats storage_of(const Scheme& scheme, std::size_t n) {
  std::vector<std::size_t> bits(n);
  for (NodeId u = 0; u < n; ++u) bits[u] = scheme.storage_bits(u);
  return summarize_storage(bits);
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Machine-readable form of a stretch evaluation (see EXPERIMENTS.md,
/// "Telemetry & trace format", for the schema).
inline obs::JsonValue stretch_to_json(const StretchStats& stats) {
  obs::JsonValue v = obs::JsonValue::object();
  v["pairs"] = stats.pairs;
  v["max"] = stats.max_stretch;
  v["avg"] = stats.avg_stretch();
  v["p50"] = stats.p50();
  v["p95"] = stats.p95();
  v["p99"] = stats.p99();
  obs::JsonValue failures = obs::JsonValue::object();
  failures["undelivered"] = stats.undelivered;
  failures["misdelivered"] = stats.misdelivered;
  failures["wrong_cost"] = stats.wrong_cost;
  v["failures"] = std::move(failures);
  return v;
}

inline obs::JsonValue storage_to_json(const StorageStats& storage) {
  obs::JsonValue v = obs::JsonValue::object();
  v["max_bits"] = storage.max_bits;
  v["avg_bits"] = storage.avg_bits;
  v["total_bits"] = storage.total_bits;
  return v;
}

/// A 64-bit fingerprint as a "0x…" hex string: a JSON number is a double and
/// would drop its low bits.
inline std::string hex_fingerprint(std::uint64_t fingerprint) {
  char text[19];
  std::snprintf(text, sizeof(text), "0x%016llx",
                static_cast<unsigned long long>(fingerprint));
  return text;
}

/// Writes a bench's JSON document next to its printed table. A failure is
/// loud (the run's artifact is missing) but not fatal — the printed table
/// already carried the results.
inline void write_bench_json(const std::string& path, const obs::JsonValue& doc) {
  if (obs::write_text_file(path, doc.dump(2) + "\n")) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: bench JSON not written: %s\n", path.c_str());
  }
}

/// The mid-sized graph families the tables sweep over.
inline std::vector<std::pair<std::string, Graph>> table_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("grid-20x20", make_grid(20, 20));
  graphs.emplace_back("geometric-512", make_random_geometric(512, 2, 5, 1001));
  graphs.emplace_back("holes-22x22", make_grid_with_holes(22, 22, 10, 4, 7));
  graphs.emplace_back("clusters-512", make_cluster_hierarchy(3, 8, 8, 5));
  graphs.emplace_back("spider-16x12", make_exponential_spider(16, 12));
  graphs.emplace_back("cliques-16x8", make_ring_of_cliques(16, 8, 12));
  return graphs;
}

}  // namespace compactroute::bench
