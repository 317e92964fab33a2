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
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/json_export.hpp"
#include "obs/sharded.hpp"
#include "routing/baselines.hpp"
#include "routing/naming.hpp"
#include "routing/simulator.hpp"

namespace compactroute::bench {

/// Everything the experiments need for one (graph, ε) configuration.
///
/// Phase timings: the constructors meter themselves into the sharded registry
/// (CR_OBS_SCOPED_TIMER), but benches sweep many graph families through one
/// process, so the raw scraped totals conflate families. The Stack snapshots
/// every `preprocess.*` timer before building anything; phases_to_json()
/// reports the deltas accumulated since — i.e. this Stack's own construction
/// cost, per phase, regardless of what ran before it in the process.
struct Stack {
  Stack(Graph g, double eps, std::uint64_t naming_seed = 4242,
        MetricOptions metric_options = {})
      : phase_snapshot_(snapshot_preprocess_timers()),  // before metric(graph)
        graph(std::move(g)),
        epsilon(eps),
        metric(graph, metric_options),
        hierarchy(metric),
        naming(Naming::random(metric.n(), naming_seed)) {}

  void build_labeled() {
    if (!hier_labeled) {
      hier_labeled = std::make_unique<HierarchicalLabeledScheme>(
          metric, hierarchy, std::min(epsilon, 0.5));
      sf_labeled = std::make_unique<ScaleFreeLabeledScheme>(metric, hierarchy,
                                                            std::min(epsilon, 0.5));
    }
  }

  void build_name_independent() {
    build_labeled();
    if (!simple_ni) {
      simple_ni = std::make_unique<SimpleNameIndependentScheme>(
          metric, hierarchy, naming, *hier_labeled, epsilon);
      sf_ni = std::make_unique<ScaleFreeNameIndependentScheme>(
          metric, hierarchy, naming, *sf_labeled, epsilon);
    }
  }

  /// Per-phase construction cost of THIS stack (metric, nets, and whichever
  /// schemes have been built so far), in milliseconds, keyed by the
  /// registry's `preprocess.*` timer names. Call after the builds of
  /// interest; under CR_OBS_DISABLED every delta is 0.
  obs::JsonValue phases_to_json() const {
    obs::JsonValue v = obs::JsonValue::object();
    const auto scraped = obs::scrape_global();
    for (const auto& [name, timer] : scraped->timers()) {
      if (name.rfind("preprocess.", 0) != 0) continue;
      const auto it = phase_snapshot_.find(name);
      const double before = it == phase_snapshot_.end() ? 0 : it->second;
      v[name] = timer.total_ms() - before;
    }
    return v;
  }

  static std::map<std::string, double> snapshot_preprocess_timers() {
    std::map<std::string, double> snap;
    const auto scraped = obs::scrape_global();
    for (const auto& [name, timer] : scraped->timers()) {
      if (name.rfind("preprocess.", 0) == 0) snap[name] = timer.total_ms();
    }
    return snap;
  }

  // Declared first so the snapshot is taken before any member constructor
  // below starts a preprocess timer.
  std::map<std::string, double> phase_snapshot_;
  Graph graph;
  double epsilon;
  MetricSpace metric;
  NetHierarchy hierarchy;
  Naming naming;
  std::unique_ptr<HierarchicalLabeledScheme> hier_labeled;
  std::unique_ptr<ScaleFreeLabeledScheme> sf_labeled;
  std::unique_ptr<SimpleNameIndependentScheme> simple_ni;
  std::unique_ptr<ScaleFreeNameIndependentScheme> sf_ni;
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
