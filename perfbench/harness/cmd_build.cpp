// `build`: one set-up's build half. Reads the graph file, builds every
// snapshot the workload serves on the row-free backend and writes it, timing
// each library call from outside. Runs in its own process, so its peak RSS is
// the build's alone.
#include <algorithm>
#include <memory>
#include <thread>

#include "commands.hpp"
#include "workload.hpp"

#include "core/parallel.hpp"
#include "graph/ball_oracle.hpp"
#include "graph/metric.hpp"
#include "io/graph_io.hpp"
#include "io/snapshot.hpp"
#include "labeled/hierarchical_labeled.hpp"
#include "labeled/scale_free_labeled.hpp"
#include "nameind/scale_free_nameind.hpp"
#include "nameind/simple_nameind.hpp"
#include "nets/rnet.hpp"
#include "obs/sharded.hpp"
#include "routing/naming.hpp"

namespace cr = compactroute;

namespace perfbench {

namespace {

std::uint64_t counter(const cr::obs::Registry& registry, const char* name) {
  const auto& counters = registry.counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

template <typename Scheme>
double bits_per_node(const Scheme& scheme, std::size_t n) {
  double total = 0;
  for (cr::NodeId u = 0; u < n; ++u) {
    total += static_cast<double>(scheme.storage_bits(u));
  }
  return total / static_cast<double>(n);
}

}  // namespace

int cmd_build(const Args& args) {
  WorkloadSpec spec;
  if (!find_workload(args.get("workload"), args.has("toy"), &spec)) return 2;
  const std::string graph_path = args.get("graph");
  const std::string outdir = args.get("outdir");
  const bool storage = args.has("storage");
  Spans spans(args.num("trace", 0) != 0);

  cr::Executor::global().set_workers(
      std::max(1u, std::thread::hardware_concurrency()));
  cr::preregister_build_metrics();

  Json out;
  out.begin_object();
  double build_s = 0;
  out.begin_array("snapshots");
  for (std::size_t k = 0; k < spec.eps.size(); ++k) {
    const double eps = spec.eps[k];
    const double eps_labeled = std::min(eps, 0.5);
    const std::string snap_path = outdir + "/snap" + std::to_string(k) + ".bin";

    const double t0 = now_s();
    const std::uint32_t root = spans.open("build");
    cr::Graph graph;
    {
      Scope s(spans, "build.graph_io", root);
      graph = cr::load_graph(graph_path);
    }
    std::unique_ptr<cr::MetricSpace> metric;
    {
      Scope s(spans, "build.metric", root);
      metric = std::make_unique<cr::MetricSpace>(
          graph, cr::MetricOptions{cr::MetricBackendKind::kRowFree});
    }
    const std::size_t n = metric->n();
    std::unique_ptr<cr::NetHierarchy> hierarchy;
    std::unique_ptr<cr::Naming> naming;
    {
      Scope s(spans, "build.nets", root);
      hierarchy = std::make_unique<cr::NetHierarchy>(*metric);
      naming = std::make_unique<cr::Naming>(cr::Naming::random(n, kNamingSeed));
    }
    std::unique_ptr<cr::HierarchicalLabeledScheme> hier;
    {
      Scope s(spans, "build.labeled_hier", root);
      hier = std::make_unique<cr::HierarchicalLabeledScheme>(*metric, *hierarchy,
                                                             eps_labeled);
    }
    std::unique_ptr<cr::ScaleFreeLabeledScheme> sf;
    {
      Scope s(spans, "build.labeled_sf", root);
      sf = std::make_unique<cr::ScaleFreeLabeledScheme>(*metric, *hierarchy,
                                                        eps_labeled);
    }
    std::unique_ptr<cr::SimpleNameIndependentScheme> simple;
    {
      Scope s(spans, "build.ni_simple", root);
      simple = std::make_unique<cr::SimpleNameIndependentScheme>(
          *metric, *hierarchy, *naming, *hier, eps);
    }
    std::unique_ptr<cr::ScaleFreeNameIndependentScheme> sfni;
    {
      Scope s(spans, "build.ni_sf", root);
      sfni = std::make_unique<cr::ScaleFreeNameIndependentScheme>(
          *metric, *hierarchy, *naming, *sf, eps);
    }
    std::uint64_t bytes = 0;
    {
      Scope s(spans, "build.snapshot_write", root);
      cr::SnapshotStreamWriter writer(snap_path);
      writer.add_meta(*metric, eps);
      writer.add_graph(*metric);
      writer.add_hierarchy(*hierarchy, n);
      writer.add_naming(*naming, n);
      writer.add_hier(hier.get(), n);
      writer.add_scale_free(sf.get(), n);
      writer.add_simple(simple.get());
      writer.add_sfni(sfni.get(), n);
      bytes = writer.finish();
    }
    spans.close(root);
    build_s += now_s() - t0;

    out.begin_object();
    out.str("path", snap_path);
    out.num("eps", eps);
    out.u64("n", n);
    out.u64("bytes", bytes);
    if (storage) {
      // The schemes' own storage_bits, outside the timed build.
      out.begin_object("storage_bits_per_node");
      out.num("hier", bits_per_node(*hier, n));
      out.num("sf", bits_per_node(*sf, n));
      out.num("simple", bits_per_node(*simple, n));
      out.num("sfni", bits_per_node(*sfni, n));
      out.end_object();
    }
    out.end_object();
  }
  out.end_array();

  const auto scraped = cr::obs::scrape_global();
  out.num("build_s", build_s);
  out.num("peak_rss_mb", peak_rss_mb());
  out.u64("workers", cr::Executor::global().workers());
  out.u64("balls_issued", counter(*scraped, "balls.issued"));
  out.u64("dijkstra_settled", counter(*scraped, "dijkstra.settled"));
  out.spans("spans", spans);
  out.end_object();
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench
