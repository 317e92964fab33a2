// `check`: the ground truth for one run, computed before serving starts.
// Loads each snapshot, computes the serve_one fingerprint of every request in
// the round, and walks every check-block request through the scheme's public
// step_inplace against the harness's own graph copy and Dijkstra. With
// --trace 1 it also times serve_batch per scheme on the round's requests.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "checker.hpp"
#include "commands.hpp"
#include "expected.hpp"
#include "workload.hpp"

#include "core/parallel.hpp"
#include "io/snapshot_mmap.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "runtime/serve.hpp"

namespace cr = compactroute;

namespace perfbench {

namespace {

/// The four hop runtimes over one decoded snapshot, sharing one arena.
struct HopStack {
  cr::SnapshotStack stack;
  std::shared_ptr<const cr::HopArena> arena;
  std::unique_ptr<cr::HopScheme> schemes[kSchemes];

  explicit HopStack(const std::string& path)
      : stack(cr::load_snapshot_mmap(path)), arena(stack.build_arena()) {
    schemes[0] = std::make_unique<cr::HierarchicalHopScheme>(*stack.hier, arena);
    schemes[1] = std::make_unique<cr::ScaleFreeHopScheme>(*stack.sf, arena);
    schemes[2] = std::make_unique<cr::SimpleNameIndependentHopScheme>(
        *stack.simple, *stack.hier, arena);
    schemes[3] = std::make_unique<cr::ScaleFreeNameIndependentHopScheme>(
        *stack.sfni, *stack.sf, arena);
  }

  std::uint64_t dest_key(int s, std::uint32_t dest) const {
    return scheme_is_labeled(s) ? stack.hierarchy->leaf_label(dest)
                                : stack.naming->name_of(dest);
  }
};

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// serve_batch per scheme on the round's own requests (the batch replayer
/// under the same epoch tables): routes/s with latencies off, median of
/// several alternating repetitions; then one pass with latencies on for the
/// per-request service time.
void time_serve_batch(const HopStack& hs, const std::vector<Request>& round,
                      Spans& spans, Json& out) {
  std::vector<cr::ServeRequest> batches[kSchemes];
  for (const Request& r : round) {
    batches[r.scheme].push_back({r.src, hs.dest_key(r.scheme, r.dest)});
  }
  constexpr int kReps = 9;
  std::vector<double> rates[kSchemes];
  cr::ServeOptions fast;
  fast.collect_latencies = false;
  fast.instrument = false;
  for (int rep = 0; rep < kReps; ++rep) {
    for (int s = 0; s < kSchemes; ++s) {
      Scope span(spans, "hop.serve_batch");
      rates[s].push_back(
          cr::serve_batch(hs.stack.csr, *hs.schemes[s], batches[s], fast)
              .routes_per_sec);
    }
  }
  cr::ServeOptions timed;
  timed.instrument = false;
  out.begin_object("serve_batch");
  double requests = 0, seconds = 0;
  for (int s = 0; s < kSchemes; ++s) {
    const cr::ServeStats stats =
        cr::serve_batch(hs.stack.csr, *hs.schemes[s], batches[s], timed);
    const double rate = median(rates[s]);
    requests += static_cast<double>(batches[s].size());
    seconds += static_cast<double>(batches[s].size()) / rate;
    out.begin_object(kSchemeNames[s]);
    out.num("routes_per_s", rate);
    out.num("hops_per_route", static_cast<double>(stats.total_hops) /
                                  static_cast<double>(stats.requests));
    out.num("service_us_p50", stats.p50_us);
    out.u64("requests", batches[s].size());
    out.end_object();
  }
  out.num("mixed_routes_per_s", requests / seconds);
  out.end_object();
}

}  // namespace

int cmd_check(const Args& args) {
  WorkloadSpec spec;
  if (!find_workload(args.get("workload"), args.has("toy"), &spec)) return 2;
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 0));
  const std::vector<std::string> snaps = args.list("snaps");
  if (snaps.size() != spec.eps.size()) return 2;
  Spans spans(args.num("trace", 0) != 0);
  cr::Executor::global().set_workers(kServeWorkers);

  const OwnGraph graph = generate_graph(spec);
  const std::vector<Request> round = make_round(spec, seed);
  const std::size_t n = graph.n;
  const std::size_t budget = 64 * n + 1024;

  std::map<std::uint32_t, std::vector<double>> dist;
  for (const Request& r : round) {
    if (r.check >= 0 && dist.count(r.src) == 0) dist[r.src] = dijkstra(graph, r.src);
  }

  Json out;
  out.begin_object();
  std::vector<Expected> expected(snaps.size());
  std::vector<double> class_stretch[2];  // labeled, name-independent
  std::vector<std::uint32_t> path;
  bool graph_ok = true;
  out.begin_array("snapshots");
  for (std::size_t k = 0; k < snaps.size(); ++k) {
    const HopStack hs(snaps[k]);
    // The snapshot must hold exactly the harness's graph.
    for (std::uint32_t u = 0; u < n && graph_ok; ++u) {
      graph_ok = hs.stack.n == n &&
                 hs.stack.csr.arc_targets(u).size() == graph.adj[u].size();
      for (const cr::NodeId v : hs.stack.csr.arc_targets(u)) {
        graph_ok = graph_ok && graph.edge_weight(u, v) > 0;
      }
    }
    Expected& e = expected[k];
    e.fingerprint.assign(round.size(), 0);
    e.hops.assign(round.size(), 0);
    e.failed.assign(round.size(), graph_ok ? kPassed : kUnexpected);
    std::vector<double> stretch[kSchemes];
    std::size_t verdicts[kSchemes][7] = {};
    for (std::size_t i = 0; i < round.size() && graph_ok; ++i) {
      const Request& r = round[i];
      const cr::HopScheme& scheme = *hs.schemes[r.scheme];
      const std::uint64_t key = hs.dest_key(r.scheme, r.dest);
      std::size_t hops = 0;
      bool delivered = false;
      try {
        e.fingerprint[i] =
            cr::serve_one(hs.stack.csr, scheme, {r.src, key}, budget, &hops,
                          &delivered);
      } catch (const std::exception&) {
        delivered = false;  // non-edge forward or hop budget exceeded
      }
      e.hops[i] = static_cast<std::uint32_t>(hops);
      e.failed[i] = delivered ? kPassed : kUnexpected;
      if (r.check < 0) continue;
      const bool walked = walk_route(scheme, r.src, key, budget, &path);
      const RouteCheck rc =
          check_route(graph, r.src, r.dest, path, dist[r.src][r.dest],
                      stretch_ceiling(r.scheme, spec.eps[k]), walked);
      // The walk must be the served route: same hop count as serve_one.
      const bool same = walked && path.size() == hops + 1;
      ++verdicts[r.scheme][static_cast<int>(rc.verdict)];
      if (!same) {
        e.failed[i] = kUnexpected;
      } else if (rc.verdict != Verdict::kOk) {
        e.failed[i] = is_known_fault(r.scheme, spec.eps[k], rc.verdict)
                          ? kKnownFault
                          : kUnexpected;
      }
      if (rc.stretch > 0) {
        stretch[r.scheme].push_back(rc.stretch);
        class_stretch[scheme_is_labeled(r.scheme) ? 0 : 1].push_back(rc.stretch);
      }
    }

    std::size_t failed = 0, unexpected = 0;
    for (const std::uint8_t f : e.failed) {
      failed += f != kPassed ? 1 : 0;
      unexpected += f == kUnexpected ? 1 : 0;
    }
    out.begin_object();
    out.num("eps", spec.eps[k]);
    out.str("round_digest", hex64(round_digest(e)));
    out.u64("failed_per_round", failed);
    out.u64("unexpected_per_round", unexpected);
    out.num("arena_bytes_per_node",
            static_cast<double>(hs.arena->memory_bytes()) / static_cast<double>(n));
    out.begin_object("schemes");
    for (int s = 0; s < kSchemes; ++s) {
      out.begin_object(kSchemeNames[s]);
      double sum = 0, max = 0;
      for (const double x : stretch[s]) {
        sum += x;
        max = std::max(max, x);
      }
      out.u64("checked", stretch[s].size());
      out.num("stretch_avg", stretch[s].empty() ? 0 : sum / stretch[s].size());
      out.num("stretch_max", max);
      out.num("stretch_p99", percentile(stretch[s], 0.99));
      out.num("ceiling", stretch_ceiling(s, spec.eps[k]));
      out.begin_object("verdicts");
      for (int v = 0; v < 7; ++v) {
        if (verdicts[s][v] != 0) {
          out.u64(verdict_name(static_cast<Verdict>(v)), verdicts[s][v]);
        }
      }
      out.end_object();
      out.end_object();
    }
    out.end_object();
    if (spans.enabled() && k == 0) time_serve_batch(hs, round, spans, out);
    out.end_object();
  }
  out.end_array();
  write_expected(args.get("out"), expected);

  out.boolean("graph_matches", graph_ok);
  out.u64("round_size", round.size());
  out.num("stretch_p99_labeled", percentile(class_stretch[0], 0.99));
  out.num("stretch_p99_ni", percentile(class_stretch[1], 0.99));
  out.u64("workers", cr::Executor::global().workers());
  out.spans("spans", spans);
  out.end_object();
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench
