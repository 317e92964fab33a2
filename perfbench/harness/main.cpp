// perfbench_harness — the measured program of perfbench/run.py.
//
//   perfbench_harness gen      --workload W --out graph.txt [--toy]
//   perfbench_harness build    --workload W --graph graph.txt --outdir D
//                              [--trace 0|1] [--storage] [--toy]
//   perfbench_harness check    --workload W --seed S --snaps a[,b]
//                              --out expected.bin [--trace 0|1] [--toy]
//   perfbench_harness serve    --workload W --seed S --snaps a[,b]
//                              --expected expected.bin --seconds T
//                              [--setups K] [--trace 0|1] [--toy]
//   perfbench_harness info     compiler, flags and build type
//   perfbench_harness selftest the route checker on forged routes
//
// Each subcommand prints one JSON line on stdout. Exit codes: 0 success,
// 1 runtime error, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "checker.hpp"
#include "commands.hpp"
#include "workload.hpp"

namespace perfbench {

std::string Args::get(const std::string& key) const {
  const auto it = values.find(key);
  if (it == values.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

double Args::num(const std::string& key, double fallback) const {
  const auto it = values.find(key);
  if (it == values.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    throw std::invalid_argument("malformed --" + key + " " + it->second);
  }
  return v;
}

std::vector<std::string> Args::list(const std::string& key) const {
  std::vector<std::string> out;
  const std::string all = get(key);
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = all.find(',', start);
    out.push_back(all.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

int cmd_gen(const Args& args) {
  WorkloadSpec spec;
  if (!find_workload(args.get("workload"), args.has("toy"), &spec)) return 2;
  const OwnGraph graph = generate_graph(spec);
  write_graph(args.get("out"), graph);
  Json out;
  out.begin_object().u64("n", graph.n).u64("edges", graph.num_edges()).end_object();
  std::printf("%s\n", out.text().c_str());
  return 0;
}

namespace {

int cmd_info() {
  Json out;
  out.begin_object()
      .str("compiler", PB_COMPILER)
      .str("flags", PB_CXX_FLAGS)
      .str("build_type", PB_BUILD_TYPE)
      .end_object();
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

/// The checker must fail forged routes: a hop that is not an edge, a walk
/// that ends elsewhere, and a cost above the ceiling. A 4x4 grid, route
/// 0 -> 3 (distance 3); labeled ceiling at ε = 0.05 is 2.
int cmd_selftest(const Args&) {
  WorkloadSpec spec;
  spec.family = Family::kGrid;
  spec.width = spec.height = 4;
  const OwnGraph g = generate_graph(spec);
  const double d = dijkstra(g, 0)[3];
  const double ceiling = stretch_ceiling(0, 0.05);
  struct Case {
    const char* name;
    std::vector<std::uint32_t> path;
    bool delivered;
    Verdict want;
  };
  const Case cases[] = {
      {"shortest", {0, 1, 2, 3}, true, Verdict::kOk},
      {"detour-within-ceiling", {0, 4, 5, 1, 2, 3}, true, Verdict::kOk},
      {"non-edge-hop", {0, 2, 3}, true, Verdict::kNonEdge},
      {"wrong-endpoint", {0, 1, 2}, true, Verdict::kWrongEnd},
      {"above-ceiling", {0, 4, 8, 12, 13, 9, 5, 1, 2, 3}, true,
       Verdict::kAboveCeiling},
      {"bad-start", {1, 2, 3}, true, Verdict::kBadStart},
      {"not-delivered", {0, 1}, false, Verdict::kNotDelivered},
  };
  int bad = 0;
  Json out;
  out.begin_object().num("distance", d).num("ceiling", ceiling);
  out.begin_array("cases");
  for (const Case& c : cases) {
    const RouteCheck rc = check_route(g, 0, 3, c.path, d, ceiling, c.delivered);
    const bool pass = rc.verdict == c.want;
    bad += pass ? 0 : 1;
    out.begin_object()
        .str("case", c.name)
        .str("verdict", verdict_name(rc.verdict))
        .boolean("pass", pass)
        .end_object();
  }
  out.end_array().boolean("ok", bad == 0).end_object();
  std::printf("%s\n", out.text().c_str());
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_harness gen|build|check|serve|info|selftest [--key value]...\n");
    return 2;
  }
  const std::string command = argv[1];
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", token.c_str());
      return 2;
    }
    const bool has_value = i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
    args.values[token.substr(2)] = has_value ? argv[++i] : "1";
  }
  try {
    if (command == "gen") return cmd_gen(args);
    if (command == "build") return cmd_build(args);
    if (command == "check") return cmd_check(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "info") return cmd_info();
    if (command == "selftest") return cmd_selftest(args);
    std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
    return 2;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", command.c_str(), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
