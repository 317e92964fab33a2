// Experiment E12 — Internet-like workloads: what happens to the paper's
// guarantees when the doubling assumption breaks, and how the serving engine
// behaves under adversarial traffic.
//
// The paper proves stretch 1+ε (labeled) / 9+ε (name-independent) *assuming*
// a doubling metric. Krioukov–Fall–Yang and Krioukov–claffy–Brady (PAPERS.md)
// ask the follow-up that matters for deployment: real inter-domain topologies
// are power-law / hyperbolic, where the doubling dimension grows with n. This
// bench quantifies the degradation end to end:
//
//   (1) Family table — for a doubling control (geometric) and three
//       Internet-like families (powerlaw, hyperbolic, astopo), measure the
//       doubling-dimension estimate UNDER THE ROW-FREE BACKEND (the
//       BallOracle overload of estimate_doubling_dimension; the
//       metric.rows.materialized tripwire is asserted to stay 0), build all
//       four schemes through the row-free pipeline, and report the stretch
//       distribution (avg / p99 / max) and per-node storage against the
//       shortest-path oracle baseline.
//
//   (2) Traffic table — load one Internet-like snapshot into the
//       runtime/server engine and drive it with the adversarial request
//       shapes of runtime/traffic: uniform (baseline), Zipf-skewed hotspot
//       destinations, single-destination incast, and the worst-stretch pairs
//       mined by audit::mine_worst_pairs. Per shape: routes/s and
//       p50/p99/p999 queue latency at capacity-paced load, plus the shed
//       rate under a 4x overload burst.
//
// `bench_internet --check` runs a fast small-n version of the same code for
// the internet-smoke CI job (every family built, every shape driven, all
// invariants CR_CHECKed, JSON written).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "audit/campaign.hpp"
#include "bench_util.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "graph/doubling.hpp"
#include "io/snapshot.hpp"
#include "runtime/server.hpp"
#include "runtime/traffic.hpp"

using namespace compactroute;
using bench::write_bench_json;

namespace {

constexpr std::size_t kWorkers = 4;
constexpr double kEps = 0.5;
constexpr std::uint64_t kSeed = 12;
constexpr std::uint64_t kEvalSeed = 99;
constexpr double kZipfSkew = 1.1;
constexpr double kOverloadFactor = 4.0;

std::uint64_t rows_materialized() {
#ifdef CR_OBS_DISABLED
  return 0;
#else
  const auto scraped = obs::scrape_global();
  const auto it = scraped->counters().find("metric.rows.materialized");
  return it == scraped->counters().end() ? 0 : it->second.value();
#endif
}

double percentile_of(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

struct FamilySpec {
  std::string name;
  bool internet_like = false;  // false = doubling control family
  Graph graph;
};

std::vector<FamilySpec> make_families(bool check) {
  const std::size_t n = check ? 96 : 1024;
  std::vector<FamilySpec> families;
  // Control: the paper's own class. Low, n-independent doubling dimension —
  // the baseline the Internet-like rows degrade from.
  families.push_back(
      {"geometric", false, make_random_geometric(n, 2, 5, kSeed)});
  families.push_back({"powerlaw", true, make_power_law(n, 2, kSeed)});
  families.push_back(
      {"hyperbolic", true, make_hyperbolic_disk(n, 0.75, 6.0, kSeed)});
  families.push_back(
      {"astopo", true,
       make_as_topology(n, std::max<std::size_t>(8, n / 16), kSeed)});
  return families;
}

}  // namespace

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;
  Executor::global().set_workers(kWorkers);
  const std::size_t stretch_samples = check ? 400 : 4000;
  const std::size_t dim_centers = 12;

  std::printf("E12: internet-like workloads, eps = %.2f, %zu workers%s\n\n",
              kEps, kWorkers, check ? " (check mode)" : "");

  obs::JsonValue doc = obs::JsonValue::object();
  doc["bench"] = std::string("internet");
  doc["check_mode"] = check;
  doc["epsilon"] = kEps;
  doc["workers"] = static_cast<std::uint64_t>(kWorkers);
  doc["seed"] = kSeed;
  doc["stretch_samples"] = static_cast<std::uint64_t>(stretch_samples);
  doc["families"] = obs::JsonValue::array();

  // ---- (1) Degradation table: doubling estimate + stretch + storage -------
  std::printf("%-12s %6s %7s %9s | %-22s %8s %8s %8s %10s\n", "family", "n",
              "dim", "cover", "scheme", "avg-str", "p99-str", "max-str",
              "vs-sp-bits");
  bench::print_rule(104);

  MetricOptions rowfree;
  rowfree.backend = MetricBackendKind::kRowFree;

  for (const FamilySpec& family : make_families(check)) {
    const std::size_t n = family.graph.num_nodes();
    const std::size_t m = family.graph.num_edges();

    // Row-free pipeline end to end: the same MetricSpace serves all four
    // scheme builds and the doubling estimate, and no full metric row may
    // ever materialize (acceptance tripwire).
    const std::uint64_t rows_before = rows_materialized();
    const SnapshotStack stack = build_stack(family.graph, kEps, rowfree);
    const MetricSpace& metric = *stack.metric;
    CR_CHECK_MSG(rows_materialized() == rows_before,
                 "row-free scheme build materialized a metric row");
    Prng dim_prng(1);
    const DoublingEstimate dim =
        estimate_doubling_dimension(metric, dim_centers, dim_prng);
    const std::uint64_t dim_rows = rows_materialized() - rows_before;
    CR_CHECK_MSG(dim_rows == 0,
                 "row-free doubling estimation materialized a metric row");

    const ShortestPathScheme sp(metric);
    const StorageStats sp_storage = bench::storage_of(sp, n);

    obs::JsonValue entry = obs::JsonValue::object();
    entry["family"] = family.name;
    entry["internet_like"] = family.internet_like;
    entry["n"] = static_cast<std::uint64_t>(n);
    entry["edges"] = static_cast<std::uint64_t>(m);
    obs::JsonValue dim_json = obs::JsonValue::object();
    dim_json["dimension"] = dim.dimension;
    dim_json["worst_cover_size"] =
        static_cast<std::uint64_t>(dim.worst_cover_size);
    dim_json["rows_materialized"] = dim_rows;
    dim_json["backend"] = std::string("rowfree");
    entry["doubling"] = std::move(dim_json);
    entry["sp_storage"] = bench::storage_to_json(sp_storage);
    entry["schemes"] = obs::JsonValue::array();

    struct Row {
      const char* label;
      StretchStats stats;
      StorageStats storage;
    };
    std::vector<Row> rows;
    {
      Prng prng(kEvalSeed);
      rows.push_back({"labeled-hierarchical",
                      evaluate_labeled(*stack.hier, metric,
                                       stretch_samples, prng),
                      bench::storage_of(*stack.hier, n)});
    }
    {
      Prng prng(kEvalSeed);
      rows.push_back({"labeled-scale-free",
                      evaluate_labeled(*stack.sf, metric,
                                       stretch_samples, prng),
                      bench::storage_of(*stack.sf, n)});
    }
    {
      Prng prng(kEvalSeed);
      rows.push_back({"ni-simple",
                      evaluate_name_independent(*stack.simple, metric,
                                                *stack.naming, stretch_samples,
                                                prng),
                      bench::storage_of(*stack.simple, n)});
    }
    {
      Prng prng(kEvalSeed);
      rows.push_back({"ni-scale-free",
                      evaluate_name_independent(*stack.sfni, metric,
                                                *stack.naming, stretch_samples,
                                                prng),
                      bench::storage_of(*stack.sfni, n)});
    }

    bool first_row = true;
    for (const Row& row : rows) {
      CR_CHECK_MSG(row.stats.failures == 0 && row.stats.wrong_cost == 0,
                   "scheme failed to deliver on an internet-like family");
      const double vs_sp =
          row.storage.avg_bits / std::max(sp_storage.avg_bits, 1.0);
      if (first_row) {
        std::printf("%-12s %6zu %7.2f %9zu | ", family.name.c_str(), n,
                    dim.dimension, dim.worst_cover_size);
      } else {
        std::printf("%-12s %6s %7s %9s | ", "", "", "", "");
      }
      first_row = false;
      std::printf("%-22s %8.3f %8.3f %8.3f %9.4fx\n", row.label,
                  row.stats.avg_stretch(), row.stats.p99(),
                  row.stats.max_stretch, vs_sp);

      obs::JsonValue scheme = obs::JsonValue::object();
      scheme["scheme"] = std::string(row.label);
      scheme["stretch"] = bench::stretch_to_json(row.stats);
      scheme["storage"] = bench::storage_to_json(row.storage);
      scheme["storage_vs_sp"] = vs_sp;
      entry["schemes"].push_back(std::move(scheme));
    }
    doc["families"].push_back(std::move(entry));
  }

  // ---- (2) Adversarial traffic against the serving engine -----------------
  // One Internet-like snapshot (powerlaw: the hubbiest family) through
  // runtime/server. Latency is measured at capacity-paced load (wave ==
  // total ring capacity, drained between waves, so nothing sheds); the shed
  // rate comes from a separate submit-then-drain burst at kOverloadFactor x
  // capacity, which sheds deterministically.
  const std::size_t traffic_n = check ? 96 : 1024;
  const Graph traffic_graph = make_power_law(traffic_n, 2, kSeed);
  audit::MineOptions mine;
  mine.samples = check ? 200 : 1500;
  mine.keep = 64;
  mine.epsilon = kEps;
  mine.seed = kSeed;
  const std::vector<audit::MinedPair> mined =
      audit::mine_worst_pairs(traffic_graph, mine);
  CR_CHECK(!mined.empty());

  const std::vector<std::uint8_t> bytes =
      encode_snapshot(build_stack(traffic_graph, kEps, rowfree));

  ServerOptions sopt;
  sopt.queue_depth = 256;
  sopt.shards = kWorkers;
  Server server(sopt);
  server.publish(ServerEpoch::adopt(decode_snapshot(bytes), 0));
  const std::size_t capacity = sopt.queue_depth * server.shards();
  const std::size_t traffic_requests = check ? 2 * capacity : 8 * capacity;

  const std::vector<ServeScheme> mix = {
      ServeScheme::kHierarchical, ServeScheme::kScaleFree,
      ServeScheme::kSimpleNi, ServeScheme::kScaleFreeNi};

  obs::JsonValue traffic_doc = obs::JsonValue::object();
  traffic_doc["family"] = std::string("powerlaw");
  traffic_doc["n"] = static_cast<std::uint64_t>(traffic_n);
  traffic_doc["requests"] = static_cast<std::uint64_t>(traffic_requests);
  traffic_doc["queue_depth"] = static_cast<std::uint64_t>(sopt.queue_depth);
  traffic_doc["shards"] = static_cast<std::uint64_t>(server.shards());
  traffic_doc["overload_factor"] = kOverloadFactor;
  traffic_doc["worst_pairs_mined"] = static_cast<std::uint64_t>(mined.size());
  traffic_doc["worst_stretch_mined"] = mined.front().stretch;
  traffic_doc["shapes"] = obs::JsonValue::array();

  std::printf("\ntraffic (powerlaw n=%zu, %zu shards x depth %zu, burst %gx "
              "capacity; worst mined stretch %.3f):\n",
              traffic_n, server.shards(), sopt.queue_depth, kOverloadFactor,
              mined.front().stretch);
  std::printf("%-10s %12s %9s %9s %9s %9s %10s\n", "shape", "routes/s",
              "p50-us", "p99-us", "p999-us", "shed", "shed-rate");

  struct ShapeSpec {
    const char* name;
    TrafficOptions options;
  };
  std::vector<ShapeSpec> shapes;
  shapes.push_back({"uniform", {}});
  {
    TrafficOptions z;
    z.shape = TrafficShape::kZipf;
    z.zipf_skew = kZipfSkew;
    shapes.push_back({"zipf", z});
  }
  {
    TrafficOptions inc;
    inc.shape = TrafficShape::kIncast;
    shapes.push_back({"incast", inc});
  }
  {
    TrafficOptions worst;
    worst.shape = TrafficShape::kWorstPairs;
    for (const audit::MinedPair& pair : mined) {
      worst.pairs.push_back(pair.request);
    }
    shapes.push_back({"worst", worst});
  }

  std::vector<ServerResult> results(
      std::max(traffic_requests,
               static_cast<std::size_t>(kOverloadFactor *
                                        static_cast<double>(capacity))));
  for (const ShapeSpec& shape : shapes) {
    const std::vector<ServerRequest> stream = make_traffic(
        traffic_n, traffic_requests, kSeed ^ 0xE12, mix, shape.options);

    // Latency at capacity-paced load: submit one full-capacity wave, drain,
    // repeat. Nothing may shed.
    for (std::size_t i = 0; i < stream.size(); ++i) {
      results[i].status = ServeStatus::kPending;
    }
    const ServerCounters before = server.counters();
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t submitted = 0;
    while (submitted < stream.size()) {
      const std::size_t wave = std::min(capacity, stream.size() - submitted);
      for (std::size_t i = 0; i < wave; ++i, ++submitted) {
        CR_CHECK(server.submit(stream[submitted], submitted));
      }
      server.drain(results);
    }
    const double elapsed_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
    const ServerCounters after = server.counters();
    CR_CHECK_MSG(after.shed == before.shed,
                 "capacity-paced traffic run must not shed");
    std::vector<double> latencies;
    latencies.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      CR_CHECK_MSG(results[i].status == ServeStatus::kDelivered,
                   "paced traffic run left a request unserved");
      latencies.push_back(results[i].latency_us);
    }
    const double routes_per_sec =
        static_cast<double>(stream.size()) / std::max(elapsed_s, 1e-9);

    // Overload burst: kOverloadFactor x capacity submitted before any drain;
    // everything past the ring capacity sheds, deterministically.
    const std::size_t offered = static_cast<std::size_t>(
        kOverloadFactor * static_cast<double>(capacity));
    for (std::size_t i = 0; i < offered; ++i) {
      results[i].status = ServeStatus::kPending;
    }
    const ServerCounters burst_before = server.counters();
    for (std::size_t i = 0; i < offered; ++i) {
      (void)server.submit(stream[i % stream.size()], i);
    }
    const std::uint64_t burst_shed = server.counters().shed - burst_before.shed;
    server.drain(results);
    const double shed_rate =
        static_cast<double>(burst_shed) / static_cast<double>(offered);
    CR_CHECK_MSG(burst_shed == offered - capacity,
                 "overload burst shed an unexpected count");

    const double p50 = percentile_of(latencies, 0.50);
    const double p99 = percentile_of(latencies, 0.99);
    const double p999 = percentile_of(latencies, 0.999);
    std::printf("%-10s %12.0f %9.2f %9.2f %9.2f %9llu %10.3f\n", shape.name,
                routes_per_sec, p50, p99, p999,
                static_cast<unsigned long long>(burst_shed), shed_rate);

    obs::JsonValue shape_json = obs::JsonValue::object();
    shape_json["shape"] = std::string(shape.name);
    if (shape.options.shape == TrafficShape::kZipf) {
      shape_json["zipf_skew"] = shape.options.zipf_skew;
    }
    shape_json["requests"] = static_cast<std::uint64_t>(stream.size());
    shape_json["elapsed_s"] = elapsed_s;
    shape_json["routes_per_sec"] = routes_per_sec;
    shape_json["p50_us"] = p50;
    shape_json["p99_us"] = p99;
    shape_json["p999_us"] = p999;
    obs::JsonValue overload = obs::JsonValue::object();
    overload["offered"] = static_cast<std::uint64_t>(offered);
    overload["shed"] = burst_shed;
    overload["shed_rate"] = shed_rate;
    shape_json["overload"] = std::move(overload);
    traffic_doc["shapes"].push_back(std::move(shape_json));
  }
  server.stop();
  doc["traffic"] = std::move(traffic_doc);

  write_bench_json("BENCH_internet.json", doc);
  return 0;
}
