#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "core/prng.hpp"
#include "gen/generators.hpp"
#include "io/snapshot.hpp"
#include "obs/sharded.hpp"
#include "runtime/hop_arena.hpp"
#include "runtime/hop_hierarchical.hpp"
#include "runtime/hop_scale_free.hpp"
#include "runtime/hop_scale_free_ni.hpp"
#include "runtime/hop_simple_ni.hpp"
#include "runtime/serve.hpp"
#include "test_util.hpp"

// Golden suite for the serve-time hop arena (DESIGN.md §11). The arena walk
// is the walk that serves, so its routes are pinned by frozen serve_batch
// fingerprints, captured while the nested-container reference walks still
// existed and equalled them. Each fingerprint must hold at 1 and 4 workers,
// for a fresh private arena and for a snapshot-reloaded shared one. A
// differential test then checks every served walk against the scheme's own
// route(), the one other walk in the repository.

namespace compactroute {
namespace {

constexpr std::size_t kPairs = 400;

struct ArenaFixture {
  ArenaFixture(const Graph& g, double eps)
      : fresh(build_stack(g, eps, {}, Naming::random(g.num_nodes(), 47))),
        loaded(decode_snapshot(encode_snapshot(fresh))),
        shared_arena(loaded.build_arena()) {}

  std::vector<ServeRequest> labeled_requests() const {
    return make_requests(fresh.n, kPairs, 5, [&](NodeId v) {
      return std::uint64_t{fresh.hierarchy->leaf_label(v)};
    });
  }
  std::vector<ServeRequest> named_requests() const {
    return make_requests(fresh.n, kPairs, 6,
                         [&](NodeId v) { return fresh.naming->name_of(v); });
  }

  SnapshotStack fresh;
  SnapshotStack loaded;
  std::shared_ptr<const HopArena> shared_arena;
};

std::uint64_t fingerprint(const CsrGraph& csr, const HopScheme& scheme,
                          const std::vector<ServeRequest>& requests,
                          std::size_t workers) {
  Executor::global().set_workers(workers);
  ServeOptions options;
  options.collect_latencies = false;
  const ServeStats stats = serve_batch(csr, scheme, requests, options);
  EXPECT_EQ(stats.delivered, requests.size());
  return stats.fingerprint;
}

/// The golden check: a fresh private arena and the snapshot-reloaded shared
/// arena both reproduce the frozen fingerprint, at both worker counts.
void expect_golden(const ArenaFixture& f, const HopScheme& arena_fresh,
                   const HopScheme& arena_loaded,
                   const std::vector<ServeRequest>& requests,
                   std::uint64_t golden) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_EQ(fingerprint(f.fresh.csr, arena_fresh, requests, workers),
              golden)
        << arena_fresh.name() << ": fresh arena diverges at " << workers
        << " workers";
    EXPECT_EQ(fingerprint(f.loaded.csr, arena_loaded, requests, workers),
              golden)
        << arena_loaded.name() << ": loaded shared arena diverges at "
        << workers << " workers";
  }
  Executor::global().set_workers(1);
}

/// Frozen serve_batch fingerprints of one fixture, one per scheme.
struct Frozen {
  std::uint64_t hier, sf, simple, sfni;
};

constexpr Frozen kClusterEps05 = {0x5bec6f82737bbc73ULL, 0x5bec6f82737bbc73ULL,
                                  0x6dc58295a46e8a9dULL, 0x91ce0194c55d3519ULL};
constexpr Frozen kClusterEps02 = {0x5bec6f82737bbc73ULL, 0x8be88dd395a5a98aULL,
                                  0x9695b3741da1c697ULL, 0x56826ca1e23af68fULL};
constexpr Frozen kGridEps05 = {0xfe7f3eb507a18b05ULL, 0x442420b48cbfd427ULL,
                               0xeb4fe6c34c3f3219ULL, 0xdd9387df5ba661f4ULL};
constexpr Frozen kGridEps02 = {0xc491f067d52124e9ULL, 0xa4d5ae5760cb59c6ULL,
                               0xadee0e40d2293911ULL, 0x321c7a0165577b12ULL};

void expect_hier(const ArenaFixture& f, std::uint64_t golden) {
  expect_golden(f, HierarchicalHopScheme(*f.fresh.hier),
                HierarchicalHopScheme(*f.loaded.hier, f.shared_arena),
                f.labeled_requests(), golden);
}
void expect_sf(const ArenaFixture& f, std::uint64_t golden) {
  expect_golden(f, ScaleFreeHopScheme(*f.fresh.sf),
                ScaleFreeHopScheme(*f.loaded.sf, f.shared_arena),
                f.labeled_requests(), golden);
}
void expect_simple(const ArenaFixture& f, std::uint64_t golden) {
  expect_golden(f,
                SimpleNameIndependentHopScheme(*f.fresh.simple, *f.fresh.hier),
                SimpleNameIndependentHopScheme(*f.loaded.simple, *f.loaded.hier,
                                               f.shared_arena),
                f.named_requests(), golden);
}
void expect_sfni(const ArenaFixture& f, std::uint64_t golden) {
  expect_golden(f,
                ScaleFreeNameIndependentHopScheme(*f.fresh.sfni, *f.fresh.sf),
                ScaleFreeNameIndependentHopScheme(*f.loaded.sfni, *f.loaded.sf,
                                                  f.shared_arena),
                f.named_requests(), golden);
}

class HopArenaGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Graph g = make_cluster_hierarchy(3, 4, 10, 91);
    eps05_ = new ArenaFixture(g, 0.5);
    eps02_ = new ArenaFixture(g, 0.2);
  }
  static void TearDownTestSuite() {
    delete eps05_;
    delete eps02_;
    eps05_ = eps02_ = nullptr;
  }
  static ArenaFixture* eps05_;
  static ArenaFixture* eps02_;
};

ArenaFixture* HopArenaGoldenTest::eps05_ = nullptr;
ArenaFixture* HopArenaGoldenTest::eps02_ = nullptr;

TEST_F(HopArenaGoldenTest, HierarchicalMatchesReference) {
  expect_hier(*eps05_, kClusterEps05.hier);
  expect_hier(*eps02_, kClusterEps02.hier);
}

TEST_F(HopArenaGoldenTest, ScaleFreeMatchesReference) {
  expect_sf(*eps05_, kClusterEps05.sf);
  expect_sf(*eps02_, kClusterEps02.sf);
}

TEST_F(HopArenaGoldenTest, SimpleNameIndependentMatchesReference) {
  expect_simple(*eps05_, kClusterEps05.simple);
  expect_simple(*eps02_, kClusterEps02.simple);
}

TEST_F(HopArenaGoldenTest, ScaleFreeNameIndependentMatchesReference) {
  expect_sfni(*eps05_, kClusterEps05.sfni);
  expect_sfni(*eps02_, kClusterEps02.sfni);
}

// A fresh grid sweep on the zoo axis the cluster fixture doesn't cover.
TEST(HopArenaZooTest, GridGoldenAllSchemes) {
  for (const auto& [eps, frozen] :
       {std::pair{0.5, kGridEps05}, std::pair{0.2, kGridEps02}}) {
    const ArenaFixture f(make_grid(9, 7), eps);
    expect_hier(f, frozen.hier);
    expect_sf(f, frozen.sf);
    expect_simple(f, frozen.simple);
    expect_sfni(f, frozen.sfni);
  }
}

#ifndef CR_OBS_DISABLED
std::uint64_t counter_value(const char* name) {
  const auto scraped = obs::scrape_global();
  const auto& counters = scraped->counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

// hop.arena.steps meters every forwarding decision of a served walk: one per
// hop plus the delivering decision of each route. The scale-free NI walk
// also meters the inner labeled decision each of its hops makes.
TEST(HopArenaCounterTest, ArenaStepsMeterEveryDecision) {
  Executor::global().set_workers(1);
  const ArenaFixture f(make_grid(8, 8), 0.5);
  ServeOptions options;
  options.collect_latencies = false;
  const auto metered = [&](const HopScheme& scheme,
                           const std::vector<ServeRequest>& requests) {
    const std::uint64_t before = counter_value("hop.arena.steps");
    const ServeStats stats =
        serve_batch(f.fresh.csr, scheme, requests, options);
    EXPECT_EQ(stats.delivered, requests.size());
    return std::pair{counter_value("hop.arena.steps") - before,
                     std::uint64_t{stats.total_hops + stats.delivered}};
  };
  const auto labeled = f.labeled_requests();
  const auto named = f.named_requests();
  for (const auto& [steps, decisions] :
       {metered(HierarchicalHopScheme(*f.fresh.hier), labeled),
        metered(ScaleFreeHopScheme(*f.fresh.sf), labeled),
        metered(SimpleNameIndependentHopScheme(*f.fresh.simple, *f.fresh.hier),
                named)}) {
    EXPECT_EQ(steps, decisions);
  }
  const auto [sfni_steps, sfni_decisions] =
      metered(ScaleFreeNameIndependentHopScheme(*f.fresh.sfni, *f.fresh.sf),
              named);
  EXPECT_GT(sfni_steps, sfni_decisions);
}
#endif  // CR_OBS_DISABLED

// The walk the server runs against the walk every offline tool measures:
// for each scheme, route() (the paper's algorithm as written, behind eval,
// mine, the audit and the stretch tables) must agree with hop_route over the
// snapshot-loaded shared arena on delivery, endpoints and cost, pair for
// pair, across lattices, Internet-like graphs and small ε.
constexpr std::size_t kDifferentialPairs = 300;

Graph differential_graph(const std::string& family) {
  if (family == "grid") return make_grid(16, 16);
  if (family == "torus") return make_torus(16, 16);
  if (family == "powerlaw") return make_power_law(256, 2, 7);
  if (family == "aslike") return make_as_topology(256, 32, 7);
  return make_random_geometric(256, 2, 3, 7);
}

using DifferentialParam = std::tuple<std::string, double>;

class ServedWalkDifferential
    : public ::testing::TestWithParam<DifferentialParam> {};

TEST_P(ServedWalkDifferential, RouteMatchesServedWalk) {
  const ArenaFixture f(differential_graph(std::get<0>(GetParam())),
                       std::get<1>(GetParam()));
  const std::size_t n = f.fresh.n;
  Prng prng(2006);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t i = 0; i < kDifferentialPairs; ++i) {
    const NodeId src = static_cast<NodeId>(prng.next_below(n));
    NodeId dst = static_cast<NodeId>(prng.next_below(n - 1));
    if (dst >= src) ++dst;
    pairs.emplace_back(src, dst);
  }

  const auto expect_same_walks = [&](const HopScheme& served,
                                     const auto& route_of,
                                     const auto& key_of) {
    std::size_t mismatches = 0;
    std::string first;
    for (const auto& [src, dst] : pairs) {
      const std::uint64_t key = key_of(dst);
      const RouteResult offline = route_of(src, key);
      const RouteResult walked = hop_route(*f.fresh.metric, served, src, key);
      const bool same =
          offline.delivered == walked.delivered &&
          offline.path.front() == walked.path.front() &&
          offline.path.back() == walked.path.back() &&
          std::abs(offline.cost - walked.cost) <= 1e-9 * (1 + offline.cost);
      if (!same && mismatches++ == 0) {
        first = std::to_string(src) + "->" + std::to_string(dst) +
                " route() cost " + std::to_string(offline.cost) +
                ", served cost " + std::to_string(walked.cost);
      }
    }
    EXPECT_EQ(mismatches, 0u)
        << served.name() << ": " << mismatches << " of " << pairs.size()
        << " pairs differ; first " << first;
  };
  const auto label_of = [&](NodeId v) {
    return std::uint64_t{f.fresh.hierarchy->leaf_label(v)};
  };
  const auto name_of = [&](NodeId v) { return f.fresh.naming->name_of(v); };

  expect_same_walks(
      HierarchicalHopScheme(*f.loaded.hier, f.shared_arena),
      [&](NodeId s, std::uint64_t k) { return f.fresh.hier->route(s, k); },
      label_of);
  expect_same_walks(
      ScaleFreeHopScheme(*f.loaded.sf, f.shared_arena),
      [&](NodeId s, std::uint64_t k) { return f.fresh.sf->route(s, k); },
      label_of);
  expect_same_walks(
      SimpleNameIndependentHopScheme(*f.loaded.simple, *f.loaded.hier,
                                     f.shared_arena),
      [&](NodeId s, std::uint64_t k) { return f.fresh.simple->route(s, k); },
      name_of);
  expect_same_walks(
      ScaleFreeNameIndependentHopScheme(*f.loaded.sfni, *f.loaded.sf,
                                        f.shared_arena),
      [&](NodeId s, std::uint64_t k) { return f.fresh.sfni->route(s, k); },
      name_of);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ServedWalkDifferential,
    ::testing::Combine(::testing::Values("grid", "torus", "powerlaw", "aslike",
                                         "geometric"),
                       ::testing::Values(0.5, 0.25, 0.2, 0.125)),
    [](const ::testing::TestParamInfo<DifferentialParam>& info) {
      return std::get<0>(info.param) + "_eps" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 1000));
    });

// ring_first_hit must agree with the scalar definition on every lane width
// the dispatcher may pick, including blocks that straddle the segment end
// where the next node's rows could contain the key.
TEST(RingFirstHitTest, MatchesScalarOracle) {
  Prng prng(1234);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t len = 1 + static_cast<std::uint32_t>(prng.next_u64()) % 70;
    Slab<NodeId> lo(len + kRingScanPad, kInvalidNode);
    Slab<NodeId> hi(len + kRingScanPad, 0);
    for (std::uint32_t i = 0; i < len; ++i) {
      const NodeId a = static_cast<std::uint32_t>(prng.next_u64()) % 128;
      const NodeId b = static_cast<std::uint32_t>(prng.next_u64()) % 128;
      lo[i] = std::min(a, b);
      hi[i] = std::max(a, b);
    }
    const std::uint32_t begin = static_cast<std::uint32_t>(prng.next_u64()) % len;
    const std::uint32_t end = begin + static_cast<std::uint32_t>(prng.next_u64()) % (len - begin + 1);
    const NodeId key = static_cast<std::uint32_t>(prng.next_u64()) % 128;

    std::uint32_t expected = end;
    for (std::uint32_t i = begin; i < end; ++i) {
      if (lo[i] <= key && key <= hi[i]) {
        expected = i;
        break;
      }
    }
    EXPECT_EQ(ring_first_hit(lo.data(), hi.data(), begin, end, key), expected)
        << "round " << round << " begin " << begin << " end " << end;
  }
}

TEST(RingFirstHitTest, FalseHitPastEndIsClampedToMiss) {
  // [begin, end) misses; the entry just past `end` (another node's segment)
  // contains the key and sits in the same vector block. The scan must still
  // report a miss.
  Slab<NodeId> lo(4 + kRingScanPad, kInvalidNode);
  Slab<NodeId> hi(4 + kRingScanPad, 0);
  lo[0] = 10;
  hi[0] = 20;  // miss for key 5
  lo[1] = 0;
  hi[1] = 9;  // would hit, but past end
  EXPECT_EQ(ring_first_hit(lo.data(), hi.data(), 0, 1, 5), 1u);
}

}  // namespace
}  // namespace compactroute
