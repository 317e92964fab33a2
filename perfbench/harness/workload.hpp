#pragma once
//
// Workload definitions shared by every harness subcommand: the generated
// graph, the ε of each snapshot, the traffic shape and the fixed round of
// requests that the serving loop replays. All inputs are derived from the
// run seed with the harness's own generator (SplitMix64), never with the
// library's, so a change to the library cannot change what is measured.
//
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, seedable, and independent of the library's Prng.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound), bound > 0 (multiply-shift; bias < 2^-40 here).
  std::uint64_t below(std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

enum class Family { kGrid, kPowerLaw };

/// Scheme order everywhere in the harness (matches compactroute::ServeScheme).
inline constexpr int kSchemes = 4;
inline constexpr const char* kSchemeNames[kSchemes] = {"hier", "sf", "simple",
                                                       "sfni"};
inline bool scheme_is_labeled(int s) { return s < 2; }

struct WorkloadSpec {
  std::string name;
  Family family = Family::kGrid;
  std::size_t width = 0, height = 0;  // grid
  std::size_t nodes = 0;              // power law
  std::size_t edges_per_node = 0;     // power law
  bool zipf = false;                  // Zipf(1.0) destinations, else uniform
  std::vector<double> eps;            // one snapshot per ε, eps[0] served first
  bool hotswap = false;  // publish the snapshots alternately under traffic
  std::size_t traffic_per_round = 0;
  std::size_t check_pairs = 0;     // (src, dest) pairs walked, x4 schemes
  std::size_t rounds_per_epoch = 0;  // rounds served between two publishes

  std::size_t n() const {
    return family == Family::kGrid ? width * height : nodes;
  }
  std::size_t round_size() const {
    return traffic_per_round + check_pairs * kSchemes;
  }
};

/// Looks a workload up by name; `toy` shrinks it to self-test size. Returns
/// false for an unknown name.
bool find_workload(const std::string& name, bool toy, WorkloadSpec* out);

/// Naming seed of every snapshot (the value `crtool build` uses). Fixed, so
/// the snapshots of the grid workloads do not depend on the run seed and the
/// grid-hotswap failure count is the same in every run.
inline constexpr std::uint64_t kNamingSeed = 4242;
/// Seed of the check block: the same pairs are walked in every run.
inline constexpr std::uint64_t kCheckSeed = 0xc4ec4b10c5eedULL;

/// The harness's own copy of the generated graph (undirected, weighted).
struct OwnGraph {
  std::size_t n = 0;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> adj;

  void add_edge(std::uint32_t u, std::uint32_t v, double w) {
    adj[u].push_back({v, w});
    adj[v].push_back({u, w});
  }
  std::size_t num_edges() const;
  /// Weight of edge (u, v), or a negative value when there is no such edge.
  double edge_weight(std::uint32_t u, std::uint32_t v) const;
};

/// Seed of the power-law graph. Fixed: the run seed varies the traffic only,
/// so every run builds and serves the same snapshots and the spread between
/// runs is measurement noise, not graph-to-graph variation.
inline constexpr std::uint64_t kGraphSeed = 0x9d1f0a55e11c0dedULL;

/// Seed of the Zipf rank -> node map of powerlaw-zipf (its hot destinations).
inline constexpr std::uint64_t kHotSetSeed = 0x2a7f5e7c0ffeeULL;

/// Generates the workload graph. Power-law graphs use integer weights in
/// [16, 32), so the text file round-trips exactly and any two-edge detour
/// costs more than any direct edge.
OwnGraph generate_graph(const WorkloadSpec& spec);

/// Writes the graph in the library's edge-list format ("n m" then "u v w").
void write_graph(const std::string& path, const OwnGraph& graph);

struct Request {
  std::uint32_t src = 0;
  std::uint32_t dest = 0;
  std::uint8_t scheme = 0;
  std::int32_t check = -1;  // index into the check block, or -1 for traffic
};

/// One round: the seeded traffic plus the fixed check block (check_pairs
/// pairs, each under all four schemes), shuffled by the run seed.
std::vector<Request> make_round(const WorkloadSpec& spec, std::uint64_t seed);

/// Executor workers while serving: one, so the client thread submits and
/// pumps and the pump serves inline. With two or three workers every pump
/// wave waits for its slowest shard, and on a shared 4-vCPU machine that
/// made single rounds vary 2-3x and run medians drift by half; a single
/// worker's rounds stay within a few percent (perfbench/README.md).
inline constexpr std::size_t kServeWorkers = 1;

// ------------------------------------------------------------------ timing

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder (name, start, end, parent). Spans are kept until
/// the process writes its report; thread-safe.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (0 when disabled).
  std::uint32_t open(const char* name, std::uint32_t parent = 0);
  void close(std::uint32_t id);
  /// Records a finished span directly.
  std::uint32_t add(const char* name, double start, double end,
                    std::uint32_t parent = 0);

  struct Span {
    std::string name;
    double start = 0, end = 0;
    std::uint32_t id = 0, parent = 0;
  };
  std::vector<Span> snapshot() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& spans, const char* name, std::uint32_t parent = 0)
      : spans_(spans), id_(spans.open(name, parent)) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  std::uint32_t id_;
};

// ------------------------------------------------------------------ output

/// Minimal JSON writer for the subcommand reports (read by run.py).
class Json {
 public:
  Json& begin_object(const char* key = nullptr);
  Json& end_object();
  Json& begin_array(const char* key = nullptr);
  Json& end_array();
  Json& num(const char* key, double value);
  Json& num(double value);
  Json& u64(const char* key, std::uint64_t value);
  Json& str(const char* key, const std::string& value);
  Json& str(const std::string& value);
  Json& boolean(const char* key, bool value);
  Json& spans(const char* key, const Spans& spans);
  const std::string& text() const { return out_; }

 private:
  void sep(const char* key);
  std::string out_;
  std::vector<bool> first_;
};

std::string hex64(std::uint64_t value);

/// Peak resident set (VmHWM) of this process in MiB, read from procfs.
double peak_rss_mb();

}  // namespace perfbench
