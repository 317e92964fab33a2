#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

bool find_workload(const std::string& name, bool toy, WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = name;
  spec.check_pairs = toy ? 16 : 512;
  if (name == "grid-uniform") {
    spec.family = Family::kGrid;
    spec.width = spec.height = toy ? 8 : 64;
    spec.eps = {0.5};
    spec.traffic_per_round = toy ? 256 : 6144;
    spec.rounds_per_epoch = toy ? 2 : 3;
  } else if (name == "powerlaw-zipf") {
    spec.family = Family::kPowerLaw;
    spec.nodes = toy ? 96 : 2048;
    spec.edges_per_node = 2;
    spec.zipf = true;
    spec.eps = {0.5};
    spec.traffic_per_round = toy ? 256 : 14336;
    spec.rounds_per_epoch = toy ? 2 : 4;
  } else if (name == "grid-hotswap") {
    spec.family = Family::kGrid;
    spec.width = spec.height = toy ? 6 : 32;
    spec.eps = {0.5, 0.2};
    spec.hotswap = true;
    spec.traffic_per_round = toy ? 256 : 6144;
    spec.rounds_per_epoch = toy ? 2 : 4;
  } else {
    return false;
  }
  *out = spec;
  return true;
}

std::size_t OwnGraph::num_edges() const {
  std::size_t arcs = 0;
  for (const auto& list : adj) arcs += list.size();
  return arcs / 2;
}

double OwnGraph::edge_weight(std::uint32_t u, std::uint32_t v) const {
  if (u >= n || v >= n) return -1;
  for (const auto& [w, weight] : adj[u]) {
    if (w == v) return weight;
  }
  return -1;
}

OwnGraph generate_graph(const WorkloadSpec& spec) {
  const std::uint64_t seed = kGraphSeed;
  OwnGraph g;
  g.n = spec.n();
  g.adj.assign(g.n, {});
  if (spec.family == Family::kGrid) {
    const std::size_t w = spec.width;
    for (std::size_t y = 0; y < spec.height; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        const auto u = static_cast<std::uint32_t>(y * w + x);
        if (x + 1 < w) g.add_edge(u, u + 1, 1.0);
        if (y + 1 < spec.height) g.add_edge(u, static_cast<std::uint32_t>(u + w), 1.0);
      }
    }
    return g;
  }
  // Preferential attachment (Barabási–Albert urn): a clique core of
  // edges_per_node + 1 nodes, then each new node attaches to that many
  // distinct endpoints drawn proportionally to degree.
  Rng rng(seed);
  const std::size_t m = spec.edges_per_node;
  const auto weight = [&] { return static_cast<double>(16 + rng.below(16)); };
  std::vector<std::uint32_t> urn;
  const std::size_t core = m + 1;
  for (std::uint32_t u = 0; u < core; ++u) {
    for (std::uint32_t v = u + 1; v < core; ++v) {
      g.add_edge(u, v, weight());
      urn.push_back(u);
      urn.push_back(v);
    }
  }
  std::vector<std::uint32_t> targets;
  for (auto u = static_cast<std::uint32_t>(core); u < g.n; ++u) {
    targets.clear();
    while (targets.size() < m) {
      const std::uint32_t t = urn[rng.below(urn.size())];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (const std::uint32_t t : targets) {
      g.add_edge(u, t, weight());
      urn.push_back(u);
      urn.push_back(t);
    }
  }
  return g;
}

void write_graph(const std::string& path, const OwnGraph& graph) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << graph.n << ' ' << graph.num_edges() << '\n';
  for (std::uint32_t u = 0; u < graph.n; ++u) {
    for (const auto& [v, w] : graph.adj[u]) {
      if (u < v) out << u << ' ' << v << ' ' << static_cast<long long>(w) << '\n';
    }
  }
  if (!out) throw std::runtime_error("failed writing " + path);
}

std::vector<Request> make_round(const WorkloadSpec& spec, std::uint64_t seed) {
  const std::size_t n = spec.n();
  std::vector<Request> round;
  round.reserve(spec.round_size());

  Rng rng(seed ^ 0x7aff1c5eedf00dULL);
  // Zipf(1.0) over destination ranks. The rank -> node map (which nodes are
  // hot) is part of the workload and fixed; the seed draws the requests.
  std::vector<double> cdf;
  std::vector<std::uint32_t> rank_node;
  if (spec.zipf) {
    Rng hot(kHotSetSeed);
    rank_node.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) rank_node[v] = v;
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(rank_node[i], rank_node[hot.below(i + 1)]);
    }
    cdf.resize(n);
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      cdf[k] = total;
    }
    for (double& c : cdf) c /= total;
  }
  for (std::size_t i = 0; i < spec.traffic_per_round; ++i) {
    Request r;
    r.scheme = static_cast<std::uint8_t>(rng.below(kSchemes));
    if (spec.zipf) {
      const double u = rng.unit();
      const std::size_t k = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      r.dest = rank_node[std::min(k, n - 1)];
      r.src = static_cast<std::uint32_t>(rng.below(n - 1));
      if (r.src >= r.dest) ++r.src;
    } else {
      r.src = static_cast<std::uint32_t>(rng.below(n));
      r.dest = static_cast<std::uint32_t>(rng.below(n - 1));
      if (r.dest >= r.src) ++r.dest;
    }
    round.push_back(r);
  }

  Rng check_rng(kCheckSeed);
  for (std::size_t p = 0; p < spec.check_pairs; ++p) {
    const auto src = static_cast<std::uint32_t>(check_rng.below(n));
    auto dest = static_cast<std::uint32_t>(check_rng.below(n - 1));
    if (dest >= src) ++dest;
    for (int s = 0; s < kSchemes; ++s) {
      Request r;
      r.src = src;
      r.dest = dest;
      r.scheme = static_cast<std::uint8_t>(s);
      r.check = static_cast<std::int32_t>(p * kSchemes + s);
      round.push_back(r);
    }
  }

  Rng shuffle(seed ^ 0x5f0ff1e5ca7edULL);
  for (std::size_t i = round.size() - 1; i > 0; --i) {
    std::swap(round[i], round[shuffle.below(i + 1)]);
  }
  return round;
}

// ------------------------------------------------------------------- spans

std::uint32_t Spans::open(const char* name, std::uint32_t parent) {
  if (!enabled_) return 0;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start = t;
  span.end = -1;
  span.parent = parent;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(span);
  return span.id;
}

void Spans::close(std::uint32_t id) {
  if (id == 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = t;
}

std::uint32_t Spans::add(const char* name, double start, double end,
                         std::uint32_t parent) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(span);
  return span.id;
}

std::vector<Spans::Span> Spans::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

// -------------------------------------------------------------------- json

void Json::sep(const char* key) {
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  if (key != nullptr) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
}

Json& Json::begin_object(const char* key) {
  sep(key);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::begin_array(const char* key) {
  sep(key);
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

Json& Json::num(const char* key, double value) {
  sep(key);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out_ += buf;
  return *this;
}

Json& Json::num(double value) { return num(nullptr, value); }

Json& Json::u64(const char* key, std::uint64_t value) {
  sep(key);
  out_ += std::to_string(value);
  return *this;
}

Json& Json::str(const char* key, const std::string& value) {
  sep(key);
  out_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') out_ += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out_ += c;
  }
  out_ += '"';
  return *this;
}

Json& Json::str(const std::string& value) { return str(nullptr, value); }

Json& Json::boolean(const char* key, bool value) {
  sep(key);
  out_ += value ? "true" : "false";
  return *this;
}

Json& Json::spans(const char* key, const Spans& spans) {
  begin_array(key);
  for (const Spans::Span& s : spans.snapshot()) {
    begin_object();
    str("name", s.name);
    u64("id", s.id);
    u64("parent", s.parent);
    num("start", s.start);
    num("end", s.end);
    end_object();
  }
  return end_array();
}

std::string hex64(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench
