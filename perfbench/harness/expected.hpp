#pragma once
//
// Ground truth handed from `check` to `serve`: per snapshot, per request of
// the round, the serve_one fingerprint and hop count and whether the request
// failed its checks.
//
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "checker.hpp"
#include "runtime/server.hpp"

namespace perfbench {

/// Outcome codes in Expected::failed.
inline constexpr std::uint8_t kPassed = 0;
/// The scale-free schemes' stretch above ceiling at ε <= 0.2 (the open
/// fault the grid-hotswap workload keeps measurable).
inline constexpr std::uint8_t kKnownFault = 1;
inline constexpr std::uint8_t kUnexpected = 2;

inline bool is_known_fault(int scheme, double eps, Verdict verdict) {
  return (scheme == 1 || scheme == 3) && eps <= 0.2 &&
         verdict == Verdict::kAboveCeiling;
}

struct Expected {
  std::vector<std::uint64_t> fingerprint;
  std::vector<std::uint32_t> hops;
  std::vector<std::uint8_t> failed;
};

/// Server::delivered_digest of a round whose every request was delivered
/// with the expected fingerprint.
inline std::uint64_t round_digest(const Expected& e) {
  std::vector<compactroute::ServerResult> results(e.fingerprint.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    results[i].fingerprint = e.fingerprint[i];
    results[i].status.store(compactroute::ServeStatus::kDelivered);
  }
  return compactroute::Server::delivered_digest(results);
}

inline void write_expected(const std::string& path,
                           const std::vector<Expected>& snaps) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const std::uint64_t header[2] = {snaps.size(),
                                   snaps.empty() ? 0 : snaps[0].hops.size()};
  bool ok = std::fwrite(header, sizeof header, 1, f) == 1;
  for (const Expected& e : snaps) {
    const std::size_t m = e.hops.size();
    ok = ok && std::fwrite(e.fingerprint.data(), 8, m, f) == m &&
         std::fwrite(e.hops.data(), 4, m, f) == m &&
         std::fwrite(e.failed.data(), 1, m, f) == m;
  }
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) throw std::runtime_error("failed writing " + path);
}

inline std::vector<Expected> read_expected(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot read " + path);
  std::uint64_t header[2] = {0, 0};
  bool ok = std::fread(header, sizeof header, 1, f) == 1 && header[0] < 16;
  std::vector<Expected> snaps(ok ? header[0] : 0);
  const std::size_t m = header[1];
  for (Expected& e : snaps) {
    e.fingerprint.resize(m);
    e.hops.resize(m);
    e.failed.resize(m);
    ok = ok && std::fread(e.fingerprint.data(), 8, m, f) == m &&
         std::fread(e.hops.data(), 4, m, f) == m &&
         std::fread(e.failed.data(), 1, m, f) == m;
  }
  std::fclose(f);
  if (!ok) throw std::runtime_error("malformed " + path);
  return snaps;
}

}  // namespace perfbench
