// `serve`: the serving half of the operator's path, in one process that never
// builds. Loads the first snapshot through ServerEpoch::load (mmap) and
// publishes it (the last step of each set-up), then serves a closed loop of
// whole rounds through Server::submit/drain, reloading epochs between rounds
// (idle reloads) or beside them on a background thread (hot swap). Every
// delivered request is compared with the ground truth from `check`.
#include <algorithm>
#include <exception>
#include <memory>
#include <thread>

#include "commands.hpp"
#include "expected.hpp"
#include "workload.hpp"

#include "core/parallel.hpp"
#include "io/snapshot_mmap.hpp"
#include "runtime/server.hpp"

namespace cr = compactroute;

namespace perfbench {

namespace {

/// Ring capacity per shard. A wave submits at most shards x depth requests
/// with consecutive ids, so every shard receives at most `depth` and nothing
/// is shed.
constexpr std::size_t kQueueDepth = 1024;

struct Sample {
  double value = 0;
  bool traced = false;
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, std::uint64_t seed,
         std::vector<std::string> snaps, std::vector<Expected> expected,
         bool trace)
      : spec_(spec),
        snaps_(std::move(snaps)),
        expected_(std::move(expected)),
        spans_(trace),
        workers_(kServeWorkers),
        server_(options(workers_)) {
    const std::vector<Request> round = make_round(spec, seed);
    requests_.reserve(round.size());
    for (const Request& r : round) {
      requests_.push_back(
          {r.src, r.dest, static_cast<cr::ServeScheme>(r.scheme)});
    }
    results_.resize(round.size());
    for (const Expected& e : expected_) expected_digest_.push_back(round_digest(e));
    self_fingerprint_.assign(snaps_.size(), 0);
  }

  /// One set-up's last step: load snapshot 0 and publish it.
  double go_live() {
    const double t0 = now_s();
    const std::uint32_t root = spans_.open("live");
    publish(load(0, spans_.enabled(), root), spans_.enabled(), root);
    spans_.close(root);
    return now_s() - t0;
  }

  void run(double seconds) {
    const double start = now_s();
    // Cycle 0 warms caches and is left out of every median; its requests are
    // still checked and counted. Runs end on whole cycles only, so each run
    // attempts whole rounds of the same operations.
    const std::size_t min_cycles = spans_.enabled() ? 3 : 2;
    for (std::size_t cycle = 0;; ++cycle) {
      // Traced and untraced reloads alternate by cycle in a traced run.
      const bool traced = spans_.enabled() && cycle % 2 == 1;
      if (spec_.hotswap) {
        const double first = swap_half(cycle, traced);
        const double second = swap_half(cycle, traced);
        if (cycle > 0) reload_ms_.push_back({(first + second) / 2 * 1e3, traced});
      } else {
        serve_rounds(cycle);
        const double t0 = now_s();
        const std::uint32_t root = traced ? spans_.open("reload") : 0;
        publish(load(0, traced, root), traced, root);
        spans_.close(root);
        const double reload_s = now_s() - t0;
        if (traced) traced_reload_s_ += reload_s;
        if (cycle > 0) reload_ms_.push_back({reload_s * 1e3, traced});
      }
      if (cycle + 1 >= min_cycles && now_s() - start >= seconds) break;
    }
    server_.stop();
  }

  void report(Json& out) const {
    out.u64("workers", workers_);
    out.u64("shards", server_.shards());
    out.u64("queue_depth", kQueueDepth);
    out.u64("wave", wave());
    out.u64("reload_threads", spec_.hotswap ? 1 : 0);
    out.u64("round_size", requests_.size());
    out.u64("attempted", attempted_);
    out.u64("failed", failed_);
    out.u64("unexpected", unexpected_);
    out.u64("digest_mismatches", digest_mismatches_);
    const cr::ServerCounters c = server_.counters();
    out.u64("submitted", c.submitted);
    out.u64("served", c.served);
    out.u64("shed", c.shed);
    out.u64("swaps", c.swaps);
    out.begin_array("expected_digest");
    for (const std::uint64_t d : expected_digest_) out.str(hex64(d));
    out.end_array();
    out.begin_array("self_fingerprint");
    for (const std::uint64_t d : self_fingerprint_) out.str(hex64(d));
    out.end_array();
    samples(out, "round_rps", round_rps_);
    samples(out, "reload_ms", reload_ms_);
    out.num("traced_reload_s", traced_reload_s_);
    out.num("peak_rss_mb", peak_rss_mb());
    out.spans("spans", spans_);
  }

 private:
  static cr::ServerOptions options(std::size_t workers) {
    cr::ServerOptions o;
    o.queue_depth = kQueueDepth;
    o.shards = workers;
    o.collect_latencies = false;
    return o;
  }

  std::size_t wave() const { return kQueueDepth * server_.shards(); }

  static void samples(Json& out, const char* key, const std::vector<Sample>& v) {
    out.begin_array(key);
    for (const Sample& s : v) {
      out.begin_array();
      out.num(s.value);
      out.num(s.traced ? 1 : 0);
      out.end_array();
    }
    out.end_array();
  }

  /// ServerEpoch::load (mmap). The traced form makes the same load from the
  /// library's public parts, so map, decode and compile get spans of their
  /// own: MappedSnapshot, decode(), ServerEpoch::adopt. The compile span is
  /// split into arena (the epoch's own LoadInfo::arena_ms) and audit (the
  /// load-time self-fingerprint, the rest of adopt).
  std::shared_ptr<cr::ServerEpoch> load(std::size_t k, bool traced,
                                        std::uint32_t parent) {
    const std::uint64_t id = next_id_++;
    if (!traced) return cr::ServerEpoch::load(snaps_[k], true, id);
    cr::SnapshotStack stack;
    {
      const std::uint32_t map = spans_.open("load.map", parent);
      auto mapping = std::make_unique<cr::MappedSnapshot>(snaps_[k]);
      spans_.close(map);
      const std::uint32_t decode = spans_.open("load.decode", parent);
      stack = mapping->decode();
      mapping.reset();
      spans_.close(decode);
    }
    const double t0 = now_s();
    auto epoch = cr::ServerEpoch::adopt(std::move(stack), id);
    const double t1 = now_s();
    const double arena_end =
        std::min(t1, t0 + epoch->load_info().arena_ms * 1e-3);
    spans_.add("load.arena", t0, arena_end, parent);
    spans_.add("load.audit", arena_end, t1, parent);
    return epoch;
  }

  void publish(std::shared_ptr<cr::ServerEpoch> epoch, bool traced,
               std::uint32_t parent) {
    const std::uint32_t span = traced ? spans_.open("load.publish", parent) : 0;
    const std::uint64_t id = epoch->id();
    const std::uint64_t fp = epoch->self_fingerprint();
    server_.publish(std::move(epoch));
    spans_.close(span);
    live_epoch_ = id;
    self_fingerprint_[current_] = fp;
  }

  /// Hot swap, one half cycle: a background thread loads the other snapshot
  /// while this thread serves the epoch's rounds; the new epoch is published
  /// at the round boundary. Returns load + publish seconds.
  double swap_half(std::size_t cycle, bool traced) {
    const std::size_t target = 1 - current_;
    const std::uint32_t root = traced ? spans_.open("reload") : 0;
    std::shared_ptr<cr::ServerEpoch> next;
    std::exception_ptr error;
    double load_s = 0;
    std::thread loader([&] {
      try {
        const double t0 = now_s();
        next = load(target, traced, root);
        load_s = now_s() - t0;
      } catch (...) {
        error = std::current_exception();
      }
    });
    try {
      serve_rounds(cycle);
    } catch (...) {
      loader.join();
      throw;
    }
    loader.join();
    if (error) std::rethrow_exception(error);
    const double t0 = now_s();
    current_ = target;
    publish(std::move(next), traced, root);
    const double publish_s = now_s() - t0;
    // The root span also covers the rounds served while loading; the reload
    // time is the load plus the publish, kept apart for trace coverage.
    spans_.close(root);
    if (traced) traced_reload_s_ += load_s + publish_s;
    return load_s + publish_s;
  }

  void serve_rounds(std::size_t cycle) {
    // Traced and untraced rounds alternate; the parity flips every epoch, so
    // neither kind is always the first round after a publish.
    const std::size_t flip = epochs_served_++;
    for (std::size_t r = 0; r < spec_.rounds_per_epoch; ++r) {
      const bool traced = spans_.enabled() && (r + flip) % 2 == 0;
      const double seconds = serve_round(traced);
      if (cycle > 0) {
        round_rps_.push_back(
            {static_cast<double>(requests_.size()) / seconds, traced});
      }
      verify_round();
    }
  }

  /// One closed-loop round: waves of at most the ring capacity, each
  /// submitted and then drained by this thread. Returns its wall seconds.
  double serve_round(bool traced) {
    for (cr::ServerResult& slot : results_) {
      slot.status.store(cr::ServeStatus::kPending, std::memory_order_relaxed);
    }
    const std::size_t size = requests_.size();
    const std::size_t step = wave();
    const double t0 = now_s();
    const std::uint32_t root = traced ? spans_.open("serve.round") : 0;
    for (std::size_t first = 0; first < size; first += step) {
      const std::size_t last = std::min(size, first + step);
      {
        const std::uint32_t s = traced ? spans_.open("server.submit", root) : 0;
        for (std::size_t i = first; i < last; ++i) server_.submit(requests_[i], i);
        spans_.close(s);
      }
      const std::uint32_t p = traced ? spans_.open("server.pump", root) : 0;
      server_.drain(results_);
      spans_.close(p);
    }
    spans_.close(root);
    return now_s() - t0;
  }

  void verify_round() {
    const Expected& e = expected_[current_];
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const cr::ServerResult& got = results_[i];
      const bool served =
          got.status.load(std::memory_order_acquire) ==
              cr::ServeStatus::kDelivered &&
          got.fingerprint == e.fingerprint[i] && got.hops == e.hops[i] &&
          got.epoch == live_epoch_;
      if (!served || e.failed[i] == kUnexpected) {
        ++failed_;
        ++unexpected_;
      } else if (e.failed[i] == kKnownFault) {
        ++failed_;
      }
    }
    if (cr::Server::delivered_digest(results_) != expected_digest_[current_]) {
      ++digest_mismatches_;
    }
    attempted_ += results_.size();
  }

  const WorkloadSpec& spec_;
  std::vector<std::string> snaps_;
  std::vector<Expected> expected_;
  Spans spans_;
  std::size_t workers_;
  cr::Server server_;
  std::vector<cr::ServerRequest> requests_;
  std::vector<cr::ServerResult> results_;
  std::vector<std::uint64_t> expected_digest_;
  std::vector<std::uint64_t> self_fingerprint_;
  std::size_t current_ = 0;  // snapshot index of the live epoch
  std::uint64_t live_epoch_ = 0;
  std::uint64_t next_id_ = 1;
  std::size_t epochs_served_ = 0;
  std::uint64_t attempted_ = 0, failed_ = 0, unexpected_ = 0;
  std::uint64_t digest_mismatches_ = 0;
  std::vector<Sample> round_rps_, reload_ms_;
  double traced_reload_s_ = 0;  // summed reload time of the traced reloads
};

}  // namespace

int cmd_serve(const Args& args) {
  WorkloadSpec spec;
  if (!find_workload(args.get("workload"), args.has("toy"), &spec)) return 2;
  const std::vector<std::string> snaps = args.list("snaps");
  if (snaps.size() != spec.eps.size()) return 2;
  cr::Executor::global().set_workers(kServeWorkers);

  Runner runner(spec, static_cast<std::uint64_t>(args.num("seed", 0)), snaps,
                read_expected(args.get("expected")), args.num("trace", 0) != 0);
  Json out;
  out.begin_object();
  out.begin_array("live_s");
  const int setups = static_cast<int>(args.num("setups", 3));
  for (int s = 0; s < setups; ++s) out.num(runner.go_live());
  out.end_array();
  runner.run(args.num("seconds", 10));
  runner.report(out);
  out.end_object();
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace perfbench
