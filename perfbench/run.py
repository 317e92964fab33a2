#!/usr/bin/env python3
"""perfbench: the production path, from graph file to served route.

Run from the repository root:

    python3 perfbench/run.py --workload grid-uniform --seed 1 --seconds 8 --trace 0

Builds the harness (perfbench/CMakeLists.txt, which compiles the library from
src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
for one workload and seed:

  1. gen    writes the seeded graph file;
  2. build  three set-ups' build halves, each in a child process: every
            snapshot the workload serves, built on the row-free backend and
            written (its peak RSS is the build's alone);
  3. check  ground truth: serve_one fingerprints of the round, and hop-by-hop
            walks of the check block against the harness's own graph copy,
            Dijkstra and the documented stretch ceilings;
  4. serve  the three set-ups' last step (ServerEpoch::load + publish), then
            a closed loop of whole rounds through Server::submit/drain with
            epoch reloads, every delivered request checked.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones (and writes the spans to <build dir>/traces/). See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

WORKLOADS = ("grid-uniform", "powerlaw-zipf", "grid-hotswap")
SCHEMES = ("hier", "sf", "simple", "sfni")
SETUPS = 3
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    pass


def build_root():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def child_env(root):
    env = dict(os.environ)
    tmp = os.path.join(root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = os.path.abspath(tmp)  # keep compiler temporaries inside
    env.pop("CR_THREADS", None)  # the harness sets its worker counts itself
    return env


def build_harness():
    root = build_root()
    os.makedirs(root, exist_ok=True)
    env = child_env(root)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(root, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", root,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", root, "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            raise BenchError("harness build failed: " + " ".join(cmd))
    return os.path.join(root, "perfbench_harness")


def harness(binary, env, *args):
    """Runs one harness subcommand and returns its JSON report."""
    proc = subprocess.run([binary, *args], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("harness %s exited %d" % (args[0], proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_text(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = read_text(".git/HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = read_text(os.path.join(".git", ref)).strip()
        if not sha:
            for line in read_text(".git/packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unavailable"
    return head or "unavailable (not a git checkout)"


def host_block(info, build, serve):
    model = "unknown"
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "compiler": info["compiler"],
        "flags": info["flags"].strip(),
        "build_type": info["build_type"],
        "git_sha": git_sha(),
        "threads": {
            "build_workers": build["workers"],
            "serve_workers": serve["workers"],
            "serve_shards": serve["shards"],
            "reload_threads": serve["reload_threads"],
            "serve_total": serve["workers"] + serve["reload_threads"],
        },
    }


def median(values):
    return statistics.median(values) if values else 0.0


def samples(pairs, traced):
    return [v for v, t in pairs if bool(t) == traced]


# ----------------------------------------------------------------- spans

def span_tree(spans):
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    return by_id, children


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Per span name: total duration and total self time (duration minus the
    time its child spans cover)."""
    _, children = span_tree(spans)
    out = {}
    for s in spans:
        covered = sum(duration(c) for c in children.get(s["id"], []))
        total, own = out.get(s["name"], (0.0, 0.0))
        out[s["name"]] = (total + duration(s), own + duration(s) - covered)
    return out


def child_totals(spans, root_name):
    """Total duration of the children of every root span named root_name,
    keyed by child name, plus the number of such roots."""
    by_id, _ = span_tree(spans)
    totals, roots = {}, 0
    for s in spans:
        if s["name"] == root_name and s["parent"] == 0:
            roots += 1
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == root_name:
            totals[s["name"]] = totals.get(s["name"], 0.0) + duration(s)
    return totals, roots


def write_trace(path, groups):
    """Chrome trace-event JSON of every span, one pid per process."""
    events = []
    for pid, (label, spans) in enumerate(groups):
        events.append({"ph": "M", "pid": pid, "name": "process_name",
                       "args": {"name": label}})
        for s in spans:
            events.append({"ph": "X", "pid": pid, "tid": 0, "name": s["name"],
                           "ts": s["start"] * 1e6, "dur": duration(s) * 1e6,
                           "args": {"id": s["id"], "parent": s["parent"]}})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)


# ---------------------------------------------------------------- metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(builds, check, serve, n):
    setups = [b["build_s"] + live for b, live in zip(builds, serve["live_s"])]
    snap_bytes = sum(s["bytes"] for s in builds[-1]["snapshots"])
    return {
        "setup_s": metric(median(setups), "s"),
        "reload_ms": metric(median(samples(serve["reload_ms"], False)), "ms"),
        "throughput_rps": metric(median(samples(serve["round_rps"], False)),
                                 "1/s"),
        "snapshot_bytes_per_node": metric(snap_bytes / n, "B/node"),
        "build_peak_rss_mb": metric(median([b["peak_rss_mb"] for b in builds]),
                                    "MB"),
        "serve_peak_rss_mb": metric(serve["peak_rss_mb"], "MB"),
        "stretch_p99.labeled": metric(check["stretch_p99_labeled"], "ratio"),
        "stretch_p99.ni": metric(check["stretch_p99_ni"], "ratio"),
    }


def per_layer(builds, check, serve):
    m = {}
    phases = ("graph_io", "metric", "nets", "labeled_hier", "labeled_sf",
              "ni_simple", "ni_sf", "snapshot_write")
    per_build = [child_totals(b["spans"], "build")[0] for b in builds]
    for phase in phases:
        m["build." + phase + "_ms"] = metric(
            median([t.get("build." + phase, 0.0) * 1e3 for t in per_build]),
            "ms")
    m["graph.balls_issued"] = metric(
        median([b["balls_issued"] for b in builds]), "count")
    m["graph.dijkstra_settled"] = metric(
        median([b["dijkstra_settled"] for b in builds]), "count")

    loads, count = child_totals(serve["spans"], "reload")
    count = max(1, count)
    for part in ("map", "decode", "arena", "audit", "publish"):
        m["load." + part + "_ms"] = metric(
            loads.get("load." + part, 0.0) * 1e3 / count, "ms")
    first = check["snapshots"][0]
    m["load.arena_bytes_per_node"] = metric(first["arena_bytes_per_node"],
                                            "B/node")

    rounds, traced_rounds = child_totals(serve["spans"], "serve.round")
    requests = max(1, traced_rounds) * serve["round_size"]
    m["server.submit_ns"] = metric(
        rounds.get("server.submit", 0.0) * 1e9 / requests, "ns")
    m["server.pump_ns"] = metric(
        rounds.get("server.pump", 0.0) * 1e9 / requests, "ns")
    untraced_rps = median(samples(serve["round_rps"], False))
    batch = first["serve_batch"]
    m["server.batch_ratio"] = metric(
        untraced_rps / batch["mixed_routes_per_s"], "ratio")
    m["hop.mixed_routes_per_s"] = metric(batch["mixed_routes_per_s"], "1/s")
    for s in SCHEMES:
        m["hop.routes_per_s." + s] = metric(batch[s]["routes_per_s"], "1/s")
        m["hop.hops_per_route." + s] = metric(batch[s]["hops_per_route"],
                                              "hops")
        m["hop.service_us_p50." + s] = metric(batch[s]["service_us_p50"], "us")
    storage = builds[-1]["snapshots"][0]["storage_bits_per_node"]
    for s in SCHEMES:
        m["storage_bits_per_node." + s] = metric(storage[s], "bit/node")
    for s in SCHEMES:
        stats = [snap["schemes"][s] for snap in check["snapshots"]]
        checked = sum(x["checked"] for x in stats)
        m["stretch_avg." + s] = metric(
            sum(x["stretch_avg"] * x["checked"] for x in stats) / checked,
            "ratio")
        m["stretch_max." + s] = metric(max(x["stretch_max"] for x in stats),
                                       "ratio")
        m["ceiling_violations." + s] = metric(
            sum(x["verdicts"].get("above-ceiling", 0) for x in stats), "count")

    # Tracing overhead: traced against untraced rounds and reloads of the same
    # run, and how far the layer spans add back up to their traced totals.
    traced_rps = median(samples(serve["round_rps"], True))
    traced_reload = median(samples(serve["reload_ms"], True))
    setups = [b["build_s"] + live for b, live in zip(builds, serve["live_s"])]
    m["trace.e2e.setup_s"] = metric(median(setups), "s")
    m["trace.e2e.reload_ms"] = metric(traced_reload, "ms")
    m["trace.e2e.throughput_rps"] = metric(traced_rps, "1/s")
    m["trace.ratio.reload"] = metric(
        traced_reload / median(samples(serve["reload_ms"], False)), "ratio")
    m["trace.ratio.throughput"] = metric(untraced_rps / traced_rps, "ratio")

    build_leaves = sum(sum(t.values()) for t in per_build)
    live_leaves = sum(child_totals(serve["spans"], "live")[0].values())
    m["trace.coverage.setup"] = metric(
        (build_leaves + live_leaves) / sum(setups), "ratio")
    m["trace.coverage.reload"] = metric(
        sum(loads.values()) / serve["traced_reload_s"], "ratio")
    round_total = sum(duration(s) for s in serve["spans"]
                      if s["name"] == "serve.round")
    m["trace.coverage.serve"] = metric(sum(rounds.values()) / round_total,
                                       "ratio")
    return m


# -------------------------------------------------------------------- run

def run(args):
    if args.workload not in WORKLOADS:
        raise BenchError("unknown workload %r (one of %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    binary = build_harness()
    root = build_root()
    env = child_env(root)
    toy = ["--toy"] if args.toy else []
    work = os.path.join(root, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)] + toy
        trace = ["--trace", str(args.trace)]
        graph = os.path.join(work, "graph.txt")
        gen = harness(binary, env, "gen", *common, "--out", graph)

        builds, digests = [], []
        for i in range(SETUPS):
            storage = ["--storage"] if args.trace and i == SETUPS - 1 else []
            b = harness(binary, env, "build", *common, *trace, *storage,
                        "--graph", graph, "--outdir", work)
            builds.append(b)
            digests.append([sha256(s["path"]) for s in b["snapshots"]])
        snaps = ",".join(s["path"] for s in builds[-1]["snapshots"])

        check = harness(binary, env, "check", *common, *trace, "--snaps",
                        snaps, "--out", os.path.join(work, "expected.bin"))
        serve = harness(binary, env, "serve", *common, *trace, "--snaps",
                        snaps, "--expected", os.path.join(work, "expected.bin"),
                        "--seconds", str(args.seconds), "--setups",
                        str(SETUPS))
        info = harness(binary, env, "info")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = gen["n"]
    checks = {
        "graph_matches": check["graph_matches"],
        "builds_identical": all(d == digests[0] for d in digests),
        "no_unexpected_failures": serve["unexpected"] == 0,
        "nothing_shed": serve["shed"] == 0,
        "all_served": serve["served"] == serve["submitted"] == serve["attempted"],
        "round_digests_match": serve["digest_mismatches"] == 0,
    }
    correct = all(checks.values())

    print(json.dumps({"host": host_block(info, builds[0], serve)}))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "n": n,
        "edges": gen["edges"], "checks": checks,
        "snapshot_sha256": digests[0],
        "snapshot_bytes": [s["bytes"] for s in builds[-1]["snapshots"]],
        "round_digest": serve["expected_digest"],
        "epoch_self_fingerprint": serve["self_fingerprint"],
        "failed_per_round": [s["failed_per_round"] for s in check["snapshots"]],
        "rounds": serve["attempted"] // serve["round_size"],
        "round_size": serve["round_size"],
        "reloads": len(serve["reload_ms"]),
        "swaps": serve["swaps"],
        "build_s": [b["build_s"] for b in builds],
        "live_s": serve["live_s"],
    }))
    if args.trace:
        metrics = per_layer(builds, check, serve)
        trace_path = os.path.join(root, "traces", "%s-seed%d.json"
                                  % (args.workload, args.seed))
        groups = [("build %d" % i, b["spans"]) for i, b in enumerate(builds)]
        groups.append(("check", check.get("spans", [])))
        groups.append(("serve", serve["spans"]))
        write_trace(trace_path, groups)
        self_ms = {name: round(own * 1e3, 3)
                   for name, (_, own) in sorted(self_times(serve["spans"]).items())}
        print(json.dumps({"trace_file": trace_path, "serve_self_ms": self_ms}))
    else:
        metrics = end_to_end(builds, check, serve, n)
    print(json.dumps({"correct": correct, "attempted": serve["attempted"],
                      "failed": serve["failed"], "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="self-test size (perfbench/selftest.py)")
    args = parser.parse_args()
    try:
        run(args)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
