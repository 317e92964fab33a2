#!/usr/bin/env python3
"""Toy-size self-test of perfbench. Run from the repository root:

    python3 perfbench/selftest.py

1. The route checker must fail forged routes (a non-edge hop, a wrong
   endpoint, a cost above the ceiling, a bad start, an undelivered walk) and
   pass honest ones (`perfbench_harness selftest`).
2. Every workload runs end to end at toy size, untraced and traced, and
   prints a well-formed result with every metric BENCHMARK.json names.
3. The failed share is the same for two seeds and two run lengths, and only
   grid-hotswap (its eps = 0.2 epochs) has failures.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--toy"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s"
                             % (workload, seed, trace, proc.returncode,
                                proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    binary = run.build_harness()
    proc = subprocess.run([binary, "selftest"], stdout=subprocess.PIPE,
                          text=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    for case in report["cases"]:
        expect(case["pass"], "checker verdict %s on %s" % (case["verdict"],
                                                           case["case"]))
    expect(proc.returncode == 0, "checker self-test exit code")

    for workload in [w["name"] for w in spec["workloads"]]:
        shares = []
        for seed, seconds in ((1, 1), (2, 2)):
            res = bench(workload, seed, seconds, 0)
            expect(res["correct"] is True, "%s seed %d correct" % (workload, seed))
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   "%s result keys" % workload)
            names = {m["name"] for m in spec["end_to_end"]}
            expect(set(res["metrics"]) == names,
                   "%s end-to-end metrics present" % workload)
            expect(all(m["value"] > 0 for m in res["metrics"].values()),
                   "%s end-to-end metrics positive" % workload)
            shares.append(res["failed"] / res["attempted"])
        expect(shares[0] == shares[1],
               "%s failed share identical across seeds and lengths (%r)"
               % (workload, shares))
        expect((shares[0] > 0) == (workload == "grid-hotswap"),
               "%s fails only where the known fault lives" % workload)
        traced = bench(workload, 3, 1, 1)
        names = {m["name"] for m in spec["per_layer"]}
        expect(set(traced["metrics"]) == names,
               "%s per-layer metrics present (missing %s)"
               % (workload, sorted(names - set(traced["metrics"]))))
    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
