#!/usr/bin/env python3
"""Fast self-test of the benchmark (about a minute after the build).

Runs every workload on a few units per pass, untraced and traced, on two
seeds, and checks that:
  - the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics;
  - every metric BENCHMARK.json names for the mode is emitted, with its
    unit, and nothing else;
  - every unit passed its checks;
  - a bad argument makes the benchmark exit non-zero without a result.

Usage, from the root of the repository: python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Units per pass: enough to reach every layer the workload calls.
LIMITS = {"regular": 10, "irregular": 2, "multitenant": 30, "conform-fuzz": 8}


def run(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def check_result(bench, workload, seed, trace):
    out = run(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
               "--trace", str(trace), "--limit", str(LIMITS[workload])])
    where = "%s seed %d trace %d" % (workload, seed, trace)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return ["%s: exit %d\n%s" % (where, out.returncode, out.stderr[-2000:])]
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: failed units\n%s" % (where, out.stderr[-2000:]))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (where, result.get("attempted")))
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in got:
            errors.append("%s: missing metric %s" % (where, name))
        elif got[name].get("unit") != unit or not isinstance(got[name].get("value"), (int, float)):
            errors.append("%s: metric %s is %r, want unit %s" % (where, name, got[name], unit))
    for name in sorted(set(got) - set(expected)):
        errors.append("%s: unexpected metric %s" % (where, name))
    if not trace:
        for name, m in got.items():
            if m.get("value") == 0:
                errors.append("%s: end-to-end metric %s is 0" % (where, name))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for i, workload in enumerate(w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            errors += check_result(bench, workload, 1 + (i + trace) % 2, trace)
    bad = run(["--workload", "regular", "--seed", "1", "--seconds", "0", "--trace", "0"])
    if bad.returncode == 0 or bad.stdout.strip():
        errors.append("--seconds 0 was accepted")
    for e in errors:
        print("selftest: " + e)
    print("selftest: %s" % ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
