#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/perfbench.exe with dune (inside the checkout, dune's
shared cache disabled), runs it, and passes its output through. The
last line of output is the program's JSON result, forwarded only after
checking that it carries exactly the metric names and units that
BENCHMARK.json declares for the run kind (end_to_end for --trace 0,
per_layer for --trace 1). A traced run writes its spans under
perfbench-out/. Exits non-zero, without a result line, when the build
fails or the result does not match the declaration.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a full checkout (dune-project and lib/ are missing)")
    try:
        with open("BENCHMARK.json") as f:
            declared = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        fail("unknown workload %r" % args.workload)
    expected = declared["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in expected}

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        os.makedirs("perfbench-out", exist_ok=True)
        cmd += ["--spans", os.path.join("perfbench-out", "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not JSON (exit code %d)" % proc.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s, unit mismatch %s" % (missing, extra, units))
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
