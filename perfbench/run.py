#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload record-paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. The Go program in this directory is built
from source into .bench_build/ (a checkout-local Go build cache included),
then run once per workload, each in a fresh process, so set-up time and
peak memory belong to one workload. Its last line of standard output is a
JSON summary. --workload all runs the three workloads in turn and prints
every end-to-end metric, fail_rate included.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["record-paper", "replay-paper", "fleet-coldstart"]


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s; run from a gpurelay checkout" % ROOT)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    done = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def run_one(workload, seed, seconds, trace):
    """Runs one workload in a fresh process, echoing its output; returns the
    JSON summary."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perfbench: %s exited with %d" % (workload, done.returncode))
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    build()
    if args.workload != "all":
        run_one(args.workload, args.seed, args.seconds, args.trace)
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in WORKLOADS:
        s = run_one(w, args.seed, args.seconds, args.trace)
        total["correct"] = total["correct"] and s["correct"]
        total["attempted"] += s["attempted"]
        total["failed"] += s["failed"]
        s["metrics"]["fail_rate"] = {"value": s["failed"] / s["attempted"], "unit": "ratio"}
        for name, m in s["metrics"].items():
            total["metrics"]["%s/%s" % (w, name)] = m
            rows.append((w, name, m["value"], m["unit"]))
    print("\n%-16s %-28s %16s %s" % ("workload", "metric", "value", "unit"))
    for w, name, value, unit in rows:
        print("%-16s %-28s %16.6g %s" % (w, name, value, unit))
    print(json.dumps(total))


if __name__ == "__main__":
    main()
