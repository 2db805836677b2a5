#!/usr/bin/env python3
"""Repeat-run helpers for the benchmark, run from the repository root.

  python3 benchmark/measure.py all [--seed N] [--seconds S] [--trace 0|1]
      Runs every workload once and prints each metric by name with its
      unit; exits non-zero if any run fails its reference checks.

  python3 benchmark/measure.py spread WORKLOAD [--seeds 1,2,...] [--seconds S]
      Runs the untraced benchmark once per seed and prints, per end-to-end
      metric, the median and the spread: the distance between the first
      and third quartiles (statistics.quantiles, n=4) as a share of the
      median, next to the bound BENCHMARK.json allows.

  python3 benchmark/measure.py census WORKLOAD [--seed N] [--seconds S]
      Runs the traced benchmark twice on one seed and marks which
      per-layer counts repeat exactly; only those may back a claim.

Both build once with cargo (release) and then run the built binary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "benchmark", "Cargo.toml")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def binary():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "benchmark", "target"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        check=True,
        env=env,
    )
    return os.path.join(target, "release", "xrta-benchmark")


def run(exe, workload, seed, seconds, trace):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(args):
    exe, bench = binary(), spec()
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in seeds:
        result = run(exe, args.workload, seed, seconds, 0)
        line = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {line}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("inf")
        if name != "setup_s":
            worst = max(worst, share / bounds[name])
        print(f"{name:<16} median {med:<12.6g} spread {share:7.2%}  bound {bounds[name]:.0%}")
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")


def run_all(args):
    exe, bench = binary(), spec()
    seconds = args.seconds or bench["run_seconds"]
    for w in bench["workloads"]:
        result = run(exe, w["name"], args.seed, seconds, args.trace)
        print(f"{w['name']}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<26} {m['value']:<14.6g} {m['unit']}")


def census(args):
    exe, bench = binary(), spec()
    seconds = args.seconds or bench["run_seconds"]
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    a = run(exe, args.workload, args.seed, seconds, 1)["metrics"]
    b = run(exe, args.workload, args.seed, seconds, 1)["metrics"]
    for name in counts:
        x, y = a[name]["value"], b[name]["value"]
        mark = "repeats" if x == y else "varies"
        print(f"{name:<26} {x:>14g} {y:>14g}  {mark}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    a = sub.add_parser("all")
    a.add_argument("--seed", type=int, default=1)
    a.add_argument("--seconds", type=int)
    a.add_argument("--trace", type=int, choices=[0, 1], default=0)
    s = sub.add_parser("spread")
    s.add_argument("workload")
    s.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    s.add_argument("--seconds", type=int)
    c = sub.add_parser("census")
    c.add_argument("workload")
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--seconds", type=int)
    args = p.parse_args()
    {"all": run_all, "spread": spread, "census": census}[args.cmd](args)


if __name__ == "__main__":
    main()
