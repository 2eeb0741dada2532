#!/usr/bin/env python3
"""Builds and runs the ndft-serve benchmark.

One run (from the repository root):

    python3 perfbench/run.py --workload md_flood --seed 1 --seconds 20 --trace 0

builds perfbench/ (a Cargo package of its own) into $CARGO_TARGET_DIR
(default .bench_build) and runs it. The last line of output is the JSON
result; the exit code is the benchmark's.

Steadiness mode runs every named workload (default: all in
BENCHMARK.json) once per seed and prints, for each end-to-end metric,
the median, the quartiles and the spread (q3 - q1) / median against the
metric's bound; --save keeps the raw results:

    python3 perfbench/run.py --steady 10 [--workload W ...] [--save out.json]

Two saved sets are compared median to median with:

    python3 perfbench/run.py --compare first.json second.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def build():
    """Builds the benchmark and returns the path of its executable."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"benchmark build failed ({done.returncode})")
    return os.path.join(ROOT, env["CARGO_TARGET_DIR"], "release", "ndft-perfbench")


def run_once(exe, workload, seed, seconds, trace, quiet=False):
    """Runs the benchmark once; returns (exit code, parsed last line or None)."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if not quiet:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles by statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(args):
    spec = load_spec()
    exe = build()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    ok = True
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.steady):
            code, res = run_once(exe, w, seed, seconds, 0, quiet=True)
            if code != 0 or res is None or not res["correct"]:
                print(f"{w} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            runs.append({"seed": seed, **res})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        results[w] = runs
        if len(runs) < 2:
            continue
        print(f"\n{w}: {len(runs)} runs")
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            verdict = "ok" if s <= m["bound"] / 3 else ("wide" if s <= m["bound"] else "OVER")
            if m["name"] == "setup_s":
                verdict += " (exempt)"
            elif verdict == "OVER":
                ok = False
            print(f"  {m['name']:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{s:>9.3f}"
                  f"{m['bound']:>8.2f}  {verdict}")
        print()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


def compare(first, second):
    spec = load_spec()
    with open(first) as f:
        a = json.load(f)
    with open(second) as f:
        b = json.load(f)
    ok = True
    for w in sorted(set(a) & set(b)):
        print(f"{w}:")
        for m in spec["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[w])
            change = (mb - ma) / ma
            worse = -change if m["better"] == "higher" else change
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"  {m['name']:<24}{ma:>14.6g}{mb:>14.6g}{change:>+9.3f}  {verdict}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1])
    p.add_argument("--steady", type=int, metavar="N")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.steady:
        return steady(args)
    if not args.workload or len(args.workload) != 1 or None in (args.seed, args.seconds,
                                                                args.trace):
        p.error("a run needs one --workload, --seed, --seconds and --trace")
    exe = build()
    code, _ = run_once(exe, args.workload[0], args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
