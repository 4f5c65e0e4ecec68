#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs every workload (or the ones named) --runs times in each of two
sets, each run with its own seed, and prints for each workload and
end-to-end metric the median, quartiles, min/max and the spread: the
distance between the first and third quartile as a share of the median,
as statistics.quantiles(values, n=4) gives them. A metric is flagged when
its spread exceeds a tenth, or a third of its bound; a spread over the
bound in either set, or a second-set median worse than the first by more
than the bound, fails the report. Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# SETS is how many sets of runs are made; the second set's medians are
# checked against the first's.
SETS = 2


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    took = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in res["metrics"].items()}, took


def collect(bench, workloads, runs, seed):
    """Returns {workload: [[{metric: value} per run] per set]}."""
    out = {}
    for w in workloads:
        out[w] = []
        for s in range(SETS):
            results = []
            for i in range(runs):
                n = seed + 100 * s + i
                vals, took = run_once(bench["command"], w, n, bench["run_seconds"])
                results.append(vals)
                print(f"  {w} set {s + 1} seed {n}: {took:.0f}s", file=sys.stderr, flush=True)
            out[w].append(results)
    return out


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / q2 if q2 else float("inf"), "values": values}


def analyze(bench, runs):
    """Prints the report and returns (steady, evidence)."""
    evidence = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for w, sets in runs.items():
        rows = {}
        print(f"\n{w}")
        print(f"  {'metric':16s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'min':>11s} {'max':>11s} "
              f"{'spread':>7s} {'bound':>6s}  flags")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [summarize([r[name] for r in results]) for results in sets]
            st = per_set[0]
            flags = []
            if st["spread"] > 0.1:
                flags.append("spread>0.1")
            if st["spread"] > bound / 3:
                flags.append("spread>bound/3")
            if any(p["spread"] > bound for p in per_set):
                flags.append("FAIL:spread>bound")
                ok = False
            m1, m2 = per_set[0]["median"], per_set[1]["median"]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            if worse > bound:
                flags.append("FAIL:second-median-worse")
                ok = False
            print(f"  {name:16s} {st['median']:11.4f} {st['q1']:11.4f} {st['q3']:11.4f} {st['min']:11.4f} "
                  f"{st['max']:11.4f} {st['spread']:7.3f} {bound:6.2f}  {' '.join(flags)}"
                  f"  set 2: median {m2:.4f}, spread {per_set[1]['spread']:.3f}, worse by {worse:+.3f}")
            rows[name] = {"bound": bound, "sets": per_set, "second_median_worse_by": worse, "flags": flags}
        evidence["workloads"][w] = rows
    print("\nsteady" if ok else "\nNOT steady")
    return ok, evidence


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*", help="default: every workload in the benchmark")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="first seed; set s, run i uses seed + 100*s + i")
    ap.add_argument("--out", help="write the evidence as JSON to this file")
    a = ap.parse_args()

    bench = json.load(open(a.bench))
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    runs = collect(bench, workloads, a.runs, a.seed)
    ok, evidence = analyze(bench, runs)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(evidence, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
