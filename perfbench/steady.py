#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, compared.

    python3 perfbench/steady.py [--runs 10] [--seed 1000]

Runs every workload --runs times per set, each run with its own seed,
two sets in a row (workloads interleaved within a set).  For every
end-to-end metric it prints each set's median, its spread (distance
between the first and third quartile as a share of the median), the
shift of the second median against the first, and the metric's bound
from BENCHMARK.json.  Exits 1 when a spread or a shift in the worse
direction exceeds its bound, or when the share of failed operations
differs between the sets.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if out.returncode != 0:
        sys.exit(f"run failed: {' '.join(cmd)}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = []
    for s in range(2):
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                seed = args.seed + s * args.runs + i
                r = run_once(w, seed, bench["run_seconds"])
                runs[w].append(r)
                print(f"set {s + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
        sets.append(runs)

    ok = True
    for w in workloads:
        shares = []
        for runs in (sets[0][w], sets[1][w]):
            shares.append((sum(r["failed"] for r in runs),
                           sum(r["attempted"] for r in runs)))
        same = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        ok &= same
        print(f"\n{w}: failed {shares[0][0]}/{shares[0][1]} then "
              f"{shares[1][0]}/{shares[1][1]}" + ("" if same else "  SHARE DIFFERS"))
        print(f"  {'metric':<16}{'median 1':>12}{'spread 1':>10}"
              f"{'median 2':>12}{'spread 2':>10}{'shift':>9}{'bound':>8}")
        for m in metrics:
            v1 = [r["metrics"][m["name"]]["value"] for r in sets[0][w]]
            v2 = [r["metrics"][m["name"]]["value"] for r in sets[1][w]]
            m1, m2 = statistics.median(v1), statistics.median(v2)
            s1, s2 = spread(v1), spread(v2)
            shift = m2 / m1 - 1
            worse = shift if m["better"] == "lower" else -shift
            bad = worse > m["bound"] or max(s1, s2) > m["bound"]
            ok &= not bad
            print(f"  {m['name']:<16}{m1:>12.5g}{s1:>10.3f}{m2:>12.5g}{s2:>10.3f}"
                  f"{shift:>+9.3f}{m['bound']:>8.2f}" + ("  OVER" if bad else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
