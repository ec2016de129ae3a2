"""Steadiness command: is every end-to-end metric steady enough for its bound?

    python3 perfbench/steady.py

Run it from the root of a checkout. It makes two separate sets of ten runs
of every workload in BENCHMARK.json, one set after the other, each run
--seconds run_seconds. Within a set, run i of every workload uses --seed i,
and the workloads alternate. For each workload and metric it prints each
set's median and quartiles, the spread (interquartile range over the
median), the gap between the two sets' medians (positive when the second
set is worse) and the bound from BENCHMARK.json. A spread or a gap, in
either direction, above the bound is marked and makes the exit code 1.
Every run's result is written to .bench_runs/steady.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

RUNS, SETS = 10, 2
OUT = os.path.join(".bench_runs", "steady.json")


def run_once(command, workload, seed, seconds) -> dict:
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def report(spec, results) -> bool:
    """Print the table; returns whether every spread and gap is in bound."""
    ok = True
    print(f"{'workload':<20} {'metric':<20} {'set':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'gap':>7} {'bound':>6}")
    for workload, sets in results.items():
        shares = {round(sum(r['failed'] for r in s) / sum(r['attempted'] for r in s), 12)
                  for s in sets}
        if len(shares) > 1:
            ok = False
            print(f"{workload}: the failed share differs between sets: {sorted(shares)}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, runs in enumerate(sets, 1):
                q1, med, q3 = statistics.quantiles(
                    [r["metrics"][name]["value"] for r in runs], n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                flags = []
                gap = ""
                if k > 1:
                    worse = (med - medians[0]) / medians[0]
                    if m["better"] == "higher":
                        worse = -worse
                    gap = f"{worse:+7.3f}"
                    if abs(worse) > bound:
                        ok = False
                        flags.append("gap over bound")
                if spread > bound:
                    ok = False
                    flags.append("spread over bound")
                elif spread > bound / 3:
                    flags.append("spread over a third of the bound")
                print(f"{workload:<20} {name:<20} {k:>3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {gap:>7} {bound:6.3f}  {'; '.join(flags)}".rstrip())
    return ok


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    command = [sys.executable if c == "python3" else c for c in spec["command"]]
    results = {w: [[] for _ in range(SETS)] for w in names}
    for k in range(SETS):
        for seed in range(1, RUNS + 1):
            for w in names:
                r = run_once(command, w, seed, spec["run_seconds"])
                results[w][k].append(r)
                print(f"set {k + 1} seed {seed} {w}: " + json.dumps(
                    {n: round(v["value"], 4) for n, v in r["metrics"].items()}), flush=True)
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as f:
        json.dump(results, f)
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
