#!/usr/bin/env python3
"""Records the steadiness of the benchmark's end-to-end metrics.

Runs ``perfbench/run.py`` for every workload on seeds 1..10, in two sets of the
same code, and writes ``perfbench/steadiness.json``: for each workload and
metric the ten values of each set, their median, the within-set spread (the
distance between the first and third quartile as a share of the median) and
the drift of the second set's median against the first, next to the bound
``BENCHMARK.json`` fixes. Every bound should trace to these numbers.

    python3 perfbench/steadiness.py
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "steadiness.json")
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed with {proc.returncode}")
    host = next((json.loads(l[6:]) for l in lines if l.startswith("host: ")), {})
    return host, json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {n: [{m: [] for m in bounds} for _ in range(SETS)] for n in names}
    host = {}
    # Seed-major, so a slow phase of the host touches every workload alike.
    for s in range(SETS):
        for seed in SEEDS:
            for name in names:
                host, result = run_once(name, seed, bench["run_seconds"])
                if not result["correct"]:
                    raise SystemExit(f"{name} seed {seed}: outputs differ from the reference")
                for m in bounds:
                    values[name][s][m].append(result["metrics"][m]["value"])
                print(f"set {s + 1} seed {seed} {name}: " + ", ".join(
                    f"{m}={result['metrics'][m]['value']:.4g}" for m in bounds), flush=True)
    record = {"host": host, "run_seconds": bench["run_seconds"], "seeds": list(SEEDS),
              "workloads": {}}
    for name in names:
        rows = {}
        for m, bound in bounds.items():
            sets = [values[name][s][m] for s in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            rows[m] = {
                "bound": bound,
                "spread": [round(spread(v), 5) for v in sets],
                "median": medians,
                "drift": [round(md / medians[0] - 1.0, 5) for md in medians[1:]],
                "values": sets,
            }
        record["workloads"][name] = rows
    with open(OUT, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for name, rows in record["workloads"].items():
        for m, r in rows.items():
            print(f"{name:17s} {m:17s} bound {r['bound']:.3f} spread {r['spread']} drift {r['drift']}")


if __name__ == "__main__":
    main()
