#!/usr/bin/env python3
"""Study benchmark: the paper's fault-injection study, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper-study [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--trace 0|1]
    python3 perfbench/run.py --workload restore-bound --capture-reference --seed N

End-to-end runs (``--trace 0``) build ``repro`` from source and time the
``repro`` commands a user would type, from the outside, with telemetry off.
Peak memory comes from the kernel's per-child accounting (``wait4``). Every
command writes ``--json`` study points, which must match the reference under
``perfbench/reference/`` byte for byte; a mismatch or a nonzero exit counts
as a failed campaign and contributes no time.

The traced run (``--trace 1``) builds the per-layer harness in
``perfbench/layers`` and runs it on the same sites, then prints every
per-layer metric, each layer's share of the untraced wall time, the
unaccounted remainder and the tracing overhead. It writes a Perfetto-loadable
trace of the harness's spans to ``.bench_out/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
REFERENCE = os.path.join(BENCH, "reference")
OUT = os.path.join(ROOT, ".bench_out")

# Benchmark seed n runs `repro --seed SEED_BASE + n % REFERENCE_SEEDS`: the
# seed sets the workload inputs and the sampled fault sites, and a reference
# output is stored for each of these repro seeds.
SEED_BASE = 2017
REFERENCE_SEEDS = 10
# Measured round r of a run with seed n runs benchmark seed n + r * ROUND_SEED_STRIDE,
# so a run of two or more rounds samples two sets of inputs and fault sites
# and the run-to-run spread depends less on how many costly sites (replays
# that hang until the watchdog) one seed happens to draw.
ROUND_SEED_STRIDE = 5

# Mean host seconds of one run of a BENCHMARK.json workload, zero-injection
# rounds included, on the reference host (2-core Xeon) at the workloads'
# nominal round counts; --seconds scales the round count.
NOMINAL_SECONDS = 51

# `commands`: flags of each `repro fig1` command of one round; `layers`: the
# same device, workload, fault models and engine for the per-layer harness.
# Why each workload exists: BENCHMARK.json and perfbench/NOTES.md.
WORKLOADS = {
    "paper-study": {
        "commands": [["--jobs", "2"]],
        "injections": 50,
        "rounds": 2,
        "setup_rounds": 1,
        "layers": ["--jobs", "2", "--scalar-sites", "2"],
    },
    "restore-bound": {
        "commands": [
            ["--device", "7970", "--workload", "vectoradd", "--no-prune", "--no-batch", "--jobs", "1"]
        ],
        "injections": 480,
        "rounds": 7,
        "setup_rounds": 5,
        "layers": ["--device", "7970", "--workload", "vectoradd", "--no-prune", "--no-batch",
                   "--jobs", "1"],
    },
    "permanent-faults": {
        "commands": [
            ["--device", "GTX 480", "--workload", "reduction", "--fault-model", m, "--jobs", "1"]
            for m in ("stuck0", "stuck1", "control")
        ],
        "injections": 200,
        "rounds": 1,
        "setup_rounds": 3,
        "layers": ["--device", "GTX 480", "--workload", "reduction",
                   "--fault-model", "stuck0,stuck1,control", "--jobs", "1"],
    },
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("injections_per_s", "1/s"), ("peak_rss_mb", "MiB")]


class BenchError(Exception):
    """A failure of the benchmark itself (build, missing reference): no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def cargo_build(args):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)}")


def build(trace):
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        raise BenchError(f"no Cargo.toml at {ROOT}: not a checkout of the repository")
    cargo_build(["-p", "grel-bench", "--bin", "repro"])
    if trace:
        cargo_build(["--manifest-path", os.path.join(BENCH, "layers", "Cargo.toml")])


def binary(name):
    return os.path.join(build_dir(), "release", name)


def run_timed(argv):
    """Runs argv to completion; returns (exit code, wall seconds, peak RSS MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def repro_seed(seed):
    return SEED_BASE + seed % REFERENCE_SEEDS


def command_argv(flags, injections, seed, json_path):
    return [binary("repro"), "fig1", *flags, "--injections", str(injections),
            "--seed", str(seed), "--json", json_path, "-q"]


def reference_path(workload, seed, index):
    return os.path.join(REFERENCE, workload, f"{seed}-{index}.json")


def campaigns(points):
    """Campaigns a study file holds: RF always, LDS where the workload uses it."""
    return sum(1 + bool(p.get("uses_lds")) for p in points)


def check_output(json_path, ref_path):
    """Compares study points with the reference; returns (campaigns, failed)."""
    if not os.path.isfile(ref_path):
        raise BenchError(f"no reference output {os.path.relpath(ref_path, ROOT)}")
    with open(ref_path, "rb") as f:
        ref_bytes = f.read()
    ref = json.loads(ref_bytes)
    try:
        with open(json_path, "rb") as f:
            got_bytes = f.read()
    except OSError:
        return campaigns(ref), campaigns(ref)
    if got_bytes == ref_bytes:
        return campaigns(ref), 0
    try:
        got = {(p["workload"], p["device"]): p for p in json.loads(got_bytes)}
    except (ValueError, KeyError, TypeError):
        got = {}
    bad = [p for p in ref if got.get((p["workload"], p["device"])) != p]
    log(f"output mismatch: {json_path} differs from {os.path.relpath(ref_path, ROOT)} "
        f"in {len(bad)} of {len(ref)} points")
    return campaigns(ref), max(campaigns(bad), 1)


def run_commands(name, seed, injections, tag):
    """One round of the workload's commands: (wall, rss, campaigns, failed, injections)."""
    spec = WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    wall = rss = 0.0
    attempted = failed = classified = 0
    for i, flags in enumerate(spec["commands"]):
        json_path = os.path.join(OUT, f"{name}-{tag}-{i}.json")
        if os.path.exists(json_path):
            os.remove(json_path)
        code, secs, peak = run_timed(command_argv(flags, injections, repro_seed(seed), json_path))
        n, bad = check_output(json_path, reference_path(name, repro_seed(seed), i))
        if code != 0:
            log(f"command {i} of {name} exited with {code}")
            bad = n
        attempted += n
        failed += bad
        classified += n * injections
        wall += secs
        rss = max(rss, peak)
    return wall, rss, attempted, failed, classified


def setup_round(name, seed):
    """The workload's commands with a zero-injection budget: everything before
    the first replay (inputs, golden run with ACE and oracle, ladder)."""
    os.makedirs(OUT, exist_ok=True)
    total = 0.0
    for flags in WORKLOADS[name]["commands"]:
        json_path = os.path.join(OUT, f"{name}-setup.json")
        code, secs, _ = run_timed(command_argv(flags, 0, repro_seed(seed), json_path))
        if code != 0:
            return None
        total += secs
    return total


def end_to_end(name, seed, seconds):
    spec = WORKLOADS[name]
    setups = [setup_round(name, seed) for _ in range(spec["setup_rounds"])]
    rounds = max(1, round(spec["rounds"] * seconds / NOMINAL_SECONDS))
    walls, rsses = [], []
    attempted = failed = classified = 0
    for r in range(rounds):
        wall, rss, n, bad, inj = run_commands(
            name, seed + r * ROUND_SEED_STRIDE, spec["injections"], f"r{r}")
        attempted += n
        failed += bad
        if bad == 0:
            walls.append(wall)
            rsses.append(rss)
            classified = inj
    if None in setups:
        log(f"a zero-injection command of {name} failed")
        attempted += 1
        failed += 1
        setups = [s for s in setups if s is not None]
    metrics = {}
    if walls and setups:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "injections_per_s": classified / wall,
            "peak_rss_mb": max(rsses),
        }
    return metrics, attempted, failed


def traced(name, seed):
    """Untraced wall of one round, then the per-layer harness on the same sites."""
    spec = WORKLOADS[name]
    wall, _, attempted, failed, _ = run_commands(name, seed, spec["injections"], "traced")
    trace_path = os.path.join(OUT, f"trace-{name}.json")
    argv = [binary("perfbench-layers"), *spec["layers"], "--injections", str(spec["injections"]),
            "--seed", str(repro_seed(seed)), "--trace", trace_path]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    harness_wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"per-layer harness failed on {name}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    units = {k: v["unit"] for k, v in out["metrics"].items()}
    # The harness sets up each pair once; every command of the workload
    # (one per fault model on permanent-faults) sets it up again.
    setup_layers = ("sim", "ace", "oracle", "campaign.ladder")
    layers = {k: v * len(spec["commands"]) if k in setup_layers else v
              for k, v in out["layers"].items()}
    shares = {k: v / wall for k, v in layers.items()}
    setup = sum(shares[k] for k in setup_layers)
    metrics.update({
        "share.setup": setup,
        "share.restore": shares["session.restore"],
        "share.unaccounted": 1.0 - sum(shares.values()),
        "trace.overhead": out["traced_s"] / wall,
    })
    units.update({k: "ratio" for k in ("share.setup", "share.restore", "share.unaccounted",
                                       "trace.overhead")})
    print(f"== {name}: per-layer metrics (seed {seed}, repro --seed {repro_seed(seed)}) ==")
    for k, v in metrics.items():
        print(f"  {k:32s} {v:14.6g} {units[k]}")
    print(f"  layer shares of the untraced wall ({wall:.2f} s):")
    for k, v in shares.items():
        print(f"    {k:30s} {v:7.1%}  ({layers[k]:.3f} s)")
    print(f"    {'unaccounted':30s} {metrics['share.unaccounted']:7.1%}")
    print(f"  traced wall {out['traced_s']:.2f} s against untraced {wall:.2f} s "
          f"(overhead x{metrics['trace.overhead']:.2f}); harness total {harness_wall:.1f} s; "
          f"trace: {os.path.relpath(trace_path, ROOT)}")
    return {k: (metrics[k], units[k]) for k in metrics}, attempted, failed


def host_record():
    def cmd(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True).stdout.strip()
        except OSError:
            return ""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    if os.path.exists(os.path.join(ROOT, ".git")):
        commit = cmd(["git", "rev-parse", "HEAD"])
    else:
        # An exported tree without git metadata: name the sources by content.
        h = hashlib.sha256()
        files = ["Cargo.toml", "Cargo.lock"] + sorted(
            os.path.relpath(os.path.join(d, f), ROOT) for top in ("crates", "shims")
            for d, _, fs in os.walk(os.path.join(ROOT, top)) for f in fs)
        for rel in files:
            with open(os.path.join(ROOT, rel), "rb") as f:
                h.update(rel.encode() + b"\0" + f.read())
        commit = "sources:" + h.hexdigest()[:16]
    return {"nproc": os.cpu_count(), "cpu": cpu, "rustc": cmd(["rustc", "--version"]),
            "commit": commit}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--capture-reference", action="store_true",
                   help="write the reference outputs for --seed (run only at a commit whose "
                        "outputs are known good)")
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be non-negative")
    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    try:
        build(a.trace == 1)
        if a.capture_reference:
            for name in names:
                capture(name, a.seed)
            return 0
        host = host_record()
        print("host: " + json.dumps(host))
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            if a.trace:
                metrics, attempted, failed = traced(name, a.seed)
            else:
                values, attempted, failed = end_to_end(name, a.seed, a.seconds)
                metrics = {k: (values[k], u) for k, u in END_TO_END if k in values}
                print(f"== {name}: end to end (seed {a.seed}, repro --seed {repro_seed(a.seed)}, "
                      f"{failed} of {attempted} campaigns failed) ==")
                for k, (v, u) in metrics.items():
                    print(f"  {k:18s} {v:12.4f} {u}")
            if not metrics:
                raise BenchError(f"{name}: no successful measurement")
            prefix = f"{name}/" if len(names) > 1 else ""
            result["attempted"] += attempted
            result["failed"] += failed
            result["metrics"].update(
                {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
            record = dict(host, workload=name, seed=a.seed, repro_seed=repro_seed(a.seed),
                          trace=a.trace, attempted=attempted, failed=failed,
                          metrics={k: v for k, (v, _) in metrics.items()})
            os.makedirs(OUT, exist_ok=True)
            with open(os.path.join(OUT, f"result-{name}-seed{a.seed}-trace{a.trace}.json"),
                      "w") as f:
                json.dump(record, f, indent=1)
        result["correct"] = result["failed"] == 0
        print(json.dumps(result))
        return 0 if len(names) == 1 or result["correct"] else 1
    except BenchError as e:
        log(f"error: {e}")
        return 2


def capture(name, seed):
    spec = WORKLOADS[name]
    os.makedirs(os.path.join(REFERENCE, name), exist_ok=True)
    for i, flags in enumerate(spec["commands"]):
        path = reference_path(name, repro_seed(seed), i)
        code, secs, _ = run_timed(command_argv(flags, spec["injections"], repro_seed(seed), path))
        if code != 0:
            raise BenchError(f"capturing {path} failed")
        log(f"captured {os.path.relpath(path, ROOT)} in {secs:.1f} s")


if __name__ == "__main__":
    sys.exit(main())
