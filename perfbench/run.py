#!/usr/bin/env python3
"""Layered benchmark of rainbowpath, run from the root of a checkout.

    python3 perfbench/run.py --workload mycielski-sweep --seed 0 --seconds 60 --trace 0

Workloads (see workloads.py for why each was chosen):
  mycielski-sweep  ``corpus --cap 1000 --delta 0`` over K2, C5, Grotzsch and
                   Mycielski-3 (1526 colorings)
  random-thorough  ``corpus --thorough --delta 1 --cap 20 --samples 10`` over
                   30 random triangle-free graphs (n=18, p=0.3, seeds S..S+29),
                   Grotzsch and Grotzsch + C5 (960 colorings)
  exact-solvers    chromatic number, longest induced path, all-distinct
                   rainbow path, most-colorful path from every vertex and the
                   graded procedure on random graphs n=14..28, seeds S..S+4,
                   plus the chromatic number of Mycielski-4

BENCHMARK.json lists mycielski-sweep and exact-solvers. random-thorough runs
the same way when asked for by name (see perfbench/README.md).

Closed loop, one client, parallelism 1: every iteration is a fresh
interpreter (perfbench/child.py) with cold caches, as a CLI user gets it,
and the next starts only when the previous one has exited.

With ``--trace 0`` the run first starts SETUP_SAMPLES set-up-only
interpreters, then untraced iterations while a typical one still fits in
``--seconds`` (always at least one), and reports the end-to-end metrics over them:
  setup_s      median time from a fresh interpreter to rainbowpath imported
               and the inputs written
  wall_s       median time of the measured phase, one run_corpus call for
               the sweeps
  ops_per_s    median rate of operations per second of the measured phase
               (colorings checked in the sweeps, solver calls in
               exact-solvers)
  peak_rss_mb  median ru_maxrss of the iteration's process
Times are in reference-host seconds. Inside each iteration a probe thread
(perfbench/probe.py) times a fixed chunk of pure-Python work every 25 ms,
and each interval's wall time is scaled by REFERENCE_CHUNK_S over the
chunk's mean time during that interval. The shared host's speed drifts by
up to half over seconds to minutes, and this takes most of the drift out
(README.md, Noise). The raw wall times and the host speed are printed
beside the metrics, with the median and quartiles of every metric.
With ``--trace 1`` it runs one untraced and two traced iterations and
reports the per-layer metrics (medians over the traced ones), the tracing
overhead, and whether the exact counts of the two traced runs agree.

Every output is validated; operations that raise, are skipped or give a
wrong answer count as failed. The last line of standard output is one JSON
object; a full record, environment included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REFERENCE_CHUNK_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mycielski-sweep", "random-thorough", "exact-solvers")
DEFAULT_SEED = 0
# Kept out of tuning: its inputs are disjoint from the default seed's (random
# seeds S..S+29), and it checks that each workload's dominant layer holds.
HELD_OUT_SEED = 97
TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 6
TRACED_ITERATIONS = 2
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_pct", "%"), ("_frac", "frac")):
        if metric.endswith(suffix):
            return unit
    return "frac" if metric.startswith("share.") else "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_child(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    workdir = HERE / "out" / f"work-{args.workload}-seed{args.seed}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--workdir", str(workdir)]
    spawned = now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} iteration did not finish within the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} iteration exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    data["setup_s"] = data["setup_done"] - spawned
    return data


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def reference_digest(workload: str, seed: int) -> str | None:
    digests = json.loads((HERE / "reference.json").read_text())["report_sha256"]
    return digests.get(workload, {}).get(str(seed))


def check_iterations(iterations: list[dict], problems: list[str]) -> tuple[int, int]:
    """Sum attempted/failed operations; flag report bytes that differ."""
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    for it in iterations:
        problems.extend(it["problems"])
    if len({it["report_sha256"] for it in iterations}) != 1:
        problems.append("report bytes differ between iterations of the same inputs")
    return attempted, failed


def reference_seconds(seconds: float, probe: dict) -> float:
    """Wall seconds scaled to the reference host by the probe's mean chunk
    time over the same interval."""
    if not probe["chunks"]:
        raise BenchError(f"the host-speed probe ran no chunk in a {seconds:.3f} s interval")
    return seconds * REFERENCE_CHUNK_S / probe["chunk_s"]


def measure_end_to_end(args: argparse.Namespace, started: float, deadline: float) -> dict:
    setups = [run_child(args, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    iterations: list[dict] = []
    durations: list[float] = []
    # Start another iteration only if a typical one still fits in --seconds.
    while not iterations or now() - started + statistics.median(durations) <= args.seconds:
        begun = now()
        iterations.append(run_child(args, "run", deadline))
        durations.append(now() - begun)
    walls = [reference_seconds(it["wall_s"], it["phase_probe"]) for it in iterations]
    samples = {
        "setup_s": [reference_seconds(it["setup_s"], it["setup_probe"])
                    for it in setups + iterations],
        "wall_s": walls,
        "ops_per_s": [it["ops"] / wall for it, wall in zip(iterations, walls)],
        "peak_rss_mb": [it["peak_rss_mb"] for it in iterations],
    }
    raw = {
        "raw_setup_s": [it["setup_s"] for it in setups + iterations],
        "raw_wall_s": [it["wall_s"] for it in iterations],
        "host_speed": [REFERENCE_CHUNK_S / it["phase_probe"]["chunk_s"] for it in iterations],
    }
    return {"iterations": iterations, "samples": samples, "raw": raw}


def measure_traced(args: argparse.Namespace, deadline: float, problems: list[str]) -> dict:
    untraced = run_child(args, "run", deadline)
    traced = [run_child(args, "trace", deadline) for _ in range(TRACED_ITERATIONS)]
    if any(t["counts"] != traced[0]["counts"] for t in traced):
        diff = sorted(k for k in traced[0]["counts"]
                      if any(t["counts"].get(k) != traced[0]["counts"][k] for t in traced))
        problems.append(f"exact counts differ between traced runs: {diff[:10]}")
    for t in traced:
        if t["layers"]["oracle.rainbow.inexact"]:
            problems.append("a rainbow search was truncated (oracle.rainbow.inexact > 0)")
    samples = {name: [t["layers"][name] for t in traced] for name in traced[0]["layers"]}
    samples["trace.overhead_s"] = [t["wall_s"] - untraced["wall_s"] for t in traced]
    samples["trace.spans"] = [t["spans"] for t in traced]
    return {"iterations": [untraced, *traced], "samples": samples}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out of tuning)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rainbowpath" / "__init__.py").is_file():
        print(f"error: no rainbowpath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = now()
    deadline = started + TIME_LIMIT_S
    env = environment()
    problems: list[str] = []
    try:
        run_child(args, "setup", deadline)  # warm-up: byte-compile, fill the page cache
        if args.trace:
            measured = measure_traced(args, deadline, problems)
        else:
            measured = measure_end_to_end(args, started, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    iterations = measured["iterations"]
    attempted, failed = check_iterations(iterations, problems)
    digest = iterations[0]["report_sha256"]
    reference = reference_digest(args.workload, args.seed)
    correct = failed == 0 and not problems
    metrics = {}
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"closed loop, 1 client, parallelism=1",
        "env " + " ".join(f"{k}={v}" for k, v in env.items())
        + f" kernels={iterations[0]['kernel_path']}",
    ]
    for name, values in measured["samples"].items():
        q1, med, q3 = quartiles(values)
        unit = END_TO_END_UNITS.get(name) or unit_of(name)
        metrics[name] = {"value": med, "unit": unit}
        lines.append(f"{name:40s} {med:14.6g} {unit:6s} median of {len(values)} "
                     f"(q1 {q1:.6g}, q3 {q3:.6g})")
    for name, values in measured.get("raw", {}).items():
        q1, med, q3 = quartiles(values)
        unit = "x" if name == "host_speed" else unit_of(name)
        lines.append(f"{name:40s} {med:14.6g} {unit:6s} median of {len(values)} "
                     f"(q1 {q1:.6g}, q3 {q3:.6g}), not a metric")
    lines.append(f"{'failed_frac':40s} {failed / max(attempted, 1):14.6g} frac   "
                 f"{failed} of {attempted} operations")
    lines.append(f"report_sha256 {digest} "
                 f"(reference for this seed: {'none' if reference is None else reference == digest})")
    if args.trace:
        layers = {k: v["value"] for k, v in metrics.items()}
        lines.append("dominant layer: " + dominant_layer(layers))
    lines.extend(f"problem: {p}" for p in problems[:20])

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "correct": correct,
              "attempted": attempted, "failed": failed, "report_sha256": digest,
              "reference_sha256": reference, "problems": problems,
              "samples": measured["samples"], "raw": measured.get("raw"), "metrics": metrics,
              "iterations": [{k: v for k, v in it.items() if k not in ("layers", "counts")}
                             for it in iterations]}
    if args.trace:
        record["exact_counts"] = iterations[1]["counts"]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def dominant_layer(layers: dict[str, float]) -> str:
    shares = {k: layers[f"share.{k}"] for k in ("rainbow", "colorful_subtree", "chromatic")}
    best = max(shares, key=shares.get)
    return f"{best} ({', '.join(f'{k} {v:.0%}' for k, v in shares.items())})"


if __name__ == "__main__":
    sys.exit(main())
