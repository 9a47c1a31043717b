"""Benchmark of the sgfact CLI: one workload, end-to-end timings or a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload invariants --seed 1 --seconds 20 --trace 0

The caller is a closed loop with one client and one job at a time: each job
is one in-process call of ``sgfact.cli.run(argv)``.  Every pass over a
workload's job list runs in a fresh interpreter (``worker.py``) that imports
``sgfact`` from ``./src``, so no pass sees what an earlier one left in memory.

``--trace 0`` runs passes until the next one would end after ``--seconds``,
at least one, and reports medians over passes (peak memory: the largest).
The time of the job list is reported as ``cpu_s``, its CPU time scaled to a
nominal speed of the machine (``speed.py``): on a shared host the wall time
and the raw CPU time of the same jobs swing by 1.6 times within minutes, so
neither can gate a change.  Both stay on the details line.
Set-up (``setup_probe.py``) is measured before each pass and after the last
one, at least five times in all, and its median is reported.  ``--trace 1`` runs one plain pass and one
traced pass and reports the per-layer metrics of the traced one, with the
tracing overhead as traced over plain ``cpu_s``.

The last stdout line is the result as JSON: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the details: timings by
job class, latency percentiles, failures, and the machine and versions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

RUN_CAP_S = 160.0  # the whole run, set-up included; jobs left when it expires fail
SETUP_RUNS = 5
SCRATCH = ".bench_run"  # inside the checkout: equations files and spans


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(script: str, args: list[str], timeout: float) -> str:
    """Run a benchmark script in a fresh interpreter; returns its last stdout line.

    On timeout the script is killed and waited for.
    """
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        timeout=max(timeout, 1.0),
        check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def probe_setup(args, deadline: float) -> float:
    return float(spawn("setup_probe.py", [args.workload], deadline - time.monotonic()))


def run_pass(args, trace: int, deadline: float) -> dict:
    """One pass in a worker; a worker killed at the deadline counts every job as failed."""
    remaining = deadline - time.monotonic()
    worker_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
        "--cap", str(max(remaining - 5.0, 1.0)),
        "--scratch", SCRATCH,
        *(["--smoke"] if args.smoke else []),
    ]  # fmt: skip
    try:
        return json.loads(spawn("worker.py", worker_args, remaining))
    except subprocess.TimeoutExpired:
        count = len(workloads.jobs_for(args.workload, args.seed, SCRATCH, args.smoke))
        jobs = [{"key": "", "kind": "", "ok": False, "seconds": None, "cpu_s": None}] * count
        return {
            "wall_s": remaining,
            "cpu_raw_s": remaining,
            "cpu_s": remaining,
            "meter_samples": 0,
            "capped": True,
            "peak_rss_mb": 0.0,
            "jobs": jobs,
            "env": {},
        }


def class_seconds(report: dict, kind: str) -> float:
    """CPU seconds of one class of jobs in a pass."""
    return sum(job["cpu_s"] or 0.0 for job in report["jobs"] if job["kind"] == kind)


def percentiles_ms(report: dict) -> tuple[float, float, int]:
    samples = [job["seconds"] * 1000 for job in report["jobs"] if job["kind"] == "query" and job["seconds"]]
    if len(samples) < 2:
        return 0.0, 0.0, len(samples)
    cuts = statistics.quantiles(samples, n=20)
    return cuts[9], cuts[18], len(samples)


def details(passes: list[dict], setup: list[float]) -> dict:
    """Every end-to-end figure, including the job-class timings not every workload has."""
    med = statistics.median
    out = {
        "passes": len(passes),
        "setup_runs_s": setup,
        "wall_s": med(p["wall_s"] for p in passes),
        "cpu_raw_s": med(p["cpu_raw_s"] for p in passes),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "meter_samples": sum(p["meter_samples"] for p in passes),
        "delta_set_s": med(class_seconds(p, "delta") for p in passes),
        "presentation_s": med(class_seconds(p, "presentation") for p in passes),
        "catenary_s": med(class_seconds(p, "catenary") for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    q = [percentiles_ms(p) for p in passes]
    if q[0][2]:
        out["query_ms.p50"] = med(x[0] for x in q)
        out["query_ms.p95"] = med(x[1] for x in q)
        out["query_samples"] = q[0][2]
    if setup:
        out["setup_s"] = med(setup)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest instance of the workload only")
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "sgfact" / "__init__.py").is_file():
        print("bench: run from the root of an sgfact checkout (no src/sgfact here)", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_CAP_S
    try:
        setup: list[float] = []
        if args.trace:
            passes = [run_pass(args, 0, deadline)]
            if not passes[0]["capped"]:
                passes.append(run_pass(args, 1, deadline))
        else:
            # set-up is measured before every pass and then up to SETUP_RUNS
            # times, so that its median spans the run rather than one moment
            passes = []
            began = time.monotonic()
            while True:
                setup.append(probe_setup(args, deadline))
                pass_start = time.monotonic()
                passes.append(run_pass(args, 0, deadline))
                now = time.monotonic()
                if passes[-1]["capped"] or now - began + (now - pass_start) > args.seconds:
                    break
            while len(setup) < SETUP_RUNS:
                setup.append(probe_setup(args, deadline))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    if args.trace and len(passes) == 2:
        plain, traced = passes
        for a, b in zip(plain["jobs"], traced["jobs"]):
            if a.get("digest") != b.get("digest"):
                b["ok"] = False  # tracing must not change a single byte of output
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(not job["ok"] for p in passes for job in p["jobs"])
    info = details(passes, setup)
    info["failed_frac"] = failed / attempted

    if args.trace:
        layers = passes[-1].get("layers", {}) if len(passes) == 2 else {}
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
        if len(passes) == 2:
            metrics["bench.trace_overhead"] = {
                "value": passes[1]["cpu_s"] / passes[0]["cpu_s"],
                "unit": "ratio",
            }
            info["untraced_functions"] = passes[1].get("untraced", [])
    else:
        metrics = {
            "setup_s": {"value": info["setup_s"], "unit": "s"},
            "cpu_s": {"value": info["cpu_s"], "unit": "s"},
            "peak_rss_mb": {"value": info["peak_rss_mb"], "unit": "MB"},
        }
    env = next((p["env"] for p in passes if p["env"]), {})
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env, "details": info}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
