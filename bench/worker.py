"""One pass of a workload in a fresh interpreter: run the jobs, time and check them.

Started by ``run.py`` with ``sgfact`` importable from the checkout's ``src/``.
Prints one JSON object on its last stdout line: the pass's wall time, its
CPU time raw and at the nominal speed of ``speed.py``, each job's kind,
wall time, CPU time at the nominal speed, outcome and output digest, the
process's peak memory and, with ``--trace 1``, the per-layer metrics.  A
job counts as failed when it exits non-zero, when its output differs from
``expected.json``, when a cross-check disagrees, or when the wall cap
(``--cap`` seconds) expires before it finishes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent


class WallCap(BaseException):
    """Raised inside the running job when the run's wall cap expires."""


def _expire(signum, frame):
    raise WallCap


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_expected() -> dict[str, str]:
    """Job key -> digest of its expected stdout.

    Element queries are stored grouped by the command line before
    ``--element``, which keeps the table small.
    """
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        data = json.load(fh)
    table = dict(data["jobs"])
    for prefix, by_element in data["elements"].items():
        for element, value in by_element.items():
            table[f"{prefix} --element {element}"] = value
    return table


def import_sgfact():
    """Import the CLI from ``./src`` and refuse any other copy of the package."""
    import sgfact
    from sgfact import cli

    src = (Path.cwd() / "src").resolve()
    if Path(sgfact.__file__).resolve().parent.parent != src:
        raise SystemExit(f"sgfact was imported from {sgfact.__file__}, not from {src}")
    return cli


def run_jobs(cli, jobs, meter, tracer=None):
    """Run the jobs in order; None once capped, else per job a tuple of
    (exit code, stdout, wall s, raw CPU s, CPU s at the nominal speed)."""
    results: list[tuple[int, str, float, float, float] | None] = [None] * len(jobs)
    try:
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            start, (raw, scaled) = time.perf_counter(), meter.read()
            code, out = cli.run(list(job.argv))
            wall = time.perf_counter() - start
            raw_end, scaled_end = meter.read()
            results[index] = (code, out, wall, raw_end - raw, scaled_end - scaled)
    except WallCap:
        pass
    return results


def cross_check(cli, jobs, results) -> set[int]:
    """Indices of jobs whose output disagrees with a second route to the same answer.

    The two delta-set routes must agree on every semigroup, and every dynamic
    catenary degree must equal the naive one (run here, untimed).
    """
    bad: set[int] = set()
    outputs = {job.key: (i, r[1]) for i, (job, r) in enumerate(zip(jobs, results)) if r}
    for gens in workloads.INVARIANT_SEMIGROUPS:
        grobner = outputs.get(f"delta-set --gens {gens} --method grobner")
        hilbert = outputs.get(f"delta-set --gens {gens} --method hilbert")
        if grobner and hilbert and grobner[1] != hilbert[1]:
            bad.update((grobner[0], hilbert[0]))
    for index, (job, result) in enumerate(zip(jobs, results)):
        if result and job.argv[0] == "catenary":
            try:
                code, out = cli.run([*job.argv, "--method", "naive"])
            except WallCap:
                code, out = -1, ""
            if code != 0 or out != result[1]:
                bad.add(index)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cap", type=float, required=True, help="wall cap in seconds")
    parser.add_argument("--scratch", required=True, help="directory for temporary files and spans")
    parser.add_argument("--smoke", action="store_true", help="smallest instance only")
    args = parser.parse_args(argv)

    expected = load_expected()
    cli = import_sgfact()
    os.makedirs(args.scratch, exist_ok=True)
    eq_dir = tempfile.mkdtemp(dir=args.scratch)
    workloads.write_equations(eq_dir)
    tracer = None
    meter = speed.Meter()
    signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, args.cap)
    try:
        jobs = workloads.jobs_for(args.workload, args.seed, eq_dir, args.smoke)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        meter.start()
        results = run_jobs(cli, jobs, meter, tracer)
        meter.stop()
        if tracer is not None:
            tracer.uninstall()
        bad = cross_check(cli, jobs, results)
    finally:
        meter.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(eq_dir, ignore_errors=True)

    report = {
        "wall_s": sum(r[2] for r in results if r is not None),
        "cpu_raw_s": sum(r[3] for r in results if r is not None),
        "cpu_s": sum(r[4] for r in results if r is not None),
        "meter_samples": meter.samples,
        "capped": any(r is None for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": [],
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
        },
    }
    for index, (job, result) in enumerate(zip(jobs, results)):
        if result is None:
            report["jobs"].append(
                {"key": job.key, "kind": job.kind, "ok": False, "seconds": None, "cpu_s": None}
            )
            continue
        code, out, seconds, _, cpu = result
        ok = code == 0 and expected.get(job.key) == digest(out) and index not in bad
        report["jobs"].append(
            {
                "key": job.key,
                "kind": job.kind,
                "ok": ok,
                "seconds": seconds,
                "cpu_s": cpu,
                "digest": digest(out),
            }
        )
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["untraced"] = tracer.missing
        tracer.write(os.path.join(args.scratch, f"spans-{args.workload}-{args.seed}.json"))
    print(json.dumps(report, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
