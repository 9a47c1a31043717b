"""The benchmark's own tests: correctness gate, trace determinism, smoke slice.

Run from the root of the repository (about two minutes):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark copy found under cwd, as the contract's command does."""
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> dict:
    args = ("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    return result(bench(*args, cwd=cwd))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_slice_is_correct_and_quick(workload):
    start = time.monotonic()
    out = smoke(workload, 0)
    assert time.monotonic() - start < 60
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    # correct also means the traced pass printed the same bytes as the plain one
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}

    def counts(out):
        return {
            name: m["value"]
            for name, m in out["metrics"].items()
            if not name.endswith("self_s") and name != "bench.trace_overhead"
        }

    assert counts(first) == counts(second)
    assert first["metrics"]["cli.run.calls"]["value"] == first["attempted"] // 2


def _copy_bench(tmp_path: Path) -> Path:
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "bench"


def test_gate_fails_when_one_expected_output_is_altered(tmp_path):
    copy = _copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = copy / "expected.json"
    table = json.loads(path.read_text())
    key = "betti --gens 6 9 20"
    table["jobs"][key] = "0" * len(table["jobs"][key])
    path.write_text(json.dumps(table))
    out = smoke("invariants", 0, cwd=tmp_path)
    assert not out["correct"]
    assert out["failed"] == out["attempted"] // len(workloads.jobs_for("invariants", 3, "", smoke=True))


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_bench(tmp_path)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "full-tame", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wall_cap_fails_the_unfinished_jobs(tmp_path):
    env_path = str(ROOT / "src")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "invariants", "--seed", "1",
         "--cap", "0.5", "--scratch", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60, env={"PYTHONPATH": env_path},
    )  # fmt: skip
    assert proc.returncode == 0 and time.monotonic() - start < 30
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["capped"]
    unfinished = [job for job in report["jobs"] if job["seconds"] is None]
    assert unfinished and not any(job["ok"] for job in unfinished)


def test_tracer_replaces_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import sgfact
    from sgfact import catenary, cli, core, presentation

    original = core.factorizations
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        assert presentation.factorizations is core.factorizations is sgfact.factorizations
        assert core.factorizations is not original
        assert catenary.graver_basis is sgfact.hilbert.graver_basis
        tracer.job = 0
        assert cli.run(["length-set", "--gens", "3 5", "--element", "15"]) == (0, "3 5\n")
    finally:
        tracer.uninstall()
    assert presentation.factorizations is original and core.factorizations is original
    metrics = tracer.metrics()
    assert metrics["cli.run.calls"][0] == 1
    assert metrics["core.factorizations.calls"][0] == 1
    assert all(span[2] == 0 for span in tracer.spans)


def test_meter_counts_cpu_time_without_its_own_samples():
    meter = speed.Meter()
    meter.start()
    start = time.thread_time()
    try:
        while time.thread_time() - start < 0.3:
            sum(i * i for i in range(1000))
        raw, scaled = meter.read()
        spent = time.thread_time() - start
    finally:
        meter.stop()
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert meter.samples > speed.WINDOW + 5
    # the samples' own time is left out, and what is left is the busy loop
    assert 0.5 * spent < raw < spent
    assert scaled > 0 and speed.scale(1.0) > 0


def test_seed_fixes_the_inputs():
    a = workloads.jobs_for("element-queries", 5, "eq")
    assert a == workloads.jobs_for("element-queries", 5, "eq")
    assert a != workloads.jobs_for("element-queries", 6, "eq")
    expected = json.loads((BENCH / "expected.json").read_text())
    for seed in range(20):
        for job in workloads.jobs_for("element-queries", seed, "eq"):
            prefix, sep, element = job.key.partition(" --element ")
            assert job.key in expected["jobs"] or element in expected["elements"][prefix]


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
