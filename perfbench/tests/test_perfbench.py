"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python -m pytest perfbench/tests -q

They drive every workload at its tiny size, check that a tampered
referee or a drifting count fails the op, that traced ops with the
same seed count the same work, that an op's timing waits for busy
child processes, and that paired ops alternate which twin runs first.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import ops  # noqa: E402
import run  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Scratch space inside the checkout (the benchmark's own work root).
WORK = ROOT / ".perfbench-work"


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_prints_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 6
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    for reported in result["metrics"].values():
        assert isinstance(reported["value"], (int, float))
    if trace:
        assert "unattributed" in out.stdout


def test_exits_nonzero_without_program_sources():
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _run("alu-fleet", 0, cwd=tmp)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.fixture(scope="module")
def bench():
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    b = ops.Bench(ops.tiny(ops.WORKLOADS["alu-fleet"]), 5, workdir)
    b.setup()
    yield b
    shutil.rmtree(workdir, ignore_errors=True)


def test_tampered_suite_digest_fails_the_op(bench):
    pin = bench.pins["alu"]
    bench.pins["alu"] = dataclasses.replace(pin, digest="0" * 64)
    try:
        result = bench.build()
    finally:
        bench.pins["alu"] = pin
    assert not result.ok and "pinned" in result.error
    assert bench.build().ok


def test_tampered_fleet_digest_fails_the_op(bench):
    onset = bench.fleet_ops(bench.workload, bench.seed)[0]
    assert onset().ok
    key = ("onset", (bench.seed, bench.workload.onset_devices))
    reference = bench.digests[key]
    bench.digests[key] = "f" * 64
    try:
        result = onset()
    finally:
        bench.digests[key] = reference
    assert not result.ok and "digest" in result.error


def test_count_drift_fails_the_op(bench):
    campaign = bench.fleet_ops(bench.workload, bench.seed)[1]
    assert campaign().ok
    key = ("campaign", (ops.CAMPAIGN_SEED, bench.workload.campaign_devices))
    reference = bench.counts[key]
    bench.counts[key] = dict(reference, **{"campaign.packed_planes": -1})
    try:
        result = campaign()
    finally:
        bench.counts[key] = reference
    assert not result.ok and "drifted" in result.error


def test_traced_ops_with_same_seed_count_the_same(bench):
    per_op = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        bench.tracer = tracer
        try:
            results = [bench.build(), bench.resume()]
            results += [op() for op in bench.fleet_ops(bench.workload, 11)]
        finally:
            tracer.uninstall()
            bench.tracer = None
        assert all(r.ok for r in results), [r.error for r in results]
        assert tracer.counts["workloads.instructions"] > 0
        per_op.append(
            ([r.counters for r in results], dict(tracer.counts))
        )
    exact = [name for names in ops.EXACT_COUNTERS.values() for name in names]
    for first, second in zip(per_op[0][0], per_op[1][0]):
        assert {k: first.get(k) for k in exact} == {
            k: second.get(k) for k in exact
        }
    assert per_op[0][1] == per_op[1][1]


def test_timing_waits_for_busy_children():
    clock = SpeedClock()
    with clock.timed() as timing:
        child = subprocess.Popen([
            sys.executable, "-c",
            "import time\nt = time.time()\nwhile time.time() - t < 0.5: pass",
        ])
    child.wait()
    assert timing.wall >= 0.5


def test_paired_ops_alternate_which_twin_runs_first():
    class FakeTracer:
        def install(self):
            pass

        def uninstall(self):
            pass

    class FakeBench:
        tracer = None

    bench, seen = FakeBench(), []

    def op():
        seen.append(bench.tracer is not None)
        return bench.tracer is not None

    pairs = run.run_paired(bench, [op, op], FakeTracer(), traced_first=0)
    assert pairs == [(False, True), (False, True)]
    assert seen == [False, True, True, False]
    run.run_paired(bench, [op], FakeTracer(), traced_first=1)
    assert seen[-2:] == [True, False]


def test_tracer_restores_the_program():
    from repro.formal.sat import SatSolver

    original = SatSolver.__dict__["solve"]
    tracer = Tracer()
    tracer.install()
    assert SatSolver.__dict__["solve"] is not original
    tracer.uninstall()
    assert SatSolver.__dict__["solve"] is original


if __name__ == "__main__":
    sys.exit(pytest.main([os.path.dirname(__file__), "-q"]))
