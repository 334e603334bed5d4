"""The shared fork pool: ordering, counter merge, fallbacks, width.

`repro.core.pool.ordered_map` is the one fan-out behind lifting,
profiling, campaigns and surrogate labeling, so its contract is pinned
here directly rather than through each caller:

* results come back in submission order even when completion order is
  scrambled;
* worker counter deltas merge to exactly the serial totals;
* the serial path runs without fork, when the pool cannot start, and
  inside a pool worker;
* ``workers <= 0`` resolves to the CPUs the process may run on.
"""

import multiprocessing
import os
import random
import time

import pytest

from repro.core import pool, telemetry
from repro.core.pool import fork_available, ordered_map, resolve_workers

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs fork")


def _pid(_state, _item):
    return os.getpid()


def _count(state, item):
    telemetry.add("test.calls")
    telemetry.add("test.total", item * state)
    return item * state


def _pool_events(tele, name="test"):
    return [
        r for r in tele.records
        if r.get("type") == "event" and r["name"] == f"{name}.pool"
    ]


@needs_fork
def test_submission_order_survives_scrambled_completion():
    rng = random.Random(15)
    sleeps = [rng.uniform(0.0, 0.08) for _ in range(12)]
    # The seed makes task 1 finish well before task 0 on two workers.
    assert sleeps[0] - sleeps[1] > 0.03

    def nap(state, item):
        time.sleep(state[item])
        return item, time.monotonic()

    out = [r for r, _ in ordered_map(nap, range(12), 2, state=sleeps)]
    assert [item for item, _ in out] == list(range(12))
    finished = [end for _, end in out]
    assert finished != sorted(finished)


@needs_fork
def test_merged_counters_equal_serial_totals():
    counters = {}
    for workers in (1, 3):
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            results = [
                r for r, _ in ordered_map(
                    _count, range(20), workers, state=3, name="test"
                )
            ]
        assert results == [3 * i for i in range(20)]
        counters[workers] = dict(tele.counters)
        assert len(_pool_events(tele)) == (1 if workers > 1 else 0)
    assert counters[3] == counters[1] == {"test.calls": 20, "test.total": 570}


@needs_fork
def test_pool_event_attributes():
    tele = telemetry.Telemetry()
    with telemetry.use(tele):
        list(ordered_map(_pid, range(4), 2, name="test", tasks=4))
    (event,) = _pool_events(tele)
    assert event["attrs"]["workers"] == 2
    assert event["attrs"]["tasks"] == 4
    assert {"elapsed_s", "busy_s", "utilization"} <= set(event["attrs"])


def test_serial_fallback_without_fork(monkeypatch):
    monkeypatch.setattr(pool, "fork_available", lambda: False)
    pids = [r for r, _ in ordered_map(_pid, range(6), 4)]
    assert pids == [os.getpid()] * 6


def test_serial_fallback_when_pool_cannot_start(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise OSError("no processes for you")

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", refuse)
    tele = telemetry.Telemetry()
    with telemetry.use(tele):
        out = [r for r, _ in ordered_map(_count, range(5), 4, state=2)]
    assert out == [0, 2, 4, 6, 8]
    assert tele.counters == {"test.calls": 5, "test.total": 20}


@needs_fork
def test_nested_call_inside_a_worker_runs_serially():
    def outer(_state, item):
        inner = [r for r, _ in ordered_map(_pid, range(3), 3)]
        return os.getpid(), inner

    results = [r for r, _ in ordered_map(outer, range(4), 2)]
    for worker_pid, inner_pids in results:
        assert worker_pid != os.getpid()
        assert inner_pids == [worker_pid] * 3


def test_zero_workers_resolve_to_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    assert resolve_workers(0, 100) == 3
    assert resolve_workers(-1, 100) == 3
    assert resolve_workers(0, 2) == 2
    assert resolve_workers(5, 100) == 5
    assert resolve_workers(0, 0) == 1


def test_zero_workers_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert resolve_workers(0, 100) == 6


def test_zero_workers_on_one_allowed_cpu_run_serially(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    pids = [r for r, _ in ordered_map(_pid, range(4), 0)]
    assert pids == [os.getpid()] * 4
