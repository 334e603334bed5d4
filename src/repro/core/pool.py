"""One fork pool for every embarrassingly parallel batch in the workflow.

Error Lifting (one BMC per endpoint pair), SP profiling (one packed
simulation per chunk), fleet campaigns (one device shard per task) and
surrogate labeling (one oracle row per task) all fan out through
:func:`ordered_map`.  ``fn`` and ``state`` reach each worker once
through the fork initializer (inherited copy-on-write, never pickled);
results and per-task telemetry counter deltas come back in submission
order, so a forked run is bit-identical to the serial one and merged
counters equal the serial totals.  The serial path is the same loop
without a pool: it runs for one effective worker, without ``fork``,
when the pool cannot start, and inside a pool worker (pools never
nest).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

from . import telemetry

#: ``(fn, state)`` of the enclosing pool; set only inside pool workers.
_WORKER: Optional[Tuple[Callable[[Any, Any], Any], Any]] = None


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def resolve_workers(workers: int, tasks: int) -> int:
    """Effective pool width for ``tasks`` items.

    ``workers <= 0`` means one worker per CPU this process may run on:
    the affinity mask where the platform has one (a container or
    ``taskset`` restriction), else ``os.cpu_count()``.  The width never
    exceeds the task count and is at least 1.
    """
    workers = int(workers)
    if workers <= 0:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # not on every platform
            workers = os.cpu_count() or 1
    return max(1, min(workers, tasks))


def _init_worker(fn, state, name: str) -> None:
    global _WORKER
    _WORKER = (fn, state)
    telemetry.install(telemetry.Telemetry(run_id=f"{name}-worker"))


def _run_task(item):
    fn, state = _WORKER
    tele = telemetry.active()
    base = tele.snapshot()
    t0 = time.perf_counter()
    result = fn(state, item)
    wall = time.perf_counter() - t0
    return result, wall, tele.counter_deltas(base)


def ordered_map(
    fn: Callable[[Any, Any], Any],
    items: Iterable[Any],
    workers: int = 1,
    state: Any = None,
    name: str = "pool",
    **event_attrs: object,
) -> Iterator[Tuple[Any, float]]:
    """Yield ``(fn(state, item), wall_s)`` for every item, in order.

    ``wall_s`` is the time ``fn`` took, measured where it ran.
    ``event_attrs`` are added to the ``<name>.pool`` event.
    """
    items = list(items)
    width = resolve_workers(workers, len(items))
    pool = None
    if width > 1 and _WORKER is None and fork_available():
        t_pool = time.perf_counter()
        try:
            pool = multiprocessing.get_context("fork").Pool(
                processes=width,
                initializer=_init_worker,
                initargs=(fn, state, name),
            )
        except (OSError, ValueError):  # pool could not start: degrade
            pass
    if pool is None:
        for item in items:
            t0 = time.perf_counter()
            result = fn(state, item)
            yield result, time.perf_counter() - t0
        return

    tele = telemetry.active()
    busy = 0.0
    with pool:
        for result, wall, deltas in pool.imap(_run_task, items):
            if tele is not None:
                tele.merge_counters(deltas)
            busy += wall
            yield result, wall
    elapsed = time.perf_counter() - t_pool
    if elapsed > 0:
        telemetry.event(
            f"{name}.pool",
            workers=width,
            **event_attrs,
            elapsed_s=round(elapsed, 6),
            busy_s=round(busy, 6),
            utilization=round(busy / (elapsed * width), 4),
        )
