"""Host-speed probe that turns wall times into reference-speed seconds.

The benchmark host shares its cores with other tenants, and its speed
drifts by tens of percent over seconds to minutes.  Medians within a run
cannot remove a drift that lasts longer than the run, so every timed
interval is bracketed by a probe — a fixed pure-Python loop that
touches no program code — and scaled by how fast the probe ran around
it::

    scaled = wall * PROBE_REFERENCE_S / mean(probe before, probe after)

A program change cannot move the probe, so scaled times compare across
commits exactly as wall times do.  Raw wall times are printed next to
the scaled ones.

Each interval runs on as many CPUs as the op has workers, and the probe
before it on the first of them: a one-worker op is pinned to one CPU.
Its threads hand control to each other (the campaign's lockstep
co-simulation parks one thread per diverged plane), and on the shared
reference host a hand-off to a thread woken on the idle second vCPU
varied so much that the same 512-device campaign took 2.0 to 3.3 s
unpinned and 1.7 to 1.9 s pinned, alternating in one process.

The probe after an interval runs only once the interval's own work has
stopped: the timer keeps running until every child process and every
other thread of this process has exited or gone idle.  A program that
leaves workers busy after a call pays for it in its op time; it cannot
slow the probe instead and so shrink its scaled time.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict

#: Loop iterations of one probe timing, and timings per probe.
PROBE_ITERATIONS = 200_000
PROBE_REPS = 5
#: Probe time on the reference host (2-vCPU x86-64 VM, Python 3.11),
#: so scaled times read as seconds on that host at its typical speed.
PROBE_REFERENCE_S = 0.0135
#: A probe younger than this serves as the next interval's "before"
#: probe, so back-to-back intervals share one.
PROBE_REUSE_S = 1.0
#: The CPUs this process may use, in order; an op with ``n`` workers
#: runs on the first ``n``.
CPUS = sorted(os.sched_getaffinity(0))
#: Window in which a child process or thread must use no CPU to count
#: as idle, and the longest an interval waits for that.
IDLE_WINDOW_S = 0.05
SETTLE_LIMIT_S = 60.0


def probe() -> float:
    """Median of ``PROBE_REPS`` timings of the probe loop, in seconds."""
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_ITERATIONS):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu_ticks(stat_path: str):
    """user+system clock ticks of a task, or None if gone or a zombie."""
    try:
        with open(stat_path) as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    if fields[0] in ("Z", "X"):
        return None
    return int(fields[11]) + int(fields[12])


def _other_tasks() -> Dict[str, int]:
    """CPU ticks of every child process and every other thread."""
    me = os.getpid()
    ticks: Dict[str, int] = {}
    for tid in os.listdir("/proc/self/task"):
        task = f"/proc/self/task/{tid}"
        if int(tid) != me:
            value = _cpu_ticks(f"{task}/stat")
            if value is not None:
                ticks[f"thread {tid}"] = value
        try:
            with open(f"{task}/children") as fh:
                children = fh.read().split()
        except OSError:
            children = []
        for pid in children:
            value = _cpu_ticks(f"/proc/{pid}/stat")
            if value is not None:
                ticks[f"child {pid}"] = value
    return ticks


def settle() -> None:
    """Wait until every child process and other thread is gone or idle."""
    deadline = time.monotonic() + SETTLE_LIMIT_S
    before = _other_tasks()
    while before and time.monotonic() < deadline:
        time.sleep(IDLE_WINDOW_S)
        after = _other_tasks()
        if all(before.get(task) == value for task, value in after.items()):
            return
        before = after


@dataclass
class Timing:
    wall: float = 0.0
    scaled: float = 0.0


class SpeedClock:
    """Times intervals in wall and reference-speed seconds."""

    def __init__(self):
        self._last = None  # (perf_counter at probe end, probe seconds)

    def _before(self) -> float:
        if self._last is not None:
            taken, value = self._last
            if time.perf_counter() - taken < PROBE_REUSE_S:
                return value
        return probe()

    @contextmanager
    def timed(self, cpus: int = 1):
        """Time the body on ``cpus`` CPUs until its work has settled.

        The affinity holds for the body's threads and the processes it
        forks, and stays in place after the interval ends.
        """
        os.sched_setaffinity(0, CPUS[:cpus])
        timing = Timing()
        before = self._before()
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            settle()
            timing.wall = time.perf_counter() - t0
            after = probe()
            self._last = (time.perf_counter(), after)
            timing.scaled = timing.wall * PROBE_REFERENCE_S / (
                (before + after) / 2
            )
