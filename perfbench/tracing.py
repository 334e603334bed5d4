"""In-memory span tracer for the traced benchmark run.

The tracer wraps public calls into each layer of the program from the
benchmark's own files (nothing under ``src/`` is edited): it swaps a
timing wrapper onto the class or module attribute, records one span per
call, and restores the originals on :meth:`Tracer.uninstall`, so
untraced rounds in the same process run the unmodified code.

A span is ``(name, start, end, parent, op)``: ``parent`` indexes the
enclosing span and ``op`` is the id of the benchmark op that caused it.
The layer of a span is the first dotted component of its name.

Fork workers inherit the wrappers.  They record no span (their memory
never comes home); instead they add to the program's own telemetry
counters, which the lifting and profiling pools already ship back to
the parent with ``sat.*`` and ``bmc.*``: the call time of each wrapped
call as ``perfbench.<span name>``, and each layer's self time (call
time minus the wrapped calls inside it) as ``perfbench.self.<layer>``.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Layers in the order the per-layer table prints them.
LAYERS = (
    "rtl", "workloads", "sim", "aging", "sta", "lifting", "formal",
    "integration", "artifacts", "surrogate", "campaign", "scheduler",
    "distributed",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped calls while installed."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._patches: list = []
        self._pid = os.getpid()
        #: In a fork worker: time of wrapped calls inside each open call.
        self._worker_stack: List[float] = []

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def in_layer(self, layer: str) -> bool:
        return any(self.spans[i].layer == layer for i in self._stack)

    # -- patching --------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, after=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                from repro.core import telemetry

                stack = tracer._worker_stack
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = time.perf_counter() - t0
                    inner = stack.pop()
                    if stack:
                        stack[-1] += duration
                    telemetry.add(f"perfbench.{name}", duration)
                    telemetry.add(
                        f"perfbench.self.{name.split('.', 1)[0]}",
                        duration - inner,
                    )
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` (function, method, classmethod, property)."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            new = classmethod(self._wrap(name, original.__func__, after))
        elif isinstance(original, property):
            new = property(
                self._wrap(name, original.fget, after),
                original.fset,
                original.fdel,
                original.__doc__,
            )
        else:
            new = self._wrap(name, original, after)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    def observe(self, owner, attr: str, after) -> None:
        """Call ``after(tracer, result)`` on each call, without a span."""
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(tracer, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every public layer call the benchmark attributes."""
        from repro.aging.charlib import AgingTimingLibrary
        from repro.campaign.engine import CampaignEngine, DeviceRunner
        from repro.core.artifacts import ArtifactCache
        from repro.core.experiments import ExperimentContext, UnitExperiment
        from repro.cpu import mappers
        from repro.cpu.cpu import Cpu
        from repro.formal.bmc import BoundedModelChecker
        from repro.formal.sat import SatSolver
        from repro.integration.library_gen import AgingLibrary
        from repro.lifting import lifter
        from repro.scheduler.distributed import DistributedSession
        from repro.scheduler.policy import Policy
        from repro.scheduler.replay import FleetAdapter, ScheduleSession
        from repro.sim import parallel_profile
        from repro.sim.gatesim import GateSimulator
        from repro.sta.aging_sta import AgingAwareSta
        from repro.sta.timing import StaticTimingAnalyzer
        from repro.surrogate import triage

        def cache_load(tracer, result):
            tracer.count("artifacts.misses" if result is None
                         else "artifacts.hits")

        def cpu_run(tracer, result):
            if tracer.in_layer("workloads"):
                tracer.count("workloads.instructions", result.instructions)

        self.patch(UnitExperiment, "netlist", "rtl.synth")
        self.patch(ExperimentContext, "stream", "workloads.collect")
        self.observe(Cpu, "run", cpu_run)
        self.patch(parallel_profile, "profile_workload_streams",
                   "sim.profile")
        self.patch(GateSimulator, "run_planes", "sim.run_planes")
        self.patch(AgingTimingLibrary, "characterize", "aging.characterize")
        self.patch(AgingAwareSta, "aged_delay_model", "aging.delay_model",
                   lambda tracer, _: tracer.count("aging.delay_models"))
        self.patch(AgingAwareSta, "analyze", "sta.analyze")
        self.patch(StaticTimingAnalyzer, "check", "sta.check")
        self.patch(lifter.ErrorLifter, "lift", "lifting.lift")
        self.patch(lifter.ErrorLifter, "lift_pair", "lifting.pair")
        self.patch(lifter, "instrument_for_cover", "lifting.instrument")
        for mapper in (mappers.AluMapper, mappers.FpuMapper,
                       mappers.MduMapper):
            self.patch(mapper, "trace_to_test", "lifting.map")
        self.patch(BoundedModelChecker, "cover", "formal.bmc")
        self.patch(SatSolver, "solve", "formal.sat")
        self.patch(AgingLibrary, "from_lifting_report",
                   "integration.library")
        for attr in ("load_checkpoint", "load_profile", "load_delay_model"):
            self.patch(ArtifactCache, attr, "artifacts.load", cache_load)
        for attr in ("store_checkpoint", "store_profile",
                     "store_delay_model"):
            self.patch(ArtifactCache, attr, "artifacts.store")
        self.patch(triage, "profiled_fleet", "surrogate.onset")
        self.patch(CampaignEngine, "run", "campaign.run")
        self.patch(DeviceRunner, "prefilter", "campaign.prefilter")
        self.patch(DeviceRunner, "run_device", "campaign.device")
        self.patch(ScheduleSession, "run", "scheduler.serve")
        self.patch(Policy, "plan", "scheduler.plan")
        self.patch(FleetAdapter, "execute", "scheduler.arm_exec")
        self.patch(DistributedSession, "run", "distributed.run")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def _children(self) -> Dict[int, List[int]]:
        children: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                children.setdefault(span.parent, []).append(index)
        return children

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span time not covered by child spans."""
        children = self._children()
        out: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            covered = sum(
                self.spans[c].duration for c in children.get(index, ())
            )
            out[span.layer] = out.get(span.layer, 0.0) + (
                span.duration - covered
            )
        return out

    def call_time(self, name: str) -> float:
        """Summed time of the outermost ``name`` spans (no double count)."""
        total = 0.0
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            nested = False
            while parent is not None:
                if self.spans[parent].name == name:
                    nested = True
                    break
                parent = self.spans[parent].parent
            if not nested:
                total += span.duration
        return total

