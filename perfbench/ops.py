"""Benchmark workloads, the ops they run, and the referees that check them.

Every workload runs rounds of the same six op kinds, back to back in
one process:

* ``build``   — a cold three-phase suite build, exactly what
  ``repro run`` does: a fresh ``ExperimentContext`` (synthesis and
  stream collection run again), then ``VegaWorkflow.run`` into an
  empty cache directory;
* ``resume``  — what ``repro run --resume`` does against that cache:
  a fresh context, stream collection, three checkpoint loads;
* ``onset``   — exact per-device onset analysis (``profiled_fleet``);
* ``campaign``— ``CampaignEngine.run`` over a sampled fleet (packed,
  one worker, as the CLI runs it);
* ``serve``   — the single-process detection service
  (``ScheduleSession.run``, thompson policy, one closed-loop client
  per device);
* ``sharded`` — the same service over two shard processes
  (``DistributedSession.run(mode="process")``).

Workloads differ in the unit and worker count of the suite build and in
the fleet sizes and seeds, so a different layer dominates each one.
The fleet ops always run on the ALU context built during set-up.

Each op checks its output.  A raised exception, a referee mismatch or a
drifting exact count marks the op failed; the benchmark never stops on
a failed op.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.campaign import CampaignEngine
from repro.campaign.fleet import fleet_digest
from repro.core import telemetry
from repro.core.config import (
    AgingAnalysisConfig,
    CampaignConfig,
    ErrorLiftingConfig,
    SchedulerConfig,
    SurrogateConfig,
    VegaConfig,
)
from repro.core.experiments import ExperimentContext
from repro.core.workflow import VegaWorkflow
from repro.netlist.cells import VEGA28
from repro.scheduler import DistributedSession, ScheduleSession
from repro.surrogate import triage
from speed import SpeedClock, Timing

#: Fleet-median violation onset for every fleet op.  Pinned so the
#: engine skips its lifetime sweep (as ``--onset-years 6`` does).
BASE_ONSET_YEARS = 6.0
#: Path cap per endpoint, as ``repro run`` defaults it.
MAX_PATHS = 50
#: Fleet seed of every campaign op (the CLI default).  Campaign work per
#: device varies with the draw far more than onset or service work: at
#: 512 devices one draw needs 27 packed golden traces and another 110,
#: which alone spread campaign_devices_per_s past its bound across
#: seeds.  Onset and service fleets still follow ``--seed``.
CAMPAIGN_SEED = 2024
#: Shards of the distributed op.
SHARDS = 2
#: Set-up repetitions whose median enters ``setup_s``.
SETUP_REPS = 3
#: Set-up repeats the campaign until one is no faster than this share
#: of the one before, at most ``CAMPAIGN_WARMUPS`` times.
CAMPAIGN_SETTLED = 0.95
CAMPAIGN_WARMUPS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    #: Unit and worker count of the suite build.
    unit: str
    workers: int
    onset_devices: int
    campaign_devices: int
    serve_devices: int
    #: Fleet seed of every fleet op; ``None`` draws them from ``--seed``.
    fleet_seed: Optional[int]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fpu-suite", "fpu", 2, 12, 256, 32, fleet_seed=2024),
        Workload("alu-fleet", "alu", 1, 24, 512, 256, fleet_seed=None),
    )
}


def tiny(workload: Workload) -> Workload:
    """The same workload at the smallest fleet sizes (self-tests)."""
    return dataclasses.replace(
        workload, onset_devices=2, campaign_devices=16, serve_devices=8
    )


def fleet_seed(workload: Workload, seed: int, fleet_pass: int) -> int:
    """Fleet seed of the run's ``fleet_pass``-th pass over the fleet ops.

    A seeded workload alternates between two fleets drawn from
    ``--seed``: a run averages over both, and every pass after the
    second repeats one exactly, so the digest and count referees fire.
    """
    if workload.fleet_seed is not None:
        return workload.fleet_seed
    return 2 * seed + fleet_pass % 2


@dataclass(frozen=True)
class SuitePin:
    violations: int
    pairs: int
    tests: int
    cycles: int
    digest: str


#: Referee for the suite a cold build must produce (50-path cap).
#: ``digest`` is the SHA-256 of ``AgingLibrary.suite_source()``.
PINNED_SUITES: Dict[str, SuitePin] = {
    "alu": SuitePin(
        10, 3, 4, 134,
        "2d84181d4eb74635699617f14e04441cf2dd477604e1cb381fd2e5055b543444",
    ),
    "fpu": SuitePin(
        750, 30, 30, 1531,
        "384671342ecef789c3e31d82f8dd18a863a3971c4af826569279f97696a102b1",
    ),
}

#: Program counters that must repeat exactly for the same inputs.
EXACT_COUNTERS = {
    "build": ("sim.cycles", "sat.solves", "sat.conflicts",
              "sat.propagations", "bmc.queries", "bmc.covered",
              "sta.paths_timed", "lifting.pairs"),
    "resume": (),
    "onset": ("surrogate.oracle.probes", "sta.paths_timed"),
    "campaign": ("sim.cycles", "campaign.outcome_memo_hits",
                 "campaign.packed_planes", "campaign.packed_replays",
                 "campaign.stalls"),
    "serve": ("scheduler.dispatches", "scheduler.results"),
    "sharded": (),
}
#: Counts the tracer adds, checked among traced ops only.
TRACED_COUNTS = ("workloads.instructions", "aging.delay_models")


class RefereeError(Exception):
    """An op's output disagreed with its referee."""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class OpResult:
    kind: str
    wall_s: float
    #: ``wall_s`` at reference host speed (see ``speed.py``).
    scaled_s: float
    ok: bool
    error: str = ""
    #: Throughput numerator (devices or events); 0 for suite ops.
    work: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    events: List[dict] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass
class FleetContext:
    """The ALU pipeline state every fleet op runs against."""

    netlist: object
    library: object
    models: list
    profile: object


def prepare_fleet() -> FleetContext:
    """Netlist, streams, SP profile, STA, lifted suite, model catalogue."""
    unit = ExperimentContext().alu
    library = unit.suite(False)
    return FleetContext(
        unit.netlist, library, unit.failure_models(), unit.sp_profile
    )


def suite_config(workers: int, cache_dir: str) -> VegaConfig:
    """The configuration ``repro run --workers W`` builds."""
    return VegaConfig(
        aging=AgingAnalysisConfig(
            clock_margin=0.03,
            max_paths_per_endpoint=MAX_PATHS,
            profile_workers=workers,
        ),
        lifting=ErrorLiftingConfig(workers=workers),
        cache_dir=cache_dir,
    )


def run_suite(unit: str, workers: int, cache_dir: str, resume: bool):
    ctx = ExperimentContext()
    experiment = ctx.unit(unit)
    return VegaWorkflow(suite_config(workers, cache_dir)).run(
        experiment.netlist,
        ctx.stream(unit),
        experiment.mapper,
        gated_instances=experiment.gated_instances(),
        resume=resume,
    )


def suite_facts(report) -> SuitePin:
    return SuitePin(
        violations=len(report.sta_report.report.violations),
        pairs=len(report.lifting_report.pairs),
        tests=len(report.lifting_report.test_cases),
        cycles=report.test_suite.suite_cycles(),
        digest=sha256(report.test_suite.suite_source()),
    )


def _session(fleet: FleetContext, devices: int, seed: int):
    return ScheduleSession(
        fleet.netlist,
        "alu",
        fleet.library,
        fleet.models,
        config=CampaignConfig(
            devices=devices, seed=seed, base_onset_years=BASE_ONSET_YEARS
        ),
        scheduler=SchedulerConfig(
            policy="thompson", checkpoint_every=1_000_000_000
        ),
    )


class Bench:
    """Runs one workload's ops and keeps the referees' references."""

    def __init__(self, workload: Workload, seed: int, workdir: str,
                 clock: Optional[SpeedClock] = None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.clock = clock or SpeedClock()
        self.fleet: Optional[FleetContext] = None
        self.pins = dict(PINNED_SUITES)
        #: (kind, key) -> output digest of the first op with that key;
        #: a fleet op's key is (fleet seed, fleet size).
        self.digests: Dict[tuple, str] = {}
        #: (kind, key) -> exact program counts of the first such op, and
        #: (kind, key, "traced") -> its tracer counts.
        self.counts: Dict[tuple, Dict[str, float]] = {}
        self.tracer = None
        self._builds = 0
        self._cache_dir: Optional[str] = None

    # -- set-up ----------------------------------------------------------
    def setup(self, full: bool = True) -> Timing:
        """The median fleet preparation plus the warm-up.

        The warm-up is one full-size pass over the fleet ops, which also
        sets the referees' references for the first round's fleet, then
        campaigns until one is no faster than the one before, so that
        the measured campaigns start from a settled process.  With
        ``full`` false (a traced run, which reports no ``setup_s``) the
        preparation runs once and only the pass warms up.
        """
        preps = []
        for _ in range(SETUP_REPS if full else 1):
            gc.collect()
            with self.clock.timed() as timing:
                self.fleet = prepare_fleet()
            preps.append(timing)
        preps.sort(key=lambda t: t.scaled)
        median = preps[len(preps) // 2]
        w = self.workload
        fleet_ops = self.fleet_ops(w, fleet_seed(w, self.seed, 0))
        results = [op() for op in fleet_ops]
        previous = results[1]
        for _ in range(CAMPAIGN_WARMUPS if full else 0):
            results.append(fleet_ops[1]())
            if results[-1].scaled_s > CAMPAIGN_SETTLED * previous.scaled_s:
                break
            previous = results[-1]
        for result in results:
            if not result.ok:
                raise RuntimeError(f"warm-up {result.kind}: {result.error}")
        return Timing(
            median.wall + sum(r.wall_s for r in results),
            median.scaled + sum(r.scaled_s for r in results),
        )

    # -- ops -------------------------------------------------------------
    def _timed(self, kind: str, body, check, key=None,
               cpus: int = 1) -> OpResult:
        """Run ``body`` on ``cpus`` CPUs under fresh telemetry.

        The output check runs outside the timing.
        """
        gc.collect()
        tele = telemetry.Telemetry(run_id=f"perfbench-{kind}")
        tracer = self.tracer
        before = dict(tracer.counts) if tracer is not None else {}
        if tracer is not None:
            tracer.op = kind
        error = None
        with self.clock.timed(cpus) as timing:
            try:
                with telemetry.use(tele):
                    if tracer is not None:
                        with tracer.span(f"op.{kind}"):
                            output = body()
                    else:
                        output = body()
            except Exception as exc:  # a failed op counts; the run goes on
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            return OpResult(kind, timing.wall, timing.scaled, False, error)
        result = OpResult(kind, timing.wall, timing.scaled, True,
                          counters=dict(tele.counters),
                          events=[r for r in tele.records
                                  if r.get("type") == "event"])
        try:
            check(output, result)
            self._check_counts(kind, key, result, tracer, before)
        except RefereeError as exc:
            result.ok = False
            result.error = str(exc)
        return result

    def _check_counts(self, kind, key, result, tracer, before) -> None:
        self._compare_counts((kind, key), {
            name: result.counters.get(name, 0)
            for name in EXACT_COUNTERS[kind]
        })
        if tracer is not None:
            self._compare_counts((kind, key, "traced"), {
                name: tracer.counts.get(name, 0) - before.get(name, 0)
                for name in TRACED_COUNTS
            })

    def _compare_counts(self, ref_key, counts) -> None:
        reference = self.counts.setdefault(ref_key, counts)
        drift = {
            name: (reference[name], value)
            for name, value in counts.items()
            if reference[name] != value
        }
        if drift:
            raise RefereeError(f"{ref_key[0]}: exact counts drifted {drift}")

    def _check_digest(self, kind: str, key, digest: str) -> None:
        reference = self.digests.setdefault((kind, key), digest)
        if reference != digest:
            raise RefereeError(
                f"{kind}: output digest {digest[:12]} != reference "
                f"{reference[:12]} for (seed, size) {key}"
            )

    def _check_suite(self, report, unit: str) -> None:
        facts = suite_facts(report)
        pin = self.pins[unit]
        if facts != pin:
            raise RefereeError(f"{unit} suite {facts} != pinned {pin}")
        return facts

    def build(self) -> OpResult:
        w = self.workload
        self._builds += 1
        cache_dir = os.path.join(self.workdir, f"cache{self._builds}")
        self._cache_dir = cache_dir

        def check(report, result):
            if report.resumed_phases:
                raise RefereeError(
                    f"cold build resumed {report.resumed_phases}"
                )
            result.stats = {"tests": self._check_suite(report, w.unit).tests}

        return self._timed(
            "build",
            lambda: run_suite(w.unit, w.workers, cache_dir, resume=False),
            check,
            key=w.unit,
            cpus=w.workers,
        )

    def resume(self) -> OpResult:
        w = self.workload
        cache_dir = self._cache_dir

        def check(report, result):
            if report.resumed_phases != ["phase1", "phase2", "phase3"]:
                raise RefereeError(
                    f"resume loaded only {report.resumed_phases}"
                )
            self._check_suite(report, w.unit)

        return self._timed(
            "resume",
            lambda: run_suite(w.unit, w.workers, cache_dir, resume=True),
            check,
            key=w.unit,
            cpus=w.workers,
        )

    def fleet_ops(self, w: Workload, seed: int):
        """The four fleet ops of one round, as zero-argument callables."""
        fleet = self.fleet

        def onset():
            config = CampaignConfig(
                devices=w.onset_devices,
                seed=seed,
                suites=("vega",),
                base_onset_years=BASE_ONSET_YEARS,
            )
            return triage.profiled_fleet(
                fleet.netlist, VEGA28, fleet.profile, fleet.models,
                config, SurrogateConfig(),
            )

        def check_onset(specs, result):
            if len(specs) != w.onset_devices:
                raise RefereeError(f"onset: {len(specs)} specs")
            if not all(math.isfinite(s.onset_years) and s.onset_years > 0
                       for s in specs):
                raise RefereeError("onset: non-positive onset")
            result.work = len(specs)
            self._check_digest(
                "onset", (seed, w.onset_devices),
                sha256(json.dumps(fleet_digest(specs))),
            )

        def campaign():
            config = CampaignConfig(
                devices=w.campaign_devices,
                seed=CAMPAIGN_SEED,
                base_onset_years=BASE_ONSET_YEARS,
            )
            return CampaignEngine(
                fleet.netlist, "alu", fleet.library, fleet.models,
                config=config, base_onset_years=BASE_ONSET_YEARS,
            ).run()

        def check_campaign(report, result):
            if report.devices != w.campaign_devices or len(
                report.device_rows
            ) != w.campaign_devices:
                raise RefereeError(f"campaign: {report.devices} devices")
            if report.false_positives:
                raise RefereeError(
                    f"campaign: {report.false_positives} false positives"
                )
            result.work = report.devices
            self._check_digest(
                "campaign", (CAMPAIGN_SEED, w.campaign_devices),
                sha256(report.to_json()),
            )

        def serve():
            return _session(fleet, w.serve_devices, seed).run()

        def check_serve(outcome, result):
            report = outcome.report
            if outcome.killed or report.devices != w.serve_devices:
                raise RefereeError(f"serve: {report.devices} devices")
            result.work = report.events
            result.stats = {"ticks": report.ticks, "events": report.events}
            self._check_digest(
                "serve", (seed, w.serve_devices),
                sha256(report.to_json() + outcome.log.to_jsonl()),
            )

        def sharded():
            session = _session(fleet, w.serve_devices, seed)
            return DistributedSession(session, shards=SHARDS).run(
                mode="process"
            )

        def check_sharded(outcome, result):
            # Only the program's own referee: exact shard merge equals
            # the fold of the concatenated event stream, no divergence.
            if outcome.report is None or outcome.killed_shards:
                raise RefereeError("sharded: no merged report")
            if outcome.fold_digest is None or (
                outcome.fold_digest != outcome.merged_digest
            ):
                raise RefereeError("sharded: merge != fold referee")
            if any(a["kind"] == "belief-divergence"
                   for a in outcome.alerts):
                raise RefereeError("sharded: belief-divergence alert")
            if outcome.report.devices != w.serve_devices:
                raise RefereeError(
                    f"sharded: {outcome.report.devices} devices"
                )
            result.work = sum(s.events for s in outcome.shards if s)
            result.stats = dict(outcome.stats)

        return [
            lambda: self._timed("onset", onset, check_onset,
                                (seed, w.onset_devices)),
            lambda: self._timed("campaign", campaign, check_campaign,
                                (CAMPAIGN_SEED, w.campaign_devices)),
            lambda: self._timed("serve", serve, check_serve,
                                (seed, w.serve_devices)),
            lambda: self._timed("sharded", sharded, check_sharded,
                                (seed, w.serve_devices), cpus=SHARDS),
        ]

    def round_ops(self, fleet_pass: int):
        """A cold build, a resume of it, then one pass over the fleet ops,
        as zero-argument callables run in order."""
        w = self.workload
        seed = fleet_seed(w, self.seed, fleet_pass)
        return [self.build, self.resume] + self.fleet_ops(w, seed)
