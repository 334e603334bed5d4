"""Fleet campaign execution: shards, fork workers, resume.

The engine turns a sampled fleet into per-device detection results and
aggregates them into a :class:`~repro.campaign.report.CampaignReport`:

* **Per-suite work is hoisted out of the per-device loop.**  The vega
  and random suites assemble once (the :class:`AgingLibrary` program
  memo), the SiliFuzz corpus generates and assembles once, and failing
  netlists are instrumented once per distinct failure model — devices
  sharing a model also share the compiled gate simulator, so the
  per-device cost is pure simulation.  This is where the campaign's
  devices/sec headroom over the one-off ``experiments.py`` path comes
  from, independent of worker count.
* **Shards are the unit of parallelism and of resume.**  Devices are
  chunked into shards of ``CampaignConfig.shard_size``; shards fan out
  through the shared fork pool (:func:`repro.core.pool.ordered_map`:
  runner state is inherited at fork time, never pickled) and results
  re-assemble in shard order, so any worker count produces a
  byte-identical report.  Each completed shard publishes a pickled
  checkpoint through the artifact cache under a content-addressed key;
  a killed campaign restarted with ``resume=True`` loads completed
  shards and re-executes none of them.
* **Telemetry mirrors the lifting engine's contract.**  Workers ship
  counter deltas back with each shard; the parent folds them in shard
  order and emits the ``campaign.device`` event stream.  Each shard
  runs in a ``campaign.shard`` span with one nested span per device,
  recorded in the parent's trace when the shard runs there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..baselines.random_tests import random_suite
from ..baselines.silifuzz_lite import SiliFuzzLite
from ..core import telemetry
from ..core.artifacts import ArtifactCache
from ..core.config import CampaignConfig
from ..core.pool import ordered_map
from ..core.rng import stream_seed
from ..cpu.cosim import GateAluBackend, GateFpuBackend, GateMduBackend
from ..integration.library_gen import AgingLibrary
from ..lifting.instrument import make_failing_netlist
from ..lifting.models import CMode, FailureModel
from ..netlist.netlist import Netlist
from .fleet import DeviceSpec, fleet_digest, sample_fleet
from .report import CampaignReport

_BACKENDS = {
    "alu": GateAluBackend,
    "fpu": GateFpuBackend,
    "mdu": GateMduBackend,
}


def device_outcome_key(spec: DeviceSpec) -> tuple:
    """Identity of a device's detection outcomes.

    Outcomes are a pure function of the injected model; the backend
    seed only enters for ``CMode.RANDOM`` models, whose ``fm_c`` port
    the co-simulation RNG drives.  Devices sharing a key share one
    simulation — the fleet-level dedup that makes large campaigns
    cheap.  The online scheduler's client adapter memoizes per-arm
    outcomes under the same key.
    """
    if not spec.faulty:
        return ("healthy",)
    if spec.model.c_mode is CMode.RANDOM:
        return ("model", spec.model.label, spec.backend_seed)
    return ("model", spec.model.label)


@dataclass
class SuiteOutcome:
    """One suite's verdict on one device."""

    suite: str
    detected: bool
    stalled: bool
    cycles: int
    detected_by: Optional[str] = None

    def as_row(self) -> dict:
        return {
            "suite": self.suite,
            "detected": self.detected,
            "stalled": self.stalled,
            "cycles": self.cycles,
            "detected_by": self.detected_by,
        }


@dataclass
class DeviceResult:
    """All campaign outcomes for one device (wall times excluded:
    results must be identical for any worker count)."""

    index: int
    device_id: str
    corner: str
    onset_years: float
    faulty: bool
    model_label: Optional[str]
    c_mode: Optional[str]
    outcomes: List[SuiteOutcome] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return any(outcome.detected for outcome in self.outcomes)

    def as_row(self) -> dict:
        return {
            "device": self.device_id,
            "corner": self.corner,
            "onset_years": self.onset_years,
            "faulty": self.faulty,
            "model": self.model_label,
            "c_mode": self.c_mode,
            "outcomes": [outcome.as_row() for outcome in self.outcomes],
        }


class DeviceRunner:
    """Executes every configured suite against one device at a time.

    Built once per campaign; holds the assembled suite programs, the
    SiliFuzz corpus, and a failure-model → instrumented-netlist memo.
    With the ``fork`` start method the whole runner is inherited by
    worker processes at fork time, so the per-campaign state ships to
    each worker exactly once.
    """

    def __init__(
        self,
        netlist: Netlist,
        unit: str,
        config: CampaignConfig,
        library: AgingLibrary,
    ):
        if unit not in _BACKENDS:
            raise ValueError(f"unknown unit {unit!r}")
        self.netlist = netlist
        self.unit = unit
        self.config = config
        self.library = library
        self._failing: Dict[str, Netlist] = {}
        self._outcomes: Dict[tuple, List[SuiteOutcome]] = {}
        self._suite_outcomes: Dict[tuple, SuiteOutcome] = {}
        self.random_library: Optional[AgingLibrary] = None
        self.snapshots = []
        self.snapshot_programs = []
        self._fuzz: Optional[SiliFuzzLite] = None
        if "vega" in config.suites:
            library.program(config.strategy)  # warm the assembly memo
        if "random" in config.suites:
            size = config.random_suite_size or max(
                1, len(library.test_cases)
            )
            self.random_library = random_suite(
                unit,
                size,
                seed=stream_seed("campaign.random_suite", config.seed),
                name="campaign_random",
            )
            self.random_library.program(config.strategy)
        if "silifuzz" in config.suites:
            self._fuzz = SiliFuzzLite(
                unit,
                seed=stream_seed("campaign.silifuzz", config.seed),
            )
            self.snapshots = self._fuzz.corpus(config.silifuzz_snapshots)
            self.snapshot_programs = self._fuzz.assemble_corpus(
                self.snapshots
            )

    # -- per-device pieces ---------------------------------------------
    def failing_netlist(self, model: FailureModel) -> Netlist:
        """Instrumented netlist for ``model`` (memoized per label).

        Devices sharing a failure model share the netlist object, and
        therefore the gate simulator's compiled step function — each
        device still gets its own simulator *state*.
        """
        netlist = self._failing.get(model.label)
        if netlist is None:
            netlist = make_failing_netlist(self.netlist, model).netlist
            self._failing[model.label] = netlist
        return netlist

    def backends(self, spec: DeviceSpec) -> dict:
        """Backend kwargs for one device; healthy devices run golden."""
        if not spec.faulty:
            return {}
        backend = _BACKENDS[self.unit](
            self.failing_netlist(spec.model), seed=spec.backend_seed
        )
        return {self.unit: backend}

    def _outcome_key(self, spec: DeviceSpec) -> tuple:
        return device_outcome_key(spec)

    def suite_outcome(self, suite: str, spec: DeviceSpec) -> SuiteOutcome:
        """One suite's verdict on one device (memoized per outcome key).

        The scheduler's client adapter dispatches suites individually
        rather than running the whole configured list, so this memo is
        keyed per ``(outcome key, suite)`` — independent of
        :meth:`run_device`'s all-suites memo.  Returned outcomes are
        shared and must not be mutated.
        """
        key = (self._outcome_key(spec), suite)
        outcome = self._suite_outcomes.get(key)
        if outcome is None:
            outcome = self._run_suite(suite, spec)
            self._suite_outcomes[key] = outcome
        else:
            telemetry.add("campaign.outcome_memo_hits")
        return outcome

    def prefilter(self, specs: Sequence[DeviceSpec]) -> None:
        """Resolve pending outcome keys in packed multi-model groups.

        Batches every distinct unresolved outcome key (healthy devices
        resolve from the golden trace directly; each faulty key becomes
        one shadow-mux bit-plane) into groups of ``config.pack_width``
        and runs one packed gate-sim pass per (group, suite), writing
        the results into the per-suite memo that :meth:`run_device`
        consumes.  Exactly equivalent to the serial path — planes that
        never diverge from golden take the golden verdict, diverged
        planes replay at ISA speed or fall back to the serial gate
        co-simulation — so reports stay byte-identical.  No-op for
        units the packed pass cannot batch (the FPU's variable
        handshake).
        """
        from .packed import PACKED_UNITS, PackedPrefilter

        if self.unit not in PACKED_UNITS:
            return
        width = max(1, int(self.config.pack_width))
        suites = self.config.suites
        targets: List[Tuple[tuple, DeviceSpec]] = []
        seen = set()
        want_healthy = False
        for spec in specs:
            key = self._outcome_key(spec)
            if key in seen:
                continue
            seen.add(key)
            if all((key, suite) in self._suite_outcomes for suite in suites):
                continue
            if spec.faulty:
                targets.append((key, spec))
            else:
                want_healthy = True
        if not targets and not want_healthy:
            return
        prefilter = PackedPrefilter(self)
        with telemetry.span(
            "campaign.prefilter",
            unit=self.unit,
            keys=len(targets),
            width=width,
        ):
            if want_healthy:
                # A healthy device is the golden run.
                for suite in suites:
                    self._suite_outcomes.setdefault(
                        (("healthy",), suite), prefilter.trace(suite).outcome
                    )
            for start in range(0, len(targets), width):
                prefilter.resolve_group(targets[start : start + width])

    def run_device(self, spec: DeviceSpec) -> DeviceResult:
        """Run every configured suite against one device."""
        key = self._outcome_key(spec)
        outcomes = self._outcomes.get(key)
        with telemetry.span(
            "campaign.device",
            device=spec.device_id,
            corner=spec.corner,
            faulty=spec.faulty,
        ):
            if outcomes is None:
                outcomes = []
                for suite in self.config.suites:
                    suite_key = (key, suite)
                    outcome = self._suite_outcomes.get(suite_key)
                    if outcome is None:
                        outcome = self._run_suite(suite, spec)
                        self._suite_outcomes[suite_key] = outcome
                    outcomes.append(outcome)
                self._outcomes[key] = outcomes
            else:
                telemetry.add("campaign.outcome_memo_hits")
        outcomes = list(outcomes)  # results are shared, never mutated
        result = DeviceResult(
            index=spec.index,
            device_id=spec.device_id,
            corner=spec.corner,
            onset_years=spec.onset_years,
            faulty=spec.faulty,
            model_label=spec.model_label,
            c_mode=spec.c_mode,
            outcomes=outcomes,
        )
        telemetry.add("campaign.devices")
        if spec.faulty:
            telemetry.add("campaign.faulty_devices")
            telemetry.add(
                "campaign.detected_devices"
                if result.detected
                else "campaign.escapes"
            )
        return result

    def _run_suite(self, suite: str, spec: DeviceSpec) -> SuiteOutcome:
        backends = self.backends(spec)
        if suite in ("vega", "random"):
            library = self.library if suite == "vega" else self.random_library
            result = library.run_suite(
                strategy=self.config.strategy,
                max_instructions=self.config.max_suite_instructions,
                **backends,
            )
            if result.stalled:
                telemetry.add("campaign.stalls")
            return SuiteOutcome(
                suite=suite,
                detected=result.detected,
                stalled=result.stalled,
                cycles=result.cycles,
                detected_by=result.detected_by,
            )
        if suite == "silifuzz":
            verdict = self._fuzz.detects(
                self.snapshots, programs=self.snapshot_programs, **backends
            )
            if verdict["stalled"]:
                telemetry.add("campaign.stalls")
            return SuiteOutcome(
                suite=suite,
                detected=bool(verdict["detected"]),
                stalled=bool(verdict["stalled"]),
                cycles=int(verdict["cycles"]),
                detected_by=verdict["by"],
            )
        raise ValueError(f"unknown campaign suite {suite!r}")


def _run_shard(
    runner: DeviceRunner, task: Tuple[int, List[DeviceSpec]]
) -> List[DeviceResult]:
    index, specs = task
    with telemetry.span("campaign.shard", shard=index, devices=len(specs)):
        return [runner.run_device(spec) for spec in specs]


class CampaignEngine:
    """Samples a fleet, executes it in shards, aggregates the report.

    After :meth:`run`, ``executed_shards`` and ``resumed_shards`` list
    which shard indices were computed vs loaded from checkpoints —
    execution bookkeeping that deliberately never enters the report.
    """

    def __init__(
        self,
        netlist: Netlist,
        unit: str,
        library: AgingLibrary,
        failing_models: Sequence[FailureModel],
        config: Optional[CampaignConfig] = None,
        cache: Optional[ArtifactCache] = None,
        base_onset_years: Optional[float] = None,
        fleet: Optional[Sequence[DeviceSpec]] = None,
    ):
        self.netlist = netlist
        self.unit = unit
        self.library = library
        self.failing_models = list(failing_models)
        self.config = config or CampaignConfig()
        self.cache = cache
        #: Explicit fleet override.  ``None`` (the default) samples the
        #: onset-draw fleet from the config; the surrogate-triage path
        #: passes its exactly-analyzed device specs instead, so the
        #: execution/checkpoint/report machinery is shared unchanged.
        self.fleet = list(fleet) if fleet is not None else None
        if base_onset_years is None:
            base_onset_years = self.config.base_onset_years
        if base_onset_years is None:
            # No sweep and no config value: assume mid-life onset.
            base_onset_years = 0.6 * self.config.mission_years
        self.base_onset_years = float(base_onset_years)
        self.executed_shards: List[int] = []
        self.resumed_shards: List[int] = []
        self.report_path = None

    # -- construction from the shared experiment pipeline ---------------
    @classmethod
    def for_unit(
        cls,
        unit_experiment,
        config: Optional[CampaignConfig] = None,
        cache: Optional[ArtifactCache] = None,
        mitigation: bool = False,
        onset_sweep_years: Sequence[float] = (2.5, 5.0, 7.5, 10.0),
    ) -> "CampaignEngine":
        """Engine over a :class:`~repro.core.experiments.UnitExperiment`.

        Pulls the unit's vega library and constructed failure-model
        catalogue from the cached pipeline; when the config does not
        pin ``base_onset_years``, derives it from a coarse
        :class:`~repro.core.lifetime.LifetimeSimulator` sweep (first
        onset across ``onset_sweep_years``, falling back to the mission
        midpoint if nothing onsets inside the sweep).
        """
        config = config or CampaignConfig()
        base = config.base_onset_years
        if base is None:
            from ..core.experiments import CLOCK_CHAIN_LENGTH
            from ..core.lifetime import LifetimeSimulator

            simulator = LifetimeSimulator(
                unit_experiment.netlist,
                unit_experiment.sp_profile,
                config=unit_experiment.context.config.aging,
                gated_instances=unit_experiment.gated_instances(),
                clock_chain_length=CLOCK_CHAIN_LENGTH,
            )
            sweep = simulator.sweep(list(onset_sweep_years))
            base = sweep.first_onset_years
            if base is None:
                base = 0.6 * config.mission_years
        return cls(
            unit_experiment.netlist,
            unit_experiment.unit,
            unit_experiment.suite(mitigation),
            unit_experiment.failure_models(),
            config=config,
            cache=cache,
            base_onset_years=base,
        )

    # -- cache keys ----------------------------------------------------
    def campaign_key(self, fleet: Sequence[DeviceSpec]) -> str:
        """Content-addressed identity of this campaign.

        Everything that changes results enters the digest; ``workers``
        does not (any worker count produces the same report).
        ``shard_size`` does, because it defines the checkpoint units.
        """
        config = self.config
        return ArtifactCache.digest(
            "campaign",
            self.netlist.structural_hash(),
            self.unit,
            [
                config.seed,
                config.devices,
                config.shard_size,
                list(config.suites),
                config.strategy,
                config.mission_years,
                config.onset_sigma,
                config.worst_corner_fraction,
                config.random_suite_size,
                config.silifuzz_snapshots,
                config.max_suite_instructions,
            ],
            round(self.base_onset_years, 9),
            fleet_digest(fleet),
            self.library.suite_source(config.strategy),
        )

    def _shard_key(
        self, campaign_key: str, index: int, shard: Sequence[DeviceSpec]
    ) -> str:
        return ArtifactCache.digest(
            "campaign-shard",
            campaign_key,
            index,
            [spec.device_id for spec in shard],
        )

    def _load_shard(
        self, campaign_key: str, index: int, shard: Sequence[DeviceSpec]
    ) -> Optional[List[DeviceResult]]:
        if self.cache is None:
            return None
        payload = self.cache.load_checkpoint(
            self._shard_key(campaign_key, index, shard)
        )
        if not isinstance(payload, list) or len(payload) != len(shard):
            return None
        if any(
            not isinstance(r, DeviceResult) or r.device_id != spec.device_id
            for r, spec in zip(payload, shard)
        ):
            return None
        return payload

    def _publish_shard(
        self,
        campaign_key: str,
        index: int,
        shard: Sequence[DeviceSpec],
        results: List[DeviceResult],
    ) -> None:
        if self.cache is not None:
            self.cache.store_checkpoint(
                self._shard_key(campaign_key, index, shard), results
            )

    # -- execution -----------------------------------------------------
    def run(self, resume: bool = False) -> CampaignReport:
        """Execute the campaign; returns the aggregated report.

        With a cache attached, every completed shard is checkpointed as
        it finishes and the final report JSON is published under the
        campaign key.  ``resume=True`` loads completed shards instead
        of re-executing them.
        """
        config = self.config
        fleet = (
            self.fleet
            if self.fleet is not None
            else sample_fleet(
                config, self.failing_models, self.base_onset_years
            )
        )
        shards = [
            fleet[start : start + config.shard_size]
            for start in range(0, len(fleet), config.shard_size)
        ]
        key = self.campaign_key(fleet)
        self.executed_shards = []
        self.resumed_shards = []
        results_by_shard: Dict[int, List[DeviceResult]] = {}

        with telemetry.span(
            "campaign.run",
            unit=self.unit,
            devices=len(fleet),
            shards=len(shards),
            suites=",".join(config.suites),
        ) as span:
            pending: List[Tuple[int, List[DeviceSpec]]] = []
            for index, shard in enumerate(shards):
                cached = (
                    self._load_shard(key, index, shard) if resume else None
                )
                if cached is not None:
                    results_by_shard[index] = cached
                    self.resumed_shards.append(index)
                    telemetry.event(
                        "campaign.shard_resumed",
                        shard=index,
                        devices=len(shard),
                    )
                else:
                    pending.append((index, shard))

            runner = DeviceRunner(
                self.netlist, self.unit, config, self.library
            )
            if config.packed and pending:
                # Resolve outcome keys in packed multi-model groups
                # *before* shard dispatch: the parent-side memo crosses
                # shard boundaries (pack width is not capped by
                # shard_size) and is inherited by fork workers.
                runner.prefilter(
                    [spec for _, shard in pending for spec in shard]
                )
            for index, results in self._execute(runner, pending, key):
                results_by_shard[index] = results
                self.executed_shards.append(index)

            results = [
                result
                for index in sorted(results_by_shard)
                for result in results_by_shard[index]
            ]
            report = CampaignReport.from_results(
                self.unit, config, results, self.base_onset_years
            )
            if span is not None:
                span.annotate(
                    executed=len(self.executed_shards),
                    resumed=len(self.resumed_shards),
                    escapes=report.escapes,
                )
            if self.cache is not None:
                self.report_path = self.cache.store(
                    "campaign-report", key, report.to_json()
                )
        return report

    def _execute(
        self,
        runner: DeviceRunner,
        pending: Sequence[Tuple[int, List[DeviceSpec]]],
        campaign_key: str,
    ):
        """Yield ``(shard_index, results)``, checkpointing each shard.

        Results arrive in shard order as each shard finishes, so a
        killed run keeps every shard that completed before it.
        """
        shards = ordered_map(
            _run_shard, pending, self.config.workers, state=runner,
            name="campaign",
        )
        # The pool generator goes first so zip runs it to the end: the
        # pool shuts down and logs its event before the loop exits.
        for (results, wall), (index, shard) in zip(shards, pending):
            self._finish_shard(campaign_key, index, shard, results, wall)
            yield index, results

    def _finish_shard(
        self,
        campaign_key: str,
        index: int,
        shard: Sequence[DeviceSpec],
        results: List[DeviceResult],
        wall_s: float,
    ) -> None:
        """Parent-side bookkeeping: event stream + shard checkpoint."""
        for result in results:
            telemetry.event(
                "campaign.device",
                device=result.device_id,
                corner=result.corner,
                faulty=result.faulty,
                detected=result.detected,
                suites={
                    o.suite: ("stall" if o.stalled else o.detected)
                    for o in result.outcomes
                },
            )
        telemetry.add("campaign.shards")
        telemetry.add("campaign.shard_wall_s", wall_s)
        self._publish_shard(campaign_key, index, shard, results)
