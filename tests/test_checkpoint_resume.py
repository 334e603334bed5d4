"""Checkpoint/resume of the full workflow, plus phase-2 degradation.

The contract under test: every completed phase publishes a pickled
checkpoint through the artifact cache, a run restarted with
``resume=True`` recomputes nothing that already completed (a resumed
phase 1 steps **zero** gate-simulator cycles), and the resumed run's
report is bit-identical to an uninterrupted one.
"""

import pytest

from repro.core.artifacts import ArtifactCache
from repro.core.config import (
    AgingAnalysisConfig,
    ErrorLiftingConfig,
    VegaConfig,
)
from repro.core import telemetry
from repro.core.workflow import VegaWorkflow
from repro.cpu.alu_design import build_alu
from repro.cpu.mappers import AluMapper
from repro.sim.gatesim import simulated_cycles
from repro.workloads import collect_operand_streams


@pytest.fixture(scope="module")
def alu():
    return build_alu()


@pytest.fixture(scope="module")
def alu_stream():
    stream, _ = collect_operand_streams(["minver"])
    return stream


def _config(cache_dir) -> VegaConfig:
    return VegaConfig(
        aging=AgingAnalysisConfig(clock_margin=0.03, max_paths_per_endpoint=50),
        lifting=ErrorLiftingConfig(bmc_depth=4),
        cache_dir=str(cache_dir),
    )


@pytest.fixture(scope="module")
def baseline(alu, alu_stream, tmp_path_factory):
    """One uninterrupted cached run; (report, workflow) for reuse."""
    workflow = VegaWorkflow(_config(tmp_path_factory.mktemp("ckpt-a")))
    report = workflow.run(alu, alu_stream, AluMapper())
    return report, workflow


def _raise_on_unpickle():
    raise RuntimeError("bug in checkpointed object")


class _ExplodesOnLoad:
    """Pickles fine; reconstruction raises a non-corruption error."""

    def __reduce__(self):
        return (_raise_on_unpickle, ())


class TestCheckpointStore:
    def test_pickle_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_checkpoint("ab" * 32, {"answer": 42})
        assert cache.load_checkpoint("ab" * 32) == {"answer": 42}

    def test_missing_counts_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load_checkpoint("cd" * 32) is None
        assert cache.misses == 1

    def test_corrupt_checkpoint_counts_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.store_checkpoint("ef" * 32, [1, 2, 3])
        path.write_bytes(b"\x80\x04 truncated garbage")
        with pytest.warns(UserWarning, match="[Cc]orrupt"):
            assert cache.load_checkpoint("ef" * 32) is None
        assert cache.misses == 1

    def test_corrupt_checkpoint_is_quarantined_and_reported(self, tmp_path):
        # Regression: a truncated checkpoint used to vanish into a
        # silent miss — no warning, no telemetry, and the bad file
        # left in place to be "loaded" again next run.
        cache = ArtifactCache(tmp_path)
        path = cache.store_checkpoint("12" * 32, {"phase": 1})
        path.write_bytes(path.read_bytes()[:7])  # truncate mid-stream

        collector = telemetry.Telemetry()
        with telemetry.use(collector):
            with pytest.warns(UserWarning, match="quarantined"):
                assert cache.load_checkpoint("12" * 32) is None

        # The poisoned file no longer answers to its cache key...
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.exists()
        # ...so the next lookup is a clean miss, not another warning.
        assert cache.load_checkpoint("12" * 32) is None
        assert cache.misses == 2

        assert collector.counters.get("cache.checkpoint_corrupt") == 1
        events = [
            r for r in collector.records
            if r["type"] == "event" and r["name"] == "cache.checkpoint_corrupt"
        ]
        assert len(events) == 1
        assert events[0]["attrs"]["quarantined"] == str(quarantined)
        assert "Error" in events[0]["attrs"]["error"]

    def test_unrelated_errors_still_propagate(self, tmp_path):
        # The except is narrow: a bug *inside* a checkpointed object's
        # reconstruction is not file corruption and must not be
        # silently converted into a cache miss.
        cache = ArtifactCache(tmp_path)
        cache.store_checkpoint("34" * 32, _ExplodesOnLoad())
        with pytest.raises(RuntimeError, match="checkpointed object"):
            cache.load_checkpoint("34" * 32)


class TestCheckpointKeys:
    def test_changed_aging_input_invalidates_every_phase(
        self, alu, alu_stream
    ):
        base = VegaWorkflow(
            _config("unused")
        )._checkpoint_keys(alu, list(alu_stream), None, None, AluMapper())
        changed_config = _config("unused")
        changed_config.aging.lifetime_years *= 2
        changed = VegaWorkflow(changed_config)._checkpoint_keys(
            alu, list(alu_stream), None, None, AluMapper()
        )
        # Keys cascade: a phase-1 input change invalidates all three.
        assert base["phase1"] != changed["phase1"]
        assert base["phase2"] != changed["phase2"]
        assert base["phase3"] != changed["phase3"]

    def test_parallelism_knobs_do_not_change_keys(self, alu, alu_stream):
        base = VegaWorkflow(
            _config("unused")
        )._checkpoint_keys(alu, list(alu_stream), None, None, AluMapper())
        knobbed_config = _config("unused")
        knobbed_config.lifting.workers = 8
        knobbed_config.lifting.keep_going = False
        knobbed = VegaWorkflow(knobbed_config)._checkpoint_keys(
            alu, list(alu_stream), None, None, AluMapper()
        )
        assert base == knobbed


class TestStreamHashedOnce:
    #: Keys of a cold run under ``_config``, pinned from the collector
    #: that hashed the stream once per key.
    PROFILE_KEY = (
        "1e8286c982c3046a3f7d521dcbbc6299542e98b85021cb905721ea7c65c747a6"
    )
    PHASE_KEYS = [
        "296cb1b87621cfe7df965791c4f00eb04b72a742747a5ba93e34ce60ef677e53",
        "4d273e4e91f7be5d2ed1523d70a70b8cf2f73b3eb432df1cb27e64d0f838d1b6",
        "49f1926f123765b4b13a7724acd6e55e1f430fab5cd92cf7481abdf5a743de27",
    ]

    def test_cold_run_hashes_stream_once(
        self, alu, alu_stream, tmp_path, monkeypatch
    ):
        digest = ArtifactCache.stream_digest
        calls = []
        monkeypatch.setattr(
            ArtifactCache,
            "stream_digest",
            staticmethod(lambda ops: calls.append(len(ops)) or digest(ops)),
        )
        stored = []
        for attr in ("store_profile", "store_checkpoint"):
            store = getattr(ArtifactCache, attr)
            monkeypatch.setattr(
                ArtifactCache,
                attr,
                lambda self, key, value, store=store, attr=attr: (
                    stored.append((attr, key)) or store(self, key, value)
                ),
            )
        VegaWorkflow(_config(tmp_path)).run(alu, alu_stream, AluMapper())
        assert calls == [len(alu_stream)]
        assert stored == [("store_profile", self.PROFILE_KEY)] + [
            ("store_checkpoint", key) for key in self.PHASE_KEYS
        ]
        keys = VegaWorkflow(_config("unused"))._checkpoint_keys(
            alu, list(alu_stream), None, None, AluMapper()
        )
        assert list(keys.values()) == self.PHASE_KEYS


class TestFullResume:
    def test_resume_simulates_zero_cycles(self, baseline, alu, alu_stream):
        report, workflow = baseline
        before = simulated_cycles()
        resumed = workflow.run(alu, alu_stream, AluMapper(), resume=True)
        assert simulated_cycles() == before
        assert resumed.resumed_phases == ["phase1", "phase2", "phase3"]
        assert resumed.to_markdown() == report.to_markdown()

    def test_resumed_spans_annotated(self, baseline, alu, alu_stream):
        _, workflow = baseline
        resumed = workflow.run(alu, alu_stream, AluMapper(), resume=True)
        spans = {
            r["name"]: r
            for r in resumed.telemetry.records
            if r["type"] == "span" and r["parent"] is None
        }
        assert all(spans[name]["attrs"]["resumed"] for name in spans)

    def test_without_resume_flag_nothing_loads(self, baseline, alu, alu_stream):
        _, workflow = baseline
        before = simulated_cycles()
        fresh = workflow.run(alu, alu_stream, AluMapper())
        assert fresh.resumed_phases == []
        assert simulated_cycles() > before


class TestCrashAfterPhase1:
    def test_resume_skips_phase1_entirely(
        self, baseline, alu, alu_stream, tmp_path, monkeypatch
    ):
        report, _ = baseline
        workflow = VegaWorkflow(_config(tmp_path))

        class Boom(RuntimeError):
            pass

        def crash(self, *args, **kwargs):
            raise Boom("killed after phase 1")

        with monkeypatch.context() as patch:
            patch.setattr(VegaWorkflow, "run_error_lifting", crash)
            with pytest.raises(Boom):
                workflow.run(alu, alu_stream, AluMapper())

        # Phase 1 must come from its checkpoint: poison recomputation.
        with monkeypatch.context() as patch:
            patch.setattr(VegaWorkflow, "run_aging_analysis", crash)
            resumed = workflow.run(alu, alu_stream, AluMapper(), resume=True)
        assert resumed.resumed_phases == ["phase1"]
        phase1 = next(
            r
            for r in resumed.telemetry.records
            if r["type"] == "span" and r["name"] == "phase1.aging_analysis"
        )
        assert phase1["attrs"]["resumed"] is True
        # Zero simulation attributed to the resumed phase.
        assert "sim.cycles" not in phase1["counters"]
        # The completed run is indistinguishable from an uninterrupted one.
        assert resumed.to_markdown() == report.to_markdown()


class TestTraceCoversAllPhases:
    def test_top_level_spans(self, baseline):
        report, _ = baseline
        names = {
            r["name"]
            for r in report.telemetry.records
            if r["type"] == "span" and r["parent"] is None
        }
        assert names == {
            "phase1.aging_analysis",
            "phase2.error_lifting",
            "phase3.test_integration",
        }

    def test_counters_from_every_layer(self, baseline):
        report, _ = baseline
        counters = report.telemetry.counters
        for name in (
            "sim.cycles",        # gate simulator
            "sta.violations",    # aging STA
            "sat.decisions",     # CDCL core
            "bmc.queries",       # BMC driver
            "lifting.pairs",     # phase-2 fan-out
            "integration.suite_cycles",  # phase-3 suite
        ):
            assert counters.get(name, 0) > 0, name

    def test_trace_round_trips(self, baseline):
        report, _ = baseline
        text = report.telemetry.to_jsonl()
        records = telemetry.parse_trace(text)
        assert telemetry.dump_trace(records) == text


class TestPhase2Degradation:
    def _poison(self, monkeypatch, victim_start):
        from repro.lifting.lifter import ErrorLifter

        original = ErrorLifter.lift_pair

        def lift_pair(self, violation):
            if violation.start == victim_start:
                raise RuntimeError("poisoned pair")
            return original(self, violation)

        monkeypatch.setattr(ErrorLifter, "lift_pair", lift_pair)

    def test_keep_going_records_error_and_continues(
        self, baseline, alu, monkeypatch
    ):
        from repro.lifting.lifter import ErrorLifter, PairOutcome

        report, _ = baseline
        pairs = report.lifting_report.pairs
        assert len(pairs) > 1
        victim = pairs[0].start
        self._poison(monkeypatch, victim)
        lifter = ErrorLifter(
            alu, ErrorLiftingConfig(bmc_depth=4, keep_going=True), AluMapper()
        )
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            lifting = lifter.lift(report.sta_report.report)
        # The poisoned pair is accounted, not fatal.
        assert len(lifting.pairs) == len(pairs)
        errors = lifting.error_pairs
        assert [p.start for p in errors] == [victim]
        assert errors[0].outcome is PairOutcome.FORMAL_FAILURE
        assert "RuntimeError: poisoned pair" in errors[0].error
        # The survivors still produced their tests.
        assert lifting.test_cases
        # And the crash landed in the trace.
        assert tele.counters["lifting.pair_errors"] == 1
        events = [
            r
            for r in tele.records
            if r["type"] == "event" and r["name"] == "lifting.pair_error"
        ]
        assert len(events) == 1
        assert events[0]["attrs"]["start"] == victim

    def test_keep_going_off_reraises(self, baseline, alu, monkeypatch):
        from repro.lifting.lifter import ErrorLifter

        report, _ = baseline
        self._poison(monkeypatch, report.lifting_report.pairs[0].start)
        lifter = ErrorLifter(
            alu, ErrorLiftingConfig(bmc_depth=4, keep_going=False), AluMapper()
        )
        with pytest.raises(RuntimeError, match="poisoned"):
            lifter.lift(report.sta_report.report)
