"""Incremental-vs-fresh BMC equivalence and parallel lifting determinism.

The incremental BMC engine (one persistent solver, per-depth cover
objectives asserted through assumption literals) must be observationally
identical to the seed's rebuild-per-depth engine: same verdict and same
witness length for every cover query.  These tests drive both engines
over randomly drawn failure models on the ALU and FPU shadow netlists,
and check that sharding endpoint pairs across worker processes changes
nothing about the lifting report.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ErrorLiftingConfig
from repro.cpu.alu_design import build_alu
from repro.cpu.fpu_design import build_fpu
from repro.formal.bmc import BmcStatus, BoundedModelChecker, CoverObjective
from repro.lifting.instrument import instrument_for_cover
from repro.lifting.lifter import ErrorLifter
from repro.lifting.models import CMode, FailureModel, ViolationKind
from repro.core.pool import fork_available
from repro.lifting.parallel import lift_pairs
from repro.sta.timing import TimingViolation


def _dff_pairs(netlist, limit=8):
    """Structurally valid (start, end) DFF pairs: start in end's D cone."""
    pairs = []
    for end in netlist.dffs():
        seen = set()
        stack = [end.pins["D"]]
        while stack:
            net = stack.pop()
            if net.name in seen:
                continue
            seen.add(net.name)
            if net.driver is None:
                continue
            inst = net.driver[0]
            if inst.ctype.name == "DFF":
                pairs.append((inst.name, end.name))
            else:
                stack.extend(inst.pins[pin] for pin in inst.ctype.inputs)
    pairs.sort()
    # Spread the sample across the netlist instead of taking one corner.
    stride = max(1, len(pairs) // limit)
    return pairs[::stride][:limit]


@functools.lru_cache(maxsize=None)
def _unit_instrumentations(unit):
    """(shadow netlist, output pairs) per drawable failure model."""
    netlist = build_alu() if unit == "alu" else build_fpu()
    out = []
    for start, end in _dff_pairs(netlist):
        for kind in (ViolationKind.SETUP, ViolationKind.HOLD):
            for c_mode in (CMode.ZERO, CMode.ONE):
                model = FailureModel(start, end, kind, c_mode)
                try:
                    instr = instrument_for_cover(netlist, model)
                except Exception:
                    continue  # endpoint cannot influence outputs
                out.append((model.label, instr))
    return out


class TestIncrementalFreshEquivalence:
    @pytest.mark.parametrize("unit", ["alu", "fpu"])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_same_verdict_and_trace_length(self, unit, data):
        candidates = _unit_instrumentations(unit)
        assert candidates, f"no instrumentable pairs on the {unit}"
        label, instr = data.draw(st.sampled_from(candidates))
        depth = data.draw(st.integers(min_value=2, max_value=5))
        objective = CoverObjective(differ=instr.output_pairs)
        observe = [net for pair in instr.output_pairs for net in pair]

        fresh = BoundedModelChecker(instr.netlist, incremental=False).cover(
            objective, max_depth=depth, observe=observe
        )
        incremental = BoundedModelChecker(instr.netlist, incremental=True).cover(
            objective, max_depth=depth, observe=observe
        )

        assert incremental.status is fresh.status, label
        assert incremental.depth_checked == fresh.depth_checked, label
        if fresh.status is BmcStatus.COVERED:
            assert incremental.trace.depth == fresh.trace.depth, label
            assert (
                incremental.trace.property_cycle == fresh.trace.property_cycle
            ), label


ADDER_VIOLATIONS = [
    TimingViolation(
        kind="setup", start="d4", end="d10", cells=("x7", "x8"),
        arrival=0.95, required=0.94,
    ),
    TimingViolation(
        kind="hold", start="d1", end="d9", cells=("x5",),
        arrival=0.0, required=0.05,
    ),
    TimingViolation(
        kind="setup", start="d3", end="d10", cells=("x7", "x8"),
        arrival=0.95, required=0.94,
    ),
]


def _fingerprint(results):
    return [
        (
            r.start,
            r.end,
            r.outcome.value,
            [
                (v.model.label, v.status.value, v.conversion_failed)
                for v in r.variants
            ],
        )
        for r in results
    ]


class TestParallelLifting:
    def _lifter(self, paper_adder, **overrides):
        config = ErrorLiftingConfig(bmc_depth=4, **overrides)
        return ErrorLifter(paper_adder, config)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_matches_serial(self, paper_adder):
        lifter = self._lifter(paper_adder)
        serial = lift_pairs(lifter, ADDER_VIOLATIONS, workers=1)
        parallel = lift_pairs(lifter, ADDER_VIOLATIONS, workers=2)
        assert _fingerprint(parallel) == _fingerprint(serial)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_more_workers_than_pairs(self, paper_adder):
        lifter = self._lifter(paper_adder)
        results = lift_pairs(lifter, ADDER_VIOLATIONS, workers=16)
        assert _fingerprint(results) == _fingerprint(
            [lifter.lift_pair(v) for v in ADDER_VIOLATIONS]
        )

    def test_zero_workers_means_auto(self, paper_adder):
        lifter = self._lifter(paper_adder)
        results = lift_pairs(lifter, ADDER_VIOLATIONS, workers=0)
        assert _fingerprint(results) == _fingerprint(
            [lifter.lift_pair(v) for v in ADDER_VIOLATIONS]
        )

    def test_serial_fallback_without_fork(self, paper_adder, monkeypatch):
        import repro.core.pool as pool_mod
        import repro.lifting.parallel as parallel_mod

        monkeypatch.setattr(pool_mod, "fork_available", lambda: False)
        lifter = self._lifter(paper_adder)
        results = parallel_mod.lift_pairs(lifter, ADDER_VIOLATIONS, workers=8)
        assert _fingerprint(results) == _fingerprint(
            [lifter.lift_pair(v) for v in ADDER_VIOLATIONS]
        )

    def test_config_workers_drive_lift(self, paper_adder):
        from repro.sta.timing import StaReport

        report = StaReport(netlist_name="adder", period_ns=1.0)
        report.violations.extend(ADDER_VIOLATIONS)
        serial = self._lifter(paper_adder, workers=1).lift(report)
        parallel = self._lifter(paper_adder, workers=2).lift(report)
        assert _fingerprint(parallel.pairs) == _fingerprint(serial.pairs)

    def test_incremental_flag_does_not_change_reports(self, paper_adder):
        from repro.sta.timing import StaReport

        report = StaReport(netlist_name="adder", period_ns=1.0)
        report.violations.extend(ADDER_VIOLATIONS)
        incremental = self._lifter(paper_adder, incremental_bmc=True).lift(report)
        fresh = self._lifter(paper_adder, incremental_bmc=False).lift(report)
        assert _fingerprint(incremental.pairs) == _fingerprint(fresh.pairs)
