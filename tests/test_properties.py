"""Cross-cutting property-based tests over the core substrates.

These tie independent implementations against each other:

* random RTL modules: gate-level simulation vs direct Python evaluation;
* random sequential circuits: BMC coverability vs exhaustive
  breadth-first reachability;
* STA: slack monotonicity under delay increase;
* failure models: instrumented netlists equal the original until the
  trigger condition first fires.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.example import build_paper_adder
from repro.formal.bmc import BmcStatus, BoundedModelChecker, CoverObjective
from repro.netlist.cells import make_vega28_library
from repro.netlist.netlist import Netlist
from repro.rtl.signal import Module, mux
from repro.rtl.synth import synthesize
from repro.sim.gatesim import GateSimulator
from repro.sta.timing import DelayModel, StaticTimingAnalyzer
from repro.aging.corners import TYPICAL_CORNER


def _random_netlist(rng: random.Random, n_inputs=3, n_gates=10, n_dffs=2):
    """A random, valid, single-output sequential netlist."""
    lib = make_vega28_library()
    nl = Netlist("fuzz", lib)
    nets = [nl.add_input_port(f"i{k}").bit(0) for k in range(n_inputs)]
    # DFF outputs are usable as sources immediately; D wired later.
    dff_q = []
    for k in range(n_dffs):
        q = nl.add_net(f"q{k}")
        nets.append(q)
        dff_q.append(q)
    pending_dffs = []
    for k, q in enumerate(dff_q):
        inst = nl.add_instance("DFF", {"D": q, "Q": q}, name=f"ff{k}",
                               init=rng.getrandbits(1))
        # Temporarily self-looped; rewired below.
        pending_dffs.append(inst)
    gates = ["INV", "AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"]
    for g in range(n_gates):
        ctype = rng.choice(gates)
        out = nl.add_net(f"g{g}")
        if ctype == "INV":
            pins = {"A": rng.choice(nets), "Y": out}
        else:
            pins = {"A": rng.choice(nets), "B": rng.choice(nets), "Y": out}
        nl.add_instance(ctype, pins, name=f"u{g}")
        nets.append(out)
    comb_nets = [n for n in nets if not n.name.startswith("q")]
    for inst in pending_dffs:
        # Rewire D to a random combinational net (acyclic by layering).
        nl.rewire_input(inst, "D", rng.choice(comb_nets))
    out_port = nl.add_output_port("y").bit(0)
    nl.add_instance("BUF", {"A": rng.choice(nets), "Y": out_port}, name="ob")
    nl.validate()
    return nl


def _exhaustive_reachable(netlist, target_net, max_depth):
    """Can target_net be 1 within max_depth cycles?  Brute force."""
    sim = GateSimulator(netlist)
    input_ports = [p.name for p in netlist.input_ports()]
    widths = {p.name: p.width for p in netlist.input_ports()}
    # BFS over input sequences (small spaces only!).
    space = list(
        itertools.product(
            *[range(1 << widths[p]) for p in input_ports]
        )
    )
    frontier = {tuple(d.init for d in netlist.dffs())}
    for _depth in range(max_depth):
        next_frontier = set()
        for state in frontier:
            for assignment in space:
                sim.reset()
                sim.state = list(state)
                frame = dict(zip(input_ports, assignment))
                sim.evaluate(frame)
                if sim.read_net(target_net) & 1:
                    return True
                sim.state = [
                    sim.values[idx] & 1 for idx in sim._dff_d_index
                ]
                next_frontier.add(tuple(sim.state))
        frontier = next_frontier
    return False


class TestBmcAgainstExhaustiveSearch:
    @given(seed=st.integers(min_value=0, max_value=400))
    @settings(max_examples=25, deadline=None)
    def test_cover_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        netlist = _random_netlist(rng, n_inputs=3, n_gates=8, n_dffs=2)
        depth = 3
        bmc = BoundedModelChecker(netlist)
        result = bmc.cover(CoverObjective(asserted=["y"]), max_depth=depth)
        expected = _exhaustive_reachable(netlist, "y", depth)
        assert (result.status is BmcStatus.COVERED) == expected
        if result.status is BmcStatus.COVERED:
            # Witness replays.
            sim = GateSimulator(netlist)
            seen = False
            for frame in result.trace.inputs:
                sim.evaluate(frame)
                if sim.read_net("y") & 1:
                    seen = True
                sim.step(frame)
            assert seen


class TestRtlVsPython:
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        a=st.integers(min_value=0, max_value=0xFFFF),
        b=st.integers(min_value=0, max_value=0xFFFF),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_expression_matches(self, seed, a, b):
        rng = random.Random(seed)
        m = Module("e")
        sa = m.input("a", 16)
        sb = m.input("b", 16)

        def build(depth):
            if depth == 0:
                return rng.choice([sa, sb])
            op = rng.randrange(6)
            x = build(depth - 1)
            y = build(depth - 1)
            if op == 0:
                return x & y
            if op == 1:
                return x | y
            if op == 2:
                return x ^ y
            if op == 3:
                return ~x
            if op == 4:
                return x + y
            return x - y

        expr_ops = []

        def py_eval(depth, rng2):
            if depth == 0:
                return rng2.choice([a, b])
            op = rng2.randrange(6)
            x = py_eval(depth - 1, rng2)
            y = py_eval(depth - 1, rng2)
            mask = 0xFFFF
            if op == 0:
                return x & y
            if op == 1:
                return x | y
            if op == 2:
                return x ^ y
            if op == 3:
                return (~x) & mask
            if op == 4:
                return (x + y) & mask
            return (x - y) & mask

        expr = build(3)
        m.output("y", expr)
        sim = GateSimulator(synthesize(m, make_vega28_library()))
        got = sim.evaluate({"a": a, "b": b})["y"]
        want = py_eval(3, random.Random(seed))
        assert got == want


class TestStaMonotonicity:
    @given(
        scale=st.floats(min_value=1.0, max_value=1.2),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_slower_cells_never_improve_setup_slack(self, scale, seed):
        adder = build_paper_adder()
        base = DelayModel.fresh(adder, TYPICAL_CORNER)
        rng = random.Random(seed)
        slowed = DelayModel(
            delays={
                name: (tmin, tmax * (scale if rng.random() < 0.5 else 1.0))
                for name, (tmin, tmax) in base.delays.items()
            },
            corner=TYPICAL_CORNER,
        )
        report_base = StaticTimingAnalyzer(adder, base).check(1.0)
        report_slow = StaticTimingAnalyzer(adder, slowed).check(1.0)
        assert report_slow.wns_setup_ns <= report_base.wns_setup_ns + 1e-12

    def test_faster_min_paths_never_improve_hold_slack(self):
        adder = build_paper_adder()
        base = DelayModel.fresh(adder, TYPICAL_CORNER)
        fast = DelayModel(
            delays={
                name: (tmin * 0.5, tmax)
                for name, (tmin, tmax) in base.delays.items()
            },
            corner=TYPICAL_CORNER,
        )
        report_base = StaticTimingAnalyzer(adder, base).check(1.0)
        report_fast = StaticTimingAnalyzer(adder, fast).check(1.0)
        assert report_fast.wns_hold_ns <= report_base.wns_hold_ns + 1e-12


class TestVectorizedStaEquivalence:
    """The numpy levelized propagation matches the dict-walking STA."""

    @given(
        seed=st.integers(min_value=0, max_value=400),
        scale=st.floats(min_value=0.8, max_value=1.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_arrivals_match_reference(self, seed, scale):
        rng = random.Random(seed)
        netlist = _random_netlist(rng, n_inputs=3, n_gates=12, n_dffs=2)
        base = DelayModel.fresh(netlist, TYPICAL_CORNER)
        model = DelayModel(
            delays={
                name: (tmin * scale, tmax * scale)
                for name, (tmin, tmax) in base.delays.items()
            },
            corner=TYPICAL_CORNER,
        )
        ref = StaticTimingAnalyzer(netlist, model, vectorized=False)
        vec = StaticTimingAnalyzer(netlist, model, vectorized=True)
        report_ref = ref.check(1.0)
        report_vec = vec.check(1.0)
        for name in netlist.nets:
            assert vec.arrival_max(name) == pytest.approx(
                ref.arrival_max(name), abs=1e-9
            )
            assert vec.arrival_min(name) == pytest.approx(
                ref.arrival_min(name), abs=1e-9
            )
        assert [
            (v.kind, v.start, v.end, v.cells) for v in report_vec.violations
        ] == [
            (v.kind, v.start, v.end, v.cells) for v in report_ref.violations
        ]


class TestParallelProfileEquivalence:
    """Sharded profiling is bit-identical to serial for any worker count."""

    @given(
        seed=st.integers(min_value=0, max_value=200),
        workers=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=8, deadline=None)
    def test_worker_count_invariance(self, seed, workers):
        from repro.core.pool import fork_available
        from repro.sim.parallel_profile import (
            profile_operand_stream_parallel,
        )

        rng = random.Random(seed)
        netlist = _random_netlist(rng, n_inputs=3, n_gates=10, n_dffs=2)
        ops = [
            {f"i{k}": rng.getrandbits(1) for k in range(3)}
            for _ in range(rng.randrange(20, 60))
        ]
        serial = profile_operand_stream_parallel(
            netlist, ops, lanes=8, workers=1, chunk_batches=1
        )
        width = workers if fork_available() else 1
        sharded = profile_operand_stream_parallel(
            netlist, ops, lanes=8, workers=width, chunk_batches=1
        )
        assert sharded.sp == serial.sp
        assert sharded.ones == serial.ones
        assert sharded.samples == serial.samples


class TestFailureModelTransparency:
    """Until a trigger fires, failing netlists match the original."""

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_constant_inputs_never_trigger_setup(self, seed):
        from repro.lifting.instrument import make_failing_netlist
        from repro.lifting.models import CMode, FailureModel, ViolationKind

        rng = random.Random(seed)
        adder = build_paper_adder()
        model = FailureModel("d4", "d10", ViolationKind.SETUP, CMode.ONE)
        failing = make_failing_netlist(adder, model)
        good = GateSimulator(adder)
        bad = GateSimulator(failing.netlist)
        # Constant stimulus: d4 never changes after warm-up, so outputs
        # must agree from cycle 3 onward.
        a, b = rng.randrange(4), 0  # b[1]=0 keeps d4 at its reset value
        for cycle in range(12):
            go = good.step({"a": a, "b": b})
            bo = bad.step({"a": a, "b": b})
            if cycle >= 3:
                assert go == bo
