"""Parallel SP profiling — sharded Aging Analysis workload simulation.

Signal-probability profiling (§3.2.1) is embarrassingly parallel at two
granularities, and this module exploits both:

* **across workloads** — each representative workload's operand stream
  is an independent simulation;
* **within a workload** — :func:`repro.sim.probes.profile_operand_stream`
  resets the simulator per packed batch, so a long stream splits into
  *chunks* at lane-batch boundaries, each chunk an independent packed
  simulation over its cycle range.

Chunk boundaries depend only on ``lanes`` and ``chunk_batches`` — never
on the worker count — and each chunk contributes raw integer one-counts
which are summed in deterministic chunk order before a single final
division.  A parallel profile is therefore **bit-identical** to the
serial one for any worker count, and both are bit-identical to the
monolithic :func:`profile_operand_stream` result.

Chunks fan out through the shared fork pool
(:func:`repro.core.pool.ordered_map`): the netlist and all operand
streams reach each worker once, tasks carry only a :class:`Chunk`, and
results are flat integer count vectors.  Every process, the parent in
serial mode included, reuses one compiled :class:`GateSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Sequence, Tuple

from ..core.pool import ordered_map
from ..netlist.netlist import Netlist
from .gatesim import GateSimulator, pack_vectors
from .probes import SPCounter, SPProfile

#: Packed batches per chunk: chunks of ``chunk_batches * lanes`` operands
#: keep task-dispatch overhead negligible while still load-balancing.
DEFAULT_CHUNK_BATCHES = 4


@dataclass(frozen=True)
class Chunk:
    """One unit of profiling work: a cycle range of one workload."""

    workload: str
    start: int
    stop: int


def plan_chunks(
    stream_lengths: Mapping[str, int],
    lanes: int,
    chunk_batches: int = DEFAULT_CHUNK_BATCHES,
) -> List[Chunk]:
    """Split every workload into lane-aligned chunks.

    The plan is a pure function of the stream lengths and batching
    parameters, so serial and parallel runs (of any width) simulate the
    exact same packed batches.
    """
    size = max(1, lanes * chunk_batches)
    chunks: List[Chunk] = []
    for workload, length in stream_lengths.items():
        for start in range(0, length, size):
            chunks.append(Chunk(workload, start, min(start + size, length)))
    return chunks


@dataclass
class _ProfileJob:
    """Profiling state shared by every chunk (inherited by workers)."""

    netlist: Netlist
    streams: Dict[str, List[Mapping[str, int]]]
    lanes: int
    drain_cycles: int

    @cached_property
    def sim(self) -> GateSimulator:
        """One simulator per process, built on first use."""
        return GateSimulator(self.netlist)

    def count(self, chunk: Chunk) -> Tuple[List[int], int]:
        """Packed-simulate one chunk; return (per-net one-counts, samples).

        The batch loop mirrors :func:`profile_operand_stream` exactly —
        reset per batch, ``1 + drain_cycles`` steps, sample after each —
        so per-chunk counts add up to the monolithic run's counts.
        """
        netlist, lanes, sim = self.netlist, self.lanes, self.sim
        operands = self.streams[chunk.workload][chunk.start : chunk.stop]
        counter = SPCounter(netlist)
        ports = {p.name: p.width for p in netlist.input_ports()}
        for start in range(0, len(operands), lanes):
            batch = operands[start : start + lanes]
            mask = (1 << len(batch)) - 1
            packed_inputs: Dict[str, list] = {}
            for name, width in ports.items():
                values = [op.get(name, 0) for op in batch]
                packed_inputs[name] = pack_vectors(values, width)
            sim.reset()
            for _ in range(1 + self.drain_cycles):
                sim.step(packed_inputs, mask=mask, packed=True)
                counter.sample(sim, mask=mask)
        return list(counter.ones.values()), counter.samples


def profile_workload_streams(
    netlist: Netlist,
    streams: Mapping[str, Sequence[Mapping[str, int]]],
    lanes: int = 256,
    drain_cycles: int = 2,
    workers: int = 1,
    chunk_batches: int = DEFAULT_CHUNK_BATCHES,
) -> SPProfile:
    """Profile one or more workload operand streams, sharded by chunk.

    ``streams`` maps a workload id to its operand stream (the id only
    names the work; results depend on stream contents alone).
    ``workers <= 0`` means one per CPU.  The merged profile carries raw
    one-counts and is bit-identical across worker counts.
    """
    streams = {name: list(ops) for name, ops in streams.items()}
    if not streams or all(not ops for ops in streams.values()):
        raise ValueError("empty operand stream")
    chunks = plan_chunks(
        {name: len(ops) for name, ops in streams.items()}, lanes, chunk_batches
    )
    names = list(netlist.nets)
    totals = [0] * len(names)
    samples = 0
    job = _ProfileJob(netlist, streams, lanes, drain_cycles)
    # Integer sums are order-independent, but chunks accumulate in
    # chunk order anyway, the same in serial and forked runs.
    for (ones, chunk_samples), _wall in ordered_map(
        _ProfileJob.count, chunks, workers, state=job, name="profile",
        chunks=len(chunks),
    ):
        for i, count in enumerate(ones):
            totals[i] += count
        samples += chunk_samples

    sp = {name: totals[i] / samples for i, name in enumerate(names)}
    ones_by_net = {name: totals[i] for i, name in enumerate(names)}
    return SPProfile(
        netlist_name=netlist.name, sp=sp, samples=samples, ones=ones_by_net
    )


def profile_operand_stream_parallel(
    netlist: Netlist,
    operands: Sequence[Mapping[str, int]],
    lanes: int = 256,
    drain_cycles: int = 2,
    workers: int = 1,
    chunk_batches: int = DEFAULT_CHUNK_BATCHES,
) -> SPProfile:
    """Sharded drop-in for :func:`~repro.sim.probes.profile_operand_stream`.

    Bit-identical to the monolithic packed run for any ``workers``.
    """
    return profile_workload_streams(
        netlist,
        {"stream": operands},
        lanes=lanes,
        drain_cycles=drain_cycles,
        workers=workers,
        chunk_batches=chunk_batches,
    )


def profile_operand_stream_reference(
    netlist: Netlist,
    operands: Sequence[Mapping[str, int]],
    drain_cycles: int = 2,
) -> SPProfile:
    """Seed-style serial scalar profiling — the equivalence oracle.

    One operand per simulated cycle group (reset, then ``1 +
    drain_cycles`` scalar steps, sampling each): exactly the per-lane
    semantics of the packed run, so its counts — and therefore its SP
    values — equal the packed/parallel engines' bit-for-bit.  Kept as
    the benchmark baseline and for equivalence testing; it is orders of
    magnitude slower than packed profiling.
    """
    if not operands:
        raise ValueError("empty operand stream")
    sim = GateSimulator(netlist)
    counter = SPCounter(netlist)
    port_names = [p.name for p in netlist.input_ports()]
    for op in operands:
        sim.reset()
        frame = {name: op.get(name, 0) for name in port_names}
        for _ in range(1 + drain_cycles):
            sim.step(frame)
            counter.sample(sim)
    return counter.profile()
