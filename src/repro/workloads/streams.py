"""Operand-stream capture for signal-probability profiling.

Aging Analysis (§3.2.1) simulates the netlist under representative
workloads.  Here the workload runs on the ISA simulator with operand
logging enabled; the recorded per-operation input vectors are then
replayed — bit-parallel — through the gate-level netlist by
:func:`repro.sim.probes.profile_operand_stream`.

Only the requested units are logged, and the CPU stops as soon as every
requested log holds ``max_ops_per_unit`` ops.  The first N ops a unit
logs depend only on the instructions before them, so the streams are
exactly those of running every workload to ``ecall`` and slicing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..cpu.asm import assemble
from ..cpu.cpu import Cpu, GoldenAlu, GoldenFpu, GoldenMdu, StopRun
from .programs import REPRESENTATIVE, WORKLOADS

#: Units whose golden backends can log operands.
UNITS = ("alu", "fpu", "mdu")


@dataclass
class StreamCollection:
    """The operand streams of one collection and what they cost."""

    streams: Dict[str, List[Dict[str, int]]]
    #: Instructions the CPU executed over all workloads it ran.
    instructions: int
    #: Every log filled before the workloads ran to ``ecall``.
    stopped_early: bool


class _Quota:
    """The op cap of one collection and how many logs are short of it."""

    def __init__(self, cap: int, logs: int):
        self.cap = cap
        self.open = logs


class _CappedLog(list):
    """Operand log that ends the run once every log of its quota is full."""

    def __init__(self, quota: _Quota):
        super().__init__()
        self.quota = quota

    def append(self, op: Dict[str, int]) -> None:
        super().append(op)
        quota = self.quota
        if len(self) == quota.cap:
            quota.open -= 1
            if not quota.open:
                raise StopRun


def collect_streams(
    names: Sequence[str] = (REPRESENTATIVE,),
    max_ops_per_unit: int = 20_000,
    units: Sequence[str] = UNITS,
) -> StreamCollection:
    """Run ``names`` in order, logging ``units``, until every log is full.

    Workloads left when the last log fills are not assembled or run.
    """
    backends = {"alu": GoldenAlu(), "fpu": GoldenFpu(), "mdu": GoldenMdu()}
    quota = _Quota(max_ops_per_unit, len(units))
    for unit in units:
        backends[unit].log_operands = True
        backends[unit].operand_log = _CappedLog(quota)
    instructions = 0
    stopped = False
    for name in names:
        cpu = Cpu(assemble(WORKLOADS[name].source), **backends)
        result = cpu.run()
        instructions += result.instructions
        if result.stopped:
            stopped = True
            break
    return StreamCollection(
        streams={
            unit: backends[unit].operand_log[:max_ops_per_unit]
            for unit in units
        },
        instructions=instructions,
        stopped_early=stopped,
    )


def collect_operand_streams(
    names: Sequence[str] = (REPRESENTATIVE,),
    max_ops_per_unit: int = 20_000,
) -> Tuple[List[Dict[str, int]], List[Dict[str, int]]]:
    """Run workloads and capture (alu_stream, fpu_stream).

    Each stream entry maps the unit's input-port names to the values of
    one dynamic operation, ready for bit-parallel SP profiling.
    """
    streams = collect_unit_streams(
        names, max_ops_per_unit, units=("alu", "fpu")
    )
    return streams["alu"], streams["fpu"]


def collect_unit_streams(
    names: Sequence[str] = (REPRESENTATIVE,),
    max_ops_per_unit: int = 20_000,
    units: Sequence[str] = UNITS,
) -> Dict[str, List[Dict[str, int]]]:
    """Operand streams of ``units`` (default: alu, fpu and mdu)."""
    return collect_streams(names, max_ops_per_unit, units).streams
