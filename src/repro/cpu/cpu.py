"""Cycle-counting ISA simulator with pluggable functional units.

The simulator executes assembled :class:`~repro.cpu.asm.Program`s.  The
ALU and FPU are *backends* behind narrow interfaces, so the same program
can run against

* golden software models (fast path, used for workload profiling and
  the Figure 9 overhead runs), or
* gate-level netlists via :mod:`repro.cpu.cosim` — including *failing*
  netlists from failure-model instrumentation, which is how Tables 6
  and 7 measure detection quality.

The simulator also collects basic-block execution counts (leader PCs)
when profiling is enabled, feeding profile-guided test integration, and
records the operand stream seen by each unit, feeding SP profiling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple

from . import float16 as sf
from .alu_design import alu_reference
from .asm import DATA_BASE, Program
from .fpu_design import fpu_reference
from .mdu_design import mdu_reference
from .isa import Fmt, Instruction, TAKEN_BRANCH_PENALTY


class CpuError(Exception):
    """Illegal access or malformed execution."""


class CpuStall(CpuError):
    """The CPU stopped making progress (e.g. a dead FPU handshake).

    Per the paper (§5.2.3), some injected failures corrupt ready/valid
    signals so the core waits forever; from software this is a hang,
    which the test harness detects via a watchdog and reports as a
    *detected* failure.
    """


class StopRun(Exception):
    """Raised by a backend to end :meth:`Cpu.run` before ``ecall``.

    ``Cpu.run`` catches it once, outside its instruction loop, and
    returns a :class:`RunResult` with ``stopped=True`` that counts the
    instruction during which the backend raised.
    """


class IntBackend(Protocol):
    def execute(self, op: int, a: int, b: int) -> int: ...


class FpBackend(Protocol):
    def execute(self, op: int, a: int, b: int) -> Tuple[int, int]: ...


class GoldenAlu:
    """Reference ALU backend (pure software)."""

    def __init__(self) -> None:
        self.operand_log: List[Dict[str, int]] = []
        self.log_operands = False

    def execute(self, op: int, a: int, b: int) -> int:
        if self.log_operands:
            self.operand_log.append(
                {"op": int(op), "a": a, "b": b, "mode": 0, "dft": 0}
            )
        return alu_reference(op, a, b)


class GoldenFpu:
    """Reference FPU backend (software binary16)."""

    def __init__(self) -> None:
        self.operand_log: List[Dict[str, int]] = []
        self.log_operands = False

    def execute(self, op: int, a: int, b: int) -> Tuple[int, int]:
        if self.log_operands:
            self.operand_log.append(
                {"op": op, "a": a, "b": b, "rm": 0, "in_valid": 1, "dft": 0}
            )
        return fpu_reference(op, a, b)


class GoldenMdu:
    """Reference multiply-unit backend (pure software)."""

    def __init__(self) -> None:
        self.operand_log: List[Dict[str, int]] = []
        self.log_operands = False

    def execute(self, op: int, a: int, b: int) -> int:
        if self.log_operands:
            self.operand_log.append(
                {"op": int(op), "a": a, "b": b, "dft": 0}
            )
        return mdu_reference(op, a, b)


@dataclass
class RunResult:
    """Outcome of a run: ``ecall`` reached, or a backend's :class:`StopRun`.

    A stopped run's ``exit_value`` is whatever a0 held when it stopped.
    """

    exit_value: int
    cycles: int
    instructions: int
    block_counts: Dict[int, int] = field(default_factory=dict)
    stopped: bool = False


MEM_SIZE = 1 << 20


class Cpu:
    """In-order, single-issue VR32 core model."""

    def __init__(
        self,
        program: Program,
        alu: Optional[IntBackend] = None,
        fpu: Optional[FpBackend] = None,
        mdu: Optional[IntBackend] = None,
        profile: bool = False,
    ):
        self.program = program
        self.alu = alu or GoldenAlu()
        self.fpu = fpu or GoldenFpu()
        self.mdu = mdu or GoldenMdu()
        self.profile = profile
        self.regs = [0] * 32
        self.fregs = [0] * 32
        self.fflags = 0
        self.pc = 0
        self.cycles = 0
        self.instret = 0
        self.memory = bytearray(MEM_SIZE)
        self.block_counts: Dict[int, int] = {}
        self.memory[DATA_BASE : DATA_BASE + len(program.data)] = program.data
        # Stack pointer starts at the top of memory.
        self.regs[2] = MEM_SIZE - 16

    # -- register/memory helpers ---------------------------------------
    def _write_reg(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = value & 0xFFFFFFFF

    def _read_mem(self, address: int, size: int, signed: bool) -> int:
        if address < 0 or address + size > MEM_SIZE:
            raise CpuError(f"load outside memory: {address:#x}")
        raw = int.from_bytes(self.memory[address : address + size], "little")
        if signed and raw >> (size * 8 - 1):
            raw -= 1 << (size * 8)
        return raw & 0xFFFFFFFF

    def _write_mem(self, address: int, size: int, value: int) -> None:
        if address < 0 or address + size > MEM_SIZE:
            raise CpuError(f"store outside memory: {address:#x}")
        self.memory[address : address + size] = (value & ((1 << (size * 8)) - 1)).to_bytes(size, "little")

    @staticmethod
    def _signed(value: int) -> int:
        return value - (1 << 32) if value >> 31 else value

    # -- execution ------------------------------------------------------
    def run(self, max_instructions: int = 10_000_000) -> RunResult:
        """Execute until ``ecall`` (or a backend's :class:`StopRun`).

        Returns the a0 register as exit value.
        """
        executed = 0
        leaders = self.program.leaders if self.profile else ()
        instructions = self.program.instructions
        count = len(instructions)
        profiling = self.profile
        block_counts = self.block_counts
        execute = self._execute
        try:
            while True:
                index = self.pc >> 2
                if index >= count:
                    raise CpuError(f"PC fell off the program: {self.pc:#x}")
                if executed >= max_instructions:
                    raise CpuStall(
                        f"no ecall within {max_instructions} instructions"
                    )
                if profiling and self.pc in leaders:
                    block_counts[self.pc] = block_counts.get(self.pc, 0) + 1
                executed += 1
                if execute(instructions[index]):
                    break
            stopped = False
        except StopRun:
            stopped = True
        self.instret += executed
        return RunResult(
            exit_value=self.regs[10],
            cycles=self.cycles,
            instructions=executed,
            block_counts=dict(block_counts),
            stopped=stopped,
        )

    def _execute(self, instr: Instruction) -> bool:
        """Run one instruction; True when the program halts."""
        spec = instr.spec
        fmt = spec.fmt
        self.cycles += spec.cycles
        next_pc = self.pc + 4
        name = instr.mnemonic

        if fmt is Fmt.R:
            if spec.mdu_op is not None:
                result = self.mdu.execute(
                    spec.mdu_op, self.regs[instr.rs1], self.regs[instr.rs2]
                )
            else:
                result = self.alu.execute(
                    spec.alu_op, self.regs[instr.rs1], self.regs[instr.rs2]
                )
            if instr.rd:
                self.regs[instr.rd] = result & 0xFFFFFFFF
        elif fmt is Fmt.I:
            result = self.alu.execute(
                spec.alu_op, self.regs[instr.rs1], instr.imm & 0xFFFFFFFF
            )
            if instr.rd:
                self.regs[instr.rd] = result & 0xFFFFFFFF
        elif fmt is Fmt.BRANCH:
            a, b = self.regs[instr.rs1], self.regs[instr.rs2]
            if name == "beq":
                taken = a == b
            elif name == "bne":
                taken = a != b
            elif name == "bltu":
                taken = a < b
            elif name == "bgeu":
                taken = a >= b
            else:
                sa = a - 0x100000000 if a >> 31 else a
                sb = b - 0x100000000 if b >> 31 else b
                taken = sa < sb if name == "blt" else sa >= sb
            if taken:
                next_pc = instr.target
                self.cycles += TAKEN_BRANCH_PENALTY
        elif fmt is Fmt.LOAD:
            address = (self.regs[instr.rs1] + instr.imm) & 0xFFFFFFFF
            self._write_reg(
                instr.rd,
                self._read_mem(address, spec.mem_size, spec.mem_signed),
            )
        elif fmt is Fmt.STORE:
            address = (self.regs[instr.rs1] + instr.imm) & 0xFFFFFFFF
            self._write_mem(address, spec.mem_size, self.regs[instr.rs2])
        elif fmt is Fmt.U:
            if name == "lui":
                self._write_reg(instr.rd, (instr.imm << 12) & 0xFFFFFFFF)
            else:  # auipc
                self._write_reg(
                    instr.rd, (self.pc + (instr.imm << 12)) & 0xFFFFFFFF
                )
        elif fmt is Fmt.JAL:
            self._write_reg(instr.rd, next_pc)
            next_pc = instr.target
        elif fmt is Fmt.JALR:
            self._write_reg(instr.rd, next_pc)
            next_pc = (self.regs[instr.rs1] + instr.imm) & ~1 & 0xFFFFFFFF
        elif fmt is Fmt.FR:
            value, flags = self.fpu.execute(
                int(spec.fpu_op), self.fregs[instr.fs1], self.fregs[instr.fs2]
            )
            self.fregs[instr.fd] = value & 0xFFFF
            self.fflags |= flags
        elif fmt is Fmt.FCMP:
            value, flags = self.fpu.execute(
                int(spec.fpu_op), self.fregs[instr.fs1], self.fregs[instr.fs2]
            )
            self._write_reg(instr.rd, value)
            self.fflags |= flags
        elif fmt is Fmt.FLOAD:
            address = (self.regs[instr.rs1] + instr.imm) & 0xFFFFFFFF
            self.fregs[instr.fd] = self._read_mem(address, 2, signed=False)
        elif fmt is Fmt.FSTORE:
            address = (self.regs[instr.rs1] + instr.imm) & 0xFFFFFFFF
            self._write_mem(address, 2, self.fregs[instr.fs2])
        elif fmt is Fmt.FMVXH:
            self._write_reg(instr.rd, self.fregs[instr.fs1])
        elif fmt is Fmt.FMVHX:
            self.fregs[instr.fd] = self.regs[instr.rs1] & 0xFFFF
        elif fmt is Fmt.FCVTWH:
            value, flags = sf.fp16_to_int(self.fregs[instr.fs1])
            self._write_reg(instr.rd, value)
            self.fflags |= flags
        elif fmt is Fmt.FCVTHW:
            value, flags = sf.fp16_from_int(self.regs[instr.rs1])
            self.fregs[instr.fd] = value
            self.fflags |= flags
        elif name == "frflags":
            self._write_reg(instr.rd, self.fflags)
        elif name == "fsflags":
            self.fflags = self.regs[instr.rs1] & 0x1F
        elif name == "ecall":
            return True
        else:  # pragma: no cover - SPECS and _execute stay in sync
            raise CpuError(f"unimplemented instruction {name!r}")
        self.pc = next_pc
        return False


def run_program(
    source_or_program,
    alu: Optional[IntBackend] = None,
    fpu: Optional[FpBackend] = None,
    mdu: Optional[IntBackend] = None,
    profile: bool = False,
    max_instructions: int = 10_000_000,
) -> RunResult:
    """Assemble (if needed) and run; convenience wrapper."""
    from .asm import assemble

    program = (
        source_or_program
        if isinstance(source_or_program, Program)
        else assemble(source_or_program)
    )
    cpu = Cpu(program, alu=alu, fpu=fpu, mdu=mdu, profile=profile)
    return cpu.run(max_instructions=max_instructions)
