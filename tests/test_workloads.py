"""Tests for the embench-style workloads: independent result mirrors."""

import functools

import numpy as np
import pytest

from repro.core.artifacts import ArtifactCache
from repro.core.experiments import UNIT_WORKLOADS, ExperimentContext
from repro.cpu import float16 as f16
from repro.cpu.asm import assemble
from repro.cpu.cpu import (
    Cpu,
    GoldenAlu,
    GoldenFpu,
    GoldenMdu,
    RunResult,
    run_program,
)
from repro.workloads import (
    REPRESENTATIVE,
    WORKLOADS,
    collect_operand_streams,
    collect_unit_streams,
)
from repro.workloads import streams as streams_module
from repro.workloads.streams import UNITS


def _run(name):
    return run_program(WORKLOADS[name].source)


class TestIntegerWorkloads:
    def test_crc32_matches_reference(self):
        data = bytes((7 * i + 3) & 0xFF for i in range(64))
        crc = 0xFFFFFFFF
        for byte in data:
            crc ^= byte
            for _ in range(8):
                crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
        expected = crc ^ 0xFFFFFFFF
        assert _run("crc32").exit_value == expected

    def test_matmult_matches_reference(self):
        a = [[4 * i + j + 1 for j in range(4)] for i in range(4)]
        b = [[2 * (4 * i + j) + 1 for j in range(4)] for i in range(4)]
        c = [
            [sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        checksum = 0
        for i in range(4):
            for j in range(4):
                checksum = ((checksum ^ c[i][j]) + c[i][j]) & 0xFFFFFFFF
        assert _run("matmult").exit_value == checksum

    def test_primecount_is_78(self):
        # 78 primes below 400.
        assert _run("primecount").exit_value == 78

    def test_bitcount_triple_counts(self):
        x = 0x12345678
        total = 0
        for _ in range(24):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            total += 3 * bin(x).count("1")
        assert _run("bitcount").exit_value == total

    def test_qsort_sorts(self):
        values = []
        x = 0x2545F491
        for _ in range(32):
            x = (x ^ (x << 13)) & 0xFFFFFFFF
            x = (x ^ (x >> 17)) & 0xFFFFFFFF
            x = (x ^ (x << 5)) & 0xFFFFFFFF
            values.append(x)
        values.sort()
        checksum = 0
        for v in values:
            checksum ^= v
            checksum = ((checksum << 1) | (checksum >> 31)) & 0xFFFFFFFF
        assert _run("qsort").exit_value == checksum


class TestFpWorkloads:
    def test_fir_matches_softfloat_mirror(self):
        taps = [0.25, 0.5, 0.125, 0.0625]
        samples = [((i * 37) % 17 - 8) * 0.25 for i in range(32)]
        tap_bits = [int(np.float16(t).view(np.uint16)) for t in taps]
        x_bits = [int(np.float16(s).view(np.uint16)) for s in samples]
        checksum = 0
        for n in range(3, 32):
            y = 0
            for k in range(4):
                prod, _ = f16.fp16_mul(tap_bits[k], x_bits[n - k])
                y, _ = f16.fp16_add(y, prod)
            checksum = (checksum + y) & 0xFFFFFFFF
        assert _run("fir").exit_value == checksum

    def test_st_packs_mean_and_variance(self):
        result = _run("st").exit_value
        mean_bits = result & 0xFFFF
        var_bits = result >> 16
        mean = f16.fp16_value(mean_bits)
        var = f16.fp16_value(var_bits)
        data = [((i * 29) % 23 - 11) * 0.125 for i in range(24)]
        ref_mean = sum(data) / 24
        ref_var = sum((x - ref_mean) ** 2 for x in data) / 24
        assert mean == pytest.approx(ref_mean, abs=0.05)
        assert var == pytest.approx(ref_var, rel=0.1)

    def test_nbody_energy_positive_and_close(self):
        result = _run("nbody").exit_value
        energy = f16.fp16_value(result)
        xs = [((i * 19) % 13 - 6) * 0.25 for i in range(8)]
        ys = [((i * 23) % 11 - 5) * 0.25 for i in range(8)]
        ms = [1.0 + (i % 3) * 0.5 for i in range(8)]
        ref = 0.0
        for i in range(8):
            for j in range(i + 1, 8):
                dx, dy = xs[i] - xs[j], ys[i] - ys[j]
                ref += ms[i] * ms[j] * (dx * dx + dy * dy)
        assert energy == pytest.approx(ref, rel=0.05)

    def test_minver_inverse_accuracy(self):
        """Replay the inverse computation and check M @ Minv ~ I."""
        matrix = np.array(
            [[2.0, 0.5, 1.0], [-1.0, 1.5, 0.25], [0.5, -0.75, 1.25]]
        )
        # Reconstruct the computed inverse from a fresh simulation of
        # the same algorithm in float16 (adjugate * Newton reciprocal).
        adj = np.linalg.inv(matrix) * np.linalg.det(matrix)
        det = np.linalg.det(matrix)
        reciprocal = 0.25
        for _ in range(4):
            reciprocal = reciprocal * (2 - det * reciprocal)
        inverse = adj * reciprocal
        assert np.allclose(matrix @ inverse, np.eye(3), atol=0.02)
        # And the workload itself runs to completion with FP activity.
        result = _run("minver")
        assert result.instructions > 100

    def test_edn_runs_and_uses_fpu(self):
        program = assemble(WORKLOADS["edn"].source)
        fpu = GoldenFpu()
        fpu.log_operands = True
        cpu = Cpu(program, fpu=fpu)
        cpu.run()
        assert len(fpu.operand_log) >= 48  # 16 muls+adds dot, 32 saxpy


class TestOperandStreams:
    def test_representative_is_minver(self):
        assert REPRESENTATIVE == "minver"

    def test_collect_streams_shapes(self):
        alu_stream, fpu_stream = collect_operand_streams(["minver"])
        assert alu_stream and fpu_stream
        assert set(alu_stream[0]) == {"op", "a", "b", "mode", "dft"}
        assert set(fpu_stream[0]) == {"op", "a", "b", "rm", "in_valid", "dft"}

    def test_multiple_workloads_concatenate(self):
        cap = 10_000_000
        single, _ = collect_operand_streams(["crc32"], max_ops_per_unit=cap)
        double, _ = collect_operand_streams(
            ["crc32", "bitcount"], max_ops_per_unit=cap
        )
        assert len(double) > len(single)

    def test_stream_cap(self):
        alu_stream, _ = collect_operand_streams(["crc32"], max_ops_per_unit=10)
        assert len(alu_stream) == 10


@functools.lru_cache(maxsize=None)
def _full_logs(names):
    """Every unit's log after running ``names`` to ``ecall``, uncapped."""
    backends = {"alu": GoldenAlu(), "fpu": GoldenFpu(), "mdu": GoldenMdu()}
    for backend in backends.values():
        backend.log_operands = True
    for name in names:
        result = Cpu(assemble(WORKLOADS[name].source), **backends).run()
        assert not result.stopped
    return {unit: backend.operand_log for unit, backend in backends.items()}


def _assembled_names(monkeypatch):
    """Record the workloads stream collection assembles, in order."""
    by_source = {w.source: name for name, w in WORKLOADS.items()}
    names = []

    def counting(source):
        names.append(by_source[source])
        return assemble(source)

    monkeypatch.setattr(streams_module, "assemble", counting)
    return names


#: ``ArtifactCache.stream_digest`` of each unit's profiling stream,
#: pinned from the full-run-then-slice collector.
STREAM_DIGESTS = {
    "alu": "4f5624b45bcd9383a80a3d69478dc526bdbb9515bd46c49e82a14ff34ce07c4b",
    "fpu": "7d833c5840c7a0cde4c92f3128c1c608574a59eb3dd6d52516c3cdb11833d083",
    "mdu": "40d62a25f1b00acc82f51e4ea735503698a3f120d2e1b0e109ce7d853863fbe4",
}


@pytest.fixture(scope="module")
def context_streams():
    """Per unit: its context stream, the workloads assembled to collect
    it, and the ``RunResult`` of every ``Cpu.run`` that collection made."""
    collected = {}
    with pytest.MonkeyPatch.context() as patch:
        assembled = _assembled_names(patch)
        runs = []
        run = Cpu.run

        def recording_run(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            runs.append(result)
            return result

        patch.setattr(Cpu, "run", recording_run)
        context = ExperimentContext()
        for unit in UNITS:
            stream = context.stream(unit)
            collected[unit] = (stream, list(assembled), list(runs))
            assembled.clear()
            runs.clear()
    return collected


class TestEarlyStoppedStreams:
    @pytest.mark.parametrize("cap", [1, 10, 4000, 20_000, 10**7])
    @pytest.mark.parametrize("unit", UNITS)
    def test_equals_full_run_sliced(self, unit, cap):
        names = (UNIT_WORKLOADS[unit],)
        streams = collect_unit_streams(names, cap, units=(unit,))
        assert list(streams) == [unit]
        assert streams[unit] == _full_logs(names)[unit][:cap]

    def test_skips_workloads_after_the_cap(self, monkeypatch):
        # crc32 alone logs far more than 100 ALU ops.
        names = ("crc32", "bitcount")
        assembled = _assembled_names(monkeypatch)
        streams = collect_unit_streams(names, 100, units=("alu",))
        assert assembled == ["crc32"]
        assert streams["alu"] == _full_logs(names)["alu"][:100]


class TestContextStreams:
    @pytest.mark.parametrize("unit", UNITS)
    def test_digest_unchanged(self, context_streams, unit):
        stream, _, _ = context_streams[unit]
        assert ArtifactCache.stream_digest(stream) == STREAM_DIGESTS[unit]

    @pytest.mark.parametrize("unit", UNITS)
    def test_runs_only_the_units_workload(self, context_streams, unit):
        _, assembled, runs = context_streams[unit]
        assert assembled == [UNIT_WORKLOADS[unit]]
        assert len(runs) == 1

    def test_alu_run_stops_at_the_cap(self, context_streams):
        _, _, (result,) = context_streams["alu"]
        assert isinstance(result, RunResult)
        assert result.stopped
        assert result.instructions == 56_679

    def test_mdu_workload_runs_to_ecall(self, context_streams):
        # matmult_hw issues fewer multiplies than the op cap.
        stream, _, (result,) = context_streams["mdu"]
        assert not result.stopped
        assert len(stream) < 20_000


class TestWorkloadRegistry:
    def test_eleven_workloads(self):
        assert len(WORKLOADS) == 11

    def test_kind_partition(self):
        kinds = {w.kind for w in WORKLOADS.values()}
        assert kinds == {"int", "fp"}
        assert sum(1 for w in WORKLOADS.values() if w.kind == "fp") == 5
        assert sum(1 for w in WORKLOADS.values() if w.kind == "int") == 6

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_all_run_to_completion(self, name):
        result = _run(name)
        assert result.instructions > 100
