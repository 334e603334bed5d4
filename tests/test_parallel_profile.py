"""Parallel SP profiling, SPProfile merge semantics, and the artifact cache.

The load-bearing property throughout: profiling accumulates raw integer
one-counts, so any partition of the workload (chunks, workers, workload
shards) sums to the same counts and one final division yields the same
floats bit-for-bit.
"""

import json
import random

import pytest

from repro.core.artifacts import ArtifactCache
from repro.core.config import AgingAnalysisConfig, VegaConfig
from repro.core.example import build_paper_adder
from repro.core.workflow import VegaWorkflow
from repro.sim.gatesim import simulated_cycles
from repro.core.pool import fork_available
from repro.sim.parallel_profile import (
    plan_chunks,
    profile_operand_stream_parallel,
    profile_operand_stream_reference,
    profile_workload_streams,
)
from repro.sim.probes import SPProfile, profile_operand_stream


def _stream(seed, count=40):
    rng = random.Random(seed)
    return [
        {"a": rng.getrandbits(2), "b": rng.getrandbits(2)}
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def adder():
    return build_paper_adder()


class TestChunkPlanning:
    def test_chunks_tile_every_stream(self):
        chunks = plan_chunks({"w0": 100, "w1": 7}, lanes=8, chunk_batches=2)
        by_workload = {}
        for c in chunks:
            by_workload.setdefault(c.workload, []).append((c.start, c.stop))
        assert by_workload == {
            "w0": [(0, 16), (16, 32), (32, 48), (48, 64), (64, 80),
                   (80, 96), (96, 100)],
            "w1": [(0, 7)],
        }

    def test_boundaries_are_lane_aligned(self):
        for c in plan_chunks({"w": 1000}, lanes=32, chunk_batches=3):
            assert c.start % 32 == 0


class TestBitIdenticalProfiles:
    """Every engine configuration produces the same SPProfile."""

    def test_chunked_serial_equals_monolithic(self, adder):
        ops = _stream(1, 100)
        mono = profile_operand_stream(adder, ops, lanes=8)
        chunked = profile_operand_stream_parallel(
            adder, ops, lanes=8, workers=1, chunk_batches=1
        )
        assert chunked.sp == mono.sp
        assert chunked.samples == mono.samples
        assert chunked.ones == mono.ones

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_any_worker_count_is_bit_identical(self, adder, workers):
        if not fork_available():
            pytest.skip("no fork start method on this platform")
        ops = _stream(2, 120)
        serial = profile_operand_stream_parallel(
            adder, ops, lanes=8, workers=1, chunk_batches=2
        )
        parallel = profile_operand_stream_parallel(
            adder, ops, lanes=8, workers=workers, chunk_batches=2
        )
        assert parallel.sp == serial.sp
        assert parallel.ones == serial.ones
        assert parallel.samples == serial.samples

    def test_scalar_reference_equals_packed(self, adder):
        ops = _stream(3, 30)
        packed = profile_operand_stream(adder, ops, lanes=8)
        reference = profile_operand_stream_reference(adder, ops)
        assert reference.sp == packed.sp
        assert reference.samples == packed.samples

    def test_workload_split_equals_concatenation(self, adder):
        """Sharding across named workloads == one concatenated stream,
        as long as the split lands on a chunk boundary."""
        a, b = _stream(4, 32), _stream(5, 48)
        joint = profile_operand_stream_parallel(
            adder, a + b, lanes=8, chunk_batches=4
        )
        split = profile_workload_streams(
            adder, {"first": a, "second": b}, lanes=8, chunk_batches=4
        )
        assert split.sp == joint.sp
        assert split.samples == joint.samples

    def test_empty_stream_raises(self, adder):
        with pytest.raises(ValueError):
            profile_workload_streams(adder, {"w": []})


class TestSPProfileMerge:
    def test_partial_profile_is_not_deflated(self):
        """A net observed by only one operand keeps that operand's SP.

        The old merge averaged against an implicit 0.0 for the other
        profile's samples, silently deflating BTI stress for nets one
        shard never saw.
        """
        a = SPProfile("n", {"x": 1.0, "y": 0.5}, samples=10)
        b = SPProfile("n", {"y": 0.5}, samples=30)
        merged = a.merge(b)
        assert merged.sp["x"] == 1.0
        assert merged.sp["y"] == 0.5
        assert merged.samples == 40

    def test_merge_with_counts_is_exact_and_associative(self, adder):
        ops = _stream(6, 96)
        parts = [
            profile_operand_stream(adder, ops[i : i + 32], lanes=8)
            for i in (0, 32, 64)
        ]
        a, b, c = parts
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.sp == right.sp
        assert left.ones == right.ones
        assert left.samples == right.samples == 96 * 3  # 1 + 2 drain
        # ...and both equal the unsharded run.
        whole = profile_operand_stream(adder, ops, lanes=8)
        assert left.sp == whole.sp

    def test_merge_rejects_different_netlists(self):
        with pytest.raises(ValueError):
            SPProfile("x", {}, 1).merge(SPProfile("y", {}, 1))

    def test_json_round_trip_preserves_samples_and_counts(self, adder):
        profile = profile_operand_stream(adder, _stream(7, 24), lanes=8)
        restored = SPProfile.from_json(profile.to_json())
        assert restored.netlist_name == profile.netlist_name
        assert restored.samples == profile.samples
        assert restored.sp == profile.sp
        assert restored.ones == profile.ones

    def test_json_round_trip_without_counts(self):
        profile = SPProfile("n", {"x": 0.25}, samples=4)
        restored = SPProfile.from_json(profile.to_json())
        assert restored.ones is None
        assert restored.sp == {"x": 0.25}


class TestStructuralHash:
    def test_rebuilt_netlist_hashes_identically(self):
        # Two independent builds intern different Bit objects (different
        # ids), so this catches any id()-order dependence in synthesis
        # or hashing.
        assert (
            build_paper_adder().structural_hash()
            == build_paper_adder().structural_hash()
        )

    def test_synthesized_design_hashes_identically(self):
        from repro.cpu.alu_design import build_alu

        assert build_alu().structural_hash() == build_alu().structural_hash()

    def test_hash_tracks_structure(self, adder):
        other = build_paper_adder()
        h0 = other.structural_hash()
        inst = other.instances["x8"]
        other.rewire_input(inst, "A", other.nets["carry"])
        assert other.structural_hash() != h0


class TestArtifactCache:
    def test_digest_is_order_insensitive_for_kwargs_like_parts(self):
        assert ArtifactCache.digest("a", 1) != ArtifactCache.digest("a", 2)
        assert ArtifactCache.digest("a", 1) == ArtifactCache.digest("a", 1)

    def test_stream_digest_depends_on_content_only(self):
        ops = _stream(8, 10)
        same = [dict(op) for op in ops]
        assert ArtifactCache.stream_digest(ops) == ArtifactCache.stream_digest(same)
        changed = [dict(op) for op in ops]
        changed[3]["a"] ^= 1
        assert ArtifactCache.stream_digest(ops) != ArtifactCache.stream_digest(changed)

    def test_store_load_round_trip(self, tmp_path, adder):
        cache = ArtifactCache(tmp_path)
        profile = profile_operand_stream(adder, _stream(9, 16), lanes=8)
        key = ArtifactCache.digest("sp-profile", "k")
        cache.store_profile(key, profile)
        loaded = cache.load_profile(key)
        assert loaded.sp == profile.sp
        assert loaded.ones == profile.ones
        assert (cache.hits, cache.misses) == (1, 0)
        assert cache.load_profile(ArtifactCache.digest("nope")) is None
        assert (cache.hits, cache.misses) == (1, 1)


class TestWorkflowCaching:
    def _run(self, tmp_path, adder, stream):
        config = VegaConfig(
            aging=AgingAnalysisConfig(profile_lanes=8),
            cache_dir=str(tmp_path),
        )
        workflow = VegaWorkflow(config)
        profile, result = workflow.run_aging_analysis(
            adder, stream, workload_id="unit-test"
        )
        return workflow, profile, result

    def test_second_run_simulates_nothing(self, tmp_path, adder):
        stream = _stream(10, 64)
        w1, p1, r1 = self._run(tmp_path, adder, stream)
        assert w1.last_cache_stats == (0, 2)
        before = simulated_cycles()
        w2, p2, r2 = self._run(tmp_path, adder, stream)
        assert simulated_cycles() == before  # zero cycles simulated
        assert w2.last_cache_stats == (2, 0)
        # Cached run reproduces the uncached result bit-for-bit.
        assert p2.sp == p1.sp and p2.samples == p1.samples
        assert r2.period_ns == r1.period_ns
        assert [
            (v.start, v.end, v.kind, v.arrival)
            for v in r2.report.violations
        ] == [
            (v.start, v.end, v.kind, v.arrival)
            for v in r1.report.violations
        ]

    def test_changed_stream_misses(self, tmp_path, adder):
        self._run(tmp_path, adder, _stream(11, 64))
        w2, _, _ = self._run(tmp_path, adder, _stream(12, 64))
        hits, misses = w2.last_cache_stats
        assert misses >= 1

    def test_cache_disabled_reports_no_stats(self, adder):
        workflow = VegaWorkflow(VegaConfig(aging=AgingAnalysisConfig(profile_lanes=8)))
        workflow.run_aging_analysis(adder, _stream(13, 32))
        assert workflow.last_cache_stats is None
