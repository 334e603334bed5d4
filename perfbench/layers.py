"""Per-layer metrics of the traced run.

Each metric is computed per traced round (one traced op of each kind)
and the run reports the median over its traced rounds.  ``_s`` metrics
are summed call time of the named public calls: parent-process spans
plus, for calls that ran in the builds' fork workers, the
``perfbench.<span>`` counters those workers ship home.  Counts come
from the program's own telemetry counters, the ops' reports, or the
tracer.  The metric names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def ops_wall(tracer) -> float:
    """Wall time inside the round's ops (probes and checks excluded)."""
    return sum(s.duration for s in tracer.spans if s.parent is None)


def round_metrics(tracer, ops) -> dict:
    """Every per-layer metric of one traced round (except run-level ones)."""
    counters: dict = {}
    by_kind = {}
    for op in ops:
        by_kind[op.kind] = op
        for name, value in op.counters.items():
            counters[name] = counters.get(name, 0) + value
    pair_walls = [
        record["attrs"]["wall_s"]
        for op in ops
        for record in op.events
        if record["name"] == "lifting.pair"
    ]

    def c(name):
        return counters.get(name, 0)

    def op_counter(kind, name):
        op = by_kind.get(kind)
        return op.counters.get(name, 0) if op is not None else 0

    def op_stat(kind, name):
        op = by_kind.get(kind)
        return op.stats.get(name, 0) if op is not None else 0

    def call(name):
        # Worker-side time counts only from the builds' fork pools;
        # shard processes report through DistributedOutcome.stats.
        shipped = sum(
            op.counters.get(f"perfbench.{name}", 0)
            for op in ops if op.kind == "build"
        )
        return tracer.call_time(name) + shipped

    collect = call("workloads.collect")
    instructions = tracer.counts.get("workloads.instructions", 0)
    sharded = by_kind.get("sharded")
    stats = sharded.stats if sharded is not None else {}
    clients = stats.get("clients_wall_seconds", 0.0)
    drain = stats.get("drain_wall_seconds", 0.0)
    self_times = tracer.self_times()
    return {
        "rtl.synth_s": call("rtl.synth"),
        "workloads.collect_s": collect,
        "workloads.instructions": instructions,
        "workloads.instr_per_s": _ratio(instructions, collect),
        "sim.profile_s": call("sim.profile"),
        "sim.cycles": c("sim.cycles"),
        "sim.run_planes_s": call("sim.run_planes"),
        "aging.characterize_s": call("aging.characterize"),
        "aging.delay_model_s": call("aging.delay_model"),
        "aging.delay_models": tracer.counts.get("aging.delay_models", 0),
        "sta.analyze_s": call("sta.analyze"),
        "sta.check_s": call("sta.check"),
        "sta.paths_timed": c("sta.paths_timed"),
        "surrogate.probes": c("surrogate.oracle.probes"),
        "lifting.lift_s": call("lifting.lift"),
        "lifting.pair_p50_s": (
            statistics.median(pair_walls) if pair_walls else 0.0
        ),
        "lifting.instrument_s": call("lifting.instrument"),
        "lifting.map_s": call("lifting.map"),
        "lifting.pairs": c("lifting.pairs"),
        "lifting.tests": op_stat("build", "tests"),
        "formal.bmc_s": call("formal.bmc"),
        "formal.sat_s": call("formal.sat"),
        "formal.sat_solves": c("sat.solves"),
        "formal.conflicts": c("sat.conflicts"),
        "formal.propagations": c("sat.propagations"),
        "formal.covered_frac": _ratio(c("bmc.covered"), c("bmc.queries")),
        "integration.library_s": call("integration.library"),
        "integration.suite_cycles": c("integration.suite_cycles"),
        "artifacts.load_s": call("artifacts.load"),
        "artifacts.store_s": call("artifacts.store"),
        "artifacts.hits": tracer.counts.get("artifacts.hits", 0),
        "artifacts.misses": tracer.counts.get("artifacts.misses", 0),
        "campaign.run_s": call("campaign.run"),
        "campaign.prefilter_s": call("campaign.prefilter"),
        "campaign.memo_hit_frac": _ratio(
            op_counter("campaign", "campaign.outcome_memo_hits"),
            op_counter("campaign", "campaign.devices"),
        ),
        "campaign.packed_planes": op_counter(
            "campaign", "campaign.packed_planes"
        ),
        "campaign.packed_replays": op_counter(
            "campaign", "campaign.packed_replays"
        ),
        "campaign.stalls": op_counter("campaign", "campaign.stalls"),
        "scheduler.plan_s": call("scheduler.plan"),
        "scheduler.arm_exec_s": call("scheduler.arm_exec"),
        "scheduler.ticks": op_stat("serve", "ticks"),
        "scheduler.events": op_stat("serve", "events"),
        "scheduler.retries": op_counter("serve", "scheduler.client_retries"),
        "distributed.clients_s": clients,
        "distributed.drain_s": drain,
        "distributed.p99_tick_s": stats.get("p99_tick_wall_seconds", 0.0),
        "distributed.rest_s": (
            sharded.wall_s - clients - drain if sharded is not None else 0.0
        ),
        "unattributed_frac": _ratio(
            self_times.get("op", 0.0), ops_wall(tracer)
        ),
    }


def per_layer(traced_rounds, import_s: float, names) -> dict:
    """Median of each metric over the traced rounds, plus run-level ones.

    ``traced_rounds`` holds one ``(tracer, pairs)`` entry per round,
    each pair an op run untraced and traced back to back.
    ``trace_overhead_frac`` is the traced ops' wall time over that of
    their untraced twins, minus 1.
    """
    per_round = [
        round_metrics(tracer, [traced for _, traced in pairs])
        for tracer, pairs in traced_rounds
    ]
    pairs = [pair for _, round_pairs in traced_rounds for pair in round_pairs]
    run_level = {
        "import.s": import_s,
        "trace_overhead_frac": (
            sum(traced.wall_s for _, traced in pairs)
            / sum(untraced.wall_s for untraced, _ in pairs) - 1
        ),
    }
    return {
        name: run_level[name] if name in run_level
        else statistics.median(r[name] for r in per_round)
        for name in names
    }


def print_layer_table(traced_rounds) -> None:
    """Self time per layer and its share of op wall time (median round).

    Fork workers report their self time per layer through the shipped
    ``perfbench.self.<layer>`` counters, summed over workers; it runs
    while the parent's calling span (lifting or sim) waits for it, so
    that wait is also in the parent's self time of the calling layer.
    """
    rows = {}
    for tracer, pairs in traced_rounds:
        ops = [traced for _, traced in pairs]
        self_times = tracer.self_times()
        wall = ops_wall(tracer)
        for layer in LAYERS + ("op",):
            value = self_times.get(layer, 0.0)
            worker = sum(
                op.counters.get(f"perfbench.self.{layer}", 0.0) for op in ops
            )
            rows.setdefault(layer, []).append((value, value / wall, worker))
    print("layer self time per traced round (median over rounds); "
          "worker s is summed over fork workers")
    print(f"  {'layer':14s} {'self s':>10s} {'share':>8s} {'worker s':>10s}")
    for layer, values in rows.items():
        label = "unattributed" if layer == "op" else layer
        medians = [statistics.median(v[i] for v in values) for i in range(3)]
        print(f"  {label:14s} {medians[0]:10.4f} {medians[1]:8.2%} "
              f"{medians[2]:10.4f}")
