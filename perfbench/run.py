"""Benchmark runner: cold suite builds and fleet operations, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload alu-fleet --seed 1 \
        --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run (see ``perfbench/NOTES.md``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time

from speed import SpeedClock, Timing
from tracing import Tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Rounds a run measures unless that would pass ``RUN_LIMIT_S``.
MIN_ROUNDS = 2
#: Seconds since start past which a run starts no round that would not
#: end in time, so that it ends within the 180 s a run is allowed.
RUN_LIMIT_S = 150.0
#: perf_counter() when the process started measuring itself.
STARTED = time.perf_counter()

#: End-to-end metric -> (op kind, time per op or work rate).
OP_METRICS = {
    "suite_build_s": ("build", "time"),
    "resume_s": ("resume", "time"),
    "onset_devices_per_s": ("onset", "rate"),
    "campaign_devices_per_s": ("campaign", "rate"),
    "serve_events_per_s": ("serve", "rate"),
    "sharded_events_per_s": ("sharded", "rate"),
}


def metric_units(group: str) -> dict:
    """Name -> unit of the ``group`` metrics in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[group]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smallest fleet sizes and one round (self-tests)",
    )
    return parser.parse_args(argv)


def end_to_end(setup, ops, scaled: bool = True) -> dict:
    """Reference-speed metrics over the run's passing ops (or raw wall).

    Each metric is the median over the run's ops of its kind: of their
    times, or of their rates (work over time).
    """
    ops = [op for op in ops if op.ok]
    metrics = {"setup_s": setup.scaled if scaled else setup.wall}
    for name, (kind, how) in OP_METRICS.items():
        values = []
        for op in ops:
            if op.kind == kind:
                seconds = op.scaled_s if scaled else op.wall_s
                values.append(seconds if how == "time" else op.work / seconds)
        metrics[name] = statistics.median(values) if values else 0.0
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return metrics


def run_paired(bench, ops, tracer: Tracer, traced_first: int):
    """Run each op untraced and traced, back to back.

    Which twin runs first alternates from op to op, and between rounds
    through ``traced_first``, so a process that is still speeding up or
    a host that is drifting favours neither.  Returns (untraced, traced)
    result pairs.
    """
    pairs = []
    for index, op in enumerate(ops):
        pair = {}
        order = (True, False) if (index + traced_first) % 2 else (False, True)
        for traced in order:
            if traced:
                tracer.install()
                bench.tracer = tracer
                try:
                    pair[traced] = op()
                finally:
                    tracer.uninstall()
                    bench.tracer = None
            else:
                pair[traced] = op()
        pairs.append((pair[False], pair[True]))
    return pairs


def measure(bench, seconds: float, trace: bool, min_rounds: int):
    """Run rounds while less than ``seconds`` have passed.

    A run does at least ``min_rounds`` rounds, unless the next would end
    past ``RUN_LIMIT_S`` seconds after the process started.  An untraced
    round is a list of op results.  A traced round is ``(tracer,
    pairs)``: every op run untraced and traced (see :func:`run_paired`).
    """
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace:
            tracer = Tracer()
            ops = bench.round_ops(len(rounds))
            rounds.append(
                (tracer, run_paired(bench, ops, tracer, len(rounds) % 2))
            )
        else:
            rounds.append([op() for op in bench.round_ops(len(rounds))])
        walls.append(time.perf_counter() - t0)
        now = time.perf_counter()
        if now + statistics.median(walls) - STARTED > RUN_LIMIT_S or (
            len(rounds) >= min_rounds and now - start >= seconds
        ):
            return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    clock = SpeedClock()
    with clock.timed() as import_time:
        import repro  # noqa: F401  (the timed import)
        import ops
    import layers

    if args.workload not in ops.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(ops.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = ops.WORKLOADS[args.workload]
    if args.tiny:
        workload = ops.tiny(workload)

    workdir_root = ROOT / ".perfbench-work"
    workdir_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workdir_root)
    try:
        bench = ops.Bench(workload, args.seed, workdir, clock)
        prepared = bench.setup(full=not args.trace)
        setup = Timing(import_time.wall + prepared.wall,
                       import_time.scaled + prepared.scaled)
        # A traced run needs two rounds for two pairs per op kind.
        min_rounds = 1 if args.tiny and not args.trace else MIN_ROUNDS
        rounds = measure(bench, args.seconds, bool(args.trace), min_rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir_root.rmdir()
        except OSError:
            pass

    if args.trace:
        all_ops = [op for _, pairs in rounds for pair in pairs for op in pair]
        for index, (_, pairs) in enumerate(rounds):
            print(f"round {index} (untraced/traced wall s): " + " ".join(
                f"{u.kind}={u.wall_s:.3f}/{t.wall_s:.3f}" for u, t in pairs
            ))
    else:
        all_ops = [op for ops_ in rounds for op in ops_]
        for index, ops_ in enumerate(rounds):
            print(f"round {index} (wall s/scaled s/work): " + " ".join(
                f"{op.kind}={op.wall_s:.3f}/{op.scaled_s:.3f}/{op.work}"
                for op in ops_
            ))
    failed = [op for op in all_ops if not op.ok]
    for op in failed:
        print(f"FAILED {op.kind}: {op.error}")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} "
          f"round(s), {len(all_ops)} op(s), {len(failed)} failed, "
          f"failed_op_frac {len(failed) / len(all_ops):.4f}")

    if args.trace:
        units = metric_units("per_layer")
        metrics = layers.per_layer(rounds, import_time.wall, units)
        layers.print_layer_table(rounds)
        print("per-layer metrics (median over traced rounds)")
        for name, value in metrics.items():
            print(f"  {name:28s} {value:14.6g} {units[name]}")
    else:
        units = metric_units("end_to_end")
        metrics = end_to_end(setup, all_ops)
        raw = end_to_end(setup, all_ops, scaled=False)
        print("end-to-end metrics (untraced)   reference-speed       wall")
        for name in units:
            print(f"  {name:28s} {metrics[name]:14.6g} {raw[name]:10.6g} "
                  f"{units[name]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
