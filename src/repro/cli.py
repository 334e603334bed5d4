"""Command-line interface: ``python -m repro <command>``.

Drives the Vega workflow from a shell, mirroring how the paper's tools
would be packaged for a silicon/reliability team:

=============  =====================================================
command        effect
=============  =====================================================
workloads      list the embench-style benchmark programs
run            all three phases, with --trace/--metrics/--resume
profile        phase 1 front half: cached/parallel SP profiling + aged STA
sta            phase 1: SP profiling + aging-aware STA for a unit
lift           phase 2: formal test construction (Table 4 view)
suite          emit test-suite artifacts (assembly / C / routine)
inject         emit a failing netlist as Verilog
detect         run the generated suite against an injected failure
integrate      phase 3: profile-guided splicing into a workload
trace          summarize a JSONL telemetry trace
campaign       fleet-scale fault-injection campaigns (run / report)
bench          canonical benchmark trajectory (compare / report)
surrogate      ML aging surrogate (train / validate / triage)
attack         adversarial wearout scenarios (search / run)
respond        detection→response reconfiguration policies
=============  =====================================================
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Tuple

from .core.experiments import default_context
from .lifting.models import CMode, FailureModel, ViolationKind


def _add_unit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--unit", choices=("alu", "fpu"), default="alu",
        help="functional unit under analysis",
    )


def _add_mitigation(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mitigation", action="store_true",
        help="enable the initial-value-dependency mitigation (edge-"
             "qualified failure models, §3.3.4)",
    )


def _add_surrogate_data(p: argparse.ArgumentParser) -> None:
    """Arguments shared by ``surrogate train`` and ``surrogate validate``."""
    _add_unit(p)
    p.add_argument("--samples", type=int, default=96,
                   help="labeled sweep size (default: 96)")
    p.add_argument("--seed", type=int, default=7,
                   help="surrogate seed; drives every dataset draw")


def _shared_flags() -> Tuple[argparse.ArgumentParser, ...]:
    """Flags several verbs share, each declared once as a parent parser.

    Returns the ``(workers, cache, resume, trace)`` parents: fork pool
    width, the artifact cache, restart from its checkpoints, and the
    telemetry output of the traced verbs (see :func:`_traced`).
    """
    workers, cache, resume, trace = (
        argparse.ArgumentParser(add_help=False) for _ in range(4)
    )
    workers.add_argument(
        "--workers", type=int, default=1,
        help="fork worker processes; 0 = one per usable CPU (results "
             "are byte-identical for any count; serial without fork)",
    )
    cache.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache (and its checkpoints)",
    )
    cache.add_argument(
        "--cache-dir", default=".vega-cache",
        help="artifact cache root (default: .vega-cache)",
    )
    resume.add_argument(
        "--resume", action="store_true",
        help="resume from the checkpoints in the artifact cache instead "
             "of starting fresh (requires the cache)",
    )
    trace.add_argument(
        "--trace", metavar="FILE",
        help="write the JSONL telemetry trace to FILE",
    )
    trace.add_argument(
        "--metrics", action="store_true",
        help="print the markdown metrics summary",
    )
    return workers, cache, resume, trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vega: proactive runtime detection of aging-related "
                    "silent data corruptions (ASPLOS'24 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    workers, cache, resume, trace = _shared_flags()
    # The traced verbs: run, campaign run, attack search/run, respond.
    traced = [workers, cache, resume, trace]

    sub.add_parser("workloads", help="list benchmark workloads")

    p = sub.add_parser(
        "run",
        help="full three-phase workflow with tracing and checkpoints",
        parents=traced,
    )
    _add_unit(p)
    _add_mitigation(p)
    p.add_argument(
        "--max-paths", type=int, default=50,
        help="violating-path cap per endpoint for phase-1 STA",
    )

    p = sub.add_parser(
        "trace", help="inspect JSONL telemetry traces"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    p = trace_sub.add_parser(
        "summarize",
        help="render a trace's metrics summary (non-zero exit when the "
             "trace is empty or unparseable)",
    )
    p.add_argument("file", help="JSONL trace written by repro run --trace")

    p = sub.add_parser(
        "profile",
        help="SP profiling + aged delay model (phase 1, parallel + cached)",
        parents=[workers, cache],
    )
    _add_unit(p)
    p.add_argument(
        "--reference-sta", action="store_true",
        help="use the dict-walking reference STA instead of the "
             "vectorized engine (for A/B comparison)",
    )

    p = sub.add_parser("sta", help="aging analysis (phase 1)")
    _add_unit(p)
    p.add_argument("--paths", type=int, default=0,
                   help="also print the N worst violating paths in "
                        "report_timing style")

    p = sub.add_parser(
        "lift", help="error lifting (phase 2)", parents=[workers]
    )
    _add_unit(p)
    _add_mitigation(p)

    p = sub.add_parser("suite", help="emit test-suite artifacts")
    _add_unit(p)
    _add_mitigation(p)
    p.add_argument(
        "--format", choices=("asm", "c", "routine"), default="asm",
        help="artifact flavour: standalone assembly suite, C library "
             "source, or the spliceable __vega_tests routine",
    )
    p.add_argument("-o", "--output", help="write to file instead of stdout")

    p = sub.add_parser("inject", help="emit a failing netlist (Verilog)")
    _add_unit(p)
    p.add_argument("--start", required=True, help="launch flop (X)")
    p.add_argument("--end", required=True, help="capture flop (Y)")
    p.add_argument("--kind", choices=("setup", "hold"), default="setup")
    p.add_argument("--c", choices=("0", "1", "R"), default="0",
                   help="wrongly-sampled value C")
    p.add_argument("-o", "--output", help="write to file instead of stdout")

    p = sub.add_parser("detect", help="run the suite against a failure")
    _add_unit(p)
    _add_mitigation(p)
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--kind", choices=("setup", "hold"), default="setup")
    p.add_argument("--c", choices=("0", "1", "R"), default="0")

    p = sub.add_parser(
        "verify",
        help="formally check the unit's Verilog round-trip and the "
             "optimizer with the built-in equivalence checker",
    )
    _add_unit(p)
    p.add_argument("--depth", type=int, default=3)

    p = sub.add_parser(
        "models", help="export the circuit-level failure-model library"
    )
    _add_unit(p)
    p.add_argument("-o", "--output", required=True, help="output directory")

    p = sub.add_parser(
        "campaign",
        help="fleet-scale fault-injection detection campaigns",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)
    p = campaign_sub.add_parser(
        "run",
        help="sample a virtual fleet and run the detection suites "
             "against every device (bit-identical for any --workers)",
        parents=traced,
    )
    _add_unit(p)
    _add_mitigation(p)
    p.add_argument("--devices", type=int, default=12,
                   help="fleet size (default: 12)")
    p.add_argument("--seed", type=int, default=2024,
                   help="campaign seed; drives every fleet draw")
    p.add_argument("--shard-size", type=int, default=4,
                   help="devices per shard (the checkpoint/resume unit)")
    p.add_argument("--no-packed", action="store_true",
                   help="disable the packed multi-model prefilter and "
                        "co-simulate every failure model serially "
                        "(results are bit-identical either way)")
    p.add_argument("--pack-width", type=int, default=64,
                   help="max failure-model bit-planes per packed "
                        "gate-sim group (default: 64)")
    p.add_argument("--suites", default="vega,random,silifuzz",
                   help="comma-separated detection suites to run")
    p.add_argument("--strategy", choices=("sequential", "random"),
                   default="sequential", help="suite scheduling strategy")
    p.add_argument("--onset-years", type=float, default=None,
                   help="base violation-onset age; defaults to a "
                        "lifetime-sweep estimate for the unit")
    p.add_argument("--report", metavar="FILE",
                   help="write the CampaignReport JSON to FILE")
    p = campaign_sub.add_parser(
        "report", help="render a CampaignReport JSON file as markdown"
    )
    p.add_argument("file", help="report JSON written by campaign run --report")

    p = sub.add_parser(
        "attack",
        help="adversarial wearout scenarios: craft a stress-maximizing "
             "workload and measure Vega's detection lead on the "
             "attacked fleet",
    )
    attack_sub = p.add_subparsers(dest="attack_command", required=True)

    def _add_attack_search(p: argparse.ArgumentParser) -> None:
        _add_unit(p)
        p.add_argument("--attack-seed", type=int, default=99,
                       help="adversary seed; drives every candidate, "
                            "mutation, and attacked-subset draw")
        p.add_argument("--candidates", type=int, default=8,
                       help="seeded candidate streams (default: 8)")
        p.add_argument("--rounds", type=int, default=3,
                       help="beam-refinement rounds (default: 3)")
        p.add_argument("--beam", type=int, default=3,
                       help="survivors kept per round (default: 3)")
        p.add_argument("--mutations", type=int, default=4,
                       help="mutants per survivor per round (default: 4)")
        p.add_argument("--stream-ops", type=int, default=192,
                       help="operations per candidate stream")
        p.add_argument("--lanes", type=int, default=64,
                       help="packed profiling lanes per candidate")
        p.add_argument("--report", metavar="FILE",
                       help="write the result JSON to FILE")

    p = attack_sub.add_parser(
        "search",
        help="search for the operand stream maximizing BTI stress on "
             "the unit's violating cones",
        parents=traced,
    )
    _add_attack_search(p)
    p = attack_sub.add_parser(
        "run",
        help="attack-fleet campaign: natural vs attacked twins at "
             "equal suite budget, reporting detection lead",
        parents=traced,
    )
    _add_attack_search(p)
    _add_mitigation(p)
    p.add_argument("--devices", type=int, default=12,
                   help="fleet size (default: 12)")
    p.add_argument("--seed", type=int, default=2024,
                   help="campaign seed; both fleets draw the same "
                        "individuals from it")
    p.add_argument("--shard-size", type=int, default=4,
                   help="devices per shard (the checkpoint/resume unit)")
    p.add_argument("--suites", default="vega,random",
                   help="comma-separated detection suites to run")
    p.add_argument("--attack-fraction", type=float, default=1.0,
                   help="fraction of the fleet the attacker reaches")
    p.add_argument("--onset-years", type=float, default=None,
                   help="base violation-onset age; defaults to a "
                        "lifetime-sweep estimate for the unit")

    p = sub.add_parser(
        "respond",
        help="evaluate reconfiguration responses (derate / resynth / "
             "approximate) against the unit's aged timing",
        parents=traced,
    )
    _add_unit(p)
    p.add_argument("--policies", default="derate,resynth,approximate",
                   help="comma-separated response policies to evaluate")
    p.add_argument("--mission-years", type=float, default=10.0,
                   help="deployment window recovery is measured against")
    p.add_argument("--accuracy-samples", type=int, default=128,
                   help="operand frames sampled for the approximate "
                        "policy's accuracy cost")
    p.add_argument("--seed", type=int, default=17,
                   help="seed for the response.accuracy RNG stream")
    p.add_argument("--report", metavar="FILE",
                   help="write the ResponseReport JSON to FILE")

    p = sub.add_parser(
        "bench",
        help="canonical benchmark sample documents (BENCH_*.json): "
             "regression gate and markdown trajectory",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser(
        "compare",
        help="diff candidate samples against a committed baseline; "
             "exits nonzero on >threshold slowdowns, missing metrics, "
             "or unit mismatches",
    )
    p.add_argument("baseline", help="baseline BENCH_<name>.json")
    p.add_argument("candidate", help="candidate BENCH_<name>.json")
    p.add_argument(
        "--threshold", type=float, default=10.0, metavar="PCT",
        help="tolerated worsening per metric, percent (default: 10)",
    )
    p.add_argument(
        "--timing-warn-only", action="store_true",
        help="downgrade regressions of timing-tagged samples to "
             "warnings (for noisy shared CI runners); count-derived "
             "metrics still hard-fail",
    )
    p = bench_sub.add_parser(
        "report", help="render BENCH_*.json documents as markdown"
    )
    p.add_argument("files", nargs="+", help="BENCH_<name>.json documents")

    p = sub.add_parser(
        "surrogate",
        help="ML aging surrogate: train on exact charlib+STA labels, "
             "validate held-out recall, triage fleets",
    )
    surrogate_sub = p.add_subparsers(dest="surrogate_command", required=True)
    p = surrogate_sub.add_parser(
        "train",
        help="generate the labeled sweep (cached, parallel), fit the "
             "ridge surrogate, calibrate the triage threshold, and "
             "validate held-out recall (fails closed below the floor)",
        parents=[workers, cache],
    )
    _add_surrogate_data(p)
    p.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="model snapshot path (default: "
                        "surrogate_<unit>.json)")
    p = surrogate_sub.add_parser(
        "validate",
        help="re-validate a trained surrogate snapshot against the "
             "held-out rows of its labeled sweep",
        parents=[workers, cache],
    )
    _add_surrogate_data(p)
    p.add_argument("--model", required=True, metavar="FILE",
                   help="trained surrogate snapshot (surrogate train -o)")
    p = surrogate_sub.add_parser(
        "triage",
        help="score a sampled fleet with the surrogate, clear the "
             "safe cohort, and run the campaign suites against the "
             "exactly re-verified risky tail",
    )
    _add_unit(p)
    _add_mitigation(p)
    p.add_argument("--model", required=True, metavar="FILE",
                   help="trained surrogate snapshot (surrogate train -o)")
    p.add_argument("--devices", type=int, default=32,
                   help="fleet size (default: 32)")
    p.add_argument("--seed", type=int, default=2024,
                   help="fleet seed (surrogate.fleet streams)")
    p.add_argument("--suites", default="vega",
                   help="comma-separated detection suites for the tail")
    p.add_argument("--surrogate-seed", type=int, default=7,
                   help="surrogate seed (per-net workload noise streams; "
                        "must match the training sweep's)")
    p.add_argument("--report", metavar="FILE",
                   help="write the tail CampaignReport JSON to FILE")
    p.add_argument("--verify-exact", action="store_true",
                   help="also run the all-exact profiled campaign and "
                        "assert the flagged devices' report rows are "
                        "byte-identical (exits nonzero on divergence)")

    p = sub.add_parser(
        "serve",
        help="run the online detection service over a simulated fleet "
             "(streaming ingestion, belief checkpoints, event log)",
        parents=[cache, resume],
    )
    _add_scheduler(p)
    p.add_argument("--kill-after", type=int, default=None, metavar="N",
                   help="simulate an abrupt service death after N "
                        "ingested results (for restart drills; with "
                        "--shards, N counts the killed shard's events)")
    p.add_argument("--shards", type=int, default=None, metavar="N",
                   help="shard the fleet belief across N worker "
                        "processes behind the frame-protocol router "
                        "(default: single-process service)")
    p.add_argument("--local-shards", action="store_true",
                   help="with --shards: drive the shard services "
                        "in-process instead of forking workers (the "
                        "byte-identical determinism reference)")
    p.add_argument("--kill-shard", type=int, default=None, metavar="K",
                   help="with --shards and --kill-after: kill shard K "
                        "after N shard-local ingested results")
    p.add_argument("--metrics-port", type=int, default=None, metavar="P",
                   help="serve Prometheus text on 127.0.0.1:P/metrics "
                        "during the run (0 picks an ephemeral port)")
    p.add_argument("--metrics-linger", type=float, default=0.0,
                   metavar="SEC",
                   help="keep the /metrics endpoint up SEC seconds "
                        "after the run drains (for one-shot scrapes)")
    p.add_argument("--stale-after", type=float, default=5.0,
                   metavar="SEC",
                   help="heartbeat staleness threshold before a "
                        "shard-stall alert fires (default: 5s)")
    p.add_argument("--webhook", metavar="URL", default=None,
                   help="POST shard-stall/death and divergence alerts "
                        "to URL as JSON (best-effort)")

    p = sub.add_parser(
        "schedule",
        help="drive an adaptive dispatch schedule to completion and "
             "report per-policy detection outcomes",
        parents=[cache],
    )
    _add_scheduler(p)
    p.add_argument("--report", metavar="FILE",
                   help="write the ScheduleReport JSON to FILE")
    p.add_argument("--verify-replay", action="store_true",
                   help="re-execute the run and verify the event log "
                        "reproduces byte for byte")

    p = sub.add_parser("integrate", help="profile-guided integration")
    p.add_argument("--workload", default="crc32")
    p.add_argument("--threshold", type=float, default=0.01,
                   help="overhead budget (fraction of instructions)")
    p.add_argument("--units", default="alu,fpu",
                   help="comma-separated units whose suites to embed")
    _add_mitigation(p)

    return parser


def _add_scheduler(p) -> None:
    """Arguments shared by the ``serve`` and ``schedule`` verbs."""
    _add_unit(p)
    _add_mitigation(p)
    p.add_argument("--devices", type=int, default=12,
                   help="fleet size (default: 12)")
    p.add_argument("--seed", type=int, default=2024,
                   help="fleet seed (same streams as campaign run)")
    p.add_argument("--policy", default="thompson",
                   help="dispatch policy: sequential, greedy, thompson")
    p.add_argument("--policy-seed", type=int, default=7,
                   help="seed for the policy's sampling streams")
    p.add_argument("--budget", type=int, default=25_000,
                   help="per-device cycle budget (default: 25000)")
    p.add_argument("--batch-size", type=int, default=16,
                   help="max dispatches per planning tick")
    p.add_argument("--batch-window", type=int, default=4,
                   help="scheduler passes to wait for a full batch")
    p.add_argument("--queue", type=int, default=64,
                   help="ingest queue bound (backpressure threshold)")
    p.add_argument("--checkpoint-every", type=int, default=25,
                   help="belief checkpoint period, in ingested results")
    p.add_argument("--suites", default="vega,random,silifuzz",
                   help="comma-separated suites providing dispatch arms")
    p.add_argument("--strategy", choices=("sequential", "random"),
                   default="sequential", help="suite assembly strategy")
    p.add_argument("--onset-years", type=float, default=None,
                   help="base violation-onset age; defaults to a "
                        "lifetime-sweep estimate for the unit")
    p.add_argument("--log", metavar="FILE",
                   help="write the JSONL event log to FILE")


def _model_from_args(args) -> FailureModel:
    return FailureModel(
        start=args.start,
        end=args.end,
        kind=ViolationKind.SETUP if args.kind == "setup" else ViolationKind.HOLD,
        c_mode={"0": CMode.ZERO, "1": CMode.ONE, "R": CMode.RANDOM}[args.c],
    )


def _resume_without_cache(args) -> bool:
    """``--resume --no-cache`` is a usage error (the caller exits 2)."""
    if args.resume and args.no_cache:
        print("--resume needs the artifact cache (drop --no-cache)",
              file=sys.stderr)
        return True
    return False


def _traced(verb):
    """Shell of the traced verbs: run, campaign run, attack, respond.

    Rejects ``--resume --no-cache`` with exit 2, runs ``verb`` under a
    fresh :class:`~repro.core.telemetry.Telemetry`, then writes the
    trace (``--trace``) and prints the metrics summary (``--metrics``)
    after the verb's own output.
    """

    @functools.wraps(verb)
    def run(args, out) -> int:
        from .core import telemetry

        if _resume_without_cache(args):
            return 2
        tele = telemetry.Telemetry()
        with telemetry.use(tele):
            code = verb(args, out)
        if args.trace:
            tele.write_jsonl(args.trace)
            print(f"  trace written to {args.trace}", file=out)
        if args.metrics:
            print(file=out)
            print(tele.summary_markdown(), file=out)
        return code

    return run


def cmd_workloads(args, out) -> int:
    from .workloads import WORKLOADS

    for name, workload in sorted(WORKLOADS.items()):
        print(f"{name:12s} [{workload.kind}] {workload.description}", file=out)
    return 0


@_traced
def cmd_run(args, out) -> int:
    from .core.config import (
        AgingAnalysisConfig,
        ErrorLiftingConfig,
        VegaConfig,
    )
    from .core.workflow import VegaWorkflow

    ctx = default_context()
    unit = ctx.unit(args.unit)
    config = VegaConfig(
        aging=AgingAnalysisConfig(
            clock_margin=0.03,
            max_paths_per_endpoint=args.max_paths,
            profile_workers=args.workers,
        ),
        lifting=ErrorLiftingConfig(
            enable_mitigation=args.mitigation,
            workers=args.workers,
        ),
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    workflow = VegaWorkflow(config)
    report = workflow.run(
        unit.netlist,
        ctx.stream(args.unit),
        unit.mapper,
        gated_instances=unit.gated_instances(),
        resume=args.resume,
    )
    print(report.summary(), file=out)
    if report.resumed_phases:
        print("  resumed from checkpoints: "
              + ", ".join(report.resumed_phases), file=out)
    return 0


def cmd_trace(args, out) -> int:
    from .core import telemetry

    try:
        records = telemetry.read_trace(args.file)
    except telemetry.TraceError as exc:
        if "empty" in str(exc):
            print(f"no spans recorded: {args.file} is empty", file=sys.stderr)
        else:
            print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    print(telemetry.summarize_trace(records), file=out)
    return 0


def cmd_profile(args, out) -> int:
    import time

    from .core.config import AgingAnalysisConfig, VegaConfig
    from .core.workflow import VegaWorkflow
    from .workloads import REPRESENTATIVE

    ctx = default_context()
    unit = ctx.unit(args.unit)
    config = VegaConfig(
        aging=AgingAnalysisConfig(
            profile_workers=args.workers,
            sta_vectorized=not args.reference_sta,
        ),
        cache_dir=None if args.no_cache else args.cache_dir,
    )
    workflow = VegaWorkflow(config)
    start = time.perf_counter()
    profile, result = workflow.run_aging_analysis(
        unit.netlist,
        ctx.stream(args.unit),
        gated_instances=unit.gated_instances(),
        workload_id=f"{args.unit}:{REPRESENTATIVE}",
    )
    elapsed = time.perf_counter() - start
    print(f"unit: {args.unit} ({unit.netlist.stats()['_cells']} cells)",
          file=out)
    print(f"profiled {profile.samples} samples "
          f"({len(profile.sp)} nets) in {elapsed:.3f}s "
          f"[workers={args.workers}, "
          f"sta={'reference' if args.reference_sta else 'vectorized'}]",
          file=out)
    print(f"derived period: {result.period_ns:.3f} ns", file=out)
    print(f"aged violations: {len(result.report.violations)} "
          f"({len(result.report.unique_endpoint_pairs())} unique pairs)",
          file=out)
    if workflow.last_cache_stats is not None:
        hits, misses = workflow.last_cache_stats
        print(f"artifact cache: {hits} hit(s), {misses} miss(es) "
              f"at {args.cache_dir}", file=out)
    else:
        print("artifact cache: disabled", file=out)
    return 0


def cmd_sta(args, out) -> int:
    ctx = default_context()
    unit = ctx.unit(args.unit)
    result = unit.sta_result
    report = result.report
    print(f"unit: {args.unit} ({unit.netlist.stats()['_cells']} cells)", file=out)
    print(f"derived period: {result.period_ns:.3f} ns "
          f"({1000/result.period_ns:.0f} MHz)", file=out)
    print(f"fresh violations: {len(result.fresh_report.violations)}", file=out)
    print(f"aged setup: {len(report.setup_violations())} paths, "
          f"WNS {report.wns_setup_ns*1000:.1f} ps", file=out)
    print(f"aged hold:  {len(report.hold_violations())} paths, "
          f"WNS {report.wns_hold_ns*1000:.2f} ps", file=out)
    print("unique endpoint pairs:", file=out)
    for start, end in report.unique_endpoint_pairs():
        print(f"  {start} ~> {end}", file=out)
    if getattr(args, "paths", 0):
        from .sta.aging_sta import AgingAwareSta
        from .sta.report import report_timing

        aged_model, _ = AgingAwareSta(
            unit.netlist,
            ctx.timing_lib,
            config=ctx.config.aging,
            gated_instances=unit.gated_instances(),
        ).aged_delay_model(unit.sp_profile)
        print(file=out)
        print(
            report_timing(
                report, unit.netlist, aged_model, max_paths=args.paths
            ),
            file=out,
        )
    return 0


def cmd_lift(args, out) -> int:
    ctx = default_context()
    unit = ctx.unit(args.unit)
    report = unit.lifting(args.mitigation, workers=getattr(args, "workers", 1))
    print(f"unit: {args.unit}  mitigation: {args.mitigation}", file=out)
    for pair in report.pairs:
        print(f"  {pair.start} ~> {pair.end}: {pair.outcome.value} "
              f"({len(pair.test_cases)} tests)", file=out)
    pct = report.outcome_percentages()
    print(f"S={pct['S']:.1f}% UR={pct['UR']:.1f}% "
          f"FF={pct['FF']:.1f}% FC={pct['FC']:.1f}%", file=out)
    print(f"total tests: {len(report.test_cases)}", file=out)
    return 0


def cmd_suite(args, out) -> int:
    ctx = default_context()
    unit = ctx.unit(args.unit)
    suite = unit.suite(args.mitigation)
    if args.format == "asm":
        text = suite.suite_source()
    elif args.format == "c":
        text = suite.c_source()
    else:
        text = suite.routine_source()
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)", file=out)
    else:
        print(text, file=out)
    return 0


def cmd_inject(args, out) -> int:
    from .lifting.instrument import make_failing_netlist

    ctx = default_context()
    unit = ctx.unit(args.unit)
    failing = make_failing_netlist(unit.netlist, _model_from_args(args))
    text = failing.to_verilog()
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)", file=out)
    else:
        print(text, file=out)
    return 0


def cmd_detect(args, out) -> int:
    from .lifting.instrument import make_failing_netlist

    ctx = default_context()
    unit = ctx.unit(args.unit)
    suite = unit.suite(args.mitigation)
    failing = make_failing_netlist(unit.netlist, _model_from_args(args))
    result = unit.run_suite_against(suite, failing.netlist)
    print(f"injected: {failing.model.label}", file=out)
    if result.stalled:
        print("DETECTED: CPU stall (handshake failure)", file=out)
    elif result.detected:
        print(f"DETECTED by {result.detected_by!r} after "
              f"{result.cycles} cycles", file=out)
    else:
        print("not detected by this suite", file=out)
    return 0 if result.detected else 1


def cmd_verify(args, out) -> int:
    from .formal.equiv import check_equivalence
    from .netlist.opt import optimize
    from .netlist.parser import parse_verilog
    from .netlist.verilog import netlist_to_verilog

    ctx = default_context()
    netlist = ctx.unit(args.unit).netlist
    print(f"unit: {args.unit} ({netlist.stats()['_cells']} cells)", file=out)

    roundtrip = parse_verilog(netlist_to_verilog(netlist))
    verdict = check_equivalence(netlist, roundtrip, depth=args.depth)
    print(f"verilog round-trip equivalent: {verdict.equivalent}", file=out)
    ok = verdict.equivalent is True

    optimized = netlist.clone()
    removed = optimize(optimized)
    verdict2 = check_equivalence(
        netlist, optimized, depth=args.depth, conflict_budget=100_000
    )
    status = (
        "inconclusive (solver budget)"
        if verdict2.equivalent is None
        else verdict2.equivalent
    )
    print(
        f"optimizer ({removed} cells removed) equivalent: {status}",
        file=out,
    )
    ok = ok and verdict2.equivalent is not False
    return 0 if ok else 1


def cmd_models(args, out) -> int:
    from .core.artifacts import export_failure_models, export_suite_artifacts

    ctx = default_context()
    unit = ctx.unit(args.unit)
    failing = unit.failing_netlists(constructed_only=False)
    index = export_failure_models(failing, args.output, unit=args.unit)
    suite_files = export_suite_artifacts(unit.suite(False), args.output)
    print(f"exported {len(index.files)} failure models and "
          f"{len(suite_files)} suite artifacts to {args.output}", file=out)
    return 0


def cmd_campaign(args, out) -> int:
    from .campaign import CampaignReport

    if args.campaign_command == "report":
        try:
            text = open(args.file).read()
            report = CampaignReport.from_json(text)
        except (OSError, ValueError, TypeError) as exc:
            print(f"invalid campaign report: {exc}", file=sys.stderr)
            return 1
        print(report.to_markdown(), file=out)
        return 0
    return _campaign_run(args, out)


@_traced
def _campaign_run(args, out) -> int:
    from .campaign import CampaignEngine
    from .core.artifacts import ArtifactCache
    from .core.config import CampaignConfig

    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    config = CampaignConfig(
        devices=args.devices,
        seed=args.seed,
        shard_size=args.shard_size,
        workers=args.workers,
        suites=suites,
        strategy=args.strategy,
        base_onset_years=args.onset_years,
        packed=not args.no_packed,
        pack_width=args.pack_width,
    )
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    engine = CampaignEngine.for_unit(
        default_context().unit(args.unit),
        config=config,
        cache=cache,
        mitigation=args.mitigation,
    )
    report = engine.run(resume=args.resume)
    print(report.summary(), file=out)
    if engine.resumed_shards:
        print(f"  resumed {len(engine.resumed_shards)} shard(s) from "
              f"checkpoints; executed {len(engine.executed_shards)}",
              file=out)
    if engine.report_path is not None:
        print(f"  report cached at {engine.report_path}", file=out)
    if args.report:
        with open(args.report, "w") as fp:
            fp.write(report.to_json())
        print(f"  report written to {args.report}", file=out)
    return 0


def cmd_bench(args, out) -> int:
    from .bench import compare_files, render_report
    from .bench.compare import BenchCompareError

    if args.bench_command == "report":
        try:
            report = render_report(args.files)
        except (OSError, ValueError) as exc:
            print(f"invalid bench document: {exc}", file=sys.stderr)
            return 2
        print(report, file=out)
        return 0
    try:
        result = compare_files(
            args.baseline,
            args.candidate,
            threshold_pct=args.threshold,
            timing_warn_only=args.timing_warn_only,
        )
    except BenchCompareError as exc:
        print(f"bench compare: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"invalid bench document: {exc}", file=sys.stderr)
        return 2
    for finding in result.findings:
        print(f"  {finding.format()}", file=out)
    print(result.summary(), file=out)
    return 1 if result.failed else 0


def _print_validation(report, out) -> None:
    print(f"validation: {report.rows} held-out row(s), "
          f"{report.risky_rows} risky", file=out)
    print(f"  risky-tail recall: {report.recall:.3f} "
          f"(threshold {report.threshold:.3f}y, "
          f"flagged {report.flagged_fraction:.1%})", file=out)
    print(f"  onset MAE: {report.onset_mae_years:.3f}y  "
          f"slack spearman: {report.slack_spearman:.3f}", file=out)


def _surrogate_dataset(args, unit, tele, out):
    from .core import telemetry
    from .core.artifacts import ArtifactCache
    from .core.config import SurrogateConfig
    from .netlist.cells import VEGA28
    from .surrogate import generate_dataset

    config = SurrogateConfig(
        samples=args.samples, seed=args.seed, workers=args.workers
    )
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    with telemetry.use(tele):
        dataset = generate_dataset(
            unit.netlist, VEGA28, unit.sp_profile, config, cache=cache
        )
    print(f"dataset: {len(dataset.rows)} labeled row(s) on {args.unit} "
          f"(digest {dataset.digest()[:16]})", file=out)
    return config, dataset


def _load_surrogate_model(path, verb):
    from .surrogate import RidgeSurrogate

    try:
        with open(path) as fp:
            return RidgeSurrogate.from_json(fp.read())
    except (OSError, ValueError) as exc:
        print(f"surrogate {verb}: cannot load model {path}: {exc}",
              file=sys.stderr)
        return None


def cmd_surrogate(args, out) -> int:
    import json

    from .core import telemetry
    from .surrogate import SurrogateValidationError

    ctx = default_context()
    unit = ctx.unit(args.unit)
    tele = telemetry.Telemetry()

    if args.surrogate_command == "train":
        from .surrogate import train_surrogate

        config, dataset = _surrogate_dataset(args, unit, tele, out)
        try:
            with telemetry.use(tele):
                model, report = train_surrogate(dataset, config)
        except SurrogateValidationError as exc:
            print(f"surrogate train: {exc}", file=sys.stderr)
            return 1
        path = args.output or f"surrogate_{args.unit}.json"
        with open(path, "w") as fp:
            fp.write(model.to_json() + "\n")
        print(f"model written to {path} "
              f"(digest {model.digest()[:16]})", file=out)
        _print_validation(report, out)
        return 0

    if args.surrogate_command == "validate":
        from .surrogate import validate_model

        model = _load_surrogate_model(args.model, "validate")
        if model is None:
            return 2
        config, dataset = _surrogate_dataset(args, unit, tele, out)
        _, holdout_rows = dataset.split(
            config.holdout_fraction, config.seed
        )
        try:
            report = validate_model(
                model, holdout_rows, recall_floor=config.recall_floor
            )
        except SurrogateValidationError as exc:
            print(f"surrogate validate: FAILED: {exc}", file=sys.stderr)
            return 1
        _print_validation(report, out)
        return 0

    # triage
    from .campaign.engine import CampaignEngine
    from .core.config import CampaignConfig, SurrogateConfig
    from .netlist.cells import VEGA28
    from .surrogate import profiled_fleet, run_surrogate_campaign

    model = _load_surrogate_model(args.model, "triage")
    if model is None:
        return 2
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    config = CampaignConfig(
        devices=args.devices, seed=args.seed, suites=suites
    )
    surrogate = SurrogateConfig(seed=args.surrogate_seed)
    models = unit.failure_models()
    library = unit.suite(args.mitigation)
    with telemetry.use(tele):
        outcome, report = run_surrogate_campaign(
            unit.netlist,
            args.unit,
            library,
            VEGA28,
            unit.sp_profile,
            models,
            model,
            config=config,
            surrogate=surrogate,
        )
    print(f"triage: {len(outcome.cleared)} cleared, "
          f"{len(outcome.flagged)} flagged of {config.devices} device(s) "
          f"(threshold {outcome.threshold:.3f}y)", file=out)
    print(report.summary(), file=out)
    if args.report:
        with open(args.report, "w") as fp:
            fp.write(report.to_json())
        print(f"  tail report written to {args.report}", file=out)
    if args.verify_exact:
        with telemetry.use(tele):
            exact = profiled_fleet(
                unit.netlist, VEGA28, unit.sp_profile, models,
                config, surrogate,
            )
            exact_report = CampaignEngine(
                unit.netlist, args.unit, library, models,
                config=config, fleet=exact,
            ).run()
        flagged_ids = {d.device_id for d in outcome.flagged}
        exact_rows = [
            row for row in exact_report.device_rows
            if row["device"] in flagged_ids
        ]
        identical = (
            json.dumps(exact_rows, sort_keys=True)
            == json.dumps(report.device_rows, sort_keys=True)
        )
        print(f"  flagged rows byte-identical to exact campaign: "
              f"{'yes' if identical else 'NO - DIVERGED'}", file=out)
        if not identical:
            return 1
    return 0


def _scheduler_session(args):
    """Build a ScheduleSession from shared serve/schedule arguments."""
    from .core.artifacts import ArtifactCache
    from .core.config import CampaignConfig, SchedulerConfig
    from .scheduler import ScheduleSession

    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    config = CampaignConfig(
        devices=args.devices,
        seed=args.seed,
        suites=suites,
        strategy=args.strategy,
        base_onset_years=args.onset_years,
    )
    scheduler = SchedulerConfig(
        policy=args.policy,
        policy_seed=args.policy_seed,
        batch_size=args.batch_size,
        batch_window=args.batch_window,
        ingest_queue=args.queue,
        checkpoint_every=args.checkpoint_every,
        cycle_budget=args.budget,
    )
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    ctx = default_context()
    return ScheduleSession.for_unit(
        ctx.unit(args.unit),
        config=config,
        scheduler=scheduler,
        cache=cache,
        mitigation=args.mitigation,
    )


def cmd_serve(args, out) -> int:
    from .scheduler.policy import POLICIES

    if args.policy not in POLICIES:
        print(f"unknown policy {args.policy!r} "
              f"(known: {', '.join(sorted(POLICIES))})", file=sys.stderr)
        return 2
    if _resume_without_cache(args):
        return 2
    if args.kill_shard is not None and args.shards is None:
        print("--kill-shard needs --shards", file=sys.stderr)
        return 2
    session = _scheduler_session(args)
    if args.shards is not None:
        return _serve_distributed(args, session, out)
    outcome = session.run(
        resume=args.resume, kill_after_events=args.kill_after
    )
    report = outcome.report
    state = "killed" if outcome.killed else "drained"
    print(f"service {state}: {report.events} result(s) ingested over "
          f"{report.ticks} tick(s), policy={report.policy}", file=out)
    if outcome.resumed:
        print("  resumed from belief checkpoint", file=out)
    print(f"  devices={report.devices} detected={report.detected} "
          f"escapes={report.escapes}", file=out)
    print(f"  belief checkpoint key: {outcome.checkpoint_key[:16]}…",
          file=out)
    print(f"  belief digest: {outcome.belief.digest()}", file=out)
    if args.log:
        outcome.log.write_jsonl(args.log)
        print(f"  event log written to {args.log}", file=out)
    return 0


def _serve_distributed(args, session, out) -> int:
    """``repro serve --shards N``: the sharded multi-process service."""
    from .core import telemetry

    if telemetry.active() is not None:
        return _serve_distributed_run(args, session, out)
    # Give the router somewhere to land counters (its own and the
    # workers' merged deltas) so /metrics is populated — scoped, so an
    # in-process caller (tests, embedding) gets its global telemetry
    # state back afterwards.
    with telemetry.use(telemetry.Telemetry(run_id="serve-distributed")):
        return _serve_distributed_run(args, session, out)


def _serve_distributed_run(args, session, out) -> int:
    import time as _time

    from .scheduler.distributed import (
        DistributedSession,
        WebhookAlertHook,
    )

    hooks = []
    if args.webhook:
        hooks.append(WebhookAlertHook(args.webhook))
    dist = DistributedSession(session, shards=args.shards)
    metrics_sink = [] if args.metrics_port is not None else None
    outcome = dist.run(
        mode="local" if args.local_shards else "process",
        resume=args.resume,
        kill_shard=args.kill_shard,
        kill_after_events=(
            args.kill_after if args.kill_shard is not None else None
        ),
        stale_after=args.stale_after,
        alert_hooks=hooks,
        metrics_port=args.metrics_port,
        metrics_sink=metrics_sink,
    )
    shards_run = [s for s in outcome.shards if s is not None]
    state = "killed" if outcome.killed_shards else "drained"
    events = sum(s.events for s in shards_run)
    ticks = sum(s.tick for s in shards_run)
    print(f"distributed service {state}: {events} result(s) over "
          f"{ticks} tick(s) across {len(outcome.shards)} shard(s), "
          f"policy={session.scheduler.policy}", file=out)
    for shard in outcome.shards:
        if shard is None:
            continue
        spec = shard.spec
        flags = " resumed" if shard.resumed else ""
        print(f"  shard {spec.index}: devices [{spec.lo},{spec.hi}) "
              f"events={shard.events} ticks={shard.tick}{flags}",
              file=out)
    for index in outcome.killed_shards:
        print(f"  shard {index}: KILLED (resume with --resume)", file=out)
    if outcome.merged_digest is not None:
        print(f"  merged belief digest: {outcome.merged_digest}",
              file=out)
        if outcome.fold_digest is None:
            # Resumed shards log only post-checkpoint events, so the
            # fold referee has no complete stream to replay.
            print("  event-stream fold digest: skipped "
                  "(resumed from checkpoints)", file=out)
        else:
            fold_ok = outcome.fold_digest == outcome.merged_digest
            print(f"  event-stream fold digest matches: "
                  f"{'yes' if fold_ok else 'NO — DIVERGED'}", file=out)
    if outcome.report is not None:
        print(f"  devices={outcome.report.devices} "
              f"detected={outcome.report.detected} "
              f"escapes={outcome.report.escapes}", file=out)
    for alert in outcome.alerts:
        print(f"  alert: {alert}", file=out)
    if "events_per_second" in outcome.stats:
        print(f"  sustained ingest: "
              f"{outcome.stats['events_per_second']:.1f} events/s",
              file=out)
    if args.log:
        for shard in shards_run:
            path = f"{args.log}.shard{shard.spec.index}"
            with open(path, "w") as fp:
                fp.write(shard.log_jsonl)
        with open(args.log, "w") as fp:
            fp.write(outcome.concatenated_jsonl())
        print(f"  event logs written to {args.log} (+ per-shard "
              f".shard<K> files)", file=out)
    if metrics_sink:
        server = metrics_sink[0]
        if args.metrics_linger > 0:
            print(f"  /metrics on http://{server.host}:{server.port}"
                  f"/metrics for {args.metrics_linger:.0f}s", file=out)
            out.flush()
            _time.sleep(args.metrics_linger)
        server.stop()
    diverged = any(a["kind"] == "belief-divergence"
                   for a in outcome.alerts)
    return 1 if diverged else 0


def cmd_schedule(args, out) -> int:
    from .scheduler import verify_replay
    from .scheduler.policy import POLICIES

    if args.policy not in POLICIES:
        print(f"unknown policy {args.policy!r} "
              f"(known: {', '.join(sorted(POLICIES))})", file=sys.stderr)
        return 2
    session = _scheduler_session(args)
    outcome = session.run()
    for line in outcome.report.summary_lines():
        print(line, file=out)
    if args.log:
        outcome.log.write_jsonl(args.log)
        print(f"  event log written to {args.log}", file=out)
    if args.report:
        with open(args.report, "w") as fp:
            fp.write(outcome.report.to_json())
        print(f"  report written to {args.report}", file=out)
    if args.verify_replay:
        matches, _ = verify_replay(session, outcome)
        print(f"  replay: {'byte-identical' if matches else 'DIVERGED'}",
              file=out)
        if not matches:
            return 1
    return 0


def cmd_integrate(args, out) -> int:
    from .core.config import TestIntegrationConfig
    from .cpu.cpu import run_program
    from .integration.library_gen import AgingLibrary
    from .integration.profile import ProfileGuidedIntegrator
    from .workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ctx = default_context()
    library = AgingLibrary(name="vega_all")
    for unit_name in args.units.split(","):
        unit_name = unit_name.strip()
        if unit_name not in ("alu", "fpu"):
            print(f"unknown unit {unit_name!r}", file=sys.stderr)
            return 2
        library.test_cases.extend(
            ctx.unit(unit_name).suite(args.mitigation).test_cases
        )
    integrator = ProfileGuidedIntegrator(
        library, TestIntegrationConfig(overhead_threshold=args.threshold)
    )
    source = WORKLOADS[args.workload].source
    baseline = run_program(source)
    app = integrator.integrate(source)
    result, fault = app.run()
    overhead = result.cycles / baseline.cycles - 1.0
    print(f"workload: {args.workload}", file=out)
    print(f"integration point: {app.plan.label!r} "
          f"(runs {app.plan.block_count}x, gate 1/{app.plan.gate_period})",
          file=out)
    print(f"estimated overhead: {app.plan.estimated_overhead:.2%}", file=out)
    print(f"measured overhead:  {overhead:+.2%} "
          f"({baseline.cycles} -> {result.cycles} cycles)", file=out)
    print(f"result preserved: {result.exit_value == baseline.exit_value}; "
          f"fault: {fault}", file=out)
    return 0


@_traced
def cmd_attack(args, out) -> int:
    from .adversary import (
        AttackReport,
        AttackSearch,
        derive_base_onset,
        sample_attack_fleet,
    )
    from .core.artifacts import ArtifactCache
    from .core.config import AdversaryConfig

    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    adv_config = AdversaryConfig(
        seed=args.attack_seed,
        candidates=args.candidates,
        rounds=args.rounds,
        beam=args.beam,
        mutations=args.mutations,
        stream_ops=args.stream_ops,
        lanes=args.lanes,
        workers=args.workers,
    )
    ctx = default_context()
    unit = ctx.unit(args.unit)
    pairs = unit.sta_result.report.unique_endpoint_pairs()
    search = AttackSearch(
        unit.netlist, args.unit, unit.sp_profile, pairs,
        config=adv_config, cache=cache,
    )
    result, _best_stream = search.run(resume=args.resume)
    report = None
    if args.attack_command == "run":
        from .campaign import CampaignEngine
        from .campaign.fleet import sample_fleet
        from .core.config import CampaignConfig

        suites = tuple(
            s.strip() for s in args.suites.split(",") if s.strip()
        )
        config = CampaignConfig(
            devices=args.devices,
            seed=args.seed,
            shard_size=args.shard_size,
            workers=args.workers,
            suites=suites,
            base_onset_years=args.onset_years,
        )
        base = derive_base_onset(unit, config)
        models = unit.failure_models()
        library = unit.suite(args.mitigation)
        natural_fleet = sample_fleet(config, models, base)
        attack_fleet = sample_attack_fleet(
            config, models, base, result.acceleration,
            attack_fraction=args.attack_fraction,
            attack_seed=args.attack_seed,
        )
        campaigns = []
        for fleet in (natural_fleet, attack_fleet):
            engine = CampaignEngine(
                unit.netlist, args.unit, library, models,
                config=config, cache=cache, base_onset_years=base,
                fleet=fleet,
            )
            campaigns.append(engine.run(resume=args.resume))
        report = AttackReport.from_campaigns(
            result, natural_fleet, attack_fleet,
            campaigns[0], campaigns[1],
            attack_fraction=args.attack_fraction,
            attack_seed=args.attack_seed,
            budget_instructions=config.max_suite_instructions,
        )
    print(result.summary(), file=out)
    if search.resumed_rounds:
        print(f"  resumed from round checkpoint "
              f"(skipped {search.resumed_rounds} round(s))", file=out)
    if report is not None:
        print(report.summary(), file=out)
    if args.report:
        with open(args.report, "w") as fp:
            fp.write((report or result).to_json())
        print(f"  report written to {args.report}", file=out)
    return 0


@_traced
def cmd_respond(args, out) -> int:
    from .core.artifacts import ArtifactCache
    from .core.config import ResponseConfig
    from .core.experiments import CLOCK_CHAIN_LENGTH
    from .response import ResponseEngine

    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    policies = tuple(
        p.strip() for p in args.policies.split(",") if p.strip()
    )
    config = ResponseConfig(
        policies=policies,
        mission_years=args.mission_years,
        accuracy_samples=args.accuracy_samples,
        seed=args.seed,
        workers=args.workers,
    )
    ctx = default_context()
    unit = ctx.unit(args.unit)
    engine = ResponseEngine(
        unit.netlist,
        args.unit,
        unit.sp_profile,
        aging=ctx.config.aging,
        config=config,
        gated_instances=unit.gated_instances(),
        clock_chain_length=CLOCK_CHAIN_LENGTH,
        cache=cache,
        operands=ctx.stream(args.unit),
    )
    report = engine.evaluate(resume=args.resume)
    print(report.summary(), file=out)
    if engine.resumed_policies:
        print(f"  resumed from checkpoints: "
              f"{', '.join(engine.resumed_policies)}", file=out)
    if args.report:
        with open(args.report, "w") as fp:
            fp.write(report.to_json())
        print(f"  report written to {args.report}", file=out)
    return 0


def main(argv: Optional[list] = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "workloads": cmd_workloads,
        "run": cmd_run,
        "trace": cmd_trace,
        "profile": cmd_profile,
        "sta": cmd_sta,
        "lift": cmd_lift,
        "suite": cmd_suite,
        "inject": cmd_inject,
        "detect": cmd_detect,
        "verify": cmd_verify,
        "models": cmd_models,
        "campaign": cmd_campaign,
        "bench": cmd_bench,
        "surrogate": cmd_surrogate,
        "attack": cmd_attack,
        "respond": cmd_respond,
        "serve": cmd_serve,
        "schedule": cmd_schedule,
        "integrate": cmd_integrate,
    }[args.command]
    return handler(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
