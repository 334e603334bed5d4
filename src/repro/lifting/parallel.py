"""Parallel fan-out of Error Lifting across endpoint pairs.

Every unique endpoint pair of the STA report is an independent unit of
work: it clones its own shadow netlist, runs its own BMC queries, and
produces its own :class:`~repro.lifting.lifter.PairResult`.
:func:`lift_pairs` shards the pairs across the shared fork pool
(:func:`repro.core.pool.ordered_map`): the lifter reaches each worker
once, results and counter deltas come back in submission order, so a
parallel run is bit-identical to a serial one, and the parent records
the same per-pair trace records either way.  A pair that raises is
returned as a ``PairResult`` carrying the error string (when
``ErrorLiftingConfig.keep_going`` is set, the default) so one poisoned
endpoint cannot abort the remaining pairs of a long phase-2 run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from ..core import telemetry
from ..core.pool import ordered_map

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sta.timing import TimingViolation
    from .lifter import ErrorLifter, PairResult


def _lift_pair_safe(
    lifter: "ErrorLifter", violation: "TimingViolation"
) -> "PairResult":
    """Lift one pair; on ``keep_going``, convert a crash into a result."""
    try:
        return lifter.lift_pair(violation)
    except Exception as exc:  # noqa: BLE001 - the whole point is to survive
        if not getattr(lifter.config, "keep_going", True):
            raise
        from .lifter import PairResult
        from .models import ViolationKind

        kind = (
            ViolationKind.SETUP
            if violation.kind == "setup"
            else ViolationKind.HOLD
        )
        return PairResult(
            start=violation.start,
            end=violation.end,
            kind=kind,
            error=f"{type(exc).__name__}: {exc}",
        )


def _record_pair(result: "PairResult", wall_s: float) -> None:
    """Parent-side trace records for one finished pair."""
    telemetry.add("lifting.pairs")
    telemetry.add("lifting.pair_wall_s", wall_s)
    telemetry.event(
        "lifting.pair",
        start=result.start,
        end=result.end,
        outcome=result.outcome.value,
        wall_s=round(wall_s, 6),
    )
    if result.error is not None:
        telemetry.add("lifting.pair_errors")
        telemetry.event(
            "lifting.pair_error",
            start=result.start,
            end=result.end,
            error=result.error,
        )


def lift_pairs(
    lifter: "ErrorLifter",
    violations: Sequence["TimingViolation"],
    workers: int = 1,
) -> List["PairResult"]:
    """Lift every violation, sharded across ``workers`` processes.

    Results come back ordered like ``violations`` regardless of which
    worker finished first.  ``workers <= 0`` means one per CPU; serial
    execution (the same path as ``[lifter.lift_pair(v) for v in
    violations]``) covers one worker, one pair, or no ``fork``.
    """
    results: List["PairResult"] = []
    for result, wall in ordered_map(
        _lift_pair_safe, violations, workers, state=lifter, name="lifting"
    ):
        _record_pair(result, wall)
        results.append(result)
    return results
