"""Embench-style benchmark programs and operand-stream capture."""

from .programs import REPRESENTATIVE, WORKLOADS, Workload
from .streams import (
    collect_operand_streams,
    collect_streams,
    collect_unit_streams,
)

__all__ = [
    "REPRESENTATIVE",
    "WORKLOADS",
    "Workload",
    "collect_operand_streams",
    "collect_streams",
    "collect_unit_streams",
]
