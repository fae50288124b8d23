"""Result records (JSON lines) and convergence traces (CSV)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, Iterable

from .engine import Mode, StaParams


@dataclass(frozen=True)
class ResultRecord:
    """One trial outcome, self-contained enough to reproduce the run.

    wall_time None means the trial's time was not recorded.
    """

    instance: str
    algorithm: str  # "sta" or "dsta"
    params: dict
    seed: int
    best_cost: float
    wall_time: float | None
    best_solution: list[int] | None = None


def params_dict(params: StaParams) -> dict:
    d = asdict(params)
    d["mode"] = params.mode.value
    d["operator_set"] = (
        None if params.operator_set is None else [op.value for op in params.operator_set]
    )
    return d


def write_results(records: Iterable[ResultRecord], sink: IO[str]) -> int:
    """One JSON object per line; returns the byte count written."""
    written = 0
    for rec in records:
        line = json.dumps(asdict(rec), sort_keys=True) + "\n"
        sink.write(line)
        written += len(line.encode())
    return written


def read_results(source: IO[str]) -> list[ResultRecord]:
    return [ResultRecord(**json.loads(line)) for line in source if line.strip()]


def write_trace(trace: Iterable[tuple[int, float, float]], sink: IO[str]) -> int:
    """CSV with header iteration,current_cost,incumbent_cost; repr precision."""
    header = "iteration,current_cost,incumbent_cost\n"
    sink.write(header)
    written = len(header.encode())
    for it, cur, inc in trace:
        line = f"{it},{cur!r},{inc!r}\n"
        sink.write(line)
        written += len(line.encode())
    return written


def read_trace(source: IO[str]) -> list[tuple[int, float, float]]:
    rows = []
    for i, line in enumerate(source):
        line = line.strip()
        if not line or i == 0:
            continue
        it, cur, inc = line.split(",")
        rows.append((int(it), float(cur), float(inc)))
    return rows
