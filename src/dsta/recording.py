"""Result records (JSON lines) and convergence traces (CSV)."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import IO, Iterable

from .engine import Mode, StaParams
from .errors import ParseError


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
    """The records of `write_results`, blank lines skipped; a malformed line raises ParseError with its number."""
    records = []
    for number, line in enumerate(source, 1):
        if not line.strip():
            continue
        try:
            records.append(ResultRecord(**json.loads(line)))
        except (ValueError, TypeError) as exc:  # not JSON, not an object, or missing or unknown keys
            raise ParseError(f"not a result record: {exc}", line=number) from None
    return records


_TRACE_HEADER = "iteration,current_cost,incumbent_cost"


def write_trace(trace: Iterable[tuple[int, float, float]], sink: IO[str]) -> int:
    """CSV with header iteration,current_cost,incumbent_cost; repr precision."""
    header = _TRACE_HEADER + "\n"
    sink.write(header)
    written = len(header.encode())
    for it, cur, inc in trace:
        line = f"{it},{cur!r},{inc!r}\n"
        sink.write(line)
        written += len(line.encode())
    return written


def read_trace(source: IO[str]) -> list[tuple[int, float, float]]:
    """Rows of `write_trace` after its header line, blank lines skipped; a bad line raises ParseError with its line."""
    header = next(source, "").strip()
    if header != _TRACE_HEADER:
        raise ParseError(f"expected the header {_TRACE_HEADER}, got {header!r}", line=1)
    rows = []
    for number, line in enumerate(source, 2):
        line = line.strip()
        if not line:
            continue
        try:
            it, cur, inc = line.split(",")
            rows.append((int(it), float(cur), float(inc)))
        except ValueError as exc:  # not three fields, or one is not a number
            raise ParseError(f"not a trace row: {exc}", line=number) from None
    return rows
