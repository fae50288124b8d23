"""Core iteration loop for simple STA and dynamic STA (DSTA).

Each outer iteration applies every enabled operator in order.  An operator
round draws `se` neighbors of the current state, keeps the best of them under
a greedy criterion, and in dynamic mode may accept a worse round-best with
probability p2 ("risk").  After all rounds the incumbent is updated greedily,
and dynamic mode resets the current state to the incumbent with probability
p1 ("restore").

No state array is written after it is made: a round's kept row is a new
array, so the incumbent is the current array itself, a restore sets the
current array to it, and only the best solution a run returns is a copy.
So a problem may keep a row it returned, and make it read-only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import IncompatibleOperator, InvalidParams, NonFiniteCost
from .operators import DEFAULT_ORDER, Operator, sample_moves
from .operators import sample_batch  # noqa: F401  perfbench wraps engine.sample_batch by name


class Mode(str, Enum):
    SIMPLE = "sta"
    DYNAMIC = "dsta"


_FACTOR_FIELDS = {Operator.SWAP: "ma", Operator.SHIFT: "mb", Operator.SYMMETRY: "mc", Operator.SUBSTITUTE: "md"}
_LOWER_BOUNDS = {"se": 1, "ma": 2, "mb": 1, "mc": 0, "md": 1, "max_iters": 1, "seed": 0}


@dataclass(frozen=True)
class StaParams:
    """All algorithm knobs; defaults follow the reference parameter block."""

    se: int = 32
    ma: int = 2
    mb: int = 1
    mc: int = 0
    md: int = 1
    p1: float = 0.1459
    p2: float = 0.0557
    max_iters: int = 1500
    mode: Mode = Mode.DYNAMIC
    seed: int = 0
    operator_set: tuple[Operator, ...] | None = None  # None: default per representation

    def validate(self) -> None:
        for name, low in _LOWER_BOUNDS.items():
            value = getattr(self, name)
            if value < low:
                raise InvalidParams(f"{name} must be >= {low}, got {value}")
        for name in ("p1", "p2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidParams(f"{name} must be in [0,1], got {value}")
        if self.operator_set is not None and len(self.operator_set) == 0:
            raise InvalidParams("operator_set must be non-empty")

    def factor(self, op: Operator) -> int:
        return getattr(self, _FACTOR_FIELDS[op])


@dataclass
class SearchState:
    current: np.ndarray
    current_cost: float
    incumbent: np.ndarray
    incumbent_cost: float


@dataclass
class RunResult:
    params: StaParams  # exactly as run: derived seed and mode included
    best_solution: np.ndarray
    best_cost: float
    trace: list[tuple[int, float, float]] = field(repr=False)
    evaluations: int = 0
    wall_time: float = 0.0


def resolve_operator_set(problem, params: StaParams) -> tuple[Operator, ...]:
    """Pick the operator order, defaulting per representation.

    Substitute only acts on value vectors; requesting it explicitly on a
    permutation problem is an error, while the default set simply omits it.
    """
    if params.operator_set is None:
        if problem.alphabet_size is None:
            return tuple(op for op in DEFAULT_ORDER if op is not Operator.SUBSTITUTE)
        return DEFAULT_ORDER
    if problem.alphabet_size is None and Operator.SUBSTITUTE in params.operator_set:
        raise IncompatibleOperator("substitute cannot act on a permutation state")
    return tuple(params.operator_set)


def accept_candidate(
    current_cost: float,
    candidate_cost: float,
    mode: Mode,
    p2: float,
    rng: np.random.Generator,
) -> bool:
    """Greedy criterion, with the dynamic-mode risk branch for non-improving moves."""
    if candidate_cost < current_cost:
        return True
    if mode is Mode.DYNAMIC:
        return bool(rng.random() < p2)
    return False


def _finite(cost: float, what: str) -> float:
    if not math.isfinite(cost):
        raise NonFiniteCost(f"{what} cost is {cost}")
    return cost


def operator_round(
    state: SearchState,
    op: Operator,
    problem,
    params: StaParams,
    rng: np.random.Generator,
) -> SearchState:
    """One neighborhood round: sample se moves, take the round best if accepted.

    `problem.best_move` bounds the round best's cost from below before it
    builds anything.  The round settles (builds and evaluates the best row)
    only when the bound allows an improvement, or when it rules one out and
    the risk draw keeps the round anyway: `accept_candidate` of the bound then
    makes the same single draw that the settled cost would, as the cost is
    no lower than the bound.  So a rejected round builds and evaluates only
    what its bound needed, and every kept row carries a full evaluation.
    """
    moves = sample_moves(state.current, op, params.factor(op), params.se, rng, problem.alphabet_size)
    what = f"{op.value} round-best"
    bound, settle = problem.best_move(state.current, state.current_cost, moves)
    best = settle() if _finite(bound, what) < state.current_cost else None  # the bound allows an improvement
    cost = bound if best is None else _finite(best[1], what)
    if accept_candidate(state.current_cost, cost, params.mode, params.p2, rng):
        _, cost, row = settle() if best is None else best  # the risk draw may keep a round its bound ruled out
        state.current = row
        state.current_cost = _finite(cost, what)
    return state


def restore_step(
    state: SearchState, mode: Mode, p1: float, rng: np.random.Generator
) -> SearchState:
    if mode is Mode.DYNAMIC and rng.random() < p1:
        state.current = state.incumbent
        state.current_cost = state.incumbent_cost
    return state


def run(problem, params: StaParams) -> RunResult:
    """Execute one seeded STA/DSTA run; deterministic given (problem, params)."""
    params.validate()
    ops = resolve_operator_set(problem, params)
    rng = np.random.default_rng(params.seed)
    t0 = time.perf_counter()

    current = problem.initial(rng)
    current_cost = _finite(float(problem.evaluate(current)), "initial")
    state = SearchState(current, current_cost, current, current_cost)
    evaluations = 1

    trace: list[tuple[int, float, float]] = []
    for it in range(params.max_iters):
        for op in ops:
            state = operator_round(state, op, problem, params, rng)
            evaluations += params.se
        if state.current_cost < state.incumbent_cost:
            state.incumbent = state.current
            state.incumbent_cost = state.current_cost
        state = restore_step(state, params.mode, params.p1, rng)
        trace.append((it, state.current_cost, state.incumbent_cost))

    return RunResult(
        params=params,
        best_solution=state.incumbent.copy(),  # the caller's own array, never a problem's read-only row
        best_cost=state.incumbent_cost,
        trace=trace,
        evaluations=evaluations,
        wall_time=time.perf_counter() - t0,
    )
