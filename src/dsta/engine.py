"""Core iteration loop for simple STA and dynamic STA (DSTA).

Each outer iteration applies every enabled operator in order.  An operator
round draws `se` neighbors of the current state, keeps the best of them under
a greedy criterion, and in dynamic mode may accept a worse round-best with
probability p2 ("risk").  After all rounds the incumbent is updated greedily,
and dynamic mode resets the current state to the incumbent with probability
p1 ("restore").

A state travels with its data: what a problem derives from the state to
score moves on it, such as a tour's legs or a MAX-CUT state's g = W^T y.
`SearchState` keeps it for the current state and the incumbent, so a kept
row, the incumbent update and a restore each carry it, and a problem keeps
nothing between rounds.  No state array is written after it is made, so the
incumbent is the current array itself, and only the best solution a run
returns is a copy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import IncompatibleOperator, InvalidParams, NonFiniteCost
from .operators import DEFAULT_ORDER, Moves, Operator, sample_moves
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
    """The current state and the incumbent, each with its cost and its data (None until a problem derives it)."""

    current: np.ndarray
    current_cost: float
    incumbent: np.ndarray
    incumbent_cost: float
    current_data: object = None
    incumbent_data: object = None


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


def best_move(problem, state: np.ndarray, cost: float, moves: Moves, data=None):
    """The move np.argmin would pick over evaluate_many of every move's row, in two steps, and the state's data.

    Returns (bound, settle, data).  `bound` is a lower bound on the best
    row's full cost, and `settle()` returns (index, cost, row, row data); a
    caller that learns from the bound that it will not keep the row never
    settles, and nothing past the bound is built.  `data` is the state's
    data as `delta_many` hands it back, derived there where it was None.

    With `delta_many`, only a shortlist S of rows is evaluated: est = cost +
    delta, and S holds every row with est <= min est + 2 err.  Every row j
    has F_j <= est_j + err, so min F <= min est + err; a row i outside S has
    F_i >= est_i - err > min est + err >= min F, so it is strictly worse
    than the best row and is not NaN.  Hence every row attaining the
    minimum (or a NaN) is in S, and the first such row in S is the first
    over all rows: np.argmin's tie-break holds.  The bound is min est - err,
    which no F_j falls below (err's factor-2 margin is far wider than the
    rounding of est - err).  When err is 0.0, est is every row's cost, S is
    the rows tied at min est, only the first of them, the argmin of est, is
    evaluated, and the bound is min est, that row's cost.  If any est or
    err is not finite, or `delta_many` returns None for these moves, every
    row is evaluated at once and the bound is the minimum itself.  Rows are
    built as `moves.take(S).apply(state)` in `settle()`, so only S is ever
    materialized.  The settled cost always has the bits of a full
    evaluation, and the row is a new array; a one-row S is settled by
    `settle_one` where the problem gives one (see `_settle`).

    A row's evaluation can depend on its batch: a BLAS product rounds
    differently with the row count, so on non-integer QUBO weights the
    settled cost may differ in the last bit from the same row's cost
    among all rows.  Hence err must hold in any batch, and the argument
    above holds for evaluate_many of S.
    """
    scored = None if problem.delta_many is None else problem.delta_many(state, cost, moves, data)
    if scored is not None:
        delta, err, data, put = scored
        est = cost + delta
        if math.isfinite(np.add.reduce(est) + err):  # every estimate, and err, is finite
            if err == 0.0:  # S is the rows tied at min est, and np.argmin picks the first
                short = est.argmin(keepdims=True)
                low = est[short[0]]
            else:
                low = np.minimum.reduce(est)
                short = (est <= low + 2 * err).nonzero()[0]
            return float(low - err), lambda: _settle(problem, state, moves, short, data, put), data
    best = _settle(problem, state, moves, None, None, None)
    return best[1], lambda: best, data


def _settle(problem, state: np.ndarray, moves: Moves, short: np.ndarray | None, data, put):
    """(index, cost, row, row data) of the best of the rows in `short` (every row if None), each evaluated in full.

    A one-row `short` goes to `settle_one` where the problem gives one, with
    the round's moves, the row's index in them, the state's data and what
    `delta_many` returned for the settle to reuse.  Rows evaluated by
    `evaluate_many` have no data.
    """
    if problem.settle_one is not None and short is not None and len(short) == 1:
        index = int(short[0])
        return index, *problem.settle_one(state, moves, index, data, put)
    rows = (moves if short is None else moves.take(short)).apply(state)
    costs = problem.evaluate_many(rows)
    best = int(costs.argmin())  # stable: first minimum wins; a NaN anywhere wins too
    return (best if short is None else int(short[best])), float(costs[best]), rows[best].copy(), None


def operator_round(
    state: SearchState,
    op: Operator,
    problem,
    params: StaParams,
    rng: np.random.Generator,
) -> SearchState:
    """One neighborhood round: sample se moves, take the round best if accepted.

    `best_move` bounds the round best's cost from below before it builds
    anything.  The round settles (builds and evaluates the best row) only
    when the bound allows an improvement, or when it rules one out and the
    risk draw keeps the round anyway: `accept_candidate` of the bound then
    makes the same single draw that the settled cost would, as the cost is
    no lower than the bound.  So a rejected round builds and evaluates only
    what its bound needed, and every kept row carries a full evaluation.
    """
    moves = sample_moves(state.current, op, params.factor(op), params.se, rng, problem.alphabet_size)
    what = f"{op.value} round-best"
    bound, settle, data = best_move(problem, state.current, state.current_cost, moves, state.current_data)
    if state.current is state.incumbent:  # data derived for the incumbent stays with it for a restore
        state.incumbent_data = data
    state.current_data = data
    best = settle() if _finite(bound, what) < state.current_cost else None  # the bound allows an improvement
    cost = bound if best is None else _finite(best[1], what)
    if accept_candidate(state.current_cost, cost, params.mode, params.p2, rng):
        _, cost, row, data = settle() if best is None else best  # the risk draw may keep a round its bound ruled out
        state.current = row
        state.current_cost = _finite(cost, what)
        state.current_data = data
    return state


def restore_step(
    state: SearchState, mode: Mode, p1: float, rng: np.random.Generator
) -> SearchState:
    if mode is Mode.DYNAMIC and rng.random() < p1:
        state.current = state.incumbent
        state.current_cost = state.incumbent_cost
        state.current_data = state.incumbent_data
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
            state.incumbent_data = state.current_data
        state = restore_step(state, params.mode, params.p1, rng)
        trace.append((it, state.current_cost, state.incumbent_cost))

    return RunResult(
        params=params,
        best_solution=state.incumbent.copy(),  # the caller's own array, never a view into a state's data
        best_cost=state.incumbent_cost,
        trace=trace,
        evaluations=evaluations,
        wall_time=time.perf_counter() - t0,
    )
