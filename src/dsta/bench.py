"""Multi-trial experiment runner and brute-force oracles."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from math import isfinite

import numpy as np

from . import engine
from .engine import Mode, RunResult, StaParams
from .errors import InvalidParams, NonFiniteCost, TooLarge
from .problems import Problem, TspInstance

_MASK64 = (1 << 64) - 1
_ORACLE_BLOCK = 1 << 16  # most index vectors per oracle block


def derive_seed(base_seed: int, trial: int) -> int:
    """Fixed 64-bit splitmix mixing of (base seed, trial index)."""
    z = (base_seed + (trial + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class TrialStats:
    trials: int
    best: float
    mean: float
    std: float  # sample standard deviation, n-1 denominator
    costs: list[float] = field(repr=False)
    results: list[RunResult] = field(repr=False)  # one per trial, in trial order


def run_trials(problem: Problem, params: StaParams, trials: int, base_seed: int = 0) -> TrialStats:
    """Repeat seeded runs; trial i uses a seed mixed from (base_seed, i)."""
    if trials < 1:
        raise InvalidParams(f"trials must be >= 1, got {trials}")
    results = [
        engine.run(problem, replace(params, seed=derive_seed(base_seed, i))) for i in range(trials)
    ]
    costs = [r.best_cost for r in results]
    arr = np.array(costs)
    return TrialStats(
        trials=trials,
        best=float(arr.min()),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if trials > 1 else 0.0,
        costs=costs,
        results=results,
    )


def compare_modes(problem: Problem, params: StaParams, trials: int, base_seed: int = 0):
    """Run STA and DSTA with identical per-trial seeds; returns paired stats."""
    sta = run_trials(problem, replace(params, mode=Mode.SIMPLE), trials, base_seed)
    dsta = run_trials(problem, replace(params, mode=Mode.DYNAMIC), trials, base_seed)
    diff = [s - d for s, d in zip(sta.costs, dsta.costs)]
    return sta, dsta, diff


def brute_force_tsp(inst: TspInstance) -> tuple[float, np.ndarray]:
    """Exact optimum over all (n-1)!/2 distinct tours; n <= 10 only.

    Tours start at city 0, in `itertools.permutations` order, each once (rest[0] < rest[-1] of a
    tour and its reversal), and are scored in one gather by `tour_length`'s formula.
    """
    n = inst.n
    if n > 10:
        raise TooLarge(f"brute-force TSP limited to n <= 10, got {n}")
    rest = np.fromiter(itertools.permutations(range(1, n)), dtype=(np.int8, n - 1))  # (n-1)! small rows
    tours = np.insert(rest[rest[:, 0] < rest[:, -1]], 0, 0, axis=1)
    with np.errstate(over="ignore"):  # an overflowing sum is inf
        lengths = inst.matrix[tours, np.roll(tours, -1, axis=1)].sum(axis=1)
    best = int(lengths.argmin())
    if not isfinite(lengths[best]):
        raise NonFiniteCost(f"no tour of {inst.name} has a finite length")
    return float(lengths[best]), tours[best].astype(np.intp)


def brute_force_dvs(problem: Problem) -> tuple[float, np.ndarray]:
    """Exact minimum over all m^n <= 2^20 index vectors, and every optimizer within 1e-9.

    Vector k has digit i of k in base m at position i (at m = 2, the bits of k);
    optimizers come in that order.  Blocks of m^low <= 2^16 vectors share their
    high digits and go through `evaluate_many`, so memory holds one block.
    """
    m, n = problem.alphabet_size, problem.size
    if m is None:
        raise TooLarge("the value-vector oracle needs an alphabet; brute_force_tsp takes tours")
    if m**n > 1 << 20:
        raise TooLarge(f"search space {m}^{n} exceeds the 2^20 bound")

    def digits(codes: np.ndarray, width: int) -> np.ndarray:
        return codes[:, None] // m ** np.arange(width) % m

    low = max(k for k in range(n + 1) if m**k <= _ORACLE_BLOCK)
    block = digits(np.arange(m**low), n)  # the first block; the others differ in the high digits
    blocks = []
    for high in range(m ** (n - low)):  # costs are fresh arrays, so one block buffer serves
        block[:, low:] = digits(np.array([high]), n - low)
        blocks.append(problem.evaluate_many(block))
    values = np.concatenate(blocks)
    opt = float(values.min())  # NaN if any value is NaN
    if not isfinite(opt):
        raise NonFiniteCost(f"{problem.name} optimum is {opt}")
    return opt, digits(np.flatnonzero(values <= opt + 1e-9), n)
