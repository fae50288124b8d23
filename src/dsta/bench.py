"""Multi-trial experiment runner and brute-force oracles."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from math import inf, isfinite

import numpy as np

from . import engine
from .engine import Mode, RunResult, StaParams
from .errors import NonFiniteCost, TooLarge
from .problems import Problem, TspInstance, _qubo_form

_MASK64 = (1 << 64) - 1
_QUBO_BLOCK = 1 << 16  # sign vectors per oracle block


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
        raise ValueError(f"trials must be >= 1, got {trials}")
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
    """Exact optimum over all (n-1)!/2 distinct tours; n <= 10 only."""
    n = inst.n
    if n > 10:
        raise TooLarge(f"brute-force TSP limited to n <= 10, got {n}")
    d = inst.matrix.tolist()  # Python floats: faster to index; an overflowing sum is inf, unwarned
    best_cost = inf
    best_tour = None
    for rest in itertools.permutations(range(1, n)):
        if rest[0] > rest[-1]:  # each tour and its reversal counted once
            continue
        tour = (0,) + rest
        cost = sum(d[tour[i]][tour[(i + 1) % n]] for i in range(n))
        if cost < best_cost:
            best_cost = cost
            best_tour = tour
    if best_tour is None:
        raise NonFiniteCost(f"no tour of {inst.name} has a finite length")
    return float(best_cost), np.array(best_tour)


def brute_force_qubo(q: np.ndarray, c: np.ndarray, atol: float = 1e-9):
    """Exact minimum of 1/2 x'Qx - x'c over {-1,1}^n with all optimizers; n <= 20.

    Sign vectors are evaluated in blocks of at most 2^16, so memory holds the
    2^n values plus one block rather than the whole 2^n-by-n sign matrix.
    """
    n = q.shape[0]
    if n > 20:
        raise TooLarge(f"brute-force QUBO limited to n <= 20, got {n}")
    shifts = np.arange(n, dtype=np.uint32)

    def signs(codes: np.ndarray) -> np.ndarray:
        return 2 * ((codes[:, None] >> shifts) & 1).astype(np.int64) - 1

    codes = np.arange(1 << n, dtype=np.uint32)
    blocks = range(0, len(codes), _QUBO_BLOCK)
    values = np.concatenate([_qubo_form(signs(codes[i : i + _QUBO_BLOCK]), q, c) for i in blocks])
    opt = float(values.min())  # NaN if any value is NaN
    if not isfinite(opt):
        raise NonFiniteCost(f"QUBO optimum is {opt}")
    return opt, signs(codes[values <= opt + atol])


def brute_force_dvs(problem: Problem, limit: int = 10**6) -> tuple[float, np.ndarray]:
    """Exact minimum by enumerating all m^n index vectors."""
    m, n = problem.alphabet_size, problem.size
    if m is None:
        raise TooLarge("DVS oracle needs a value-vector problem")
    if m**n > limit:
        raise TooLarge(f"search space {m}^{n} exceeds the {limit} bound")
    best_cost = inf
    best = None
    for combo in itertools.product(range(m), repeat=n):
        idx = np.array(combo)
        cost = problem.evaluate(idx)
        if cost < best_cost:
            best_cost = cost
            best = idx
    return float(best_cost), best
