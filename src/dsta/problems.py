"""Problem instances, objectives and error metrics.

Everything the engine sees is a `Problem`: an initializer plus a pure cost
function over states, always minimized.  MAX-CUT is therefore handed to the
engine as the equivalent QUBO minimization with the last vertex fixed, and
cut weights are recovered for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainViolation

ROSENBROCK_ALPHABET = np.array([-2, -1, 0, 1, 2])


@dataclass(frozen=True)
class TspInstance:
    """Symmetric TSP with a full distance matrix; coords kept when known."""

    matrix: np.ndarray
    coords: np.ndarray | None = None
    name: str = "tsp"

    def __post_init__(self):
        # tour_lengths indexes the flattened matrix, so keep it in C order
        m = np.ascontiguousarray(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 3:
            raise DimensionMismatch(f"distance matrix must be square with n >= 3, got {m.shape}")
        if not np.isfinite(m).all():
            raise DimensionMismatch("distance matrix entries must be finite")
        if not np.allclose(m, m.T) or not np.allclose(np.diag(m), 0) or np.any(m < 0):
            raise DimensionMismatch("distance matrix must be symmetric, nonnegative, zero diagonal")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MaxCutInstance:
    """Weighted graph on n+1 vertices plus its fixed-last-vertex QUBO form.

    Q equals the leading n-by-n block of W and c is minus the column of
    weights to the fixed vertex, so min P(x) = 1/2 x'Qx - x'c over signs x
    corresponds to max cut weight of (x, +1).
    """

    weights: np.ndarray
    name: str = "maxcut"

    def __post_init__(self):
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 2:
            raise DimensionMismatch(f"weight matrix must be square with >= 2 vertices, got {w.shape}")
        if not np.isfinite(w).all():
            raise DimensionMismatch("weight matrix entries must be finite")
        with np.errstate(over="ignore"):
            # bounds every partial sum of the QUBO form and of cut_weight
            total = 2 * np.abs(w).sum()
        if not np.isfinite(total):
            raise DimensionMismatch("weight matrix too large: its QUBO form overflows")
        if not np.allclose(w, w.T):
            raise DimensionMismatch("weight matrix must be symmetric")

    @property
    def n(self) -> int:
        """Number of free sign variables (vertex count minus the fixed one)."""
        return self.weights.shape[0] - 1

    @property
    def qubo(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        q = self.weights[:n, :n].copy()
        np.fill_diagonal(q, 0.0)
        c = -self.weights[:n, n].copy()
        return q, c


@dataclass(frozen=True)
class DvsProblem:
    """Discrete value selection: pick each coordinate from a finite real alphabet."""

    alphabet: np.ndarray
    dimension: int
    objective: Callable[[np.ndarray], float]
    name: str = "dvs"

    def __post_init__(self):
        if len(self.alphabet) < 2:
            raise DimensionMismatch("alphabet needs at least 2 values")
        if self.dimension < 2:
            raise DimensionMismatch("dimension must be >= 2")


def tour_length(tour: np.ndarray, inst: TspInstance) -> float:
    """Closed-tour length: consecutive edges plus the edge back to the start."""
    if len(tour) != inst.n:
        raise DimensionMismatch(f"tour length {len(tour)} != instance size {inst.n}")
    return float(inst.matrix[tour, np.roll(tour, -1)].sum())


def tour_lengths(tours: np.ndarray, inst: TspInstance) -> np.ndarray:
    """Closed-tour length of each row of `tours` (the batch form of `tour_length`)."""
    n = inst.n
    if tours.shape[1] != n:
        raise DimensionMismatch(f"tour length {tours.shape[1]} != instance size {n}")
    # one flat gather: leg (a, b) is entry a * n + b of the C-order matrix;
    # intp arithmetic, so narrow tour dtypes cannot wrap
    idx = np.multiply(tours, n, dtype=np.intp)
    idx[:, :-1] += tours[:, 1:]
    idx[:, -1] += tours[:, 0]
    return inst.matrix.ravel().take(idx).sum(axis=1)


def _signs(bits: np.ndarray) -> np.ndarray:
    # index 0 -> -1, index 1 -> +1
    return 2 * bits.astype(np.int64) - 1


def cut_weight(bits: np.ndarray, inst: MaxCutInstance) -> float:
    """Total weight across the bipartition given by all n+1 vertex signs."""
    if len(bits) != inst.n + 1:
        raise DimensionMismatch(f"need {inst.n + 1} vertex signs, got {len(bits)}")
    y = _signs(np.asarray(bits))
    w = inst.weights
    return float(0.25 * (w.sum() - y @ w @ y))


def qubo_value(bits: np.ndarray, q: np.ndarray, c: np.ndarray) -> float:
    """P(x) = 1/2 x'Qx - x'c over signs x in {-1,1}^n (bits 0/1 encode -1/+1)."""
    if len(bits) != q.shape[0]:
        raise DimensionMismatch(f"need {q.shape[0]} variables, got {len(bits)}")
    x = _signs(np.asarray(bits))
    return float(0.5 * x @ q @ x - x @ c)


def _qubo_form(x: np.ndarray, q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """P(x) = 1/2 x'Qx - x'c for every row of a (rows, n) sign matrix.

    The quadratic term is one matrix product so that numpy runs it as a BLAS
    GEMM; numpy's three-operand contraction runs as an unblocked loop, tens
    of times slower at n = 400.  Every batch QUBO evaluation in the package
    goes through here; qubo_value is the independent scalar reference.
    """
    x = np.asarray(x, dtype=np.float64)
    qx = x @ q
    qx *= x
    return 0.5 * qx.sum(axis=1) - x @ c


def rosenbrock_value(values: np.ndarray) -> float:
    """Integer Rosenbrock: sum of 100(x_{i+1} - x_i^2)^2 + (x_i - 1)^2."""
    x = np.asarray(values)
    if np.any(x < -2) or np.any(x > 2):
        raise DomainViolation("entries must lie in {-2,-1,0,1,2}")
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1) ** 2))


def dvs_decode(indices: np.ndarray, alphabet: np.ndarray) -> np.ndarray:
    """Map index vectors to real vectors by alphabet lookup."""
    idx = np.asarray(indices)
    if np.any(idx < 0) or np.any(idx >= len(alphabet)):
        raise IndexError("index outside alphabet range")
    return np.asarray(alphabet)[idx]


def tsp_error(best: float, optimum: float) -> float:
    """Signed gap to the reference optimum, percent; negative beats the reference."""
    if optimum == 0:
        raise ZeroDivisionError("reference optimum must be nonzero")
    return (best - optimum) / optimum * 100.0


def maxcut_error(best: float, optimum: float) -> float:
    """Shortfall of the achieved cut versus the reference optimum, percent."""
    if optimum == 0:
        raise ZeroDivisionError("reference optimum must be nonzero")
    return (optimum - best) / optimum * 100.0


@dataclass(frozen=True)
class Problem:
    """Engine-facing adapter: representation details plus a pure batch cost function."""

    name: str
    size: int
    alphabet_size: int | None  # None marks the permutation representation
    evaluate_many: Callable[[np.ndarray], np.ndarray]  # (rows, n) states -> (rows,) costs

    def evaluate(self, state: np.ndarray) -> float:
        return float(self.evaluate_many(np.asarray(state)[None])[0])

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        if self.alphabet_size is None:
            return rng.permutation(self.size)
        return rng.integers(0, self.alphabet_size, size=self.size)


def tsp_problem(inst: TspInstance) -> Problem:
    return Problem(
        name=inst.name,
        size=inst.n,
        alphabet_size=None,
        evaluate_many=lambda tours: tour_lengths(tours, inst),
    )


def maxcut_problem(inst: MaxCutInstance) -> Problem:
    """Minimize the QUBO form; convert best_cost back with cut_from_qubo."""
    q, c = inst.qubo

    return Problem(
        name=inst.name,
        size=inst.n,
        alphabet_size=2,
        evaluate_many=lambda bits: _qubo_form(_signs(bits), q, c),
    )


def cut_from_qubo(p_value, inst: MaxCutInstance):
    """Cut weight achieved by sign vectors whose QUBO value is p_value.

    Accepts a scalar or an array of QUBO values; the relationship is affine,
    so rank order is preserved either way.
    """
    out = 0.25 * inst.weights.sum() - 0.5 * np.asarray(p_value, dtype=float)
    return float(out) if out.ndim == 0 else out


def rosenbrock_problem(n: int) -> Problem:
    if n < 2:
        raise DimensionMismatch("Rosenbrock needs n >= 2")

    def many(idx: np.ndarray) -> np.ndarray:
        x = ROSENBROCK_ALPHABET[idx]
        return np.sum(100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (x[:, :-1] - 1) ** 2, axis=1)

    return Problem(
        name=f"rosenbrock-{n}",
        size=n,
        alphabet_size=len(ROSENBROCK_ALPHABET),
        evaluate_many=many,
    )


def dvs_problem(spec: DvsProblem) -> Problem:
    def many(idx: np.ndarray) -> np.ndarray:
        return np.array([float(spec.objective(dvs_decode(row, spec.alphabet))) for row in idx])

    return Problem(
        name=spec.name,
        size=spec.dimension,
        alphabet_size=len(spec.alphabet),
        evaluate_many=many,
    )
