"""Problem instances, objectives and error metrics.

Everything the engine sees is a `Problem`: an initializer plus a pure cost
function over states, always minimized.  MAX-CUT is therefore handed to the
engine as the equivalent QUBO minimization with the last vertex fixed, and
cut weights are recovered for reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainViolation
from .operators import Moves, Writes

ROSENBROCK_ALPHABET = np.array([-2, -1, 0, 1, 2])


@dataclass(frozen=True)
class TspInstance:
    """Symmetric TSP with a full distance matrix; coords kept when known.

    Symmetric means `allclose` to the transpose; `asymmetry` is the largest
    |M - M^T| entry, 0.0 for an exactly symmetric matrix.
    """

    matrix: np.ndarray
    coords: np.ndarray | None = None
    name: str = "tsp"
    asymmetry: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        # tour_lengths indexes the flattened matrix, so keep it in C order
        m = np.ascontiguousarray(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 3:
            raise DimensionMismatch(f"distance matrix must be square with n >= 3, got {m.shape}")
        if not np.isfinite(m).all():
            raise DimensionMismatch("distance matrix entries must be finite")
        # exact equality is one pass with no float temporaries; allclose only when it fails
        exact = np.array_equal(m, m.T)
        if not (exact or np.allclose(m, m.T)) or not np.allclose(np.diag(m), 0) or np.any(m < 0):
            raise DimensionMismatch("distance matrix must be symmetric, nonnegative, zero diagonal")
        if not exact:
            object.__setattr__(self, "asymmetry", float(np.abs(m - m.T).max()))

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
    """Discrete value selection: pick each coordinate from a finite real alphabet.

    `objective` maps a (rows, dimension) matrix of alphabet values to (rows,) costs.
    """

    alphabet: np.ndarray
    dimension: int
    objective: Callable[[np.ndarray], np.ndarray]
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


# a window's legs as pairs of the positions before, first, last and after it
# and (rotations) its inner seam lo + k - 1, lo + k: old legs, then new legs,
# and the signs that sum them to (delta, all entries touched)
_REVERSE_LEGS = np.array([[0, 2, 0, 1], [1, 3, 2, 3]])
_ROTATE_LEGS = np.array([[0, 4, 2, 0, 2, 4], [1, 5, 3, 5, 1, 3]])
_WINDOW_OFFSETS = np.array([[-1], [0], [-1], [0], [-1], [0]])
_REVERSE_SIGNS = np.array([[-1.0, -1, 1, 1], [1, 1, 1, 1]])
_ROTATE_SIGNS = np.array([[-1.0, -1, -1, 1, 1, 1], [1, 1, 1, 1, 1, 1]])


def tour_deltas(tour: np.ndarray, cost: float, moves: Moves, inst: TspInstance):
    """Change in closed-tour length of each move, with a bound on its error.

    Leg i joins positions i and i + 1 (mod n).  A window rotation replaces 3
    legs; a reversal replaces 2 and runs the legs inside it backwards; sparse
    writes replace the legs on both sides of each written position, each leg
    counted once.  A window spanning the whole tour leaves the cycle as it was.

    Returns (delta, err) with |cost + delta - tour_lengths(row)| <= err for the
    row of each move, where `cost` is `tour_lengths` of `tour`.  err bounds
    float summation: each of the two full sums over n legs and the m-entry
    delta is within (terms) * eps of its absolute sum, doubled for safety.  A
    reversal adds one `inst.asymmetry` per leg whose direction it flips.
    """
    n = inst.n
    flat = inst.matrix.ravel()
    err_dir = 0.0
    if isinstance(moves, Writes):
        p, v, mask = moves.pos, moves.val, moves.mask
        rows, w = p.shape
        # positions r | p | q: before, at and after each write; their entries
        # before the move, and after it (a written position takes its value)
        x = np.remainder(np.concatenate((p - 1, p, p + 1), axis=1), n)
        written = x[:, :, None] == p[:, None, :]
        if mask is not None:
            written &= mask[:, None, :]
        hit = np.logical_or.reduce(written, axis=2)
        before = tour[x]
        ends = np.concatenate((before, np.where(hit, (written @ v[:, :, None])[:, :, 0], before)))
        # legs r -> p, then p -> q, old rows then new rows; a leg r -> p with r
        # written is that write's own p -> q leg, so it counts only there
        e = flat.take(np.multiply(ends[:, : 2 * w], n, dtype=np.intp) + ends[:, w:]).reshape(2, rows, 2 * w)
        e[:, :, :w] *= ~hit[:, :w]
        if mask is not None:
            e *= np.concatenate((mask, mask), axis=1)
        old, new = e @ np.ones(2 * w)
        delta, touched, terms = new - old, old + new, 4 * w
    else:
        lo, hi, k = moves.lo, moves.hi, moves.k
        if k is None:
            ends, legs, signs = (lo, lo, hi, hi), _REVERSE_LEGS, _REVERSE_SIGNS
            err_dir = (hi - lo) * inst.asymmetry  # hi - lo - 1 inner legs, + 1 closing leg if whole
        else:
            seam = lo + k
            ends, legs, signs = (lo, lo, hi, hi, seam, seam), _ROTATE_LEGS, _ROTATE_SIGNS
        t = tour.take(np.concatenate(ends).reshape(len(ends), -1) + _WINDOW_OFFSETS[: len(ends)], mode="wrap")
        delta, touched = signs @ flat.take(np.multiply(t[legs[0]], n, dtype=np.intp) + t[legs[1]])
        delta[hi - lo == n] = 0
        terms = legs.shape[1]
    eps = np.finfo(inst.matrix.dtype if inst.matrix.dtype.kind == "f" else np.float64).eps
    return delta, 2 * eps * (2 * n + terms + 1) * (abs(cost) + touched) + err_dir


# the float sign of each bit (0 -> -1, 1 -> +1), so bits become signs in one gather
_SIGN_VALUES = np.array([-1.0, 1.0])


def _bit_signs(bits: np.ndarray) -> np.ndarray:
    """Signs of one 0/1 vector; the batch path skips this check, as the engine draws only 0/1."""
    bits = np.asarray(bits)
    if np.any((bits != 0) & (bits != 1)):
        raise DomainViolation("bits must be 0 or 1")
    return _SIGN_VALUES.take(bits)


def cut_weight(bits: np.ndarray, inst: MaxCutInstance) -> float:
    """Total weight across the bipartition given by all n+1 vertex signs."""
    if len(bits) != inst.n + 1:
        raise DimensionMismatch(f"need {inst.n + 1} vertex signs, got {len(bits)}")
    y = _bit_signs(bits)
    w = inst.weights
    return float(0.25 * (w.sum() - y @ w @ y))


def qubo_value(bits: np.ndarray, q: np.ndarray, c: np.ndarray) -> float:
    """P(x) = 1/2 x'Qx - x'c over signs x in {-1,1}^n (bits 0/1 encode -1/+1)."""
    if len(bits) != q.shape[0]:
        raise DimensionMismatch(f"need {q.shape[0]} variables, got {len(bits)}")
    x = _bit_signs(bits)
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
        raise DomainViolation("index outside alphabet range")
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
    """Engine-facing adapter: representation details plus a pure batch cost function.

    `delta_many(state, cost, moves)`, where given, returns (delta, err) per
    move, with err >= |cost + delta - evaluate_many(row)| for the move's row;
    `cost` is `evaluate` of `state`.  It lets `best_move` skip most rows.
    """

    name: str
    size: int
    alphabet_size: int | None  # None marks the permutation representation
    evaluate_many: Callable[[np.ndarray], np.ndarray]  # (rows, n) states -> (rows,) costs
    delta_many: Callable[[np.ndarray, float, Moves], tuple[np.ndarray, np.ndarray]] | None = None

    def evaluate(self, state: np.ndarray) -> float:
        return float(self.evaluate_many(np.asarray(state)[None])[0])

    def best_move(self, state: np.ndarray, cost: float, moves: Moves) -> tuple[int, float, np.ndarray]:
        """The move np.argmin would pick over evaluate_many of every move's row: (index, cost, row).

        With `delta_many`, only a shortlist S of rows is evaluated: est = cost +
        delta, U = min(est + err), and S holds every row with est - err <= U.
        Every row j has F_j <= est_j + err_j, so min F <= U; a row i outside S
        has F_i >= est_i - err_i > U >= min F, so it is strictly worse than the
        best row and is not NaN.  Hence every row attaining the minimum (or a
        NaN) is in S, and the first such row in S is the first over all rows:
        np.argmin's tie-break holds.  If any est + err is not finite, S is
        every row.  The rows are built as `moves.take(S).apply(state)`, so
        only S is ever materialized.  The returned cost is always a full
        evaluation, and the row a new array.
        """
        short = None
        if self.delta_many is not None:
            delta, err = self.delta_many(state, cost, moves)
            est = cost + delta
            hi = est + err
            if math.isfinite(np.add.reduce(hi)):  # every estimate and bound is finite
                short = (est - err <= np.minimum.reduce(hi)).nonzero()[0]
        rows = (moves if short is None else moves.take(short)).apply(state)
        costs = self.evaluate_many(rows)
        best = int(np.argmin(costs))  # stable: first minimum wins; a NaN anywhere wins too
        return (best if short is None else int(short[best])), float(costs[best]), rows[best].copy()

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
        delta_many=lambda tour, cost, moves: tour_deltas(tour, cost, moves, inst),
    )


def maxcut_problem(inst: MaxCutInstance) -> Problem:
    """Minimize the QUBO form; convert best_cost back with cut_from_qubo."""
    q, c = inst.qubo

    return Problem(
        name=inst.name,
        size=inst.n,
        alphabet_size=2,
        evaluate_many=lambda bits: _qubo_form(_SIGN_VALUES.take(bits), q, c),
    )


def cut_from_qubo(p_value, inst: MaxCutInstance):
    """Cut weight achieved by sign vectors whose QUBO value is p_value.

    Accepts a scalar or an array of QUBO values; the relationship is affine,
    so rank order is preserved either way.
    """
    out = 0.25 * inst.weights.sum() - 0.5 * np.asarray(p_value, dtype=float)
    return float(out) if out.ndim == 0 else out


def _rosenbrock_many(idx: np.ndarray) -> np.ndarray:
    x = ROSENBROCK_ALPHABET[idx]
    return np.sum(100.0 * (x[:, 1:] - x[:, :-1] ** 2) ** 2 + (x[:, :-1] - 1) ** 2, axis=1)


def rosenbrock_problem(n: int) -> Problem:
    if n < 2:
        raise DimensionMismatch("Rosenbrock needs n >= 2")
    return Problem(
        name=f"rosenbrock-{n}",
        size=n,
        alphabet_size=len(ROSENBROCK_ALPHABET),
        evaluate_many=_rosenbrock_many,
    )


def dvs_problem(spec: DvsProblem) -> Problem:
    def many(idx: np.ndarray) -> np.ndarray:
        costs = np.asarray(spec.objective(dvs_decode(idx, spec.alphabet)), dtype=np.float64)
        if costs.shape != (len(idx),):
            raise DimensionMismatch(f"objective returned shape {costs.shape} for {len(idx)} rows")
        return costs

    return Problem(
        name=spec.name,
        size=spec.dimension,
        alphabet_size=len(spec.alphabet),
        evaluate_many=many,
    )
