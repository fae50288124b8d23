"""Problem instances, objectives and error metrics.

Everything the engine sees is a `Problem`: an initializer plus a pure cost
function over states, always minimized.  MAX-CUT is therefore handed to the
engine as the equivalent QUBO minimization with the last vertex fixed, and
cut weights are recovered for reporting.  TSP and integer Rosenbrock share
one chain evaluator and one move scorer: each sums a table entry over every
pair of adjacent entries, of a closed tour or of an open index vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainViolation
from .operators import Moves, Writes

ROSENBROCK_ALPHABET = np.array([-2, -1, 0, 1, 2])


_TILE = 256  # a pair of float64 tiles, 2 x 512 KiB, stays in L2


def _exactly_symmetric(m: np.ndarray) -> bool:
    """Whether square `m` equals its transpose, compared one tile pair at a time.

    Tile (i, j) is compared with the transpose of tile (j, i) while both are
    in cache; a whole-matrix `m == m.T` reads `m` column by column into an
    n x n temporary.
    """
    n, b = len(m), _TILE
    return all(
        (m[i:i + b, j:j + b] == m[j:j + b, i:i + b].T).all() for i in range(0, n, b) for j in range(i, n, b)
    )


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
        lo, hi = m.min(), m.max()  # a NaN entry makes both NaN; no n x n temporaries
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DimensionMismatch("distance matrix entries must be finite")
        # exact equality reads the matrix once, in tiles; allclose only when it fails
        exact = _exactly_symmetric(m)
        if not (exact or np.allclose(m, m.T)) or not np.allclose(np.diag(m), 0) or lo < 0:
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

    Symmetric means `allclose` to the transpose; `asymmetry` is the largest
    |W - W^T| entry, 0.0 for an exactly symmetric matrix.  `abs_bound`,
    2 * sum |W|, bounds every partial sum of the QUBO form and of cut_weight.
    """

    weights: np.ndarray
    name: str = "maxcut"
    asymmetry: float = field(init=False, repr=False, default=0.0)
    abs_bound: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 2:
            raise DimensionMismatch(f"weight matrix must be square with >= 2 vertices, got {w.shape}")
        if not np.isfinite(w).all():
            raise DimensionMismatch("weight matrix entries must be finite")
        with np.errstate(over="ignore"):
            total = 2 * np.abs(w).sum()
        if not np.isfinite(total):
            raise DimensionMismatch("weight matrix too large: its QUBO form overflows")
        exact = _exactly_symmetric(w)
        if not (exact or np.allclose(w, w.T)):
            raise DimensionMismatch("weight matrix must be symmetric")
        object.__setattr__(self, "abs_bound", float(total))
        if not exact:
            object.__setattr__(self, "asymmetry", float(np.abs(w - w.T).max()))

    @property
    def n(self) -> int:
        """Number of free sign variables (vertex count minus the fixed one)."""
        return self.weights.shape[0] - 1

    @property
    def qubo(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        return self._qubo_into(np.empty((n, n)))

    def _qubo_into(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`qubo`, with Q written into the float64 (n, n) array `q`."""
        n = self.n
        q[...] = self.weights[:n, :n]
        np.fill_diagonal(q, 0.0)
        return q, -self.weights[:n, n]


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


def _chain_sums(rows: np.ndarray, flat: np.ndarray, stride: int, closed: bool) -> np.ndarray:
    """Sum of flat[a * stride + b] over each row's adjacent entries a, b, and its last and first if `closed`."""
    # one flat gather; intp arithmetic, so narrow state dtypes cannot wrap
    legs = np.multiply(rows if closed else rows[:, :-1], stride, dtype=np.intp)
    legs[:, : rows.shape[1] - 1] += rows[:, 1:]
    if closed:
        legs[:, -1] += rows[:, 0]
    return flat.take(legs).sum(axis=1)


# moves are scored on a padded state, pad[p + 1] the entry at position p for p
# from -1 to n; a window's legs join the entries before, first, last and after
# it, pad[lo], pad[lo + 1], pad[hi], pad[hi + 1], and (rotations) the two sides of
# its inner seam lo + k: old legs, then new legs, and the signs that sum them to (delta, touched)
_REVERSE_LEGS = np.array([[0, 2, 0, 1], [1, 3, 2, 3]])
_ROTATE_LEGS = np.array([[0, 4, 2, 0, 2, 4], [1, 5, 3, 5, 1, 3]])
_REVERSE_SIGNS = np.array([[-1.0, -1, 1, 1], [1, 1, 1, 1]])
_ROTATE_SIGNS = np.array([[-1.0, -1, -1, 1, 1, 1], [1, 1, 1, 1, 1, 1]])
# a pair of writes at i and j: entries at i - 1, i, i + 1, j - 1, j, j + 1,
# then the values written at i and j; old legs, then new legs
_PAIR_OFFSETS = np.array([[0], [1], [2], [0], [1], [2]])
_PAIR_LEGS = np.array([[0, 1, 3, 4, 0, 6, 3, 7], [1, 2, 4, 5, 6, 2, 7, 5]])
_PAIR_SIGNS = np.array([[-1.0, -1, -1, -1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1, 1]])


def _chain_legs(pad: np.ndarray, moves: Moves, flat: np.ndarray, stride: int):
    """(delta, touched) of each move on the padded state `pad`: its change, and the sum of legs it replaces or adds.

    A closed chain pads with its own far ends, an open one with a sentinel
    whose legs are 0.  A reversal's inner legs run backwards, for the caller
    to count.  Writes are scored on a closed chain only: two with no mask from
    8 legs unless their positions are adjacent, any others by `_write_legs`.
    """
    if isinstance(moves, Writes):
        p = moves.pos
        if moves.mask is not None or p.shape[1] != 2:
            return _write_legs(pad[1:-1], moves, flat, stride)
        ends = np.concatenate((pad.take(p.T.repeat(3, axis=0) + _PAIR_OFFSETS), moves.val.T))
        legs, signs = _PAIR_LEGS, _PAIR_SIGNS
    else:
        lo, hi, k = moves.lo, moves.hi, moves.k
        if k is None:
            at, legs, signs = (lo, lo + 1, hi, hi + 1), _REVERSE_LEGS, _REVERSE_SIGNS
        else:
            seam = lo + k
            at, legs, signs = (lo, lo + 1, hi, hi + 1, seam, seam + 1), _ROTATE_LEGS, _ROTATE_SIGNS
        ends = pad.take(np.concatenate(at).reshape(len(at), -1))
    first, second = ends.take(legs, axis=0)  # the entries at each leg's two ends
    delta, touched = signs @ flat.take(np.multiply(first, stride, dtype=np.intp) + second)
    if isinstance(moves, Writes):  # adjacent positions share a leg: gap is +-1 or +-(n - 1)
        adjacent = ((p[:, 1] - p[:, 0] + 1) % (len(pad) - 2) < 3).nonzero()[0]
        if len(adjacent):
            delta[adjacent], touched[adjacent] = _write_legs(pad[1:-1], moves.take(adjacent), flat, stride)
    return delta, touched


def _write_legs(tour: np.ndarray, moves: Writes, flat: np.ndarray, stride: int):
    """(delta, touched) of sparse writes on a closed chain: the legs beside each written position, counted once."""
    p, v, mask = moves.pos, moves.val, moves.mask
    rows, w = p.shape
    # positions r | p | q: before, at and after each write; their entries
    # before the move, and after it (a written position takes its value)
    x = np.remainder(np.concatenate((p - 1, p, p + 1), axis=1), len(tour))
    written = x[:, :, None] == p[:, None, :]
    if mask is not None:
        written &= mask[:, None, :]
    hit = np.logical_or.reduce(written, axis=2)
    before = tour[x]
    ends = np.concatenate((before, np.where(hit, (written @ v[:, :, None])[:, :, 0], before)))
    # legs r -> p, then p -> q, old rows then new rows; a leg r -> p with r
    # written is that write's own p -> q leg, so it counts only there
    e = flat.take(np.multiply(ends[:, : 2 * w], stride, dtype=np.intp) + ends[:, w:]).reshape(2, rows, 2 * w)
    e[:, :, :w] *= ~hit[:, :w]
    if mask is not None:
        e *= np.concatenate((mask, mask), axis=1)
    old, new = e @ np.ones(2 * w)
    return new - old, old + new


def tour_lengths(tours: np.ndarray, inst: TspInstance) -> np.ndarray:
    """Closed-tour length of each row of `tours` (the batch form of `tour_length`)."""
    if tours.shape[1] != inst.n:
        raise DimensionMismatch(f"tour length {tours.shape[1]} != instance size {inst.n}")
    return _chain_sums(tours, inst.matrix.ravel(), inst.n, closed=True)


def tour_deltas(tour: np.ndarray, cost: float, moves: Moves, inst: TspInstance):
    """Change in closed-tour length of each move, with a bound on its error.

    Leg i joins positions i and i + 1 (mod n), and `_chain_legs` scores the
    tour padded with its own far ends.  A window rotation replaces 3 legs; a
    reversal replaces 2 and runs the legs inside it backwards; sparse writes
    replace the legs on both sides of each written position, each leg counted
    once.  A whole-tour window leaves the cycle as it was, so its delta is 0.
    Two writes with no mask, a pair exchange at the default factors, take 8
    legs from one 6-position gather unless their positions are adjacent.

    Returns (delta, err) with |cost + delta - tour_lengths(row)| <= err for the
    row of each move, where `cost` is `tour_lengths` of `tour`.  err bounds
    float summation: each of the two full sums over n legs and the m-entry
    delta is within (terms) * eps of its absolute sum, doubled for safety.  A
    reversal adds one `inst.asymmetry` per leg whose direction it flips.
    """
    n = inst.n
    delta, touched = _chain_legs(np.concatenate((tour[-1:], tour, tour[:1])), moves, inst.matrix.ravel(), n)
    terms, err_dir = 6, 0.0  # a rotation's 6 legs
    if isinstance(moves, Writes):
        terms = 4 * moves.pos.shape[1]
    else:
        delta[moves.hi - moves.lo == n] = 0
        if moves.k is None:  # 4 legs, and hi - lo - 1 inner legs flipped, + 1 closing leg if whole
            terms, err_dir = 4, (moves.hi - moves.lo) * inst.asymmetry
    eps = np.finfo(inst.matrix.dtype if inst.matrix.dtype.kind == "f" else np.float64).eps
    return delta, 2 * eps * (2 * n + terms + 1) * (abs(cost) + touched) + err_dir


# the float sign of each bit (0 -> -1, 1 -> +1), so bits become signs in one gather
_SIGN_VALUES = np.array([-1.0, 1.0])
_SIGN32 = _SIGN_VALUES.astype(np.float32)
_EPS32, _EPS64 = float(np.finfo(np.float32).eps), float(np.finfo(np.float64).eps)
_F32_MAX, _F32_TINY = float(np.finfo(np.float32).max), float(np.finfo(np.float32).smallest_normal)


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


def qubo_deltas(
    bits: np.ndarray,
    cost: float,
    moves: Moves,
    q: np.ndarray,
    c: np.ndarray,
    inst: MaxCutInstance,
    screen: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Change in P(x) = 1/2 x'Qx - x'c of each move, with a bound on its error.

    A sparse write flips the set S of its written positions whose bit changes.
    With signs x and g = Qx - c, its delta is -2 sum_S x_i g_i + 2 sum_{i,j in
    S} x_i x_j Q_ij (Q has a zero diagonal): one GEMV for g and a (rows, w, w)
    gather of Q.  A window flips about half its length, so its rows are
    screened whole in float32: `screen` holds the float32 copies of Q and 2c
    that `maxcut_problem` makes, one GEMM gives 2 P32 of every row, and the
    delta is P32 - cost.  Without a screen, windows are not scored: the result
    is None.

    Returns (delta, err) with |cost + delta - F| <= err, where cost is
    `_qubo_form` of `bits` and F is `_qubo_form` of the move's row, each
    evaluated in any batch: GEMM rounding changes with the batch's row count,
    so err does not rest on one.  err bounds rounding over the instance's
    `abs_bound` B, as B/4 bounds 1/2 sum|Q| + sum|c|.  With gamma_k = k u
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3),
    each bound doubled for safety, which also covers second-order terms:

    - a float64 evaluation is within gamma_(2n+1) B/4 of exact;
    - a write's delta is within gamma_(n+2w+3) 2B, and as g is computed as
      Q^T x, an instance symmetric only to allclose adds n times
      `inst.asymmetry` per flipped bit;
    - a screened row is within 5 u32 B/4 for storing Q and c in float32
      (see `_qubo_arrays`), gamma_(2n+2) B/4 at float32's u for its
      evaluation (sign products, sums that underflow and halving 2 P32 in
      float64 are exact), gamma_(2n+1) B/4 for F, and 4u B/4 for P32 - cost
      and the caller's cost + delta in float64.
    """
    n = len(bits)
    if not isinstance(moves, Writes):
        if screen is None:
            return None
        q32, twice_c32 = screen
        x = moves.apply(_SIGN32.take(bits))
        qx = x @ q32
        qx *= x
        twice = qx.sum(axis=1)
        twice -= x @ twice_c32
        err = (_EPS32 * (2 * n + 7) + _EPS64 * (2 * n + 5)) * inst.abs_bound / 4
        return 0.5 * twice.astype(np.float64) - cost, err
    p = moves.pos
    x = _SIGN_VALUES.take(bits)
    g = x @ q - c
    flip = moves.val != bits.take(p)
    if moves.mask is not None:
        flip &= moves.mask
    xs = x.take(p) * flip  # sign of each flipped position, 0 elsewhere
    d = (q[p[:, :, None], p[:, None, :]] @ xs[:, :, None])[:, :, 0]
    d -= g.take(p)
    d *= xs
    w = p.shape[1]
    return 2 * d.sum(axis=1), 2 * _EPS64 * (2 * n + 2 * w + 5) * inst.abs_bound + w * n * inst.asymmetry


def _qubo_arrays(inst: MaxCutInstance):
    """`inst.qubo`, and the float32 copies of Q and 2c that screen window moves, or None where float32 cannot serve.

    Every partial sum of the screen is at most B/2 (B is `abs_bound`), so B
    up to float32's largest value rules out overflow, and the cast cannot
    warn.  Below float32's smallest normal t, a weight is stored with an
    absolute error of up to t u32 instead of a relative one; with B >= n^2 t
    those errors sum to at most u32 B, which `qubo_deltas` counts.  Weights
    outside both limits get no copies.  Two comparisons decide it, so
    building a problem scans no weight.

    Q and its float32 copy share one allocation.  As two arrays they made
    repeated builds of a 400-vertex problem about 17% slower (4.3 to 5.0 ms
    on a shared 2-core VM): the allocator gave back and refaulted heap pages
    on every build.
    """
    n = inst.n
    screened = n * n * _F32_TINY <= inst.abs_bound <= _F32_MAX
    mem = np.empty((3 if screened else 2) * n * n, np.float32)  # Q in float64 takes the first 2 n^2 entries
    q, c = inst._qubo_into(mem[: 2 * n * n].view(np.float64).reshape(n, n))
    if not screened:
        return q, c, None
    q32 = mem[2 * n * n :].reshape(n, n)
    q32[...] = q
    return q, c, (q32, (2 * c).astype(np.float32))


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


class RoundBest(NamedTuple):
    """The best of a round's moves: a lower bound on its full cost, then the move itself.

    `settle()` returns (index, cost, row), cost a full evaluation; see `Problem.best_move`.
    """

    bound: float
    settle: Callable[[], tuple[int, float, np.ndarray]]


@dataclass(frozen=True)
class Problem:
    """Engine-facing adapter: representation details plus a pure batch cost function.

    `delta_many(state, cost, moves)`, where given, returns (delta, err) per
    move, with err >= |cost + delta - evaluate_many(row)| for the move's row
    evaluated in any batch; `cost` is `evaluate` of `state`.  It lets
    `best_move` skip most rows.  It returns None for moves it does not score.
    """

    name: str
    size: int
    alphabet_size: int | None  # None marks the permutation representation
    evaluate_many: Callable[[np.ndarray], np.ndarray]  # (rows, n) states -> (rows,) costs
    delta_many: Callable[[np.ndarray, float, Moves], tuple[np.ndarray, np.ndarray] | None] | None = None

    def evaluate(self, state: np.ndarray) -> float:
        return float(self.evaluate_many(np.asarray(state)[None])[0])

    def best_move(self, state: np.ndarray, cost: float, moves: Moves) -> RoundBest:
        """The move np.argmin would pick over evaluate_many of every move's row, in two steps.

        `bound` is a lower bound on the best row's full cost, and `settle()`
        returns (index, cost, row); a caller that learns from the bound that it
        will not keep the row never settles, and nothing past the bound is built.

        With `delta_many`, only a shortlist S of rows is evaluated: est = cost +
        delta, U = min(est + err), and S holds every row with est - err <= U.
        Every row j has F_j <= est_j + err_j, so min F <= U; a row i outside S
        has F_i >= est_i - err_i > U >= min F, so it is strictly worse than the
        best row and is not NaN.  Hence every row attaining the minimum (or a
        NaN) is in S, and the first such row in S is the first over all rows:
        np.argmin's tie-break holds.  The bound is min(est - err) over S, which
        no F_j in S falls below (err's factor-2 margin is far wider than the
        rounding of est - err).  When err is exactly 0.0 (a float, not an
        array), est is every row's cost, S is the rows tied at min est, only
        the first of them, the argmin of est, is evaluated, and the bound is
        min est, that row's cost.  If any est + err is not finite, or
        `delta_many` returns None for these moves, every row is evaluated at
        once and the bound is the minimum itself.  Rows are built as
        `moves.take(S).apply(state)` in `settle()`, so only S is ever
        materialized.  The settled cost is always a full evaluation, and the
        row a new array.

        A row's evaluation can depend on its batch: a BLAS product rounds
        differently with the row count, so on non-integer QUBO weights the
        settled cost may differ in the last bit from the same row's cost
        among all rows.  Hence err must hold in any batch, and the argument
        above holds for evaluate_many of S.
        """
        scored = None if self.delta_many is None else self.delta_many(state, cost, moves)
        if scored is not None:
            delta, err = scored
            est = cost + delta
            exact = isinstance(err, float) and err == 0.0  # a scalar test: array errs skip it
            hi = est if exact else est + err
            if math.isfinite(np.add.reduce(hi)):  # every estimate and bound is finite
                if exact:  # S is the rows tied at min est, and np.argmin picks the first
                    short = est.argmin(keepdims=True)
                    bound = est[short[0]]
                else:
                    lo = est - err
                    short = (lo <= np.minimum.reduce(hi)).nonzero()[0]
                    bound = np.minimum.reduce(lo)  # attained in S, as min lo <= min hi
                return RoundBest(float(bound), lambda: self._settle(state, moves, short))
        best = self._settle(state, moves, None)
        return RoundBest(best[1], lambda: best)

    def _settle(self, state: np.ndarray, moves: Moves, short: np.ndarray | None) -> tuple[int, float, np.ndarray]:
        """(index, cost, row) of the best of the rows in `short` (every row if None), each evaluated in full."""
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
    """Minimize the QUBO form; convert best_cost back with cut_from_qubo.

    `delta_many` scores swap and substitute moves by k-flip deltas, and
    screens shift and symmetry moves in float32 against copies of Q and 2c
    made here once; `best_move` evaluates in float64 only the rows the screen
    cannot rule out.  When 2 sum|W| exceeds float32's largest value or falls
    below n^2 times its smallest normal, no copies are made and windows are
    evaluated whole in float64.
    """
    q, c, screen = _qubo_arrays(inst)
    return Problem(
        name=inst.name,
        size=inst.n,
        alphabet_size=2,
        evaluate_many=lambda bits: _qubo_form(_SIGN_VALUES.take(bits), q, c),
        delta_many=lambda bits, cost, moves: qubo_deltas(bits, cost, moves, q, c, inst, screen),
    )


def cut_from_qubo(p_value, inst: MaxCutInstance):
    """Cut weight achieved by sign vectors whose QUBO value is p_value.

    Accepts a scalar or an array of QUBO values; the relationship is affine,
    so rank order is preserved either way.
    """
    out = 0.25 * inst.weights.sum() - 0.5 * np.asarray(p_value, dtype=float)
    return float(out) if out.ndim == 0 else out


# the Rosenbrock term of each index pair (i, j) = (x_k, x_{k+1}) at entry 6i + j;
# index 5 is the sentinel past either end of a state, and its pairs are 0.
# Every term is an integer below 3610, so float64 sums them exactly
_ROSEN_END = len(ROSENBROCK_ALPHABET)
_ROSEN_STRIDE = _ROSEN_END + 1
_ROSEN_TABLE = np.pad(
    100.0 * (ROSENBROCK_ALPHABET - ROSENBROCK_ALPHABET[:, None] ** 2) ** 2 + (ROSENBROCK_ALPHABET[:, None] - 1) ** 2,
    (0, 1),
)
_ROSEN_PAIRS = _ROSEN_TABLE.ravel()
_ROSEN_TURNS = (_ROSEN_TABLE.T - _ROSEN_TABLE).ravel()  # the change when pair (i, j) becomes (j, i)


def _rosenbrock_many(idx: np.ndarray) -> np.ndarray:
    # one pass: read as unsigned, a negative index exceeds every valid one (and 5 is the sentinel)
    if np.asarray(idx, np.int64).view(np.uint64).max(initial=0) >= _ROSEN_END:
        raise DomainViolation("index outside alphabet range")
    return _chain_sums(idx, _ROSEN_PAIRS, _ROSEN_STRIDE, closed=False)


def rosenbrock_deltas(idx: np.ndarray, moves: Moves):
    """Exact change in integer Rosenbrock of each window move, with err 0.0.

    `_chain_legs` scores the state padded with the sentinel index at both
    ends, so a window at either end needs no branch.  A rotation replaces 3
    pairs: the pairs entering and leaving the window and its inner seam.  A
    reversal replaces its 2 boundary pairs and turns every pair inside it
    around; that inner change is a difference of prefix sums of the
    turned-minus-forward pair terms, built once per call.  Every term is an
    integer, so each delta is exact.  Sparse writes are not scored, the
    result is None: most write rounds are kept, and deltas only add to them.
    """
    if isinstance(moves, Writes):
        return None
    delta, _ = _chain_legs(np.concatenate(([_ROSEN_END], idx, [_ROSEN_END])), moves, _ROSEN_PAIRS, _ROSEN_STRIDE)
    if moves.k is None:  # pair p, p + 1 is turned around for lo <= p < hi - 1
        fwd = idx[:-1] * _ROSEN_STRIDE
        fwd += idx[1:]
        turned = np.zeros(len(idx))
        np.cumsum(_ROSEN_TURNS.take(fwd), out=turned[1:])
        delta += turned.take(moves.hi - 1) - turned.take(moves.lo)
    return delta, 0.0


def rosenbrock_problem(n: int) -> Problem:
    """Integer Rosenbrock over alphabet indices 0..4 (values -2..2), n >= 2.

    `evaluate_many` sums each row's terms from a table of the 25 index pairs.
    `delta_many` scores window moves (shift and symmetry) exactly, so
    `best_move` evaluates one row of such a round, and none when the engine
    rejects it; sparse writes (swap and substitute) are evaluated in full.
    Both agree with `rosenbrock_value`.
    """
    if n < 2:
        raise DimensionMismatch("Rosenbrock needs n >= 2")
    return Problem(
        name=f"rosenbrock-{n}",
        size=n,
        alphabet_size=len(ROSENBROCK_ALPHABET),
        evaluate_many=_rosenbrock_many,
        delta_many=lambda idx, cost, moves: rosenbrock_deltas(idx, moves),
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
