"""Problem instances, objectives and error metrics.

Everything the engine sees is a `Problem`: an initializer plus a pure cost
function over states, always minimized.  MAX-CUT is therefore handed to the
engine as the minimization of 1/2 y'Wy over signs with the last vertex
fixed, and cut weights are recovered for reporting.  TSP and integer
Rosenbrock share one chain evaluator and one window scorer: each sums a leg
length over every pair of adjacent entries, of a closed tour or of an open
index vector.  A leg is read from a table, a distance matrix or Rosenbrock's
pair terms, or computed from the points of a Euclidean TSP instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainViolation
from .operators import Moves, Windows, Writes

ROSENBROCK_ALPHABET = np.array([-2, -1, 0, 1, 2])


_TILE = 256  # a pair of float64 tiles, 2 x 512 KiB, stays in L2


def _symmetric(m: np.ndarray, message: str) -> np.ndarray:
    """Square `m` itself if it equals its transpose, else 0.5 m + 0.5 m^T if `allclose` to it.

    Exact equality is checked tile (i, j) against tile (j, i), while both
    are in cache, with no n x n temporary and no copy.  Float addition
    commutes, so the halves' sum is exactly symmetric, and halves of finite
    entries cannot overflow.  Any other `m` raises DimensionMismatch(message).
    """
    n, b = len(m), _TILE
    if all(
        (m[i:i + b, j:j + b] == m[j:j + b, i:i + b].T).all() for i in range(0, n, b) for j in range(i, n, b)
    ):
        return m
    if not np.allclose(m, m.T):
        raise DimensionMismatch(message)
    half = 0.5 * m
    return half + half.T


_PIECE = 32768  # entries of a float64 temporary of 256 KiB


def _abs_sum(flat: np.ndarray):
    """`np.abs(flat).sum()`, bit for bit, with no full-size temporary.

    numpy's pairwise sum splits a long run in two halves, the first a
    multiple of 8 long; the halves are split the same way down to pieces.
    """
    n = len(flat)
    if n <= _PIECE:
        return np.abs(flat).sum()
    half = n // 2 - n // 2 % 8
    return _abs_sum(flat[:half]) + _abs_sum(flat[half:])


_TSP_FINITE = "distance matrix entries must be finite"
_EPS64 = float(np.finfo(np.float64).eps)
_ROW_BLOCK = 32  # rows of a matrix built or mirrored at a time: with their temporaries, 1.5 MB at n = 2000


def _euclidean_legs(coords: np.ndarray, rounding: str):
    """legs(a, b) of (n, 2) float64 points: each leg's sqrt((x_a - x_b)^2 + (y_a - y_b)^2).

    These are TSPLIB's EUC_2D distances (G. Reinelt, "TSPLIB - A Traveling
    Salesman Problem Library", ORSA J. Computing 3(4), 1991); rounding
    "tsplib" takes floor(d + 0.5) of each.  Every leg takes the same IEEE
    steps, subtract, square, add, sqrt, so it has the same bits wherever it
    is scored, and `euclidean_matrix` is built of legs.  a and b broadcast.
    """
    def legs(a, b):
        d = coords.take(a, axis=0) - coords.take(b, axis=0)
        d *= d
        out = np.add(d[..., 0], d[..., 1])
        np.sqrt(out, out=out)
        if rounding == "tsplib":
            out += 0.5
            np.floor(out, out=out)
        return out

    return legs


def _euclidean_rows(coords: np.ndarray, rounding: str):
    """The distance matrix of points `coords`, _ROW_BLOCK rows at a time, each entry a leg of `_euclidean_legs`."""
    legs, cities = _euclidean_legs(coords, rounding), np.arange(len(coords))
    for s in range(0, len(coords), _ROW_BLOCK):
        yield legs(cities[s:s + _ROW_BLOCK, None], cities)


def euclidean_matrix(coords: np.ndarray, rounding: str = "real") -> np.ndarray:
    """Pairwise Euclidean distances of (n, 2) float64 points, the legs of `_euclidean_legs` under `rounding`.

    The matrix is the only n x n buffer: it is filled _ROW_BLOCK rows at a
    time.  Distances that overflow come out as inf, which `TspInstance`
    rejects, so the overflow is not also warned about here.
    """
    n = len(coords)
    d = np.empty((n, n))
    with np.errstate(over="ignore"):
        for s, rows in zip(range(0, n, _ROW_BLOCK), _euclidean_rows(coords, rounding)):
            d[s:s + _ROW_BLOCK] = rows
    return d


def _check_points(c: np.ndarray) -> np.ndarray:
    """`c` if `TspInstance` accepts the `euclidean_matrix` of these (n, 2) points; else the error it raises.

    With n >= 3, the matrix check passes exactly when every leg is finite,
    which takes O(n) to decide: rounding is monotone, so no coordinate
    difference exceeds its axis's span, max - min, and no leg's sum of
    squares exceeds the sum of the spans' squares.  Only when that sum is
    not finite are the legs themselves computed, _ROW_BLOCK rows at a time.
    """
    if c.ndim != 2 or c.shape[1] != 2:
        raise DimensionMismatch(f"coordinates must be an (n, 2) array, got shape {c.shape}")
    if len(c) < 3:
        raise DimensionMismatch(f"distance matrix must be square with n >= 3, got {(len(c),) * 2}")
    with np.errstate(over="ignore", invalid="ignore"):
        span = c.max(axis=0) - c.min(axis=0)  # NaN or inf if a coordinate is
        span *= span
        if not np.isfinite(span[0] + span[1]) and not (
            np.isfinite(c).all() and all(np.isfinite(rows).all() for rows in _euclidean_rows(c, "real"))
        ):
            raise DimensionMismatch(_TSP_FINITE)
    return c


_INTP = np.dtype(np.intp)


def _scaled(a: np.ndarray, stride: int) -> np.ndarray:
    """a * stride in intp arithmetic, so narrow state dtypes cannot wrap; intp states skip the dtype argument."""
    return a * stride if a.dtype is _INTP else np.multiply(a, stride, dtype=np.intp)


def _table_legs(flat: np.ndarray, stride: int):
    """legs(a, b) read from a table: the leg from entry a to entry b is flat[a * stride + b]."""
    def legs(a, b):
        at = _scaled(a, stride)
        at += b
        return flat.take(at)

    return legs


class TspInstance:
    """Symmetric TSP: a distance matrix, or the points of a Euclidean instance.

    Given `matrix`, each leg is an entry of it, and `coords`, if given, are
    only kept: a GEO document's are DDD.MM pairs.  The matrix is held as
    `_symmetric` returns it, so L(a, b) has the bits of L(b, a).

    Given (n, 2) `coords` alone, each leg is computed when it is scored, by
    `_euclidean_legs` under `rounding` ("real" or "tsplib"): the steps that
    `euclidean_matrix` takes, so every leg has the bits of its matrix entry.
    The n x n matrix is built only when `matrix` is read.  The points are
    checked in O(n) (see `_check_points`), and L(a, b) has the bits of
    L(b, a), as (x_a - x_b)^2 equals (x_b - x_a)^2.

    `legs(a, b)` is the length of each leg from city a to city b, entry by
    entry.  `eps` is the machine epsilon of the float type tour lengths are
    summed in.
    """

    def __init__(self, matrix=None, coords=None, name: str = "tsp", rounding: str = "real"):
        self.coords, self.name = coords, name
        if matrix is None:
            if rounding not in ("real", "tsplib"):
                raise ValueError(f"rounding must be 'real' or 'tsplib', got {rounding!r}")
            self.coords = _check_points(np.ascontiguousarray(coords, dtype=np.float64))
            self.n, self.eps, self.rounding = len(self.coords), _EPS64, rounding
            self.legs = _euclidean_legs(self.coords, rounding)
            return
        # legs index the flattened matrix, so keep it in C order
        m = np.ascontiguousarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 3:
            raise DimensionMismatch(f"distance matrix must be square with n >= 3, got {m.shape}")
        lo, hi = m.min(), m.max()  # a NaN entry makes both NaN; no n x n temporaries
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DimensionMismatch(_TSP_FINITE)
        message = "distance matrix must be symmetric, nonnegative, zero diagonal"
        if not np.allclose(np.diag(m), 0) or lo < 0:
            raise DimensionMismatch(message)
        m = self.matrix = _symmetric(m, message)
        self.n, self.eps = len(m), float(np.finfo(m.dtype if m.dtype.kind == "f" else np.float64).eps)
        self.legs = _table_legs(m.ravel(), self.n)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The n x n distance matrix; a Euclidean instance builds it on the first read, each entry its leg."""
        return euclidean_matrix(self.coords, self.rounding)


@dataclass(frozen=True)
class MaxCutInstance:
    """Weighted graph on n+1 vertices, cut by signs y = (x, +1) with the last vertex fixed.

    cut_weight(y) = (sum W - y'Wy)/4, so min 1/2 y'Wy over signs x is the max
    cut.  For symmetric W with a zero diagonal, 1/2 y'Wy equals the QUBO
    form P(x) = 1/2 x'Qx - x'c of `qubo` (Q the leading n-by-n block of W,
    c minus its column to the fixed vertex); self-loops add 1/2 tr W to it.

    `weights` is held as `_symmetric` returns it.  `abs_bound`, 2 * sum |W|
    of the held weights, bounds every partial sum of 1/2 y'Wy and of
    cut_weight; it is finite only if every entry is.
    """

    weights: np.ndarray
    name: str = "maxcut"
    abs_bound: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self):
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 2:
            raise DimensionMismatch(f"weight matrix must be square with >= 2 vertices, got {w.shape}")
        with np.errstate(over="ignore"):
            total = 2 * _abs_sum(w.ravel(order="K"))
        if not np.isfinite(total):
            if not np.isfinite(w).all():
                raise DimensionMismatch("weight matrix entries must be finite")
            raise DimensionMismatch("weight matrix too large: its QUBO form overflows")
        exact = _symmetric(w, "weight matrix must be symmetric")
        if exact is not w:
            object.__setattr__(self, "weights", exact)
            total = 2 * _abs_sum(exact.ravel())
        object.__setattr__(self, "abs_bound", float(total))

    @property
    def n(self) -> int:
        """Number of free sign variables (vertex count minus the fixed one)."""
        return self.weights.shape[0] - 1

    @property
    def qubo(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, c) of P(x) = 1/2 x'Qx - x'c, the reference form that `qubo_value` scores."""
        n = self.n
        q = self.weights[:n, :n].astype(np.float64)
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
    """Closed-tour length: consecutive edges plus the edge back to the start, each from `inst.legs`."""
    if len(tour) != inst.n:
        raise DimensionMismatch(f"tour length {len(tour)} != instance size {inst.n}")
    tour = np.asarray(tour)
    return float(inst.legs(tour, np.roll(tour, -1)).sum())


def _chain_sums(rows: np.ndarray, legs, closed: bool) -> np.ndarray:
    """Sum of legs(a, b) over each row's adjacent entries a, b, and its last and first if `closed`."""
    if closed:
        rows = np.concatenate((rows, rows[:, :1]), axis=1)
    return np.add.reduce(legs(rows[:, :-1], rows[:, 1:]), axis=1)


# moves are scored on a padded state, pad[p + 1] the entry at position p for p
# from -1 to n, from rows of the entries at the ends of their legs: a window's
# are the entries before, first, last and after it, pad[lo], pad[lo + 1],
# pad[hi], pad[hi + 1], and (rotations) the two sides of its inner seam lo + k,
# each gathered as a start and the position after it; a write's are the entries
# before, at and after its position, then the value it writes; the fix-up's for
# write d at the position after write c's are c's entries at and after, then
# v_c and v_d.  Each legs table pairs those rows, legs taken out first, then
# legs put in, and the signs sum them to (delta, touched)
_NEXT = np.array([[0], [1]])
_AROUND = np.array([[[0]], [[1]], [[2]]])
_REVERSE_LEGS = np.array([[0, 2, 0, 1], [1, 3, 2, 3]])
_ROTATE_LEGS = np.array([[0, 4, 2, 0, 2, 4], [1, 5, 3, 5, 1, 3]])
_WRITE_LEGS = np.array([[0, 1, 0, 3], [1, 2, 3, 2]])
_FOLLOW_LEGS = np.array([[2, 0, 0, 2], [1, 3, 1, 3]])
_FOUR_SIGNS = np.array([[-1.0, -1, 1, 1], [1, 1, 1, 1]])
_ROTATE_SIGNS = np.array([[-1.0, -1, -1, 1, 1, 1], [1, 1, 1, 1, 1, 1]])


def _leg_lengths(ends: np.ndarray, pairs: np.ndarray, legs) -> np.ndarray:
    """The length of each leg from entry row pairs[0] to entry row pairs[1] of `ends`, entry by entry."""
    first, second = ends.take(pairs, axis=0)
    return legs(first, second)


def _chain_legs(pad: np.ndarray, moves: Windows, legs):
    """Each window's (delta, touched) on the padded state `pad`, with the lengths of the legs it replaces or adds.

    A closed chain pads with its own far ends, an open one with a sentinel
    whose legs are 0.  delta is each window's change, touched the sum of
    the legs it replaces or adds; a reversal's inner legs run backwards, for
    the caller to count.  The lengths are a (4 or 6, rows) array, the legs
    taken out in its first half and those put in in its second.
    """
    lo, hi, k = moves.lo, moves.hi, moves.k
    if k is None:
        at, pairs, signs = (lo, hi), _REVERSE_LEGS, _FOUR_SIGNS
    else:
        at, pairs, signs = (lo, hi, lo + k), _ROTATE_LEGS, _ROTATE_SIGNS
    ends = pad.take(np.concatenate(at).reshape(len(at), 1, -1) + _NEXT).reshape(2 * len(at), -1)
    lengths = _leg_lengths(ends, pairs, legs)
    return signs @ lengths, lengths


def _write_legs(pad: np.ndarray, moves: Writes, legs):
    """(delta, touched) of sparse writes on the padded closed chain `pad`, as `_chain_legs` gives them, and legs put in.

    A write of v at position p reads the entries before, at and after p from
    the chain before the move: legs (before, at) and (at, after) go, and
    (before, v) and (v, after) come; a masked column adds nothing.  When
    active write d's position follows active write c's, these legs count leg
    (at_c, after_c) twice and miss (v_c, v_d), so the row adds L(v_c, v_d) -
    L(v_c, after_c) - L(at_c, v_d) + L(at_c, after_c).  This holds along runs
    of consecutive writes and across the wrap.  A tour's entries are
    distinct, so d follows c exactly when c's entry after is d's entry at.

    The legs put in are a (2w, rows) array, L(before, v) of each column, then
    L(v, after) of each: the new legs p - 1, then p, of each written position
    p.  They are None when a column is masked or a write follows another,
    where the legs of the row differ from these.
    """
    p, mask = moves.pos, moves.mask
    rows, w = p.shape
    ends = np.concatenate((pad.take(p.T + _AROUND), moves.val.T[None]))  # (4, w, rows): before, at, after, v
    lengths = _leg_lengths(ends, _WRITE_LEGS, legs)
    follows = ends[2][:, None] == ends[1]  # [c, d, row]
    if mask is not None:
        live = mask.T
        lengths *= live
        follows &= live[:, None] & live
    sums = _FOUR_SIGNS.repeat(w, axis=1) @ lengths.reshape(4 * w, rows)
    if np.count_nonzero(follows):
        c, d, r = follows.nonzero()
        ends = np.concatenate((ends[1:, c, r], ends[3:, d, r]))  # at_c, after_c, v_c, v_d
        np.add.at(sums, (slice(None), r), _FOUR_SIGNS @ _leg_lengths(ends, _FOLLOW_LEGS, legs))
        return sums, None
    return sums, (None if mask is not None else lengths[2:].reshape(2 * w, rows))


def tour_lengths(tours: np.ndarray, inst: TspInstance) -> np.ndarray:
    """Closed-tour length of each row of `tours` (the batch form of `tour_length`)."""
    if tours.shape[1] != inst.n:
        raise DimensionMismatch(f"tour length {tours.shape[1]} != instance size {inst.n}")
    return _chain_sums(tours, inst.legs, closed=True)


_NO_HOLD = (None, None, None, None)  # a `tour_settle` hold that holds no tour


def tour_deltas(tour: np.ndarray, cost: float, moves: Moves, inst: TspInstance, held=_NO_HOLD):
    """Change in closed-tour length of each move, with one bound on the error of all of them.

    Leg i joins positions i and i + 1 (mod n), and moves are scored on the
    tour padded with its own far ends, windows by `_chain_legs` and sparse
    writes by `_write_legs`.  A window rotation replaces 3 legs; a reversal
    replaces 2 and runs the legs inside it backwards, each of the length it
    had, as every instance is exactly symmetric; a write of w positions
    takes 4 legs a position, and 4 more for each pair of adjacent positions,
    at most 8w.  A whole-tour window leaves the cycle as it was, so its delta
    is 0.  `held` is the hold of `tour_settle`: when `tour` is its row, moves
    are scored on its pad, and the round holds its moves and the legs they
    put in, where `_chain_legs` or `_write_legs` gives them.

    Returns (delta, err), one float err for the round, with |cost + delta -
    tour_lengths(row)| <= err for the row of every move, where `cost` is
    `tour_lengths` of `tour`.  err bounds float summation: each of the two
    full sums over n legs and the delta, a sum of `terms` legs (6 for a
    rotation, 4 for a reversal, 8w for writes), is within (terms) * eps of
    its absolute sum, doubled for safety, taken at the round's largest sum of
    touched legs.
    """
    n = inst.n
    row, pad, _, _ = held  # one read, so the row and its pad are of one tour
    if tour is not row:
        pad = np.concatenate((tour[-1:], tour, tour[:1]))
    terms = 6  # a rotation's 6 legs
    if isinstance(moves, Writes):
        (delta, touched), put = _write_legs(pad, moves, inst.legs)
        terms = 8 * moves.pos.shape[1]
    else:
        (delta, touched), lengths = _chain_legs(pad, moves, inst.legs)
        put = lengths[len(lengths) // 2:]
        delta[moves.hi - moves.lo == n] = 0
        if moves.k is None:  # a reversal's 4 legs
            terms = 4
    if tour is row:
        held[3] = None if put is None else (moves, put)
    most = float(np.maximum.reduce(touched))
    return delta, 2 * inst.eps * (2 * n + terms + 1) * (abs(cost) + most)


_HELD_LEGS_FROM = 300  # cities; below, the hold did not read faster in most pairs of every round measured


def tour_settle(tour: np.ndarray, moves: Moves, index: int, inst: TspInstance, held: list) -> tuple[float, np.ndarray]:
    """(cost, row) of the row of move `index`, the cost `tour_lengths` of the row, bit for bit.

    `held` is the [row, pad, legs, round] hold that `tsp_problem` shares with
    `tour_deltas`, of the last row settled here: pad is the row padded with
    its own far ends, row = pad[1:-1], pad[0] = row[-1] and pad[-1] = row[0];
    legs[i] is leg i, joining positions i and i + 1 (mod n); round is None,
    or the moves of the round that `tour_deltas` last scored on the pad and
    the legs each of them puts in.  The row is written once, by the rules of
    `Windows.apply` and `Writes.apply` for one row, into a new pad that is
    then made read-only, so a tour is the held one exactly when it is the
    held row (`is`), and a copy of it, a restored incumbent say, is not.

    When `tour` is the held row, the new row's legs are the held legs with a
    few replaced: a reversal of [lo, hi) runs legs lo..hi - 2 backwards and
    replaces legs lo - 1 and hi - 1, a rotation by k moves its two inner runs
    and replaces legs lo - 1, hi - k - 1 and hi - 1, and a write at p
    replaces legs p - 1 and p (mod n).  A move of the held round, but for a
    whole-tour window, takes its new legs from the round: `_chain_legs` or
    `_write_legs` took each as `inst.legs` of the same two cities in the same
    order, so it has the same bits.  Any other new leg is `inst.legs` of its
    two cities.  A reversed leg keeps its bits, as L(a, b) has the bits of
    L(b, a) on every instance (see `TspInstance`).  The row of a tour that is
    not held is evaluated in full.  Either way the row's n legs are summed by
    one pairwise np.add.reduce, as `_chain_sums` sums them, and the hold then
    holds the row.
    """
    held_row, _, old, scored = held  # one read, so the row, its legs and its round are of one tour
    n, hit = len(tour), tour is held_row
    pad = np.empty(n + 2, tour.dtype)
    row = pad[1:-1]
    row[:] = tour
    legs = old.copy() if hit else None
    if isinstance(moves, Writes):
        pos, val = moves.pos[index], moves.val[index]
        if moves.mask is not None:
            live = moves.mask[index]
            pos, val = pos[live], val[live]
        row[pos] = val
        at, whole = np.concatenate((pos - 1, pos)), False
    else:
        lo, hi = int(moves.lo[index]), int(moves.hi[index])
        if moves.k is None:
            row[lo:hi] = tour[lo:hi][::-1]
            if hit:
                legs[lo:hi - 1] = old[lo:hi - 1][::-1]
            at = [lo - 1, hi - 1]
        else:
            k = int(moves.k[index])
            row[lo:hi - k] = tour[lo + k:hi]
            row[hi - k:hi] = tour[lo:lo + k]
            if hit:
                legs[lo:hi - k - 1] = old[lo + k:hi - 1]
                legs[hi - k:hi - 1] = old[lo:lo + k - 1]
            at = [lo - 1, hi - k - 1, hi - 1]
        whole = hi - lo == n
    pad[0], pad[-1] = row[-1], row[0]
    if not hit:
        legs = inst.legs(row, pad[2:])
    elif scored is not None and scored[0] is moves and not whole:
        legs[at] = scored[1][:, index]
    else:
        a, b = pad.take(np.add(at, _NEXT + 1))  # pad[p + 1] is the row's entry at position p, for p from -1 to n
        legs[at] = inst.legs(a, b)
    pad.flags.writeable = row.flags.writeable = False  # a view keeps the flag it was made with
    held[:] = row, pad, legs, None
    return float(np.add.reduce(legs)), row


# the float sign of each bit (0 -> -1, 1 -> +1), so bits become signs in one gather
_SIGN_VALUES = np.array([-1.0, 1.0])
_SIGN32 = _SIGN_VALUES.astype(np.float32)
_EPS32 = float(np.finfo(np.float32).eps)
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


def _signs(bits: np.ndarray, values: np.ndarray = _SIGN_VALUES) -> np.ndarray:
    """Signs y = (x, +1) of a 0/1 vector or of each row of a 0/1 matrix, in one array whose last column is 1."""
    y = np.empty(bits.shape[:-1] + (bits.shape[-1] + 1,), values.dtype)
    y[..., -1] = 1
    y[..., :-1] = values.take(bits)
    return y


def _qubo_form(bits: np.ndarray, w: np.ndarray, held: list) -> np.ndarray:
    """1/2 y'Wy for every row of a 0/1 matrix, y its signs with the fixed vertex's +1 last.

    The product is one matrix product so that numpy runs it as a BLAS GEMM;
    numpy's three-operand contraction runs as an unblocked loop, tens of
    times slower at n = 400.  Every batch MAX-CUT evaluation in the package
    goes through here; qubo_value and cut_weight are the independent scalar
    references.

    A one-row batch's product row is g = W^T y of that row, and `held`, the
    [bits, g] pair of `qubo_deltas`, takes a copy of both.  numpy forms a
    (1, n + 1) @ W product as the vector product y @ W, so the held g has
    the bits of one formed afresh.  A batch of two or more rows is a GEMM,
    whose rows may differ in the last bits, so it leaves `held` as it was.
    """
    y = _signs(bits)
    wy = y @ w
    if len(wy) == 1:
        held[:] = bits[0].copy(), wy[0].copy()
    wy *= y
    return 0.5 * wy.sum(axis=1)


def qubo_deltas(
    bits: np.ndarray,
    cost: float,
    moves: Moves,
    w: np.ndarray,
    inst: MaxCutInstance,
    screen: np.ndarray | None,
    held: list,
):
    """Change in 1/2 y'Wy, y = (x, +1), of each move, with a bound on its error.

    A sparse write flips the set S of its k written positions whose bit
    changes.  W is exactly symmetric (see `MaxCutInstance`), so with g = W^T
    y its delta is -2 sum_S y_i g_i + 2 sum_{i,j in S} y_i y_j W_ij: g and a
    (rows, k, k) gather of W, where W_ii enters both sums and cancels.  g
    comes from `held`, the [bits, g] pair that `maxcut_problem` keeps, when
    `bits` equals its bits: `_qubo_form` holds the product of every one-row
    evaluation, and a round is settled by evaluating its shortlist, usually
    one row, so a kept state's g is usually held.  Otherwise one GEMV forms
    g as y @ W, and the pair holds it with a copy of `bits`.  A held g has
    the bits of a fresh one (see `_qubo_form`), so no result depends on
    which it was.

    A window flips about half its length, so its rows are screened whole in
    float32: `screen` is the float32 copy of W that `maxcut_problem` makes,
    one GEMM gives 2 P32 of every row, and the delta is P32 - cost.  The GEMM
    is W32 Y^T, not Y W32: the square matrix as BLAS's left operand measured
    faster from about 200 rows up (124 against 139 us at 399, 32 sign rows,
    one OpenBLAS thread on a 2-core VM) and slower below 100.  Only rounding
    differs, as y'Wy equals y'W^Ty exactly for any W, and gamma_(2n) below
    holds in any summation order.  Without a screen, windows are not
    scored: the result is None.

    Returns (delta, err) with |cost + delta - F| <= err, where cost is
    `_qubo_form` of `bits` and F is `_qubo_form` of the move's row, each
    evaluated in any batch: GEMM rounding changes with the batch's row count,
    so err does not rest on one.  err bounds rounding over the instance's
    `abs_bound` B = 2 sum|W|; each dot product has n + 1 terms.  With gamma_k
    = k u (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 3), each bound doubled for safety, which also covers second-order
    terms:

    - a float64 evaluation is within gamma_(2n+1) B/4 of exact, gamma_n for
      each entry of yW and for the row sum;
    - a write's delta is within gamma_(n+2k+3) 2B, as each g_i is within
      gamma_n of its column's sum of |W| and each gathered sum within gamma_k
      of its row's, both summing to at most B/2 over distinct positions;
    - a screened row is within 9 u32 B/4 for storing W in float32 (half the
      bound in `_qubo_arrays`), gamma_(2n) B/4 at float32's u for its
      evaluation (sign products, sums that underflow and halving 2 P32 in
      float64 are exact), gamma_(2n+1) B/4 for F, and 4u B/4 for P32 - cost
      and the caller's cost + delta in float64.
    """
    n = len(bits)
    if not isinstance(moves, Writes):
        if screen is None:
            return None
        y = moves.apply(_signs(bits, _SIGN32))
        wy = screen @ y.T
        wy *= y.T
        twice = wy.sum(axis=0)
        err = (_EPS32 * (2 * n + 9) + _EPS64 * (2 * n + 5)) * inst.abs_bound / 4
        return 0.5 * twice.astype(np.float64) - cost, err
    p = moves.pos
    held_bits, g = held  # one read, so bits and g are of one state
    if not np.array_equal(bits, held_bits):
        g = _signs(bits) @ w
        held[:] = bits.copy(), g
    at = bits.take(p)
    flip = moves.val != at
    if moves.mask is not None:
        flip &= moves.mask
    ys = _SIGN_VALUES.take(at) * flip  # sign of each flipped position, 0 elsewhere
    d = (w[p[:, :, None], p[:, None, :]] @ ys[:, :, None])[:, :, 0]
    d -= g.take(p)
    d *= ys
    k = p.shape[1]
    return 2 * d.sum(axis=1), 2 * _EPS64 * (2 * n + 2 * k + 5) * inst.abs_bound


def _qubo_arrays(inst: MaxCutInstance):
    """W in float64 and C order, and the float32 copy that screens window moves, or None where float32 cannot serve.

    Every partial sum of the screen is at most B/2 (B is `abs_bound`), so B
    up to float32's largest value rules out overflow, and the cast cannot
    warn.  Below float32's smallest normal t, a weight is stored with an
    absolute error of up to t u32 instead of a relative one; with B >= n^2 t
    the (n + 1)^2 <= 4 n^2 such errors sum to at most 4 u32 B, which
    `qubo_deltas` counts.  Weights outside both limits get no copy.  Two
    comparisons decide it, so building a problem scans no weight.
    """
    w = np.ascontiguousarray(inst.weights, dtype=np.float64)
    screened = inst.n * inst.n * _F32_TINY <= inst.abs_bound <= _F32_MAX
    return w, (w.astype(np.float32) if screened else None)


def rosenbrock_value(values: np.ndarray) -> float:
    """Integer Rosenbrock: sum of 100(x_{i+1} - x_i^2)^2 + (x_i - 1)^2."""
    x = np.asarray(values)
    if np.any(x < -2) or np.any(x > 2):
        raise DomainViolation("entries must lie in {-2,-1,0,1,2}")
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1) ** 2))


def _check_indices(idx: np.ndarray, m: int) -> None:
    """Raise unless every index lies in 0..m-1; one pass, as read unsigned a negative index exceeds them all."""
    if np.asarray(idx, np.int64).view(np.uint64).max(initial=0) >= m:
        raise DomainViolation("index outside alphabet range")


def dvs_decode(indices: np.ndarray, alphabet: np.ndarray) -> np.ndarray:
    """Map index vectors to real vectors by alphabet lookup."""
    idx = np.asarray(indices)
    _check_indices(idx, len(alphabet))
    return np.asarray(alphabet)[idx]


def tsp_error(best: float, optimum: float) -> float:
    """Signed gap to the reference optimum, percent; negative beats the reference."""
    if optimum == 0:
        raise ZeroDivisionError("reference optimum must be nonzero")
    return (best - optimum) / optimum * 100.0


class RoundBest(NamedTuple):
    """The best of a round's moves: a lower bound on its full cost, then the move itself.

    `settle()` returns (index, cost, row), cost a full evaluation; see `Problem.best_move`.
    """

    bound: float
    settle: Callable[[], tuple[int, float, np.ndarray]]


@dataclass(frozen=True)
class Problem:
    """Engine-facing adapter: representation details plus a pure batch cost function.

    `delta_many(state, cost, moves)`, where given, returns (delta, err): a
    delta per move and one float err per round, with err >= |cost + delta -
    evaluate_many(row)| for every move's row evaluated in any batch; `cost`
    is `evaluate` of `state`.  It lets `best_move` skip most rows.  It
    returns None for moves it does not score.

    `settle_one(state, moves, index)`, where given, returns (cost, row) of
    move `index` of `moves`: the row `moves.apply(state)[index]`, and a cost
    with the bits of `evaluate_many` of it.  `best_move` settles a one-row
    shortlist through it, with the moves `delta_many` just scored, so the
    problem can tell the round it scored.
    """

    name: str
    size: int
    alphabet_size: int | None  # None marks the permutation representation
    evaluate_many: Callable[[np.ndarray], np.ndarray]  # (rows, n) states -> (rows,) costs
    delta_many: Callable[[np.ndarray, float, Moves], tuple[np.ndarray, float] | None] | None = None
    settle_one: Callable[[np.ndarray, Moves, int], tuple[float, np.ndarray]] | None = None

    def evaluate(self, state: np.ndarray) -> float:
        return float(self.evaluate_many(np.asarray(state)[None])[0])

    def best_move(self, state: np.ndarray, cost: float, moves: Moves) -> RoundBest:
        """The move np.argmin would pick over evaluate_many of every move's row, in two steps.

        `bound` is a lower bound on the best row's full cost, and `settle()`
        returns (index, cost, row); a caller that learns from the bound that it
        will not keep the row never settles, and nothing past the bound is built.

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
        `settle_one(state, moves, index)` where the problem gives one, on the
        moves `delta_many` scored (see `_settle`).

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
            if math.isfinite(np.add.reduce(est) + err):  # every estimate, and err, is finite
                if err == 0.0:  # S is the rows tied at min est, and np.argmin picks the first
                    short = est.argmin(keepdims=True)
                    low = est[short[0]]
                else:
                    low = np.minimum.reduce(est)
                    short = (est <= low + 2 * err).nonzero()[0]
                return RoundBest(float(low - err), lambda: self._settle(state, moves, short))
        best = self._settle(state, moves, None)
        return RoundBest(best[1], lambda: best)

    def _settle(self, state: np.ndarray, moves: Moves, short: np.ndarray | None) -> tuple[int, float, np.ndarray]:
        """(index, cost, row) of the best of the rows in `short` (every row if None), each evaluated in full.

        A one-row `short` goes to `settle_one` where the problem gives one,
        with the round's moves and the row's index in them.
        """
        if self.settle_one is not None and short is not None and len(short) == 1:
            index = int(short[0])
            return index, *self.settle_one(state, moves, index)
        rows = (moves if short is None else moves.take(short)).apply(state)
        costs = self.evaluate_many(rows)
        best = int(costs.argmin())  # stable: first minimum wins; a NaN anywhere wins too
        return (best if short is None else int(short[best])), float(costs[best]), rows[best].copy()

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        if self.alphabet_size is None:
            return rng.permutation(self.size)
        return rng.integers(0, self.alphabet_size, size=self.size)


def tsp_problem(inst: TspInstance) -> Problem:
    """Minimize closed-tour length; from _HELD_LEGS_FROM cities up, one-row settles edit held legs (`tour_settle`).

    `tour_deltas` and `tour_settle` share one hold: a settled row, its
    read-only pad and its legs, and the round last scored on it.
    """
    held = [None, None, None, None]  # [row, pad, legs, round] of the last row settled through `tour_settle`
    return Problem(
        name=inst.name,
        size=inst.n,
        alphabet_size=None,
        evaluate_many=lambda tours: tour_lengths(tours, inst),
        delta_many=lambda tour, cost, moves: tour_deltas(tour, cost, moves, inst, held),
        settle_one=None if inst.n < _HELD_LEGS_FROM else lambda tour, moves, i: tour_settle(tour, moves, i, inst, held),
    )


def maxcut_problem(inst: MaxCutInstance) -> Problem:
    """Minimize 1/2 y'Wy over signs y = (x, +1); convert best_cost back with cut_from_qubo.

    `delta_many` scores swap and substitute moves by k-flip deltas, and
    screens shift and symmetry moves in float32 against a copy of W made
    here once; `best_move` evaluates in float64 only the rows the screen
    cannot rule out.  When 2 sum|W| exceeds float32's largest value or falls
    below n^2 times its smallest normal, no copy is made and windows are
    evaluated whole in float64.  Both functions share one held pair of a
    state's bits and its product g = W^T y: a one-row evaluation sets it,
    and a write round on that state takes g from it instead of a pass over
    W (see `qubo_deltas`).
    """
    w, screen = _qubo_arrays(inst)
    held = [None, None]  # a state's bits and its g = W^T y, from a one-row evaluation or a write round
    return Problem(
        name=inst.name,
        size=inst.n,
        alphabet_size=2,
        evaluate_many=lambda bits: _qubo_form(bits, w, held),
        delta_many=lambda bits, cost, moves: qubo_deltas(bits, cost, moves, w, inst, screen, held),
    )


def cut_from_qubo(p_value, inst: MaxCutInstance):
    """Cut weight achieved by sign vectors y = (x, +1) whose value 1/2 y'Wy is p_value.

    The cut is sum W / 4 - p_value / 2, exact for any diagonal (against
    `qubo_value`'s P(x) it is off by tr W / 4 with self-loops).  Accepts a
    scalar or an array of values; the relationship is affine, so rank order
    is preserved either way.
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
_ROSEN_LEGS = _table_legs(_ROSEN_TABLE.ravel(), _ROSEN_STRIDE)
_ROSEN_TURNS = (_ROSEN_TABLE.T - _ROSEN_TABLE).ravel()  # the change when pair (i, j) becomes (j, i)


def _rosenbrock_many(idx: np.ndarray) -> np.ndarray:
    _check_indices(idx, _ROSEN_END)  # 5 is the sentinel
    return _chain_sums(idx, _ROSEN_LEGS, closed=False)


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
    (delta, _), _ = _chain_legs(np.concatenate(([_ROSEN_END], idx, [_ROSEN_END])), moves, _ROSEN_LEGS)
    if moves.k is None:  # pair p, p + 1 is turned around for lo <= p < hi - 1
        fwd = idx[:-1] * _ROSEN_STRIDE
        fwd += idx[1:]
        turned = np.zeros(len(idx))
        _ROSEN_TURNS.take(fwd).cumsum(out=turned[1:])
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
