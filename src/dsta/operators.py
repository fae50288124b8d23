"""Geometric neighborhood sampling: swap, shift, symmetry, substitute.

`sample_batch` is the one sampler.  It draws `se` neighbors of a state under
one operator and returns them as the rows of a fresh (se, n) array, never
mutating its input.  A state is a 1-D integer numpy array: either a
permutation of 0..n-1 (tour representation) or an index vector with entries
in 0..m-1 (value representation).  Each operator has a single implementation
whose rng draws are vectorized over the rows for every factor value; shift and
symmetry then build each row from one or two slice copies of the state.

The first three operators rearrange existing entries (the entry multiset is
preserved), so duplicate-valued states admit rearrangements that change
nothing.  Such rows are redrawn a bounded number of times, then fall back to
the smallest change-producing move; on a state whose entries are all
identical (including a one-entry state) no rearrangement can help and the
rows are plain copies.

Seeded runs depend on the exact sequence of rng draws made here, so the draw
order at the default factors is part of the contract; tests/test_seeded_outputs.py
pins it.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DegenerateState, IncompatibleOperator

# redraws of change-free rows before switching to a targeted move
_MAX_ATTEMPTS = 16


class Operator(str, Enum):
    SWAP = "swap"
    SHIFT = "shift"
    SYMMETRY = "symmetry"
    SUBSTITUTE = "substitute"


DEFAULT_ORDER = (Operator.SWAP, Operator.SHIFT, Operator.SYMMETRY, Operator.SUBSTITUTE)


def is_permutation(state: np.ndarray) -> bool:
    n = len(state)
    return bool(np.array_equal(np.sort(state), np.arange(n)))


def check_value_state(state: np.ndarray, alphabet_size: int) -> bool:
    return bool(len(state) >= 1 and np.all(state >= 0) and np.all(state < alphabet_size))


def _constant(state):
    return bool((state == state[0]).all())


def _uniform(rng, lo, hi, size):
    """`size` integers uniform in lo..hi; a one-value range skips the draw.

    Such a draw consumes no generator state but costs a call, so skipping it
    leaves the stream unchanged.
    """
    return rng.integers(lo, hi + 1, size=size) if hi > lo else np.full(size, lo)


def _floyd(rng, n, ks):
    """Row r gets ks[r] distinct positions in 0..n-1 (Floyd's subset sampling).

    Column s draws below n - ks + s + 1 in every row, so ks == 1 is one
    rng.integers(n) per row.  Columns from ks[r] on are padding, drawn below n.
    """
    pos = np.empty((len(ks), int(ks.max(initial=0))), dtype=np.int64)
    for s in range(pos.shape[1]):
        top = n - np.maximum(ks - s, 1)
        t = rng.integers(top + 1)
        if s:  # Floyd's step: a position already taken is replaced by top
            t = np.where((pos[:, :s] == t[:, None]).any(axis=1), top, t)
        pos[:, s] = t
    return pos


def _boundary_swaps(state, k, rng):
    """k copies of a non-constant state, each with one random adjacent differing pair exchanged."""
    bnd = np.flatnonzero(state[:-1] != state[1:])
    b = bnd[rng.integers(len(bnd), size=k)]
    out = np.repeat(state[None], k, axis=0)
    rows = np.arange(k)
    out[rows, b] = state[b + 1]
    out[rows, b + 1] = state[b]
    return out


def _swap(state, ma, se, rng):
    """Exchange the entries at k distinct random positions, k uniform in {2..ma}.

    k = 2 exchanges a random entry with one holding a different value.  Larger
    k applies a random rearrangement to k positions; rows it leaves unchanged
    after the redraws take a pair exchange instead.  Rows differ from the
    state in 2..ma positions.
    """
    n = len(state)
    out = np.repeat(state[None], se, axis=0)
    if _constant(state):
        return out
    ks = _uniform(rng, 2, min(ma, n), se)
    pair = ks == 2
    multi = np.flatnonzero(~pair)
    for _ in range(_MAX_ATTEMPTS):
        if not len(multi):
            break
        k = ks[multi]
        pos = _floyd(rng, n, k)
        live = np.arange(pos.shape[1]) < k[:, None]
        keys = np.where(live, rng.random(pos.shape), 2.0)  # padding stays in place
        vals = state[pos]
        new = np.take_along_axis(vals, np.argsort(keys, axis=1, kind="stable"), axis=1)
        done = (new != vals).any(axis=1)
        r, c = np.nonzero(live & done[:, None])
        out[multi[r], pos[r, c]] = new[r, c]
        multi = multi[~done]
    pair[multi] = True
    rows = np.flatnonzero(pair)
    i = rng.integers(n, size=len(rows))
    j = rng.integers(n, size=len(rows))
    for _ in range(_MAX_ATTEMPTS):
        bad = state[i] == state[j]
        if not bad.any():
            break
        j[bad] = rng.integers(n, size=int(bad.sum()))
    bad = np.flatnonzero(state[i] == state[j])
    if len(bad):
        # uniform pick among the positions whose value differs from state[i]
        differs = state != state[i[bad], None]
        u = rng.integers(differs.sum(axis=1))
        j[bad] = np.argmax(differs.cumsum(axis=1) > u[:, None], axis=1)
    out[rows, i] = state[j]
    out[rows, j] = state[i]
    return out


def _shift(state, mb, se, rng):
    """Remove a random segment of length 1..mb and reinsert it at another slot.

    The move rotates the window spanning the segment's old and new places.
    Rows left unchanged after the redraws take a boundary transposition.
    """
    n = len(state)
    if _constant(state):
        return np.repeat(state[None], se, axis=0)
    seg = _uniform(rng, 1, min(mb, n - 1), se)
    # boundaries before each index: window [lo, hi) is constant iff nb[lo] == nb[hi - 1]
    nb = np.concatenate(([0], np.cumsum(state[:-1] != state[1:])))
    s, j = np.empty(se, dtype=np.int64), np.empty(se, dtype=np.int64)
    redo = np.arange(se)
    for _ in range(_MAX_ATTEMPTS + 1):
        L = seg[redo]
        a = rng.integers(n - L + 1)
        # n - L + 1 insertion slots; slot == a restores the input
        b = rng.integers(n - L)
        b += b >= a
        s[redo], j[redo] = a, b
        redo = redo[nb[np.maximum(a, b) + L - 1] == nb[np.minimum(a, b)]]  # constant window
        if not len(redo):
            break
    lo, hi = np.minimum(s, j), np.maximum(s, j) + seg
    # rotate window [lo, hi) left by k with two slice copies: k = seg carries a
    # segment moved right (j > s) to the window's end, k = hi - lo - seg brings
    # a segment moved left to its front
    k = np.where(j > s, seg, hi - lo - seg)
    out = np.repeat(state[None], se, axis=0)
    for row, a, b, t in zip(out, lo.tolist(), hi.tolist(), k.tolist()):
        row[a : b - t] = state[a + t : b]
        row[b - t : b] = state[a : a + t]
    long = np.flatnonzero(seg > 1)
    if len(long):  # a segment longer than 1 can also rotate a periodic window onto itself
        redo = np.union1d(redo, long[(out[long] == state).all(axis=1)])
    if len(redo):
        out[redo] = _boundary_swaps(state, len(redo), rng)
    return out


def _redraw_palindrome(state, c_hi, rng):
    """Reverse one non-palindromic window, retrying with scalar draws.

    This is the one loop that draws row by row: each retry draws (c, h, start)
    for its row before the next row starts, and seeded runs depend on that
    interleaving, which a vectorized redraw would change.
    """
    n = len(state)
    for _ in range(_MAX_ATTEMPTS):
        c = int(_uniform(rng, 0, c_hi, ()))
        h = int(rng.integers(1, (n - c) // 2 + 1))
        start = int(rng.integers(0, n - 2 * h - c + 1))
        window = state[start : start + 2 * h + c]
        if (window != window[::-1]).any():
            out = state.copy()
            out[start : start + len(window)] = window[::-1]
            return out
    return _boundary_swaps(state, 1, rng)[0]


def _symmetry(state, mc, se, rng):
    """Reverse one contiguous window of length 2h+c, c uniform in {0..mc}, h >= 1.

    c is the length of the fixed-size center being mirrored around; h entries on
    each side fold across it, which is exactly a reversal of the whole window.
    """
    n = len(state)
    if _constant(state):
        return np.repeat(state[None], se, axis=0)
    c_hi = min(mc, n - 2)
    c = _uniform(rng, 0, c_hi, se)
    h = 1 + (rng.random(se) * ((n - c) // 2)).astype(int)
    wlen = 2 * h + c
    start = (rng.random(se) * (n - wlen + 1)).astype(int)
    out = np.repeat(state[None], se, axis=0)
    for row, a, b in zip(out, start.tolist(), (start + wlen).tolist()):
        row[a:b] = state[a:b][::-1]
    for r in np.flatnonzero((out == state).all(axis=1)):
        out[r] = _redraw_palindrome(state, c_hi, rng)
    return out


def _substitute(state, md, alphabet_size, se, rng):
    """Redraw the values at k distinct random positions, k uniform in {1..md}.

    Each chosen position gets a uniformly random value different from its
    current one, so every row is at Hamming distance exactly k.
    """
    if alphabet_size < 2:
        raise DegenerateState("substitute needs an alphabet of size >= 2")
    ks = _uniform(rng, 1, min(md, len(state)), se)
    pos = _floyd(rng, len(state), ks)
    # draw in 0..m-2 and skip over the current value
    draws = rng.integers(0, alphabet_size - 1, size=pos.shape)
    r, c = np.nonzero(np.arange(pos.shape[1]) < ks[:, None])
    p, d = pos[r, c], draws[r, c]
    out = np.repeat(state[None], se, axis=0)
    out[r, p] = d + (d >= state[p])
    return out


def sample_batch(
    state: np.ndarray,
    op: Operator,
    factor: int,
    se: int,
    rng: np.random.Generator,
    alphabet_size: int | None = None,
) -> np.ndarray:
    """Draw se neighbors of `state` under one operator; returns an (se, n) array."""
    if op is Operator.SWAP:
        return _swap(state, factor, se, rng)
    if op is Operator.SHIFT:
        return _shift(state, factor, se, rng)
    if op is Operator.SYMMETRY:
        return _symmetry(state, factor, se, rng)
    if op is Operator.SUBSTITUTE:
        if alphabet_size is None:
            raise IncompatibleOperator("substitute requires a value-vector state")
        return _substitute(state, factor, alphabet_size, se, rng)
    raise ValueError(f"unknown operator {op!r}")
