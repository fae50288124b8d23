"""Geometric neighborhood sampling: swap, shift, symmetry, substitute.

`sample_moves` is the one sampler.  It draws `se` moves from a state under one
operator and returns them as a move descriptor, whose `apply(state)` builds the
candidate rows as a new (rows, n) array, never mutating the state, and whose
`take(rows)` keeps a subset of the moves.  Two descriptor kinds cover every
operator:

- `Writes`, sparse writes: swap and substitute set a few positions per row;
- `Windows`, contiguous windows: shift rotates one per row and symmetry
  reverses one.

A problem can score moves from the descriptor alone (`Problem.delta_many`), so
`engine.best_move` builds only the rows it must evaluate in full, and only
for a round the engine may keep.
`sample_batch`, `sample_moves(...).apply(state)`, is kept only because the
benchmark harness wraps it by name.

A state is a 1-D integer numpy array: either a permutation of 0..n-1 (tour
representation, marked by `alphabet_size` None) or an index vector with entries
in 0..m-1 (value representation).  Each operator has a single implementation
whose rng draws are vectorized over the rows for every factor value.

The first three operators rearrange existing entries (the entry multiset is
preserved), so duplicate-valued states admit rearrangements that change
nothing.  Swap pair exchanges and shifts draw in one loop that covers every
row on its first pass and then only the rows still unchanged: the first draw
plus 16 redraws.  k > 2 swaps get 16 attempts, and symmetry 16 scalar
redraws per palindromic row.  Then a pair exchange draws j among the
positions holding another value, a k > 2 swap takes a pair exchange, and
shift and symmetry take the smallest change-producing move, a length-2 window
over two adjacent differing entries.
On a state whose entries are all identical (including a one-entry state) no
rearrangement can help: `sample_moves` checks the operator, then returns
plain copies without drawing.  A permutation's entries are distinct, so none
of its rearrangements is the identity and these checks are skipped; no draw
depends on them there.

Seeded runs depend on the exact sequence of rng draws made here, so the draw
order at the default factors is part of the contract; tests/test_seeded_outputs.py
pins it.  An array bound with equal entries (shift when every segment has
length 1, Floyd's draw when every row takes one position) is drawn in numpy's
scalar form, `rng.integers(h, size=m)`: the same values and generator state
as `rng.integers(np.full(m, h))` at less cost per call.  Two consecutive calls
with the same scalar bound are made as one call of their summed size, split
in two (swap's i and the first pass of its j): `rng.integers(h, size=a + b)`
gives the values and generator state of `rng.integers(h, size=a)` followed by
`rng.integers(h, size=b)`.  Same-bound calls may also be drawn ahead (swap's
redraw passes of j, up to 16 of at most m values each): the first u values of
`rng.integers(h, size=c)`, u <= c, are those of `rng.integers(h, size=u)`, so
the passes read one call of size 16 m, and the generator is then put back
to its saved `bit_generator.state` and advanced by `rng.integers(h, size=u)`
for the u values they read.  The three rules are tested in
tests/test_operators.py, checked on numpy 2.4.6.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(slots=True)
class Writes:
    """Row r sets entry pos[r, c] to val[r, c] wherever mask[r, c] (everywhere if mask is None).

    The positions of a row's unmasked columns are distinct; its masked columns
    are padding and may repeat them.  All three arrays are (rows, w).
    """

    pos: np.ndarray
    val: np.ndarray
    mask: np.ndarray | None = None

    def take(self, rows) -> Writes:
        return Writes(self.pos[rows], self.val[rows], None if self.mask is None else self.mask[rows])

    def apply(self, state: np.ndarray) -> np.ndarray:
        out = state[None].repeat(len(self.pos), axis=0)
        if self.mask is None:
            out[np.arange(len(self.pos))[:, None], self.pos] = self.val
        else:
            r, c = self.mask.nonzero()
            out[r, self.pos[r, c]] = self.val[r, c]
        return out


@dataclass(slots=True)
class Windows:
    """Row r rotates state[lo[r]:hi[r]] left by k[r], or reverses it when k is None.

    A rotation has 0 < k < hi - lo.  The window [lo, hi) may span the whole state.
    """

    lo: np.ndarray
    hi: np.ndarray
    k: np.ndarray | None = None

    def take(self, rows) -> Windows:
        return Windows(self.lo[rows], self.hi[rows], None if self.k is None else self.k[rows])

    def apply(self, state: np.ndarray) -> np.ndarray:
        out = state[None].repeat(len(self.lo), axis=0)
        if self.k is None:
            for row, a, b in zip(out, self.lo.tolist(), self.hi.tolist()):
                row[a:b] = state[a:b][::-1]
        else:  # two slice copies per row
            for row, a, b, t in zip(out, self.lo.tolist(), self.hi.tolist(), self.k.tolist()):
                row[a : b - t] = state[a + t : b]
                row[b - t : b] = state[a : a + t]
        return out


Moves = Writes | Windows


def _no_change(state, distinct):
    """True if no rearrangement of the state changes it; differing ends settle most states in one compare."""
    return len(state) < 2 or not distinct and state[0] == state[-1] and bool((state == state[0]).all())


def _still(rows, same):
    """The rows flagged by `same`, of `rows`: a row index array, or slice(None) for every row."""
    return same.nonzero()[0] if isinstance(rows, slice) else rows[same]


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
    if pos.shape[1] == 1:  # every row takes one position: the bounds all equal n
        pos[:, 0] = rng.integers(n, size=len(ks))
        return pos
    for s in range(pos.shape[1]):
        top = n - np.maximum(ks - s, 1)
        t = rng.integers(top + 1)
        if s:  # Floyd's step: a position already taken is replaced by top
            t = np.where((pos[:, :s] == t[:, None]).any(axis=1), top, t)
        pos[:, s] = t
    return pos


def _boundary_starts(state, k, rng):
    """k random starts b of adjacent differing pairs: exchanging b and b + 1 changes a non-constant state."""
    bnd = (state[:-1] != state[1:]).nonzero()[0]
    return bnd[rng.integers(len(bnd), size=k)]


def _swap(state, ma, se, rng, distinct):
    """Exchange the entries at k distinct random positions, k uniform in {2..ma}.

    k = 2 exchanges a random entry with one holding a different value.  Larger
    k applies a random rearrangement to k positions; rows it leaves unchanged
    after the redraws take a pair exchange instead.  Rows differ from the
    state in 2..ma positions.
    """
    n = len(state)
    k_hi = min(ma, n)
    shape = (se, k_hi)
    pos, val = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=state.dtype)
    pairs, mask = slice(None), None  # every row is a pair exchange unless some k > 2
    if k_hi > 2:
        ks = _uniform(rng, 2, k_hi, se)
        mask = np.zeros(shape, dtype=bool)
        pair = ks == 2
        multi = (~pair).nonzero()[0]
        for _ in range(_MAX_ATTEMPTS):
            if not len(multi):
                break
            k = ks[multi]
            p = _floyd(rng, n, k)
            live = np.arange(p.shape[1]) < k[:, None]
            keys = np.where(live, rng.random(p.shape), 2.0)  # padding stays in place
            vals = state[p]
            new = np.take_along_axis(vals, np.argsort(keys, axis=1, kind="stable"), axis=1)
            done = (new != vals).any(axis=1)
            rows, w = multi[done], p.shape[1]
            pos[rows, :w], val[rows, :w], mask[rows, :w] = p[done], new[done], live[done]
            multi = multi[~done]
        pair[multi] = True
        pairs = pair.nonzero()[0]
    m = se if mask is None else len(pairs)
    i, j = rng.integers(n, size=2 * m).reshape(2, m)  # i, then j's first pass: one call, the stream of two
    redo = (i == j if distinct else state[i] == state[j]).nonzero()[0]
    if len(redo):  # up to 16 passes redraw j for the rows still unchanged, from one draw made ahead
        saved, used = rng.bit_generator.state, 0
        ahead = rng.integers(n, size=_MAX_ATTEMPTS * len(redo))
        for _ in range(_MAX_ATTEMPTS):
            a, b = i[redo], ahead[used : used + len(redo)]
            used += len(redo)
            j[redo] = b
            redo = redo[a == b if distinct else state[a] == state[b]]
            if not len(redo):
                break
        rng.bit_generator.state = saved  # then draw only the values the passes took
        rng.integers(n, size=used)
    if len(redo):  # uniform pick among the positions whose value differs from state[i]
        differs = state != state[i[redo], None]
        u = rng.integers(differs.sum(axis=1))
        j[redo] = (differs.cumsum(axis=1) > u[:, None]).argmax(axis=1)
    pos[pairs, 0], pos[pairs, 1] = i, j
    val[pairs, 0], val[pairs, 1] = state[j], state[i]
    if mask is not None:
        mask[pairs, :2] = True
    return Writes(pos, val, mask)


def _shift(state, mb, se, rng, distinct):
    """Remove a random segment of length 1..mb and reinsert it at another slot.

    The move rotates the window spanning the segment's old and new places.
    Rows left unchanged after the redraws take a boundary transposition.
    """
    n = len(state)
    mb = min(mb, n - 1)
    seg = _uniform(rng, 1, mb, se)
    # boundaries before each index: window [lo, hi) is constant iff nb[lo] == nb[hi - 1]
    nb = None if distinct else np.concatenate(([0], (state[:-1] != state[1:]).cumsum()))
    s, j, redo, L = None, None, slice(None), seg
    for _ in range(_MAX_ATTEMPTS + 1):  # (s, j) for every row, then for the rows still unchanged
        # segment start a and insertion slot b: n - L + 1 slots, and slot a restores the input
        if mb == 1:  # every segment has length 1: equal bounds, drawn in the scalar form
            a, b = rng.integers(n, size=len(L)), rng.integers(n - 1, size=len(L))
        else:
            a, b = rng.integers(n - L + 1), rng.integers(n - L)
        b += b >= a
        if s is None:  # the first pass keeps its draws, uncopied
            s, j = a, b
        else:
            s[redo], j[redo] = a, b
        if distinct:  # a window of distinct entries is never constant
            break
        redo = _still(redo, nb[np.maximum(a, b) + L - 1] == nb[np.minimum(a, b)])
        if not len(redo):
            break
        L = seg[redo]
    lo, hi = np.minimum(s, j), np.maximum(s, j) + seg
    # rotating window [lo, hi) left by k = seg carries a segment moved right
    # (j > s) to the window's end; k = hi - lo - seg brings a segment moved
    # left to its front
    moves = Windows(lo, hi, np.where(j > s, seg, hi - lo - seg))
    if distinct:
        return moves
    long = (seg > 1).nonzero()[0] if mb > 1 else ()  # at mb = 1 no segment is longer than 1
    if len(long):  # a segment longer than 1 can also rotate a periodic window onto itself
        redo = np.union1d(redo, long[(moves.take(long).apply(state) == state).all(axis=1)])
    if len(redo):  # an exchange of adjacent entries is a length-2 window rotated by one
        b = _boundary_starts(state, len(redo), rng)
        lo[redo], hi[redo], moves.k[redo] = b, b + 2, 1
    return moves


def _palindrome_test(state):
    """Whether window [a, b) reads the same reversed: a comparison with window [n - b, n - a) of the reversed state."""
    k, n = state.itemsize, len(state)
    fwd, rev = state.tobytes(), state[::-1].tobytes()
    return lambda a, b: fwd[a * k : b * k] == rev[(n - b) * k : (n - a) * k]


def _redraw_palindrome(state, is_palindrome, c_hi, rng):
    """A non-palindromic window (lo, hi) to reverse, retrying with scalar draws.

    This is the one loop that draws row by row: each retry draws (c, h, start)
    for its row before the next row starts, and seeded runs depend on that
    interleaving, which a vectorized redraw would change.
    """
    n = len(state)
    for _ in range(_MAX_ATTEMPTS):
        c = int(rng.integers(0, c_hi + 1)) if c_hi else 0  # as _uniform: a one-value range skips the draw
        h = int(rng.integers(1, (n - c) // 2 + 1))
        start = int(rng.integers(0, n - 2 * h - c + 1))
        end = start + 2 * h + c
        if not is_palindrome(start, end):
            return start, end
    b = int(_boundary_starts(state, 1, rng)[0])
    return b, b + 2


def _symmetry(state, mc, se, rng, distinct):
    """Reverse one contiguous window of length 2h+c, c uniform in {0..mc}, h >= 1.

    c is the length of the fixed-size center being mirrored around; h entries on
    each side fold across it, which is exactly a reversal of the whole window.
    """
    n = len(state)
    c_hi = min(mc, n - 2)
    c = _uniform(rng, 0, c_hi, se)
    h = 1 + (rng.random(se) * ((n - c) // 2)).astype(int)
    wlen = 2 * h + c
    lo = (rng.random(se) * (n - wlen + 1)).astype(int)
    hi = lo + wlen
    if not distinct:  # a palindromic window reverses onto itself; only one whose ends match can be
        is_palindrome = _palindrome_test(state)
        rows = (state[lo] == state[hi - 1]).nonzero()[0]
        for r, a, b in zip(rows.tolist(), lo[rows].tolist(), hi[rows].tolist()):
            if is_palindrome(a, b):
                lo[r], hi[r] = _redraw_palindrome(state, is_palindrome, c_hi, rng)
    return Windows(lo, hi)


def _substitute(state, md, alphabet_size, se, rng):
    """Redraw the values at k distinct random positions, k uniform in {1..md}.

    Each chosen position gets a uniformly random value different from its
    current one, so every row is at Hamming distance exactly k.
    """
    if alphabet_size < 2:
        raise DegenerateState("substitute needs an alphabet of size >= 2")
    k_hi = min(md, len(state))
    ks = _uniform(rng, 1, k_hi, se)
    pos = _floyd(rng, len(state), ks)
    # draw in 0..m-2 and skip over the current value
    draws = rng.integers(0, alphabet_size - 1, size=pos.shape)
    mask = np.arange(pos.shape[1]) < ks[:, None] if k_hi > 1 else None  # k == 1: no padding
    return Writes(pos, draws + (draws >= state[pos]), mask)


def sample_moves(
    state: np.ndarray,
    op: Operator,
    factor: int,
    se: int,
    rng: np.random.Generator,
    alphabet_size: int | None = None,
) -> Moves:
    """Draw se moves from `state` under one operator.

    `alphabet_size` None marks a permutation state: its entries are taken to
    be distinct, unchecked.
    """
    distinct = alphabet_size is None
    if op is Operator.SWAP:
        rearrange = _swap
    elif op is Operator.SHIFT:
        rearrange = _shift
    elif op is Operator.SYMMETRY:
        rearrange = _symmetry
    elif op is Operator.SUBSTITUTE:
        if distinct:
            raise IncompatibleOperator("substitute requires a value-vector state")
        return _substitute(state, factor, alphabet_size, se, rng)
    else:
        raise ValueError(f"unknown operator {op!r}")
    if _no_change(state, distinct):  # every row is a copy, drawn from no rng call
        empty = np.zeros((se, 0), dtype=np.int64)
        return Writes(empty, empty.astype(state.dtype))
    return rearrange(state, factor, se, rng, distinct)


def sample_batch(
    state: np.ndarray,
    op: Operator,
    factor: int,
    se: int,
    rng: np.random.Generator,
    alphabet_size: int | None = None,
) -> np.ndarray:
    """The rows of `sample_moves(...)` as a new (se, n) array.

    The engine builds rows only through `engine.best_move`; this stays
    because perfbench/harness.py wraps `engine.sample_batch` by name.
    """
    return sample_moves(state, op, factor, se, rng, alphabet_size).apply(state)
