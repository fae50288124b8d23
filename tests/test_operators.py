import hashlib
import itertools

import numpy as np
import pytest

from dsta.errors import DegenerateState, IncompatibleOperator
from dsta.operators import Operator, _palindrome_test, _redraw_palindrome, sample_batch, sample_moves

SWAP, SHIFT, SYMMETRY, SUBSTITUTE = Operator


def rng(seed=0):
    return np.random.default_rng(seed)


def is_permutation(state):
    return sorted(state.tolist()) == list(range(len(state)))


def check_value_state(state, alphabet_size):
    return len(state) >= 1 and bool(np.all(state >= 0) and np.all(state < alphabet_size))


def all_transpositions(state):
    n = len(state)
    out = set()
    for i, j in itertools.combinations(range(n), 2):
        s = state.copy()
        s[[i, j]] = s[[j, i]]
        out.add(tuple(s))
    out.discard(tuple(state))
    return out


def all_insertions(state):
    n = len(state)
    out = set()
    for s in range(n):
        seg = state[s]
        rest = np.delete(state, s)
        for j in range(n):
            cand = np.insert(rest, j, seg)
            out.add(tuple(cand))
    out.discard(tuple(state))
    return out


def all_even_reversals(state):
    """Every reversal of one window of even length (the symmetry support at mc=0)."""
    n = len(state)
    out = set()
    for lo in range(n):
        for hi in range(lo + 2, n + 1, 2):
            s = state.copy()
            s[lo:hi] = s[lo:hi][::-1]
            out.add(tuple(s))
    out.discard(tuple(state))
    return out


def is_single_window_reversal(a, b):
    """True if b equals a with exactly one contiguous window reversed."""
    diff = np.flatnonzero(a != b)
    if len(diff) == 0:
        return False
    lo, hi = diff[0], diff[-1] + 1
    return np.array_equal(b[lo:hi], a[lo:hi][::-1]) and np.array_equal(
        np.delete(a, np.s_[lo:hi]), np.delete(b, np.s_[lo:hi])
    )


class TestSwap:
    def test_transposition_support_on_permutation(self):
        state = np.arange(5)
        out = sample_batch(state, SWAP, 2, 10_000, rng(1))
        for row in out:
            assert is_permutation(row)
        assert ((out != state).sum(axis=1) == 2).all()
        assert {tuple(r) for r in out} == all_transpositions(state)

    def test_value_state_transposition_changes_entries(self):
        state = np.array([0, 1, 1, 0])
        for row in sample_batch(state, SWAP, 2, 500, rng(2), alphabet_size=2):
            assert sorted(row) == sorted(state)
            assert not np.array_equal(row, state)

    def test_locality_bound(self):
        state = np.arange(8)
        changed = (sample_batch(state, SWAP, 4, 2000, rng(3)) != state).sum(axis=1)
        assert changed.min() >= 2 and changed.max() <= 4

    def test_factor_enlarges_support(self):
        state = np.arange(5)
        g = rng(4)
        small = {tuple(r) for r in sample_batch(state, SWAP, 2, 20_000, g)}
        big = {tuple(r) for r in sample_batch(state, SWAP, 3, 20_000, g)}
        assert small < big

    def test_constant_state_returns_copy(self):
        state = np.zeros(6, dtype=int)
        out = sample_batch(state, SWAP, 2, 3, rng(5), alphabet_size=1)
        assert (out == state).all()
        assert not np.shares_memory(out, state)

    def test_too_small(self):
        # one entry admits no rearrangement: every row is a copy
        state = np.array([0])
        for op in (SWAP, SHIFT, SYMMETRY):
            assert np.array_equal(sample_batch(state, op, 2, 4, rng(0), alphabet_size=1), np.zeros((4, 1)))


class TestShift:
    def test_insertion_support(self):
        state = np.arange(5)
        out = sample_batch(state, SHIFT, 1, 10_000, rng(1))
        for row in out:
            assert is_permutation(row)
        assert not (out == state).all(axis=1).any()
        assert {tuple(r) for r in out} == all_insertions(state)

    def test_reference_move_reachable(self):
        # moving the third entry after the fifth: (1,2,3,4,5) -> (1,2,4,5,3)
        state = np.array([1, 2, 3, 4, 5])
        seen = {tuple(r) for r in sample_batch(state, SHIFT, 1, 5000, rng(2))}
        assert (1, 2, 4, 5, 3) in seen

    def test_single_element_value_state(self):
        state = np.array([0, 1, 0])
        for row in sample_batch(state, SHIFT, 1, 500, rng(3), alphabet_size=2):
            assert sorted(row) == sorted(state)
            assert not np.array_equal(row, state)

    def test_multiset_preserved_long_segments(self):
        state = np.arange(9)
        for row in sample_batch(state, SHIFT, 3, 2000, rng(4)):
            assert is_permutation(row)
            assert not np.array_equal(row, state)

    def test_constant_state_returns_copy(self):
        state = np.full(5, 3)
        assert (sample_batch(state, SHIFT, 1, 3, rng(5), alphabet_size=4) == state).all()


class TestSymmetry:
    def test_single_window_reversal(self):
        state = np.arange(6)
        for row in sample_batch(state, SYMMETRY, 0, 10_000, rng(1)):
            assert is_permutation(row)
            assert is_single_window_reversal(state, row)

    def test_reference_window(self):
        # window covering entries 2..5 reversed: (1,2,3,4,5) -> (1,5,4,3,2)
        state = np.array([1, 2, 3, 4, 5])
        seen = {tuple(r) for r in sample_batch(state, SYMMETRY, 0, 5000, rng(2))}
        assert (1, 5, 4, 3, 2) in seen

    def test_full_reversal_of_value_state(self):
        state = np.array([0, 0, 1, 1])
        seen = {tuple(r) for r in sample_batch(state, SYMMETRY, 0, 2000, rng(3), alphabet_size=2)}
        assert (1, 1, 0, 0) in seen

    def test_center_factor_enlarges_support(self):
        state = np.arange(6)
        g = rng(4)
        small = {tuple(r) for r in sample_batch(state, SYMMETRY, 0, 20_000, g)}
        big = {tuple(r) for r in sample_batch(state, SYMMETRY, 2, 20_000, g)}
        assert small < big

    def test_palindromic_windows_avoided(self):
        state = np.array([0, 1, 0, 1, 1])
        out = sample_batch(state, SYMMETRY, 0, 500, rng(5), alphabet_size=2)
        assert not (out == state).all(axis=1).any()

    def test_redraw_palindrome_draws_are_pinned(self):
        """300 redraws on a mostly-ones state: the windows and the generator's end state.

        Most windows miss the lone 0 and are constant, so 22 calls exhaust their
        redraws and take the boundary pair (0, 2); c_hi = 0 draws no center length.
        """
        state = np.ones(30, dtype=np.int64)
        state[0] = 0
        g = rng(2024)
        is_palindrome = _palindrome_test(state)
        windows = [_redraw_palindrome(state, is_palindrome, i % 3, g) for i in range(300)]
        digest = hashlib.sha256(np.array(windows, dtype="<i8").tobytes()).hexdigest()
        assert digest == "02ea5c73a1b8f23322f95b56ce0110e5eb3fd4c76cac64f4bb83910f4ef94490"
        end = g.bit_generator.state
        assert end["state"] == {
            "state": 309424039966139502910604985341622018406,
            "inc": 263843294879837360010514471918415607657,
        }
        assert (end["has_uint32"], end["uinteger"]) == (1, 4044832485)


class TestSubstitute:
    def test_binary_flip_support(self):
        state = np.array([0, 1, 1, 0, 1])
        expected = set()
        for i in range(5):
            s = state.copy()
            s[i] ^= 1
            expected.add(tuple(s))
        out = sample_batch(state, SUBSTITUTE, 1, 10_000, rng(1), alphabet_size=2)
        assert ((out != state).sum(axis=1) == 1).all()
        assert {tuple(r) for r in out} == expected

    def test_excludes_current_value(self):
        state = np.array([0, 2, 1])
        for row in sample_batch(state, SUBSTITUTE, 1, 2000, rng(2), alphabet_size=3):
            i = int(np.flatnonzero(row != state)[0])
            assert row[i] != state[i]
            assert 0 <= row[i] < 3

    def test_hamming_distance_bounded_by_factor(self):
        state = np.zeros(8, dtype=int)
        out = sample_batch(state, SUBSTITUTE, 3, 3000, rng(3), alphabet_size=4)
        assert set((out != state).sum(axis=1).tolist()) == {1, 2, 3}

    def test_rejects_trivial_alphabet(self):
        with pytest.raises(DegenerateState):
            sample_batch(np.zeros(4, dtype=int), SUBSTITUTE, 1, 3, rng(0), alphabet_size=1)


class TestNeighborhood:
    def test_empty(self):
        assert sample_batch(np.arange(4), SWAP, 2, 0, rng(0)).shape == (0, 4)

    def test_swap_se5(self):
        state = np.arange(3)
        allowed = all_transpositions(state)
        outs = sample_batch(state, SWAP, 2, 5, rng(1))
        assert outs.shape == (5, 3)
        assert all(tuple(o) in allowed for o in outs)

    def test_coupon_collector_substitute(self):
        state = np.array([0, 1, 0, 1])
        outs = sample_batch(state, SUBSTITUTE, 1, 100, rng(2), alphabet_size=2)
        assert len({tuple(o) for o in outs}) == 4

    def test_substitute_requires_value_state(self):
        with pytest.raises(IncompatibleOperator):
            sample_batch(np.arange(4), SUBSTITUTE, 1, 3, rng(0))

    # a constant or one-entry state admits no rearrangement, but the operator is checked first
    degenerate = pytest.mark.parametrize("state", [np.zeros(4, dtype=int), np.array([0])], ids=["constant", "one"])

    @degenerate
    def test_substitute_requires_value_state_before_copies(self, state):
        with pytest.raises(IncompatibleOperator):
            sample_batch(state, SUBSTITUTE, 1, 3, rng(0))

    @degenerate
    @pytest.mark.parametrize("m", [None, 1])
    def test_unknown_operator(self, state, m):
        with pytest.raises(ValueError, match="unknown operator 'flip'"):
            sample_batch(state, "flip", 1, 3, rng(0), alphabet_size=m)


class TestBatchMatchesScalar:
    """Batch supports against the enumerated reference neighborhoods."""

    factors = {SWAP: 2, SHIFT: 1, SYMMETRY: 0, SUBSTITUTE: 1}
    enumerated = {SWAP: all_transpositions, SHIFT: all_insertions, SYMMETRY: all_even_reversals}

    @pytest.mark.parametrize("op", [SWAP, SHIFT, SYMMETRY])
    def test_permutation_support_identical(self, op):
        state = np.arange(6)
        batch = {tuple(r) for r in sample_batch(state, op, self.factors[op], 20_000, rng(11))}
        assert batch == self.enumerated[op](state)

    @pytest.mark.parametrize("op", list(Operator))
    def test_value_state_feasible_and_changed(self, op):
        state = np.array([0, 2, 1, 0, 3, 2, 1, 4])
        out = sample_batch(state, op, self.factors[op], 2000, rng(12), alphabet_size=5)
        assert out.shape == (2000, 8)
        for row in out:
            assert check_value_state(row, 5)
            assert not np.array_equal(row, state)

    @pytest.mark.parametrize("op", [SWAP, SHIFT, SYMMETRY])
    def test_near_constant_value_state(self, op):
        state = np.array([1, 1, 1, 1, 0, 1, 1, 1])
        out = sample_batch(state, op, self.factors[op], 500, rng(13), alphabet_size=2)
        for row in out:
            assert sorted(row) == sorted(state)
            assert not np.array_equal(row, state)

    def test_larger_factors_batch_feasible(self):
        state = np.arange(10)
        g = rng(14)
        for op, f in [(SWAP, 4), (SHIFT, 3), (SYMMETRY, 2)]:
            for row in sample_batch(state, op, f, 1000, g):
                assert is_permutation(row)
                assert not np.array_equal(row, state)


class TestNonDefaultFactors:
    """Factors above the defaults on a duplicate-valued state."""

    state = np.array([2, 0, 0, 1, 2, 2, 0, 1, 1, 0])

    @pytest.mark.parametrize("op,factor", [(SWAP, 4), (SHIFT, 3), (SYMMETRY, 2)])
    def test_rearrangement_preserves_multiset(self, op, factor):
        out = sample_batch(self.state, op, factor, 3000, rng(21), alphabet_size=3)
        assert (np.sort(out, axis=1) == np.sort(self.state)).all()
        assert not (out == self.state).all(axis=1).any()

    def test_swap_changes_at_most_ma_positions(self):
        changed = (sample_batch(self.state, SWAP, 4, 3000, rng(22), alphabet_size=3) != self.state).sum(axis=1)
        assert set(changed.tolist()) == {2, 3, 4}

    def test_substitute_hamming_distance_is_k(self):
        out = sample_batch(self.state, SUBSTITUTE, 3, 3000, rng(23), alphabet_size=3)
        ks = rng(23).integers(1, 4, size=3000)  # the first draw picks each row's k
        assert ((out != self.state).sum(axis=1) == ks).all()
        assert set(ks.tolist()) == {1, 2, 3}
        assert check_value_state(out.ravel(), 3)


class TestDrawStreamPins:
    """The draw stream of the samplers, pinned before they were refactored.

    Each case cycles swap, shift, symmetry and (on value states) substitute
    through 200 `sample_moves(...).apply(state)` calls from one generator,
    hashing every batch and recording the generator's end state.  The
    non-default factors ma=4, mb=3, mc=2, md=3 were pinned before the redraw
    loops were merged; the mostly-ones state exhausts pair redraws, the k > 2
    attempts and the shift fallback, so those paths are pinned too.  The
    default factors ma=2, mb=1, mc=0, md=1 were pinned before their equal-bound
    draws took numpy's scalar form.
    """

    factors = [(SWAP, 4), (SHIFT, 3), (SYMMETRY, 2), (SUBSTITUTE, 3)]
    default_factors = [(SWAP, 2), (SHIFT, 1), (SYMMETRY, 0), (SUBSTITUTE, 1)]
    lone_zero = np.ones(30, dtype=np.int64)
    lone_zero[0] = 0
    states = {
        "permutation": (np.random.default_rng(7).permutation(12), None),
        "five-letter": (np.array([3, 0, 4, 4, 1, 0, 2, 3, 3, 1, 0, 4, 2, 2]), 5),
        "lone-zero": (lone_zero, 2),
    }
    pinned = {
        "permutation": (
            "b350e08cd52a73c89d82bed48a11be38a176a6271f984c16dfd0ccfc95a236a2",
            {"state": 261926397995113951820206878766387035945, "inc": 107090353359002252723118071224206516545},
            0,
            507094111,
        ),
        "five-letter": (
            "11cc9fd5559f84dcb8bd201f4ab369425fe54067a0f2a8a1477b43e9af81e677",
            {"state": 274441161278090335943627625919902317647, "inc": 107090353359002252723118071224206516545},
            0,
            3951945489,
        ),
        "lone-zero": (
            "e912d051cc9235fbdca439f078103e55762efe22cdfb826fe5b74cdc23acf2b8",
            {"state": 291907136570618571402696188925716097797, "inc": 107090353359002252723118071224206516545},
            1,
            2387366640,
        ),
    }

    pinned_default = {
        "permutation": (
            "fbf1284a5f8b6767b0ed9e26c8da84aa777187e44dd23425d34759a2a15eabca",
            {"state": 42218862690559987747880645406660933049, "inc": 107090353359002252723118071224206516545},
            1,
            1056842531,
        ),
        "five-letter": (
            "66903d33441ce3a1dd97704cb66f227cd1f17ac1ef74b54cc4efa8344ab3f907",
            {"state": 313742247237129779653828059125106387093, "inc": 107090353359002252723118071224206516545},
            0,
            2340424727,
        ),
        "lone-zero": (
            "f96a36ef4ca381d99db647a4dffc54c2a16617d2debc1f264b9c5d6d002cf35e",
            {"state": 104993130002696480749765268262713036062, "inc": 107090353359002252723118071224206516545},
            0,
            1161235065,
        ),
    }

    def digest(self, case, factors):
        state, m = self.states[case]
        ops = factors[:3] if m is None else factors
        g = rng(31)
        h = hashlib.sha256()
        for i in range(200):
            op, factor = ops[i % len(ops)]
            h.update(sample_moves(state, op, factor, 16, g, m).apply(state).astype("<i8").tobytes())
        end = g.bit_generator.state
        return h.hexdigest(), end["state"], end["has_uint32"], end["uinteger"]

    @pytest.mark.parametrize("case", list(states))
    def test_digest_and_end_state(self, case):
        assert self.digest(case, self.factors) == self.pinned[case]

    @pytest.mark.parametrize("case", list(states))
    def test_default_factors_digest_and_end_state(self, case):
        assert self.digest(case, self.default_factors) == self.pinned_default[case]


def test_equal_array_bounds_draw_as_the_scalar_form():
    """rng.integers(np.full(m, h)) and rng.integers(h, size=m) give equal values and end states.

    The samplers draw equal bounds in the scalar form (shift at segment length
    1, Floyd's first column when every row takes one position), which is the
    same stream only if this holds.  Prior draws of odd count leave half of a
    64-bit output buffered (`has_uint32`, `uinteger`), which bounds below 2**32
    consume first.
    """
    meta = rng(2024)
    buffered = set()
    for _ in range(10_000):
        seed = int(meta.integers(2**63))
        wide = (meta.integers(1, 2**31), meta.integers(2**32 - 2, 2**32 + 3), meta.integers(1, 2**62))
        h = int(meta.choice([1, 2, 3, 200, 2000, *wide]))
        m, prior = int(meta.integers(0, 40)), int(meta.integers(0, 4))
        a, b = rng(seed), rng(seed)
        a.integers(7, size=prior)
        b.integers(7, size=prior)
        x, y = a.integers(np.full(m, h)), b.integers(h, size=m)
        assert x.dtype == y.dtype and np.array_equal(x, y), (seed, h, m, prior)
        end = a.bit_generator.state
        assert end == b.bit_generator.state, (seed, h, m, prior)  # includes has_uint32 and uinteger
        buffered.add(end["has_uint32"])
    assert buffered == {0, 1}


def test_two_same_bound_calls_draw_as_one_call():
    """rng.integers(h, size=m) twice and rng.integers(h, size=2 * m) once give equal values and end states.

    Swap draws i and the first pass of j as one call of twice the size, split
    in two, which is the same stream as its two calls only if this holds.  An
    odd m leaves half of a 64-bit output buffered between the two calls, and
    prior draws of odd count leave one before them.
    """
    meta = rng(2025)
    buffered = set()
    for _ in range(10_000):
        seed = int(meta.integers(2**63))
        wide = (meta.integers(1, 2**31), meta.integers(2**32 - 2, 2**32 + 3), meta.integers(1, 2**62))
        h = int(meta.choice([1, 2, 3, 200, 2000, *wide]))
        m, prior = int(meta.integers(0, 40)), int(meta.integers(0, 4))
        a, b = rng(seed), rng(seed)
        a.integers(7, size=prior)
        b.integers(7, size=prior)
        x, y = np.concatenate((a.integers(h, size=m), a.integers(h, size=m))), b.integers(h, size=2 * m)
        assert x.dtype == y.dtype and np.array_equal(x, y), (seed, h, m, prior)
        end = a.bit_generator.state
        assert end == b.bit_generator.state, (seed, h, m, prior)  # includes has_uint32 and uinteger
        buffered.add(end["has_uint32"])
    assert buffered == {0, 1}


def test_same_bound_passes_drawn_ahead_read_as_their_own_calls():
    """Passes of rng.integers(h, size=s) read from one call made ahead give their own values and end state.

    Swap's redraw passes of j take their values from the front of one call of
    16 times the first pass's size, then restore the generator's saved state
    and draw the count they used, which is the passes' own stream only if the
    first u values of a call of size c >= u are those of a call of size u.
    Odd pass sizes and prior draws of odd count leave half of a 64-bit output
    buffered between calls.
    """
    meta = rng(2026)
    buffered = set()
    for _ in range(10_000):
        seed = int(meta.integers(2**63))
        wide = (meta.integers(1, 2**31), meta.integers(2**32 - 2, 2**32 + 3), meta.integers(1, 2**62))
        h = int(meta.choice([1, 2, 3, 200, 2000, *wide]))
        m, prior = int(meta.integers(1, 40)), int(meta.integers(0, 4))
        sizes = np.sort(meta.integers(1, m + 1, size=int(meta.integers(1, 17))))[::-1].tolist()
        sizes[0] = m
        a, b = rng(seed), rng(seed)
        a.integers(7, size=prior)
        b.integers(7, size=prior)
        x = np.concatenate([a.integers(h, size=s) for s in sizes])
        saved = b.bit_generator.state
        y = b.integers(h, size=16 * m)[: len(x)]
        b.bit_generator.state = saved
        b.integers(h, size=len(x))
        assert x.dtype == y.dtype and np.array_equal(x, y), (seed, h, sizes, prior)
        end = a.bit_generator.state
        assert end == b.bit_generator.state, (seed, h, sizes, prior)  # includes has_uint32 and uinteger
        buffered.add(end["has_uint32"])
    assert buffered == {0, 1}
