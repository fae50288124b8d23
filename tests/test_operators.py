import itertools

import numpy as np
import pytest

from dsta.errors import DegenerateState, IncompatibleOperator
from dsta.operators import Operator, sample_batch

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
