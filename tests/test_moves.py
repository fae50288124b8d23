"""Move descriptors, TSP tour deltas and the exact shortlist in Problem.best_move.

The delta path must never change a result: every estimate is checked against
full re-evaluation, and whole runs are compared with the delta path switched
off.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsta import engine, instances, problems
from dsta.engine import Mode, StaParams
from dsta.errors import DimensionMismatch
from dsta.operators import Operator, Windows, Writes, sample_batch, sample_moves

PERMUTATION_OPS = {Operator.SWAP: (2, 6), Operator.SHIFT: (1, 5), Operator.SYMMETRY: (0, 4)}


def tsp_matrix(n, seed, kind):
    """A TSP distance matrix: real, integer-valued, or symmetric only to allclose."""
    g = np.random.default_rng(seed)
    a = g.random((n, n)) * 100
    m = a + a.T
    if kind == "integer":
        m = np.rint(m)
    if kind == "allclose":  # off by a relative 1e-7: allclose holds, exact symmetry does not
        m = m * (1 + 1e-7 * g.random((n, n)))
    np.fill_diagonal(m, 0.0)
    return m


def check_estimates(inst, tour, moves):
    """|cost + delta - full evaluation| <= err on every row."""
    cost = problems.tour_length(tour, inst)
    delta, err = problems.tour_deltas(tour, cost, moves, inst)
    full = problems.tour_lengths(moves.apply(tour), inst)
    gap = np.abs(cost + delta - full)
    assert np.all(gap <= err), (gap, err)


class TestTspInstance:
    def test_exact_symmetry_has_no_asymmetry(self):
        inst = problems.TspInstance(matrix=tsp_matrix(20, 0, "real"))
        assert inst.asymmetry == 0.0

    def test_allclose_matrix_records_its_asymmetry(self):
        m = tsp_matrix(20, 0, "allclose")
        inst = problems.TspInstance(matrix=m)
        assert inst.asymmetry == np.abs(m - m.T).max() > 0

    def test_asymmetric_matrix_still_rejected(self):
        m = tsp_matrix(6, 0, "real")
        m[0, 1] += 1.0
        with pytest.raises(DimensionMismatch, match="symmetric"):
            problems.TspInstance(matrix=m)


class TestTourDeltas:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 60),
        kind=st.sampled_from(["real", "integer", "allclose"]),
        op=st.sampled_from(list(PERMUTATION_OPS)),
        factor_pick=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=3, kind="allclose", op=Operator.SWAP, factor_pick=4, seed=0)
    @example(n=4, kind="allclose", op=Operator.SYMMETRY, factor_pick=4, seed=1)
    @example(n=5, kind="real", op=Operator.SHIFT, factor_pick=4, seed=2)
    def test_sampled_moves_within_bound(self, n, kind, op, factor_pick, seed):
        lo, hi = PERMUTATION_OPS[op]
        factor = min(lo + factor_pick, hi)
        inst = problems.TspInstance(matrix=tsp_matrix(n, seed, kind))
        g = np.random.default_rng(seed)
        tour = g.permutation(n)
        check_estimates(inst, tour, sample_moves(tour, op, factor, 64, g))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(3, 60),
        kind=st.sampled_from(["real", "integer", "allclose"]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_windows_touching_the_ends(self, n, kind, data, seed):
        """Windows at 0, at n, spanning n - 1 entries and the whole tour, both kinds."""
        inst = problems.TspInstance(matrix=tsp_matrix(n, seed, kind))
        tour = np.random.default_rng(seed).permutation(n)
        inner_lo = data.draw(st.integers(0, n - 2))
        inner_hi = data.draw(st.integers(inner_lo + 2, n))
        spans = [(0, n), (0, n - 1), (1, n), (0, inner_hi), (inner_lo, n), (inner_lo, inner_hi)]
        lo, hi = (np.array(v) for v in zip(*spans))
        k = np.array([data.draw(st.integers(1, b - a - 1)) for a, b in spans])
        check_estimates(inst, tour, Windows(lo, hi))
        check_estimates(inst, tour, Windows(lo, hi, k))

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 60),
        kind=st.sampled_from(["real", "integer", "allclose"]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_writes_with_adjacent_and_wrapping_positions(self, n, kind, data, seed):
        """k-swaps over distinct positions, with padding, including 0 and n - 1."""
        inst = problems.TspInstance(matrix=tsp_matrix(n, seed, kind))
        g = np.random.default_rng(seed)
        tour = g.permutation(n)
        w = min(n, 6)
        # distinct positions per row; row 0 writes both ends of the closing leg, row 1 an adjacent pair
        lead = [[0, n - 1], [n // 2, n // 2 + 1]] + [[]] * 6
        pos = np.array([(first + [x for x in g.permutation(n) if x not in first])[:w] for first in lead])
        ks = data.draw(st.lists(st.integers(2, w), min_size=8, max_size=8))
        val = tour[pos]
        for row, k in enumerate(ks):  # the first k positions take each other's entries
            val[row, :k] = np.roll(val[row, :k], data.draw(st.integers(1, k - 1)))
        moves = Writes(pos, val, np.arange(w) < np.array(ks)[:, None])
        assert all(sorted(row) == list(range(n)) for row in moves.apply(tour))
        check_estimates(inst, tour, moves)

    def test_whole_tour_windows_have_zero_delta(self):
        inst = instances.random_euclidean_tsp(9, seed=4)
        tour = np.random.default_rng(0).permutation(9)
        for k in (None, np.array([1, 4])):
            delta, _ = problems.tour_deltas(tour, 1.0, Windows(np.array([0, 0]), np.array([9, 9]), k), inst)
            assert np.array_equal(delta, [0.0, 0.0])


class TestBestMove:
    def setup_method(self):
        self.inst = instances.random_euclidean_tsp(30, seed=5)
        self.problem = problems.tsp_problem(self.inst)
        g = np.random.default_rng(6)
        self.tour = g.permutation(30)
        self.cost = self.problem.evaluate(self.tour)
        self.moves = sample_moves(self.tour, Operator.SYMMETRY, 0, 32, g)
        self.full = self.problem.evaluate_many(self.moves.apply(self.tour))

    def test_shortlist_matches_full_argmin(self):
        for problem in (self.problem, replace(self.problem, delta_many=None)):
            best, cost, row = problem.best_move(self.tour, self.cost, self.moves)
            assert best == int(np.argmin(self.full)) and cost == self.full[best]
            assert np.array_equal(row, self.moves.apply(self.tour)[best])

    def test_first_of_tied_rows_wins(self):
        tied = Writes(np.array([[0, 1], [0, 1], [2, 3]]), self.tour[[[1, 0], [1, 0], [3, 2]]])
        costs = self.problem.evaluate_many(tied.apply(self.tour))
        best, cost, _ = self.problem.best_move(self.tour, self.cost, tied)
        assert best == int(np.argmin(costs)) and cost == costs.min()

    def test_cost_is_a_full_evaluation_even_for_wrong_deltas(self):
        # claims row 0 is best by far, with no error
        wrong = replace(self.problem, delta_many=lambda state, cost, moves: (np.arange(len(moves.lo)) * 1e3, 0.0))
        best, cost, row = wrong.best_move(self.tour, self.cost, self.moves)
        assert best == 0 and cost == self.full[0] == self.problem.evaluate(row)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_estimate_evaluates_every_row(self, bad):
        def delta_many(state, cost, moves):
            delta, err = problems.tour_deltas(state, cost, moves, self.inst)
            delta[5] = bad
            return delta, err

        calls = []

        def evaluate_many(rows):
            calls.append(len(rows))
            return problems.tour_lengths(rows, self.inst)

        problem = replace(self.problem, delta_many=delta_many, evaluate_many=evaluate_many)
        best, cost, _ = problem.best_move(self.tour, self.cost, self.moves)
        assert calls == [32]
        assert best == int(np.argmin(self.full)) and cost == self.full[best]


def _run_record(problem, params):
    r = engine.run(problem, params)
    return r.best_solution.tolist(), r.best_cost, r.trace, r.evaluations


@pytest.mark.parametrize("kind", ["real", "integer", "allclose"])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("factors", [{}, {"ma": 4, "mb": 3, "mc": 2}], ids=["default", "large"])
@pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 50, 200])
def test_delta_run_equals_full_evaluation_run(n, factors, mode, kind):
    problem = problems.tsp_problem(problems.TspInstance(matrix=tsp_matrix(n, n, kind)))
    params = StaParams(max_iters=60, mode=mode, seed=n + 1, **factors)
    assert _run_record(problem, params) == _run_record(replace(problem, delta_many=None), params)


STATES = {
    "permutation": (np.random.default_rng(1).permutation(15), None),
    "values": (np.array([2, 0, 0, 1, 2, 2, 0, 1, 1, 0, 4, 4, 3, 0, 2]), 5),
    "near-constant": (np.array([1, 1, 1, 1, 0, 1, 1, 1]), 2),
    "palindromic": (np.array([0, 1, 0, 1, 1, 0, 1, 0]), 2),
}
SAMPLER_CASES = [
    (op, factor, name)
    for op, factors in {
        Operator.SWAP: (2, 4),
        Operator.SHIFT: (1, 3),
        Operator.SYMMETRY: (0, 2),
        Operator.SUBSTITUTE: (1, 3),
    }.items()
    for factor in factors
    for name, (_, alphabet_size) in STATES.items()
    if op is not Operator.SUBSTITUTE or alphabet_size is not None
]


@pytest.mark.parametrize("op,factor,name", SAMPLER_CASES)
def test_sample_batch_is_apply_of_sample_moves(op, factor, name):
    state, alphabet_size = STATES[name]
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    rows = sample_batch(state, op, factor, 200, a, alphabet_size)
    moves = sample_moves(state, op, factor, 200, b, alphabet_size)
    assert np.array_equal(rows, moves.apply(state))
    assert a.bit_generator.state == b.bit_generator.state
    assert not (rows == state).all(axis=1).any()
