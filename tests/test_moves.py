"""Move descriptors, TSP tour, QUBO and Rosenbrock deltas, and the exact shortlist in Problem.best_move.

The delta path must never change a result: every estimate is checked against
full re-evaluation, and whole runs are compared with the delta path switched
off.
"""

import itertools
from dataclasses import replace
from unittest import mock

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
    assert type(err) is float and np.all(gap <= err), (gap, err)


def halves_sum(m):
    """0.5 m + 0.5 m^T: what an instance holds for a matrix symmetric only to allclose."""
    return 0.5 * m + 0.5 * m.T


class TestTspInstance:
    def test_exact_symmetry_is_held_without_a_copy(self):
        m = tsp_matrix(20, 0, "real")
        assert problems.TspInstance(matrix=m).matrix is m

    def test_allclose_matrix_is_held_as_its_halves_sum(self):
        m = tsp_matrix(20, 0, "allclose")
        assert not (m == m.T).all()
        assert problems.TspInstance(matrix=m).matrix.tobytes() == halves_sum(m).tobytes()

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
        """k-swaps over distinct positions, with padding, including 0 and n - 1, at n and at 3, where all are adjacent."""
        for n in (n, 3):
            inst = problems.TspInstance(matrix=tsp_matrix(n, seed, kind))
            g = np.random.default_rng(seed)
            tour = g.permutation(n)
            w = min(n, 6)
            # distinct positions per row; row 0 writes both ends of the closing leg, row 1 an adjacent pair,
            # row 8 a run of 4 across the wrap (3 at n = 3)
            run = list(dict.fromkeys([n - 2, n - 1, 0, 1]))
            lead = [[0, n - 1], [n // 2, n // 2 + 1]] + [[]] * 6 + [run]
            pos = np.array([(first + [x for x in g.permutation(n) if x not in first])[:w] for first in lead])
            # row 9 exchanges n // 2 and 0; its padding repeats both and sits next to both
            a = n // 2
            pos = np.vstack((pos, ([a, 0] + [a, 1, a - 1, 0])[:w]))
            ks = data.draw(st.lists(st.integers(2, w), min_size=8, max_size=8)) + [len(run), 2]
            val = tour[pos]
            for row, k in enumerate(ks):  # the first k positions take each other's entries
                val[row, :k] = np.roll(val[row, :k], data.draw(st.integers(1, k - 1)))
            val[9, 2:] = tour[(pos[9, 2:] + 1) % n]  # padding values that would change the tour if written
            moves = Writes(pos, val, np.arange(w) < np.array(ks)[:, None])
            assert all(sorted(row) == list(range(n)) for row in moves.apply(tour))
            check_estimates(inst, tour, moves)

    @pytest.mark.parametrize("kind", ["real", "integer", "allclose"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 50])
    def test_every_pair_of_writes(self, n, kind):
        """Mask-free two-write rows at every ordered pair of positions: exchanges, then any two values."""
        inst = problems.TspInstance(matrix=tsp_matrix(n, n, kind))
        g = np.random.default_rng(n)
        tour = g.permutation(n)
        pos = np.array([(i, j) for i in range(n) for j in range(n) if i != j])
        check_estimates(inst, tour, Writes(pos, tour[pos[:, ::-1]]))
        check_estimates(inst, tour, Writes(pos, g.integers(0, n, size=pos.shape)))

    @pytest.mark.parametrize("kind", ["real", "integer", "allclose"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_window_of_tiny_tours(self, n, kind):
        """Every window, every rotation of it and its reversal, on every tour of length n."""
        inst = problems.TspInstance(matrix=tsp_matrix(n, n, kind))
        spans = [(a, b, k) for a in range(n) for b in range(a + 2, n + 1) for k in range(1, b - a)]
        lo, hi, k = (np.array(v) for v in zip(*spans))
        for tour in itertools.permutations(range(n)):
            check_estimates(inst, np.array(tour), Windows(lo, hi))
            check_estimates(inst, np.array(tour), Windows(lo, hi, k))

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
            best, cost, row = problem.best_move(self.tour, self.cost, self.moves).settle()
            assert best == int(np.argmin(self.full)) and cost == self.full[best]
            assert np.array_equal(row, self.moves.apply(self.tour)[best])

    def test_first_of_tied_rows_wins(self):
        tied = Writes(np.array([[0, 1], [0, 1], [2, 3]]), self.tour[[[1, 0], [1, 0], [3, 2]]])
        costs = self.problem.evaluate_many(tied.apply(self.tour))
        best, cost, _ = self.problem.best_move(self.tour, self.cost, tied).settle()
        assert best == int(np.argmin(costs)) and cost == costs.min()

    def test_cost_is_a_full_evaluation_even_for_wrong_deltas(self):
        # claims row 0 is best by far, with no error
        wrong = replace(self.problem, delta_many=lambda state, cost, moves: (np.arange(len(moves.lo)) * 1e3, 0.0))
        best, cost, row = wrong.best_move(self.tour, self.cost, self.moves).settle()
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
        best, cost, _ = problem.best_move(self.tour, self.cost, self.moves).settle()
        assert calls == [32]
        assert best == int(np.argmin(self.full)) and cost == self.full[best]


def tsp_round_moves(n, seed):
    """One round of each TSP move kind on a random tour: pair exchanges, general writes, rotations, reversals."""
    g = np.random.default_rng(seed)
    tour = g.permutation(n)
    pos = np.array([g.choice(n, 2, replace=False) for _ in range(16)])
    wide = np.array([g.permutation(n)[:4] for _ in range(16)])
    val = tour[np.roll(wide, 1, axis=1)]
    lo = g.integers(0, n - 1, size=16)
    hi = np.minimum(lo + g.integers(2, n + 1, size=16), n)
    moves = {
        "pairs": Writes(pos, tour[pos[:, ::-1]]),
        "writes": Writes(wide, val, np.arange(4) < g.integers(2, 5, size=16)[:, None]),
        "rotations": Windows(lo, hi, 1 + g.integers(0, 2**31, size=16) % (hi - lo - 1)),
        "reversals": Windows(lo, hi),
    }
    return tour, moves


class TestScalarBound:
    """`tour_deltas` returns one float err per round, and `best_move` shortlists by it."""

    @pytest.mark.parametrize("kind", ["real", "integer", "allclose"])
    @pytest.mark.parametrize("move", ["pairs", "writes", "rotations", "reversals"])
    @pytest.mark.parametrize("n", [5, 17, 120])
    def test_err_is_one_float_at_least_every_gap(self, n, move, kind):
        for seed in range(5):
            inst = problems.TspInstance(matrix=tsp_matrix(n, seed, kind))
            tour, moves = tsp_round_moves(n, seed)
            check_estimates(inst, tour, moves[move])

    @pytest.mark.parametrize("kind", ["real", "integer", "allclose"])
    @pytest.mark.parametrize("move", ["pairs", "writes", "rotations", "reversals"])
    def test_err_is_the_bound_of_the_row_with_most_touched_legs(self, move, kind):
        """The round's err is the largest of its rows' own errs, equal to it on every instance."""
        inst = problems.TspInstance(matrix=tsp_matrix(40, 4, kind))
        tour, moves = tsp_round_moves(40, 4)
        cost = problems.tour_length(tour, inst)
        _, err = problems.tour_deltas(tour, cost, moves[move], inst)
        alone = max(problems.tour_deltas(tour, cost, moves[move].take([r]), inst)[1] for r in range(16))
        assert err == alone

    @pytest.mark.parametrize("kind", ["real", "integer", "allclose"])
    @pytest.mark.parametrize("move", ["pairs", "writes", "rotations", "reversals"])
    def test_shortlist_is_every_row_within_twice_err_of_min_est(self, move, kind):
        n = 40
        inst = problems.TspInstance(matrix=tsp_matrix(n, 3, kind))
        tour, all_moves = tsp_round_moves(n, 3)
        moves = all_moves[move].take(np.tile(np.arange(16), 2))  # every row twice, so the minimum is tied
        evaluated = []

        def evaluate_many(rows):
            evaluated.append(rows)
            return problems.tour_lengths(rows, inst)

        problem = replace(problems.tsp_problem(inst), evaluate_many=evaluate_many)
        cost = problem.evaluate(tour)
        evaluated.clear()
        delta, err = problems.tour_deltas(tour, cost, moves, inst)
        est = cost + delta
        short = (est <= est.min() + 2 * err).nonzero()[0]
        bound, settle = problem.best_move(tour, cost, moves)
        assert bound == float(est.min() - err) and not evaluated
        best, best_cost, _ = settle()
        assert len(short) >= 2 and len(evaluated) == 1
        assert np.array_equal(evaluated[0], moves.take(short).apply(tour))
        full = problems.tour_lengths(moves.apply(tour), inst)
        assert best == int(np.argmin(full)) and best_cost == full[best] >= bound

    def test_shortlist_ends_at_twice_err(self):
        """Rows 1.9 err above the minimum estimate are evaluated, rows 2.1 err above it are not."""
        inst = problems.TspInstance(matrix=tsp_matrix(40, 3, "real"))
        tour, all_moves = tsp_round_moves(40, 3)
        moves = all_moves["rotations"]
        cost = problems.tour_length(tour, inst)
        _, err = problems.tour_deltas(tour, cost, moves, inst)
        fake = np.full(16, 1e3 * err)
        fake[[2, 5, 9, 12]] = [-3.0, -3.0 + 1.9 * err, -3.0 + 2.1 * err, -3.0 + 1.9 * err]
        evaluated = []

        def evaluate_many(rows):
            evaluated.append(rows)
            return problems.tour_lengths(rows, inst)

        problem = replace(
            problems.tsp_problem(inst), evaluate_many=evaluate_many, delta_many=lambda *_: (fake.copy(), err)
        )
        bound, settle = problem.best_move(tour, cost, moves)
        assert bound == cost - 3.0 - err
        settle()
        assert len(evaluated) == 1 and np.array_equal(evaluated[0], moves.take([2, 5, 12]).apply(tour))

    @pytest.mark.parametrize("mode", ["sta", "dsta"])
    @pytest.mark.parametrize("large", [{}, {"ma": 4, "mb": 3, "mc": 2}], ids=["default", "large"])
    @pytest.mark.parametrize("n", [12, 50, 200])
    def test_allclose_run_equals_run_on_its_halves_sum(self, n, large, mode):
        """An allclose-only matrix is its halves' sum from the start: the two runs agree byte for byte."""
        m = tsp_matrix(n, n, "allclose")
        params = StaParams(max_iters=80, seed=n + 1, mode=Mode(mode), **large)
        close, halves = (problems.tsp_problem(problems.TspInstance(matrix=x)) for x in (m, halves_sum(m)))
        assert run_bytes(close, params) == run_bytes(halves, params)


# sta, dsta, and dsta with p2 = 1.0, where the risk draw keeps every round whose bound rules out an improvement
RUN_MODES = [{"mode": Mode.SIMPLE}, {"mode": Mode.DYNAMIC}, {"mode": Mode.DYNAMIC, "p2": 1.0}]
RUN_MODE_IDS = ["sta", "dsta", "dsta-p2=1"]


def _run_record(problem, params):
    r = engine.run(problem, params)
    return r.best_solution.tolist(), r.best_cost, r.trace, r.evaluations


@pytest.mark.parametrize("kind", ["real", "integer", "allclose"])
@pytest.mark.parametrize("mode", RUN_MODES, ids=RUN_MODE_IDS)
@pytest.mark.parametrize("factors", [{}, {"ma": 4, "mb": 3, "mc": 2}], ids=["default", "large"])
@pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 50, 200])
def test_delta_run_equals_full_evaluation_run(n, factors, mode, kind):
    problem = problems.tsp_problem(problems.TspInstance(matrix=tsp_matrix(n, n, kind)))
    params = StaParams(max_iters=60, seed=n + 1, **mode, **factors)
    assert _run_record(problem, params) == _run_record(replace(problem, delta_many=None), params)


def maxcut_weights(vertices, seed, kind, scale=1.0, density=1.0):
    """Mixed-sign MAX-CUT weights: real, integer-valued, symmetric only to allclose, or real with self-loops."""
    g = np.random.default_rng(seed)
    a = (g.random((vertices, vertices)) * 2 - 1) * scale
    if kind == "integer":
        a = g.integers(-9, 10, size=(vertices, vertices)).astype(float)
    a = np.triu(a * (g.random((vertices, vertices)) < density), 1)
    w = a + a.T
    if kind == "allclose":  # off by a relative 1e-7: allclose holds, exact symmetry does not
        w = w * (1 + 1e-7 * g.random((vertices, vertices)))
    if kind == "loops":  # the diagonal enters a write's gather and g, and cancels only in exact arithmetic
        np.fill_diagonal(w, (g.random(vertices) * 2 - 1) * scale)
    return w


def qubo_err(problem, bits):
    """The err that delta_many reports for flipping the first bit of `bits`."""
    return problem.delta_many(bits, 0.0, Writes(np.zeros((1, 1), dtype=np.int64), 1 - bits[None, :1]))[1]


class TestMaxCutInstance:
    def test_exact_symmetry_is_held_without_a_copy(self):
        w = maxcut_weights(20, 0, "real")
        inst = problems.MaxCutInstance(weights=w)
        assert inst.weights is w and inst.abs_bound == 2 * np.abs(w).sum()

    def test_allclose_matrix_is_held_as_its_halves_sum(self):
        w = maxcut_weights(20, 0, "allclose")
        assert not (w == w.T).all()
        inst = problems.MaxCutInstance(weights=w)
        assert inst.weights.tobytes() == halves_sum(w).tobytes() and inst.abs_bound == 2 * np.abs(inst.weights).sum()


VALUE_OPS = {Operator.SWAP: (2, 6), Operator.SHIFT: (1, 5), Operator.SYMMETRY: (0, 4), Operator.SUBSTITUTE: (1, 4)}


class TestQuboDeltas:
    @settings(max_examples=300, deadline=None)
    @given(
        vertices=st.integers(2, 120),
        kind=st.sampled_from(["real", "integer", "allclose", "loops"]),
        scale=st.sampled_from([1e-40, 1e-37, 1e-3, 1.0, 1e3, 1e30]),
        density=st.sampled_from([0.0, 0.3, 1.0]),
        op=st.sampled_from(list(VALUE_OPS)),
        factor_pick=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(vertices=2, kind="real", scale=1.0, density=1.0, op=Operator.SWAP, factor_pick=4, seed=0)
    @example(vertices=2, kind="allclose", scale=1e3, density=1.0, op=Operator.SUBSTITUTE, factor_pick=3, seed=1)
    @example(vertices=30, kind="real", scale=1e-3, density=0.0, op=Operator.SWAP, factor_pick=4, seed=2)
    @example(vertices=120, kind="real", scale=1e30, density=1.0, op=Operator.SHIFT, factor_pick=4, seed=3)
    @example(vertices=120, kind="allclose", scale=1.0, density=1.0, op=Operator.SYMMETRY, factor_pick=4, seed=4)
    @example(vertices=60, kind="real", scale=1e-40, density=0.3, op=Operator.SYMMETRY, factor_pick=0, seed=5)
    @example(vertices=120, kind="real", scale=1e-37, density=1.0, op=Operator.SHIFT, factor_pick=0, seed=7)
    @example(vertices=3, kind="integer", scale=1.0, density=1.0, op=Operator.SHIFT, factor_pick=0, seed=6)
    @example(vertices=400, kind="real", scale=1.0, density=1.0, op=Operator.SHIFT, factor_pick=0, seed=8)
    @example(vertices=400, kind="allclose", scale=1e3, density=0.3, op=Operator.SYMMETRY, factor_pick=4, seed=9)
    @example(vertices=800, kind="allclose", scale=1.0, density=1.0, op=Operator.SHIFT, factor_pick=4, seed=10)
    @example(vertices=800, kind="real", scale=1e-3, density=1.0, op=Operator.SYMMETRY, factor_pick=0, seed=11)
    @example(vertices=400, kind="loops", scale=1.0, density=1.0, op=Operator.SWAP, factor_pick=4, seed=12)
    @example(vertices=400, kind="loops", scale=1e3, density=0.3, op=Operator.SHIFT, factor_pick=4, seed=13)
    def test_sampled_moves_within_bound(self, vertices, kind, scale, density, op, factor_pick, seed):
        """Swap at ma 2..6 (masked rows), substitute at md 1..4 (padding columns), and windows.

        Shift at mb 1..5 and symmetry at mc 0..4 are screened in float32,
        unless the weights fall outside the screen's range.
        """
        lo, hi = VALUE_OPS[op]
        factor = min(lo + factor_pick, hi)
        w = maxcut_weights(vertices, seed, kind, scale, density)
        problem = problems.maxcut_problem(problems.MaxCutInstance(weights=w))
        g = np.random.default_rng(seed)
        bits = g.integers(0, 2, size=vertices - 1)
        cost = problem.evaluate(bits)
        moves = sample_moves(bits, op, factor, 64, g, alphabet_size=2)
        scored = problem.delta_many(bits, cost, moves)
        f32 = np.finfo(np.float32)
        screened = (vertices - 1) ** 2 * f32.smallest_normal <= 2 * np.abs(w).sum() <= f32.max
        assert (scored is None) == (isinstance(moves, Windows) and not screened)  # only such weights skip the screen
        if scored is None:
            return
        delta, err = scored
        rows = moves.apply(bits)
        for size in (64, 31, 1):  # GEMM rounding changes with the batch's row count
            full = np.concatenate([problem.evaluate_many(rows[i : i + size]) for i in range(0, 64, size)])
            gap = np.abs(cost + delta - full)
            assert np.all(gap <= err), (size, gap, err)

    @pytest.mark.parametrize("op", [Operator.SHIFT, Operator.SYMMETRY])
    def test_windows_evaluate_only_their_shortlist(self, op):
        problem = problems.maxcut_problem(instances.random_weighted_graph(30, 0.5, 4))
        g = np.random.default_rng(5)
        bits = g.integers(0, 2, size=29)
        cost = problem.evaluate(bits)
        moves = sample_moves(bits, op, 2, 32, g, alphabet_size=2)
        delta, err = problem.delta_many(bits, cost, moves)
        est = cost + delta
        short = np.flatnonzero(est - err <= np.min(est + err))
        assert 1 <= len(short) < 32
        calls = []

        def evaluate_many(rows):
            calls.append(len(rows))
            return problem.evaluate_many(rows)

        full = problem.evaluate_many(moves.apply(bits))
        best, best_cost, row = replace(problem, evaluate_many=evaluate_many).best_move(bits, cost, moves).settle()
        assert calls == [len(short)]
        # the shortlist is its own batch, so its cost may differ from the 32-row batch's in the last bits
        assert best == int(np.argmin(full)) and abs(best_cost - full[best]) <= err
        assert best_cost == problem.evaluate_many(moves.take(short).apply(bits)).min()
        assert np.array_equal(row, moves.apply(bits)[best])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e37, 1e300, 1e-40])
    @pytest.mark.parametrize("op", [Operator.SHIFT, Operator.SYMMETRY])
    def test_weights_outside_float32_are_not_screened(self, op, scale):
        """Sums past float32's range (1e37), entries past it (1e300) and entries below its normal range (1e-40).

        None gets a screen, and none warns.
        """
        problem = problems.maxcut_problem(problems.MaxCutInstance(weights=maxcut_weights(30, 4, "real", scale)))
        g = np.random.default_rng(5)
        bits = g.integers(0, 2, size=29)
        cost = problem.evaluate(bits)
        moves = sample_moves(bits, op, 2, 32, g, alphabet_size=2)
        assert problem.delta_many(bits, cost, moves) is None
        calls = []

        def evaluate_many(rows):
            calls.append(len(rows))
            return problem.evaluate_many(rows)

        full = problem.evaluate_many(moves.apply(bits))
        best, best_cost, row = replace(problem, evaluate_many=evaluate_many).best_move(bits, cost, moves).settle()
        assert calls == [32]
        assert best == int(np.argmin(full)) and best_cost == full[best]
        assert np.array_equal(row, moves.apply(bits)[best])


VALUE_FACTORS = [{}, {"ma": 4, "mb": 3, "mc": 2, "md": 3}]


@pytest.mark.parametrize("mode", RUN_MODES, ids=RUN_MODE_IDS)
@pytest.mark.parametrize("factors", VALUE_FACTORS, ids=["default", "large"])
@pytest.mark.parametrize("vertices", [2, 3, 6, 17, 60, 201])
def test_qubo_delta_run_equals_full_evaluation_run(vertices, factors, mode):
    """Integer weights: every sum is exact, so the runs agree bit for bit."""
    problem = problems.maxcut_problem(problems.MaxCutInstance(weights=maxcut_weights(vertices, vertices, "integer")))
    params = StaParams(max_iters=60, seed=vertices + 1, **mode, **factors)
    assert _run_record(problem, params) == _run_record(replace(problem, delta_many=None), params)


@pytest.mark.parametrize("kind", ["real", "allclose"])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("factors", VALUE_FACTORS, ids=["default", "large"])
@pytest.mark.parametrize("vertices", [5, 40, 201])
def test_qubo_delta_run_matches_full_evaluation_run_on_float_weights(vertices, factors, mode, kind):
    """Float weights: a row's cost may change in the last bit with its batch, never past err."""
    problem = problems.maxcut_problem(problems.MaxCutInstance(weights=maxcut_weights(vertices, vertices, kind)))
    params = StaParams(max_iters=60, mode=mode, seed=vertices + 1, **factors)
    a, b = engine.run(problem, params), engine.run(replace(problem, delta_many=None), params)
    err = qubo_err(problem, a.best_solution)
    assert np.array_equal(a.best_solution, b.best_solution) and a.evaluations == b.evaluations
    assert abs(a.best_cost - b.best_cost) <= err
    assert np.all(np.abs(np.array(a.trace) - np.array(b.trace)) <= err)


@pytest.mark.parametrize("p2", [0.0557, 0.5])
@pytest.mark.parametrize("vertices", [40, 201])
def test_qubo_window_rounds_evaluate_only_settled_shortlists(vertices, p2):
    """Rows passed to evaluate_many per window round: its shortlist if it settles, none if it is rejected.

    A round settles when its bound (min of est - err) is below the current
    cost, or when the risk draw keeps it.  Kept rounds are counted from
    outside, by wrapping engine.operator_round: an accepted round best
    replaces the current array.
    """
    problem = problems.maxcut_problem(instances.random_weighted_graph(vertices, 0.5, vertices))
    rows, shortlists = [], []

    def evaluate_many(states):
        rows.append(len(states))
        return problem.evaluate_many(states)

    def delta_many(bits, cost, moves):
        delta, err = problem.delta_many(bits, cost, moves)
        est = cost + delta
        shortlists.append((np.count_nonzero(est - err <= np.min(est + err)), np.min(est - err)))
        return delta, err

    seen = []
    operator_round = engine.operator_round

    def counted_round(state, op, *args):
        before, cost = state.current, state.current_cost
        rows.clear()
        shortlists.clear()
        out = operator_round(state, op, *args)
        seen.append((op, out.current is not before, cost, list(rows), list(shortlists)))
        return out

    params = StaParams(max_iters=60, seed=vertices, p2=p2)
    with mock.patch.object(engine, "operator_round", counted_round):
        engine.run(replace(problem, evaluate_many=evaluate_many, delta_many=delta_many), params)
    window = [(kept, cost, r, s) for op, kept, cost, r, s in seen if op in (Operator.SHIFT, Operator.SYMMETRY)]
    assert len(window) == 2 * params.max_iters and {kept for kept, *_ in window} == {True, False}
    for kept, cost, r, [(short, bound)] in window:
        assert r == ([short] if kept or bound < cost else [])
    assert [] in [r for _, _, r, _ in window]  # some rounds evaluate nothing
    assert max(short for *_, [(short, _)] in window) < params.se


def fresh_g_problem(inst):
    """maxcut_problem(inst) whose delta_many forms g afresh every write round: each call gets an empty pair."""
    w, screen = problems._qubo_arrays(inst)
    return replace(
        problems.maxcut_problem(inst),
        delta_many=lambda bits, cost, moves: problems.qubo_deltas(bits, cost, moves, w, inst, screen, [None, None]),
    )


def run_bytes(problem, params):
    r = engine.run(problem, params)
    return r.best_solution.tobytes(), np.float64(r.best_cost).tobytes(), np.array(r.trace).tobytes(), r.evaluations


@pytest.mark.parametrize("mode", RUN_MODES, ids=RUN_MODE_IDS)
@pytest.mark.parametrize("factors", VALUE_FACTORS, ids=["default", "large"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("vertices", [13, 40, 101])
def test_qubo_held_product_run_equals_fresh_product_run(vertices, seed, factors, mode):
    """Float weights: taking g from a one-row evaluation changes no bit of a run."""
    inst = instances.random_weighted_graph(vertices, 0.5, seed)
    params = StaParams(max_iters=60, seed=seed + 1, **mode, **factors)
    assert run_bytes(problems.maxcut_problem(inst), params) == run_bytes(fresh_g_problem(inst), params)


def test_one_row_product_equals_vector_product():
    """The numpy fact the held product rests on: (1, n + 1) @ W has the bits of y @ W."""
    g = np.random.default_rng(0)
    for vertices in (2, 13, 40, 101, 401):
        for _ in range(40):
            w = g.random((vertices, vertices)) * 2 - 1
            y = g.choice([-1.0, 1.0], size=vertices)
            assert (y[None] @ w)[0].tobytes() == (y @ w).tobytes()


class TestHeldProduct:
    W = maxcut_weights(41, 3, "real")

    def test_one_row_evaluation_holds_its_bits_and_vector_product(self):
        bits = np.random.default_rng(1).integers(0, 2, size=40)
        state, held = bits[None].copy(), [None, None]
        problems._qubo_form(state, self.W, held)
        assert np.array_equal(held[0], bits)
        assert held[1].tobytes() == (problems._signs(bits) @ self.W).tobytes()
        state[0, 0] ^= 1  # the caller's array changes after the evaluation; the held bits do not
        assert np.array_equal(held[0], bits)

    def test_batch_of_two_rows_leaves_the_pair(self):
        bits = np.random.default_rng(2).integers(0, 2, size=(2, 40))
        held = [None, None]
        problems._qubo_form(bits[:1], self.W, held)
        before = held[:]
        problems._qubo_form(bits, self.W, held)
        assert held[0] is before[0] and held[1] is before[1]

    def test_write_round_takes_g_from_the_pair_of_its_state(self):
        inst = problems.MaxCutInstance(weights=self.W)
        w, screen = problems._qubo_arrays(inst)
        g = np.random.default_rng(3)
        bits = g.integers(0, 2, size=40)
        moves = sample_moves(bits, Operator.SUBSTITUTE, 3, 32, g, alphabet_size=2)
        fresh = problems.qubo_deltas(bits, 0.0, moves, w, inst, screen, [None, None])[0]
        wrong = problems.qubo_deltas(bits, 0.0, moves, w, inst, screen, [bits.copy(), np.zeros(41)])[0]
        assert not np.array_equal(wrong, fresh)  # a pair with these bits is used as it stands
        held = [None, None]
        assert np.array_equal(problems.qubo_deltas(bits, 0.0, moves, w, inst, screen, held)[0], fresh)
        assert np.array_equal(held[0], bits) and held[0] is not bits  # a miss holds a copy of the bits
        other = [1 - bits, np.zeros(41)]  # another state's pair is not used
        assert np.array_equal(problems.qubo_deltas(bits, 0.0, moves, w, inst, screen, other)[0], fresh)

    def test_maxcut_problem_shares_the_pair(self):
        problem = problems.maxcut_problem(problems.MaxCutInstance(weights=self.W))
        g = np.random.default_rng(4)
        bits, other = g.integers(0, 2, size=(2, 40))
        moves = sample_moves(bits, Operator.SWAP, 2, 32, g, alphabet_size=2)
        cost = problem.evaluate(bits)
        with mock.patch.object(problems, "_signs", wraps=problems._signs) as signs:
            problem.delta_many(bits, cost, moves)
            assert signs.call_count == 0  # g held from the one-row evaluation
            problem.delta_many(other, cost, moves)
            problem.delta_many(other, cost, moves)
            assert signs.call_count == 1  # formed once, then held


def held_legs_instance(n, kind):
    """n cities: coordinates under either rounding, their matrix, or a matrix symmetric only to allclose."""
    points = instances.random_euclidean_tsp(n, n).coords
    if kind == "real":
        return problems.TspInstance(coords=points)
    if kind == "tsplib":
        return problems.TspInstance(coords=points * 1000, rounding="tsplib")
    if kind == "matrix":
        return problems.TspInstance(matrix=problems.euclidean_matrix(points))
    return problems.TspInstance(matrix=tsp_matrix(n, n, "allclose"))


def held_legs_problem(inst, held, hits):
    """tsp_problem(inst) whose rounds share the hold `held` at any n; `hits` logs (held row, held round) per settle."""

    def settle_one(tour, moves, index):
        hits.append((tour is held[0], held[3] is not None and held[3][0] is moves))
        return problems.tour_settle(tour, moves, index, inst, held)

    return replace(
        problems.tsp_problem(inst),
        delta_many=lambda tour, cost, moves: problems.tour_deltas(tour, cost, moves, inst, held),
        settle_one=settle_one,
    )


def empty_hold():
    return [None, None, None, None]


@pytest.mark.parametrize("mode", RUN_MODES[:2], ids=RUN_MODE_IDS[:2])
@pytest.mark.parametrize("kind", ["real", "tsplib", "matrix", "allclose"])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 128, 129, 256, 300])
def test_tsp_held_legs_run_equals_emptied_hold_run(n, kind, mode):
    """Settling from the hold changes no bit of a run: against a hold emptied every call, and against no hook."""
    inst = held_legs_instance(n, kind)
    params = StaParams(max_iters=60, seed=n + 1, ma=4, mb=3, mc=2, **mode)
    hits = []
    held = run_bytes(held_legs_problem(inst, empty_hold(), hits), params)
    emptied = replace(
        problems.tsp_problem(inst),
        delta_many=lambda tour, cost, moves: problems.tour_deltas(tour, cost, moves, inst, empty_hold()),
        settle_one=lambda tour, moves, index: problems.tour_settle(tour, moves, index, inst, empty_hold()),
    )
    assert held == run_bytes(emptied, params) == run_bytes(replace(emptied, settle_one=None), params)
    assert any(row for row, _ in hits) or n < 7  # the held row was used; smaller tours settle few rows of their own
    assert any(legs for _, legs in hits) or n < 128  # and the legs of a round scored on it


def held_row(tour, inst, held):
    """Settle an identity write on `tour` into `held`: the held row, a read-only copy of `tour`."""
    _, row = problems.tour_settle(tour, Writes(np.array([[0]]), tour[:1][None]), 0, inst, held)
    assert held[0] is row and np.array_equal(row, tour)
    return row


def closed_legs(row, inst):
    return inst.legs(row, np.roll(row, -1))


class TestTourSettle:
    """`tour_settle` on the held row: the row `moves.apply` builds, and the bits of `tour_lengths` of it."""

    N = (5, 12, 129)

    @staticmethod
    def wrap_moves(n):
        """Windows and writes at the tour's ends and across its wrap."""
        k = n // 2
        windows = [
            Windows(np.array([0]), np.array([k])),
            Windows(np.array([k]), np.array([n])),
            Windows(np.array([0]), np.array([n])),
            Windows(np.array([1]), np.array([n - 1])),
        ]
        rotations = [Windows(w.lo, w.hi, np.array([t])) for w in windows for t in (1, int(w.hi[0] - w.lo[0]) - 1)]
        writes = [[0, n - 1], [n - 1, 0], [k, k + 1], [0, 1], [n - 2, n - 1], [n - 1, 0, 1]]
        tour = np.random.default_rng(n).permutation(n)
        swaps = [Writes(np.array([p]), tour[np.roll(p, 1)][None]) for p in map(np.array, writes)]
        masked = Writes(np.array([[k, k + 1, k]]), np.array([[tour[k + 1], tour[k], 0]]), np.array([[1, 1, 0]]) == 1)
        return tour, windows + rotations + swaps + [masked]

    @pytest.mark.parametrize("kind", ["real", "tsplib", "allclose"])
    @pytest.mark.parametrize("n", N)
    def test_settled_cost_and_held_legs_are_a_full_evaluation(self, n, kind):
        inst = held_legs_instance(n, kind)
        start, moves = self.wrap_moves(n)
        for move, scored in itertools.product(moves, (False, True)):
            held = empty_hold()
            tour = held_row(start, inst, held)
            if scored:  # the settle may take the new legs from the round
                problems.tour_deltas(tour, problems.tour_length(tour, inst), move, inst, held)
                assert held[3] is None or held[3][0] is move
            cost, row = problems.tour_settle(tour, move, 0, inst, held)
            assert np.array_equal(row, move.apply(tour)[0]) and sorted(row) == list(range(n))
            assert np.float64(cost).tobytes() == problems.tour_lengths(row[None], inst)[0].tobytes()
            assert held[0] is row and held[2].tobytes() == closed_legs(row, inst).tobytes() and held[3] is None
            assert np.array_equal(held[1], np.concatenate((row[-1:], row, row[:1]))) and np.shares_memory(held[1], row)

    def test_reversal_on_an_allclose_matrix_computes_only_its_new_legs(self):
        inst = held_legs_instance(12, "allclose")
        start, _ = self.wrap_moves(12)
        reversal, rotation = Windows(np.array([2]), np.array([9])), Windows(np.array([2]), np.array([9]), np.array([3]))
        held = empty_hold()
        tour = held_row(start, inst, held)
        with mock.patch.object(inst, "legs", wraps=inst.legs) as legs:
            _, row = problems.tour_settle(tour, reversal, 0, inst, held)
            assert legs.call_args.args[0].shape == (2,)  # a reversal on the held row: its 2 new legs
            problems.tour_settle(row, rotation, 0, inst, held)
            assert legs.call_args.args[0].shape == (3,)  # a rotation on the held row: its 3 new legs
        for move in (reversal, rotation):
            tour = held_row(start, inst, held)
            problems.tour_deltas(tour, problems.tour_length(tour, inst), move, inst, held)
            with mock.patch.object(inst, "legs", wraps=inst.legs) as legs:
                problems.tour_settle(tour, move, 0, inst, held)
                assert legs.call_count == 0  # a move of the round scored on the held row: the round's new legs

    @staticmethod
    def edge_windows(n):
        """Reversals and rotations by 1 and by width - 1 of windows at lo = 0 and at hi = n, of widths 2 and n - 1."""
        lo = np.array([0, 0, n - 2, 1, n // 2])
        hi = np.array([2, n - 1, n, n, n // 2 + 2])
        k = np.concatenate((np.ones(5, int), hi - lo - 1))
        return [Windows(lo, hi), Windows(np.tile(lo, 2), np.tile(hi, 2), k)]

    @pytest.mark.parametrize("kind", ["real", "tsplib", "matrix"])
    @pytest.mark.parametrize("n", N)
    def test_legs_from_the_bound_are_the_legs_of_their_cities(self, n, kind):
        """Each new leg a round holds has the bits of `inst.legs` of the two cities it joins in the move's row."""
        inst = held_legs_instance(n, kind)
        start, _ = self.wrap_moves(n)
        far = [[0, n // 2], [1, n - 2]] if n > 5 else [[0, 2]]  # swaps of no adjacent positions
        swaps = Writes(np.array(far), start[np.array(far)[:, ::-1]])
        for moves in self.edge_windows(n) + [swaps]:
            held = empty_hold()
            tour = held_row(start, inst, held)
            problems.tour_deltas(tour, problems.tour_length(tour, inst), moves, inst, held)
            assert held[3][0] is moves
            for i, row in enumerate(moves.apply(tour)):
                if isinstance(moves, Writes):
                    at = np.concatenate((moves.pos[i] - 1, moves.pos[i]))
                else:
                    lo, hi = int(moves.lo[i]), int(moves.hi[i])
                    at = [lo - 1, hi - 1] if moves.k is None else [lo - 1, hi - int(moves.k[i]) - 1, hi - 1]
                at = np.array(at) % n
                assert held[3][1][:, i].tobytes() == inst.legs(row[at], row[(at + 1) % n]).tobytes()

    @pytest.mark.parametrize("k", [None, 1, 3])
    def test_whole_tour_window_computes_its_legs(self, k):
        """The legs a whole-tour window's bound puts in are not its row's: the settle computes them."""
        n = 12
        inst = held_legs_instance(n, "real")
        start, _ = self.wrap_moves(n)
        move = Windows(np.array([0]), np.array([n]), None if k is None else np.array([k]))
        held = empty_hold()
        tour = held_row(start, inst, held)
        problems.tour_deltas(tour, problems.tour_length(tour, inst), move, inst, held)
        assert held[3][0] is move
        with mock.patch.object(inst, "legs", wraps=inst.legs) as legs:
            cost, row = problems.tour_settle(tour, move, 0, inst, held)
            assert legs.call_args.args[0].shape == (2 if k is None else 3,)
        assert np.float64(cost).tobytes() == problems.tour_lengths(row[None], inst)[0].tobytes()
        assert held[2].tobytes() == closed_legs(row, inst).tobytes()

    def test_settled_row_is_read_only(self):
        inst = held_legs_instance(12, "real")
        start, moves = self.wrap_moves(12)
        held = empty_hold()
        tour = held_row(start, inst, held)
        for move in moves:
            _, tour = problems.tour_settle(tour, move, 0, inst, held)
            assert not tour.flags.writeable and not held[1].flags.writeable
            with pytest.raises(ValueError):
                tour[0] = tour[1]
        assert np.array_equal(start, self.wrap_moves(12)[0])  # the settles wrote no entry of their input

    @pytest.mark.parametrize("kind", ["real", "tsplib", "matrix"])
    def test_restored_copy_misses_the_hold(self, kind):
        """A copy of the held row, a restored incumbent say, is evaluated in full, with the bits of the held path."""
        n = 129
        inst = held_legs_instance(n, kind)
        start, moves = self.wrap_moves(n)
        for move in moves:
            held, fresh = empty_hold(), empty_hold()
            tour = held_row(start, inst, held)
            copy = tour.copy()
            problems.tour_deltas(tour, problems.tour_length(tour, inst), move, inst, held)
            problems.tour_deltas(copy, problems.tour_length(copy, inst), move, inst, held)  # a miss holds no round
            assert held[3] is None or held[3][0] is move
            scored = held[3]
            with mock.patch.object(inst, "legs", wraps=inst.legs) as legs:
                cost, row = problems.tour_settle(copy, move, 0, inst, held)
                assert legs.call_args.args[0].shape == (n,)  # evaluated in full
            held = [tour, None, closed_legs(tour, inst), scored]  # the hold `copy` missed
            held_cost, held_row_ = problems.tour_settle(tour, move, 0, inst, held)
            assert (cost, row.tobytes()) == (held_cost, held_row_.tobytes())
            assert held[2].tobytes() == closed_legs(row, inst).tobytes()

    def test_tsp_problem_holds_legs_from_its_size_on(self):
        small = held_legs_instance(problems._HELD_LEGS_FROM - 1, "real")
        large = held_legs_instance(problems._HELD_LEGS_FROM, "real")
        assert problems.tsp_problem(small).settle_one is None
        problem = problems.tsp_problem(large)
        assert problem.settle_one is not None
        params = StaParams(max_iters=10, seed=1, ma=4, mb=3, mc=2)
        assert run_bytes(problem, params) == run_bytes(replace(problem, settle_one=None), params)


def rosen_state(n, seed, kind):
    """Alphabet indices: uniform, or all 3 (the value 1) but for a few entries."""
    g = np.random.default_rng(seed)
    if kind == "uniform":
        return g.integers(0, 5, size=n)
    state = np.full(n, 3)
    state[g.integers(0, n, size=max(1, n // 10))] = g.integers(0, 5, size=max(1, n // 10))
    return state


def check_rosen_deltas(state, moves):
    """cost + delta equals full evaluation bit for bit, and err is exactly 0.0."""
    problem = problems.rosenbrock_problem(len(state))
    cost = problem.evaluate(state)
    delta, err = problem.delta_many(state, cost, moves)
    assert err == 0.0 and type(err) is float
    assert np.array_equal(cost + delta, problem.evaluate_many(moves.apply(state)))


class TestRosenbrockDeltas:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 60),
        kind=st.sampled_from(["uniform", "near-constant"]),
        op=st.sampled_from([Operator.SHIFT, Operator.SYMMETRY]),
        factor_pick=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, kind="uniform", op=Operator.SHIFT, factor_pick=4, seed=0)
    @example(n=2, kind="uniform", op=Operator.SYMMETRY, factor_pick=4, seed=1)
    @example(n=3, kind="near-constant", op=Operator.SHIFT, factor_pick=4, seed=2)
    @example(n=3, kind="uniform", op=Operator.SYMMETRY, factor_pick=4, seed=3)
    def test_sampled_windows_are_exact(self, n, kind, op, factor_pick, seed):
        """Shift at mb 1..5 and symmetry at mc 0..4 on uniform and near-constant states."""
        factor = factor_pick + (op is Operator.SHIFT)
        g = np.random.default_rng(seed)
        state = rosen_state(n, seed, kind)
        moves = sample_moves(state, op, factor, 64, g, alphabet_size=5)
        if isinstance(moves, Windows):  # a constant state gives plain copies
            check_rosen_deltas(state, moves)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 60),
        kind=st.sampled_from(["uniform", "near-constant"]),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_windows_touching_the_ends(self, n, kind, data, seed):
        """Windows at 0, at n, spanning n - 1 entries and the whole state, both kinds."""
        state = rosen_state(n, seed, kind)
        inner_lo = data.draw(st.integers(0, n - 2))
        inner_hi = data.draw(st.integers(inner_lo + 2, n))
        spans = [(0, n), (0, max(n - 1, 2)), (min(1, n - 2), n), (0, inner_hi), (inner_lo, n), (inner_lo, inner_hi)]
        lo, hi = (np.array(v) for v in zip(*spans))
        k = np.array([data.draw(st.integers(1, b - a - 1)) for a, b in spans])
        check_rosen_deltas(state, Windows(lo, hi))
        check_rosen_deltas(state, Windows(lo, hi, k))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_window_of_tiny_states(self, n):
        """Every window, every rotation of it and its reversal, on every state of length n."""
        spans = [(a, b, k) for a in range(n) for b in range(a + 2, n + 1) for k in range(1, b - a)]
        lo, hi, k = (np.array(v) for v in zip(*spans))
        for code in range(5**n):
            state = np.array([code // 5**i % 5 for i in range(n)])
            check_rosen_deltas(state, Windows(lo, hi))
            check_rosen_deltas(state, Windows(lo, hi, k))

    def test_writes_are_not_scored(self):
        problem = problems.rosenbrock_problem(6)
        state = np.array([0, 1, 2, 3, 4, 3])
        moves = sample_moves(state, Operator.SUBSTITUTE, 2, 8, np.random.default_rng(0), alphabet_size=5)
        assert problem.delta_many(state, problem.evaluate(state), moves) is None

    @pytest.mark.parametrize("n", [2, 3, 7, 200])
    def test_table_equals_scalar_reference(self, n):
        states = np.random.default_rng(n).integers(0, 5, size=(300, n))
        ref = [problems.rosenbrock_value(problems.ROSENBROCK_ALPHABET[row]) for row in states]
        assert np.array_equal(problems.rosenbrock_problem(n).evaluate_many(states), ref)

    def test_exact_estimates_evaluate_only_the_first_minimum(self):
        # values [1, 1, 1, 0, 1, 1, 1, 1]; rows 1 and 3 both move the 0 to the end
        problem = problems.rosenbrock_problem(8)
        state = np.array([3, 3, 3, 2, 3, 3, 3, 3])
        moves = Windows(np.array([2, 3, 1, 2]), np.array([4, 8, 4, 8]), np.array([1, 1, 2, 2]))
        full = problem.evaluate_many(moves.apply(state))
        assert full.tolist() == [201.0, 100.0, 201.0, 100.0]
        calls = []

        def evaluate_many(rows):
            calls.append(len(rows))
            return problem.evaluate_many(rows)

        counted = replace(problem, evaluate_many=evaluate_many)
        best, cost, row = counted.best_move(state, problem.evaluate(state), moves).settle()
        assert calls == [1]
        assert (best, cost) == (1, 100.0)
        assert np.array_equal(row, moves.apply(state)[1])


@pytest.mark.parametrize("mode", RUN_MODES, ids=RUN_MODE_IDS)
@pytest.mark.parametrize("factors", VALUE_FACTORS, ids=["default", "large"])
@pytest.mark.parametrize("n", [2, 3, 5, 17, 60, 200])
def test_rosenbrock_delta_run_equals_full_evaluation_run(n, factors, mode):
    problem = problems.rosenbrock_problem(n)
    params = StaParams(max_iters=60, seed=n + 1, **mode, **factors)
    assert _run_record(problem, params) == _run_record(replace(problem, delta_many=None), params)


@pytest.mark.parametrize("p2", [0.0557, 0.5])
@pytest.mark.parametrize("factors", VALUE_FACTORS, ids=["default", "large"])
@pytest.mark.parametrize("n", [5, 30, 200])
def test_rosenbrock_rounds_evaluate_only_kept_window_rows(n, factors, p2):
    """Rows passed to evaluate_many per round: 1 for a kept window round, 0 for a rejected one, 32 for writes.

    Kept rounds are counted from outside, by wrapping engine.operator_round:
    an accepted round best replaces the current array.
    """
    problem = problems.rosenbrock_problem(n)
    rows = []

    def evaluate_many(states):
        rows.append(len(states))
        return problem.evaluate_many(states)

    seen = []
    operator_round = engine.operator_round

    def counted_round(state, op, *args):
        before, constant = state.current, bool((state.current == state.current[0]).all())
        rows.clear()
        out = operator_round(state, op, *args)
        seen.append((op, constant, out.current is not before, list(rows)))
        return out

    params = StaParams(max_iters=100, seed=n, p2=p2, **factors)
    with mock.patch.object(engine, "operator_round", counted_round):
        engine.run(replace(problem, evaluate_many=evaluate_many), params)
    window = [(kept, r) for op, constant, kept, r in seen if op in (Operator.SHIFT, Operator.SYMMETRY) and not constant]
    assert {kept for kept, _ in window} == {True, False}
    assert all(r == ([1] if kept else []) for kept, r in window)
    writes = [r for op, _, _, r in seen if op in (Operator.SWAP, Operator.SUBSTITUTE)]
    assert len(writes) == 2 * params.max_iters and all(r == [params.se] for r in writes)


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
