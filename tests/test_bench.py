import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsta import bench, engine, instances, problems
from dsta.engine import Mode, StaParams
from dsta.errors import DimensionMismatch, InvalidParams, NonFiniteCost, TooLarge
from dsta.problems import Problem, TspInstance, _qubo_form


class TestDeriveSeed:
    def test_deterministic(self):
        assert bench.derive_seed(42, 3) == bench.derive_seed(42, 3)

    def test_injective_over_many_trials(self):
        seeds = {bench.derive_seed(0, i) for i in range(100_000)}
        assert len(seeds) == 100_000

    def test_base_seed_changes_stream(self):
        a = [bench.derive_seed(1, i) for i in range(100)]
        b = [bench.derive_seed(2, i) for i in range(100)]
        assert not set(a) & set(b)

    def test_fits_64_bits(self):
        for i in range(1000):
            s = bench.derive_seed(2**63, i)
            assert 0 <= s < 2**64


class TestRunTrials:
    def test_stats_match_numpy(self):
        prob = problems.rosenbrock_problem(5)
        stats = bench.run_trials(prob, StaParams(max_iters=5), 6, base_seed=1)
        arr = np.array(stats.costs)
        assert stats.trials == 6
        assert stats.best == arr.min()
        assert stats.mean == pytest.approx(arr.mean())
        assert stats.std == pytest.approx(arr.std(ddof=1))

    def test_deterministic_given_base_seed(self):
        prob = problems.rosenbrock_problem(5)
        a = bench.run_trials(prob, StaParams(max_iters=5), 4, base_seed=9)
        b = bench.run_trials(prob, StaParams(max_iters=5), 4, base_seed=9)
        assert a.costs == b.costs

    def test_results_per_trial(self):
        prob = problems.rosenbrock_problem(4)
        params = StaParams(max_iters=30)
        stats = bench.run_trials(prob, params, 3, base_seed=7)
        assert [r.best_cost for r in stats.results] == stats.costs
        for i, r in enumerate(stats.results):  # trial order, each on its derived seed, which it carries
            assert r.params == replace(params, seed=bench.derive_seed(7, i))
            alone = engine.run(prob, r.params)
            assert alone.best_cost == r.best_cost
            assert np.array_equal(r.best_solution, alone.best_solution)
            assert r.trace == alone.trace

    def test_rejects_zero_trials(self):
        with pytest.raises(InvalidParams, match="trials must be >= 1"):
            bench.run_trials(problems.rosenbrock_problem(4), StaParams(), 0)


class TestCompareModes:
    def test_paired_and_labeled(self):
        prob = problems.rosenbrock_problem(5)
        params = StaParams(max_iters=8)
        sta, dsta, diff = bench.compare_modes(prob, params, 5, base_seed=2)
        assert sta.trials == dsta.trials == len(diff) == 5
        assert diff == [s - d for s, d in zip(sta.costs, dsta.costs)]
        for mode, stats in ((Mode.SIMPLE, sta), (Mode.DYNAMIC, dsta)):  # each result carries its params
            expected = [replace(params, mode=mode, seed=bench.derive_seed(2, i)) for i in range(5)]
            assert [r.params for r in stats.results] == expected
            for r in stats.results:
                again = engine.run(prob, r.params)
                assert again.best_cost == r.best_cost
                assert np.array_equal(again.best_solution, r.best_solution)


class TestBruteForceTsp:
    def test_three_cities_single_tour(self):
        inst = TspInstance(matrix=np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]]))
        opt, tour = bench.brute_force_tsp(inst)
        assert opt == 6
        assert sorted(tour) == [0, 1, 2]

    def test_unit_square_perimeter(self):
        coords = np.array([[0.0, 0], [1, 1], [0, 1], [1, 0]])
        diff = coords[:, None, :] - coords[None, :, :]
        inst = TspInstance(matrix=np.sqrt((diff**2).sum(-1)), coords=coords)
        opt, tour = bench.brute_force_tsp(inst)
        assert opt == pytest.approx(4)
        assert problems.tour_length(tour, inst) == pytest.approx(4)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_equals_scalar_enumeration(self, n):
        # a loop over the same tours in the same order, each scored by the scalar reference
        inst = instances.random_euclidean_tsp(n, seed=n)
        rests = (rest for rest in itertools.permutations(range(1, n)) if rest[0] < rest[-1])
        tours = [np.array((0,) + rest) for rest in rests]
        lengths = [problems.tour_length(t, inst) for t in tours]
        opt, tour = bench.brute_force_tsp(inst)
        assert opt == min(lengths)
        assert np.array_equal(tour, tours[int(np.argmin(lengths))])

    @pytest.mark.parametrize("n", [8, 10])
    def test_optimum_is_tour_lengths_of_its_tour(self, n):
        # both sum the legs in the same order, so they agree to the last bit
        inst = instances.random_euclidean_tsp(n, seed=0)
        opt, tour = bench.brute_force_tsp(inst)
        assert opt == problems.tour_lengths(tour[None], inst)[0]

    @pytest.mark.parametrize("m", range(9))
    def test_permutations_in_itertools_order(self, m):
        assert bench._permutations(m).tolist() == [list(p) for p in itertools.permutations(range(m))]

    def test_no_finite_tour(self):
        # finite weights whose every tour sum overflows
        d = np.full((4, 4), 1e308)
        np.fill_diagonal(d, 0.0)
        with pytest.raises(NonFiniteCost, match="no tour"):
            bench.brute_force_tsp(TspInstance(matrix=d))

    def test_size_bound(self):
        inst = instances.random_euclidean_tsp(11, seed=0)
        with pytest.raises(TooLarge):
            bench.brute_force_tsp(inst)


def one_fixed_graph(q: np.ndarray, c: np.ndarray) -> problems.MaxCutInstance:
    """The graph whose fixed-last-vertex QUBO form is (q, c)."""
    n = len(c)
    w = np.zeros((n + 1, n + 1))
    w[:n, :n] = q
    w[:n, n] = w[n, :n] = -c
    return problems.MaxCutInstance(weights=w)


def product_oracle(cost, m: int, n: int):
    """Optimum and optimizers by itertools.product, in the oracle's order (position 0 fastest)."""
    vectors = [combo[::-1] for combo in itertools.product(range(m), repeat=n)]
    costs = [cost(np.array(v)) for v in vectors]
    opt = min(costs)
    return opt, np.array([v for v, f in zip(vectors, costs) if f <= opt + 1e-9])


class TestBruteForceQubo:
    """The value-vector oracle on MAX-CUT's QUBO form: index 0/1 encodes sign -1/+1."""

    def test_pure_linear(self):
        for n in (5, 17):  # 17: the optimum is the last vector of the second block
            graph = one_fixed_graph(np.zeros((n, n)), np.ones(n))
            opt, optimizers = bench.brute_force_dvs(problems.maxcut_problem(graph))
            assert opt == -n
            assert optimizers.shape == (1, n)
            assert (optimizers[0] == 1).all()

    def test_antiferromagnetic_pair(self):
        graph = one_fixed_graph(np.array([[0.0, 4], [4, 0]]), np.zeros(2))
        opt, optimizers = bench.brute_force_dvs(problems.maxcut_problem(graph))
        assert opt == -4
        assert optimizers.tolist() == [[1, 0], [0, 1]]  # signs (1, -1) and (-1, 1)

    def test_blocked_matches_one_shot(self):
        graph = instances.random_weighted_graph(18, 1.0, seed=5)  # n = 17: two blocks
        n = graph.n
        opt, optimizers = bench.brute_force_dvs(problems.maxcut_problem(graph))
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        values = problems.maxcut_problem(graph).evaluate_many(bits)
        # BLAS may order a row's sums differently at another batch height
        assert opt == pytest.approx(values.min(), rel=1e-12)
        expected = {tuple(b) for b in bits[values <= values.min() + 1e-9]}
        assert {tuple(x) for x in optimizers} == expected

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_optimum(self):
        # MaxCutInstance rejects weights this large, so score their QUBO form directly
        q = np.full((3, 3), 1e308)
        np.fill_diagonal(q, 0.0)
        c = np.full(3, 1e308)
        w = np.block([[q, -c[:, None]], [-c[None], 0.0]])  # 1/2 y'Wy of y = (x, +1) is 1/2 x'Qx - x'c
        prob = Problem("huge-qubo", 3, 2, lambda bits: _qubo_form(bits, w, [None, None]))
        with pytest.raises(NonFiniteCost, match="huge-qubo optimum"):
            bench.brute_force_dvs(prob)

    def test_size_bound(self):
        # 2^20 states: 21 vertices (20 free signs) are enumerated, 22 are refused
        graph = instances.random_weighted_graph(21, 1.0, seed=3)
        opt, optimizers = bench.brute_force_dvs(problems.maxcut_problem(graph))
        assert problems.maxcut_problem(graph).evaluate_many(optimizers) == pytest.approx(opt)
        too_large = instances.random_weighted_graph(22, 1.0, seed=3)
        with pytest.raises(TooLarge, match="2\\^21"):
            bench.brute_force_dvs(problems.maxcut_problem(too_large))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_equals_product_enumeration(self, vertices, data):
        # small integer weights, so values are exact and ties occur
        cells = vertices * vertices
        w = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=cells, max_size=cells)))
        w = np.triu(w.reshape(vertices, vertices).astype(float), 1)
        graph = problems.MaxCutInstance(weights=w + w.T)
        q, c = graph.qubo
        opt, optimizers = bench.brute_force_dvs(problems.maxcut_problem(graph))
        expected_opt, expected = product_oracle(lambda b: problems.qubo_value(b, q, c), 2, graph.n)
        assert opt == expected_opt
        assert np.array_equal(optimizers, expected)


class TestBruteForceDvs:
    def test_rosenbrock_optimum_is_zero(self):
        opt, optimizers = bench.brute_force_dvs(problems.rosenbrock_problem(5))
        assert opt == 0
        assert (problems.ROSENBROCK_ALPHABET[optimizers] == 1).all()

    def test_separable_matches_columnwise_minimum(self):
        spec = instances.random_dvs(5, 4, seed=13)
        prob = problems.dvs_problem(spec)
        opt, optimizers = bench.brute_force_dvs(prob)
        # the objective is separable per position, so the optimum equals the
        # base cost plus the best single-coordinate change at every position
        base = np.zeros(5, dtype=int)
        f0 = prob.evaluate(base)
        expected = f0
        for i in range(5):
            deltas = []
            for j in range(4):
                x = base.copy()
                x[i] = j
                deltas.append(prob.evaluate(x) - f0)
            expected += min(deltas)
        assert opt == pytest.approx(expected)
        assert prob.evaluate_many(optimizers) == pytest.approx(opt)

    def test_space_bound(self):
        # 5^8 = 390,625 states fit in the 2^20 bound, 5^9 do not
        opt, _ = bench.brute_force_dvs(problems.rosenbrock_problem(8))
        assert opt == 0
        with pytest.raises(TooLarge, match="5\\^9"):
            bench.brute_force_dvs(problems.rosenbrock_problem(9))

    def test_permutation_problem_rejected(self):
        prob = problems.tsp_problem(instances.random_euclidean_tsp(4, seed=0))
        with pytest.raises(TooLarge):
            bench.brute_force_dvs(prob)

    @pytest.mark.parametrize(
        "objective",
        [
            lambda x: np.where(x[:, 0] == 1, np.nan, x.sum(axis=1)),
            lambda x: np.where(x[:, 0] == 1, -np.inf, x.sum(axis=1)),
            lambda x: np.full(len(x), np.inf),
        ],
        ids=["nan-rows", "minus-inf-rows", "all-inf"],
    )
    def test_non_finite_optimum(self, objective):
        spec = problems.DvsProblem(alphabet=np.array([0.0, 1.0]), dimension=3, objective=objective)
        with pytest.raises(NonFiniteCost, match="optimum is"):
            bench.brute_force_dvs(problems.dvs_problem(spec))

    def test_scalar_objective_rejected(self):
        spec = problems.DvsProblem(
            alphabet=np.array([0.0, 1.0]), dimension=3, objective=lambda x: float(x.sum())
        )
        with pytest.raises(DimensionMismatch, match="shape"):
            bench.brute_force_dvs(problems.dvs_problem(spec))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 6), st.data())
    def test_equals_product_enumeration(self, m, n, data):
        # a position table plus a coupling of neighbours, in small integers so ties occur
        table = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m)))
        table = table.reshape(n, m)
        pair = np.array(data.draw(st.lists(st.integers(0, 2), min_size=m * m, max_size=m * m)))
        pair = pair.reshape(m, m)

        def cost(x):
            pairs = sum(pair[x[i], x[i + 1]] for i in range(n - 1))
            return sum(table[i, x[i]] for i in range(n)) + pairs

        def many(idx):
            return table[np.arange(n), idx].sum(axis=1) + pair[idx[:, :-1], idx[:, 1:]].sum(axis=1)

        opt, optimizers = bench.brute_force_dvs(Problem("table", n, m, many))
        expected_opt, expected = product_oracle(cost, m, n)
        assert opt == expected_opt
        assert np.array_equal(optimizers, expected)


class TestSolverAgainstOracles:
    def test_dsta_matches_tsp_oracle(self):
        inst = instances.random_euclidean_tsp(7, seed=21)
        opt, _ = bench.brute_force_tsp(inst)
        stats = bench.run_trials(
            problems.tsp_problem(inst), StaParams(max_iters=150), 3, base_seed=0
        )
        assert stats.best == pytest.approx(opt)

    def test_dsta_matches_dvs_oracle(self):
        spec = instances.random_dvs(6, 3, seed=22)
        prob = problems.dvs_problem(spec)
        opt, _ = bench.brute_force_dvs(prob)
        stats = bench.run_trials(prob, StaParams(max_iters=100, se=16), 3, base_seed=0)
        assert stats.best == pytest.approx(opt)
