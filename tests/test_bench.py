from dataclasses import replace

import numpy as np
import pytest

from dsta import bench, engine, instances, problems
from dsta.engine import Mode, StaParams
from dsta.errors import NonFiniteCost, TooLarge
from dsta.problems import TspInstance


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
        for i, r in enumerate(stats.results):  # trial order, each on its derived seed
            alone = engine.run(prob, replace(params, seed=bench.derive_seed(7, i)))
            assert np.array_equal(r.best_solution, alone.best_solution)
            assert r.trace == alone.trace

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            bench.run_trials(problems.rosenbrock_problem(4), StaParams(), 0)


class TestCompareModes:
    def test_paired_and_labeled(self):
        prob = problems.rosenbrock_problem(5)
        sta, dsta, diff = bench.compare_modes(prob, StaParams(max_iters=8), 5, base_seed=2)
        assert sta.trials == dsta.trials == len(diff) == 5
        assert diff == [s - d for s, d in zip(sta.costs, dsta.costs)]


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


class TestBruteForceQubo:
    def test_pure_linear(self):
        for n in (5, 17):  # 17: the optimum is the last code of the second block
            opt, optimizers = bench.brute_force_qubo(np.zeros((n, n)), np.ones(n))
            assert opt == -n
            assert optimizers.shape == (1, n)
            assert (optimizers[0] == 1).all()

    def test_antiferromagnetic_pair(self):
        q = np.array([[0.0, 4], [4, 0]])
        opt, optimizers = bench.brute_force_qubo(q, np.zeros(2))
        assert opt == -4
        assert {tuple(x) for x in optimizers} == {(1, -1), (-1, 1)}

    def test_blocked_matches_one_shot(self):
        graph = instances.random_weighted_graph(18, 1.0, seed=5)  # n = 17: two blocks
        n = graph.n
        opt, optimizers = bench.brute_force_qubo(*graph.qubo)
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        values = problems.maxcut_problem(graph).evaluate_many(bits)
        # BLAS may order a row's sums differently at another batch height
        assert opt == pytest.approx(values.min(), rel=1e-12)
        expected = {tuple(2 * b - 1) for b in bits[values <= values.min() + 1e-9]}
        assert {tuple(x) for x in optimizers} == expected

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_optimum(self):
        q = np.full((3, 3), 1e308)
        np.fill_diagonal(q, 0.0)
        with pytest.raises(NonFiniteCost, match="QUBO optimum"):
            bench.brute_force_qubo(q, np.full(3, 1e308))

    def test_size_bound(self):
        with pytest.raises(TooLarge):
            bench.brute_force_qubo(np.zeros((21, 21)), np.zeros(21))


class TestBruteForceDvs:
    def test_rosenbrock_optimum_is_zero(self):
        opt, best = bench.brute_force_dvs(problems.rosenbrock_problem(5))
        assert opt == 0
        assert (problems.ROSENBROCK_ALPHABET[best] == 1).all()

    def test_separable_matches_columnwise_minimum(self):
        spec = instances.random_dvs(5, 4, seed=13)
        prob = problems.dvs_problem(spec)
        opt, best = bench.brute_force_dvs(prob)
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
        assert prob.evaluate(best) == pytest.approx(opt)

    def test_space_bound(self):
        with pytest.raises(TooLarge):
            bench.brute_force_dvs(problems.rosenbrock_problem(12), limit=10**6)

    def test_permutation_problem_rejected(self):
        prob = problems.tsp_problem(instances.random_euclidean_tsp(4, seed=0))
        with pytest.raises(TooLarge):
            bench.brute_force_dvs(prob)


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
