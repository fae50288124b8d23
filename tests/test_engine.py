from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from dsta import bench, instances, problems
from dsta.engine import (
    Mode,
    SearchState,
    StaParams,
    accept_candidate,
    operator_round,
    resolve_operator_set,
    restore_step,
    run,
)
from dsta.errors import IncompatibleOperator, InvalidParams, NonFiniteCost
from dsta.operators import Operator


def rng(seed=0):
    return np.random.default_rng(seed)


class TestParams:
    def test_defaults_valid(self):
        StaParams().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"se": 0},
            {"ma": 1},
            {"mb": 0},
            {"mc": -1},
            {"md": 0},
            {"p1": -0.1},
            {"p1": 1.1},
            {"p2": 2.0},
            {"max_iters": 0},
            {"operator_set": ()},
            {"seed": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParams):
            StaParams(**kwargs).validate()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"se": 0}, "se must be >= 1, got 0"),
            ({"ma": 1}, "ma must be >= 2, got 1"),
            ({"mb": 0}, "mb must be >= 1, got 0"),
            ({"mc": -1}, "mc must be >= 0, got -1"),
            ({"md": 0}, "md must be >= 1, got 0"),
            ({"max_iters": 0}, "max_iters must be >= 1, got 0"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"p1": -0.1}, "p1 must be in [0,1], got -0.1"),
            ({"p1": 1.1}, "p1 must be in [0,1], got 1.1"),
            ({"p2": -0.5}, "p2 must be in [0,1], got -0.5"),
            ({"p2": 2.0}, "p2 must be in [0,1], got 2.0"),
            ({"operator_set": ()}, "operator_set must be non-empty"),
        ],
    )
    def test_invalid_message(self, kwargs, message):
        with pytest.raises(InvalidParams) as exc:
            StaParams(**kwargs).validate()
        assert str(exc.value) == message

    def test_factor_lookup(self):
        p = StaParams(ma=3, mb=2, mc=1, md=4)
        assert p.factor(Operator.SWAP) == 3
        assert p.factor(Operator.SHIFT) == 2
        assert p.factor(Operator.SYMMETRY) == 1
        assert p.factor(Operator.SUBSTITUTE) == 4


class TestOperatorSet:
    def test_permutation_default_excludes_substitute(self):
        prob = problems.tsp_problem(instances.random_euclidean_tsp(5, seed=0))
        ops = resolve_operator_set(prob, StaParams())
        assert ops == (Operator.SWAP, Operator.SHIFT, Operator.SYMMETRY)

    def test_value_default_has_all_four(self):
        prob = problems.rosenbrock_problem(5)
        assert len(resolve_operator_set(prob, StaParams())) == 4

    def test_explicit_substitute_on_permutation_rejected(self):
        prob = problems.tsp_problem(instances.random_euclidean_tsp(5, seed=0))
        params = StaParams(operator_set=(Operator.SUBSTITUTE,))
        with pytest.raises(IncompatibleOperator):
            resolve_operator_set(prob, params)

    def test_explicit_order_preserved(self):
        prob = problems.rosenbrock_problem(5)
        order = (Operator.SYMMETRY, Operator.SWAP)
        assert resolve_operator_set(prob, StaParams(operator_set=order)) == order


class TestAcceptCandidate:
    def test_improvement_always_taken(self):
        for mode in Mode:
            assert accept_candidate(10.0, 7.0, mode, 0.0, rng())

    def test_simple_rejects_worse_and_ties(self):
        g = rng()
        assert not accept_candidate(10.0, 12.0, Mode.SIMPLE, 1.0, g)
        assert not accept_candidate(10.0, 10.0, Mode.SIMPLE, 1.0, g)

    def test_dynamic_risk_edge_probabilities(self):
        g = rng()
        assert not accept_candidate(10.0, 12.0, Mode.DYNAMIC, 0.0, g)
        assert accept_candidate(10.0, 12.0, Mode.DYNAMIC, 1.0, g)

    def test_risk_frequency_matches_p2(self):
        p2 = 0.0557
        g = rng(7)
        hits = sum(accept_candidate(10.0, 12.0, Mode.DYNAMIC, p2, g) for _ in range(100_000))
        assert hits / 100_000 == pytest.approx(p2, abs=0.005)


class TestRestoreStep:
    def make_state(self):
        return SearchState(np.array([2, 0, 1]), 9.0, np.array([0, 1, 2]), 5.0)

    def test_simple_never_restores(self):
        s = restore_step(self.make_state(), Mode.SIMPLE, 1.0, rng())
        assert s.current_cost == 9.0

    def test_dynamic_certain_restore(self):
        s = restore_step(self.make_state(), Mode.DYNAMIC, 1.0, rng())
        assert s.current_cost == 5.0
        assert np.array_equal(s.current, s.incumbent)
        assert s.current is s.incumbent  # no state array is written, so the incumbent itself serves

    def test_restore_frequency_matches_p1(self):
        p1 = 0.1459
        g = rng(8)
        hits = 0
        for _ in range(100_000):
            hits += restore_step(self.make_state(), Mode.DYNAMIC, p1, g).current_cost == 5.0
        assert hits / 100_000 == pytest.approx(p1, abs=0.005)


class TestOperatorRound:
    def test_round_takes_best_improvement(self):
        # on a 3-city triangle every tour has the same length, so seed a state
        # with a value problem where single flips always help
        prob = problems.rosenbrock_problem(4)
        start = np.array([2, 3, 3, 3])  # decodes to (0,1,1,1), one flip from optimum
        state = SearchState(start.copy(), prob.evaluate(start), start.copy(), prob.evaluate(start))
        params = StaParams(se=64, mode=Mode.SIMPLE)
        out = operator_round(state, Operator.SUBSTITUTE, prob, params, rng(1))
        assert out.current_cost < prob.evaluate(start)

    def test_simple_round_never_worsens(self):
        prob = problems.rosenbrock_problem(6)
        g = rng(2)
        start = prob.initial(g)
        state = SearchState(start.copy(), prob.evaluate(start), start.copy(), prob.evaluate(start))
        params = StaParams(se=4, mode=Mode.SIMPLE)
        for op in (Operator.SWAP, Operator.SHIFT, Operator.SYMMETRY, Operator.SUBSTITUTE):
            before = state.current_cost
            state = operator_round(state, op, prob, params, g)
            assert state.current_cost <= before


class TestRun:
    def test_determinism(self):
        prob = problems.tsp_problem(instances.random_euclidean_tsp(9, seed=3))
        params = StaParams(max_iters=40, seed=123)
        a, b = run(prob, params), run(prob, params)
        assert a.best_cost == b.best_cost
        assert a.trace == b.trace
        assert np.array_equal(a.best_solution, b.best_solution)

    def test_evaluation_budget(self):
        tsp = problems.tsp_problem(instances.random_euclidean_tsp(7, seed=4))
        r = run(tsp, StaParams(max_iters=25, se=9))
        assert r.evaluations == 1 + 25 * 3 * 9
        ros = problems.rosenbrock_problem(6)
        r = run(ros, StaParams(max_iters=25, se=9))
        assert r.evaluations == 1 + 25 * 4 * 9

    def test_incumbent_monotone(self):
        prob = problems.rosenbrock_problem(8)
        r = run(prob, StaParams(max_iters=60, seed=5))
        inc = [row[2] for row in r.trace]
        assert all(b <= a for a, b in zip(inc, inc[1:]))
        assert r.best_cost == inc[-1]

    def test_simple_mode_current_monotone(self):
        prob = problems.rosenbrock_problem(8)
        r = run(prob, StaParams(max_iters=60, seed=6, mode=Mode.SIMPLE))
        cur = [row[1] for row in r.trace]
        assert all(b <= a for a, b in zip(cur, cur[1:]))

    def test_single_iteration_single_operator(self):
        prob = problems.tsp_problem(instances.random_euclidean_tsp(6, seed=7))
        params = StaParams(max_iters=1, se=1, operator_set=(Operator.SWAP,), seed=8)
        r = run(prob, params)
        assert len(r.trace) == 1
        g = np.random.default_rng(8)
        initial_cost = prob.evaluate(g.permutation(6))
        assert r.best_cost <= initial_cost

    def test_small_tsp_hits_brute_force_optimum(self):
        inst = instances.random_euclidean_tsp(5, seed=11)
        opt, _ = bench.brute_force_tsp(inst)
        r = run(problems.tsp_problem(inst), StaParams(max_iters=200, se=16, mode=Mode.SIMPLE, seed=1))
        assert r.best_cost == pytest.approx(opt)

    def test_reachability_small_rosenbrock(self):
        # with the risk mechanism on, nearly all seeded runs reach the optimum fast
        prob = problems.rosenbrock_problem(5)
        hits = 0
        for i in range(100):
            r = run(prob, StaParams(max_iters=50, seed=bench.derive_seed(99, i)))
            hits += r.best_cost == 0
        assert hits >= 95

    def test_wall_time_and_solution_validity(self):
        prob = problems.tsp_problem(instances.random_euclidean_tsp(6, seed=9))
        r = run(prob, StaParams(max_iters=10, seed=10))
        assert r.wall_time >= 0
        assert sorted(r.best_solution) == list(range(6))

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("case", ["tsp-12", "tsp-300", "maxcut-41", "rosenbrock-30"])
    def test_read_only_initial_state_changes_no_bit(self, case, mode):
        """No operator or problem writes into a state: from a read-only initial state the run is the same run.

        The incumbent is the current array itself, and a restore brings it
        back, so a write into either would raise here.  Each run returns its
        best solution as a writable array of its own, also where a state is
        a view into its data (TSP).
        """
        kind, n = case.split("-")
        problem = {
            "tsp": lambda: problems.tsp_problem(instances.random_euclidean_tsp(int(n), seed=1)),
            "maxcut": lambda: problems.maxcut_problem(instances.random_weighted_graph(int(n), 0.5, 1)),
            "rosenbrock": lambda: problems.rosenbrock_problem(int(n)),
        }[kind]()
        params = StaParams(max_iters=60, seed=4, mode=mode, ma=4, mb=3, mc=2, p1=0.5)
        initial = problems.Problem.initial

        def read_only_initial(self, g):
            state = initial(self, g)
            state.flags.writeable = False
            return state

        def record(r):
            return r.best_solution.tobytes(), np.float64(r.best_cost).tobytes(), np.array(r.trace).tobytes(), r.evaluations

        a = run(problem, params)
        with mock.patch.object(problems.Problem, "initial", read_only_initial):
            b = run(problem, params)
        assert record(a) == record(b)
        assert a.best_solution.flags.writeable and b.best_solution.flags.writeable

    def test_invalid_params_rejected_at_run(self):
        prob = problems.rosenbrock_problem(4)
        with pytest.raises(InvalidParams):
            run(prob, StaParams(se=0))


class TestNonFiniteCost:
    """NaN or infinite costs stop the run with a DstaError instead of steering it."""

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_round_best(self, value):
        base = problems.rosenbrock_problem(5)

        def many(states):
            costs = base.evaluate_many(states)
            if len(states) > 1:  # the initial state evaluates as one row
                costs[len(states) // 2] = value
            return costs

        prob = replace(base, evaluate_many=many)
        for mode in Mode:
            with pytest.raises(NonFiniteCost, match="round-best"):
                run(prob, StaParams(max_iters=3, mode=mode))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_initial(self, value):
        base = problems.rosenbrock_problem(5)
        prob = replace(base, evaluate_many=lambda states: np.full(len(states), value))
        with pytest.raises(NonFiniteCost, match="initial"):
            run(prob, StaParams(max_iters=3))
