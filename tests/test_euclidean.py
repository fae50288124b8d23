"""Euclidean TSP instances that keep their points: legs computed from coordinates.

Every result must be the one the same instance gives when it holds its
distance matrix: seeded runs byte for byte, tour lengths and deltas bit for
bit, and the same errors for points the matrix check rejects.  The matrix is
built only when `matrix` is read.
"""

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from test_cli import euc_2d_text
from test_moves import tsp_round_moves
from test_tsplib import one_shot_distances, traced_peak

from dsta import engine, instances, problems
from dsta.engine import Mode, StaParams
from dsta.errors import DimensionMismatch
from dsta.problems import TspInstance
from dsta.tsplib import TsplibDocument, build_distances, parse_tsplib

ROUNDINGS = ["real", "tsplib"]


def matrix_of(coords, rounding):
    """The matrix the whole-matrix formula gives these points, as the matrix-holding build made it."""
    with np.errstate(all="ignore"):
        m = one_shot_distances(coords)
        if rounding == "tsplib":
            m = np.floor(m + 0.5)
    np.fill_diagonal(m, 0.0)
    return m


def tsplib_instance(n, seed, rounding):
    """An EUC_2D instance read from TSPLIB text: n points in a 1000-wide square, every float written in full."""
    coords = np.random.default_rng(seed).random((n, 2)) * 1000
    return build_distances(parse_tsplib(euc_2d_text(f"u{n}", coords)), rounding=rounding)


INSTANCES = {
    **{f"random-{n}": (lambda n=n: instances.random_euclidean_tsp(n, seed=n)) for n in (5, 60, 300)},
    **{
        f"tsplib-{rounding}-{n}": (lambda n=n, rounding=rounding: tsplib_instance(n, n + 1, rounding))
        for n in (7, 60)
        for rounding in ROUNDINGS
    },
}


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def run_digest(problem, params):
    r = engine.run(problem, params)
    trace = [(i, a.hex(), b.hex()) for i, a, b in r.trace]
    record = [r.best_solution.tolist(), str(r.best_solution.dtype), r.best_cost.hex(), trace, r.evaluations]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


def no_matrix_build():
    """Fail any matrix build of a coordinate instance."""
    return mock.patch.object(problems, "euclidean_matrix", side_effect=AssertionError("matrix built"))


class TestSameResultsAsTheMatrix:
    @pytest.mark.parametrize("factors", [{"ma": 4, "mb": 3, "mc": 1}, {"ma": 3, "mb": 2, "mc": 2}], ids=["a", "b"])
    @pytest.mark.parametrize("mode", [Mode.SIMPLE, Mode.DYNAMIC], ids=["sta", "dsta"])
    @pytest.mark.parametrize("case", list(INSTANCES))
    def test_seeded_runs_byte_for_byte(self, case, mode, factors):
        inst = INSTANCES[case]()
        params = StaParams(max_iters=40, seed=len(case), mode=mode, **factors)
        with no_matrix_build():
            got = run_digest(problems.tsp_problem(inst), params)
        assert got == run_digest(problems.tsp_problem(TspInstance(matrix=inst.matrix)), params)

    @pytest.mark.parametrize("move", ["pairs", "writes", "rotations", "reversals"])
    @pytest.mark.parametrize("case", list(INSTANCES))
    def test_lengths_and_deltas_bit_for_bit(self, case, move):
        inst = INSTANCES[case]()
        ref = TspInstance(matrix=inst.matrix)
        for seed in range(3):
            tour, moves = tsp_round_moves(inst.n, seed)
            rows = moves[move].apply(tour)
            cost = problems.tour_lengths(tour[None], inst)[0]
            assert bits(problems.tour_lengths(rows, inst)).tolist() == bits(problems.tour_lengths(rows, ref)).tolist()
            assert bits(cost) == bits(problems.tour_lengths(tour[None], ref)[0])
            delta, err = problems.tour_deltas(tour, cost, moves[move], inst)[:2]
            ref_delta, ref_err = problems.tour_deltas(tour, cost, moves[move], ref)[:2]
            assert bits(delta).tolist() == bits(ref_delta).tolist() and bits(err) == bits(ref_err)

    @pytest.mark.parametrize("rounding", ROUNDINGS)
    @pytest.mark.parametrize("n", [3, 33, 65, 300])
    def test_matrix_read_equals_the_matrix_build(self, n, rounding):
        coords = np.random.default_rng(n).normal(scale=300.0, size=(n, 2))
        inst = TspInstance(coords=coords, rounding=rounding)
        assert bits(inst.matrix).tolist() == bits(matrix_of(coords, rounding)).tolist()
        assert inst.matrix is inst.matrix  # built once


class TestMatrixOnRequest:
    def test_solve_path_builds_no_matrix(self):
        inst = tsplib_instance(300, 1, "tsplib")
        with no_matrix_build():
            assert inst.n == 300
            engine.run(problems.tsp_problem(inst), StaParams(max_iters=20, ma=3, mb=2, mc=1))
        assert inst.matrix.shape == (300, 300)

    @pytest.mark.parametrize("rounding", ROUNDINGS)
    def test_tour_length_builds_no_matrix(self, rounding):
        inst = tsplib_instance(60, 2, rounding)
        tour = np.random.default_rng(2).permutation(60)
        length = problems.tour_length(tour, inst)
        assert "matrix" not in inst.__dict__
        assert bits(length) == bits(inst.matrix[tour, np.roll(tour, -1)].sum())

    @pytest.mark.parametrize("rounding", ROUNDINGS)
    def test_tsplib_set_up_stays_small(self, rounding):
        text = euc_2d_text("u2000", np.random.default_rng(2000).random((2000, 2)))
        _, peak = traced_peak(lambda: build_distances(parse_tsplib(text), rounding=rounding))
        assert peak < 2**20  # its matrix would be 32 MB

    def test_an_instance_given_a_matrix_scores_from_it(self):
        coords = np.random.default_rng(5).random((6, 2))  # kept as GEO keeps its DDD.MM pairs, not measured
        m = 2.0 * matrix_of(coords, "real")
        inst = TspInstance(matrix=m, coords=coords)
        tour = np.arange(6)[None]
        assert inst.matrix is m
        measured = problems.tour_lengths(tour, TspInstance(coords=coords))[0]
        assert problems.tour_lengths(tour, inst)[0] == pytest.approx(2.0 * measured)


# L^2 is finite, 2 L^2 is not: the bounding box of the diamond overflows, none of its legs does
L = 1e154
DIAMOND = [[0.0, L / 2], [L, L / 2], [L / 2, 0.0], [L / 2, L]]
POINTS = {
    "nan": [[0.0, 0.0], [1.0, np.nan], [2.0, 1.0]],
    "inf": [[0.0, 0.0], [np.inf, 1.0], [2.0, 1.0]],
    "minus-inf-twice": [[-np.inf, 0.0], [-np.inf, 1.0], [2.0, 1.0]],
    "two-cities": [[0.0, 0.0], [1.0, 1.0]],
    "two-cities-nan": [[0.0, np.nan], [1.0, 1.0]],
    "one-city": [[0.0, 0.0]],
    "leg-overflows": [[0.0, 0.0], [1e200, 0.0], [1e200, 1e200], [0.0, 1e200]],
    "box-overflows-no-leg-does": DIAMOND,
    "box-overflows-one-leg-does": DIAMOND + [[0.0, 0.0], [L, L]],
    "span-overflows": [[-1e308, 0.0], [1e308, 0.0], [0.0, 0.0]],
    "fine": [[0.0, 0.0], [3.0, 0.0], [3.0, 4.0]],
}


def outcome(make):
    try:
        make()
    except Exception as exc:  # the type and message are the outcome compared
        return type(exc), str(exc)
    return None


class TestSameChecksAsTheMatrix:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rounding", ROUNDINGS)
    @pytest.mark.parametrize("case", list(POINTS))
    def test_same_error_or_none(self, case, rounding):
        coords = np.array(POINTS[case])
        doc = TsplibDocument(name=case, dimension=len(coords), edge_weight_type="EUC_2D", coords=coords)
        got = outcome(lambda: build_distances(doc, rounding=rounding))
        assert got == outcome(lambda: TspInstance(matrix=matrix_of(coords, rounding)))
        assert got == outcome(lambda: TspInstance(coords=coords, rounding=rounding))

    def test_box_overflow_is_decided_by_the_legs(self):
        assert outcome(lambda: TspInstance(coords=np.array(DIAMOND))) is None
        assert outcome(lambda: TspInstance(coords=np.array(POINTS["box-overflows-one-leg-does"]))) is not None

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (2, 2, 2)])
    def test_points_must_be_pairs(self, shape):
        with pytest.raises(DimensionMismatch, match="coordinates must be an"):
            TspInstance(coords=np.zeros(shape))

    def test_rounding_must_be_known(self):
        with pytest.raises(ValueError, match="rounding"):
            TspInstance(coords=np.zeros((3, 2)), rounding="nearest")
