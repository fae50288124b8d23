"""Pinned digests of seeded `engine.run` outputs at the default factors.

Each case hashes the best solution, the best cost and the full trace of one
seeded run, in both modes, on a small TSP, Rosenbrock, MAX-CUT and DVS
instance.  The instances have integer-valued costs, so the digests do not
depend on floating-point summation order; they do depend on numpy's
`Generator` streams (PCG64 and its bounded-integer and float routines) and on
the exact order in which the operators and the engine draw from them.

A refactor of the samplers or the engine must keep these digests.  A change
that alters them on purpose must explain why in its change record; the
digests are never re-pinned to hide a defect.
"""

import hashlib

import numpy as np
import pytest

from dsta import engine, problems
from dsta.engine import Mode, StaParams


def _tsp():
    g = np.random.default_rng(11)
    pts = g.integers(0, 100, size=(12, 2))
    d = np.rint(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)))
    return problems.tsp_problem(problems.TspInstance(matrix=d)), 200


def _rosenbrock():
    return problems.rosenbrock_problem(30), 200


def _maxcut():
    g = np.random.default_rng(12)
    w = np.triu(g.integers(0, 10, size=(16, 16)).astype(float), 1)
    return problems.maxcut_problem(problems.MaxCutInstance(weights=w + w.T)), 100


def _dvs():
    target = np.array([2.0, -1, 0, 1, 1, -2, 0, 2, -1, 1])
    spec = problems.DvsProblem(
        alphabet=np.arange(-2.0, 3.0),
        dimension=len(target),
        objective=lambda x: np.abs(x - target).sum(axis=1) + (x[:, 0] - x[:, -1]) ** 2,
    )
    return problems.dvs_problem(spec), 100


CASES = {"tsp": _tsp, "rosenbrock": _rosenbrock, "maxcut": _maxcut, "dvs": _dvs}

PINNED = {
    ("tsp", "sta"): "c1ea22dcc22d474e752f198632a760ea210a183634f9c05a2e3b2134e6114e51",
    ("tsp", "dsta"): "051df51562088c47d11953a8b08ce331011f5a206ea21ced889f5deac4ce684f",
    ("rosenbrock", "sta"): "4993f1aab343c0d6b99fc1d29c40b557b1ebbaf3e0c1f0a309815dda29751e0b",
    ("rosenbrock", "dsta"): "4ae944fbb15f697d503eb8111e5128016b017fafb18c7f02837bcfbfb7af1a39",
    ("maxcut", "sta"): "2576fbfc71c046c1499f3c3b9b789293177b8e624c39e2673842877361f1b8cc",
    ("maxcut", "dsta"): "22c732293164b00596f35c92b77ebcf24f8b7e0b917277fb5d30b4ad1e9e0abb",
    ("dvs", "sta"): "677c479ccccccd9beb0c6e42bc4b41583892bd8ab1762c7f9078bf6ab05a50be",
    ("dvs", "dsta"): "ca41f7cdc07b5c8165c40a4dcfcc34cb37041a870ebf0fd17a0ae0db26c6922b",
}


def run_digest(problem, params: StaParams) -> str:
    result = engine.run(problem, params)
    h = hashlib.sha256()
    h.update(np.asarray(result.best_solution, dtype="<i8").tobytes())
    h.update(np.asarray(result.best_cost, dtype="<f8").tobytes())
    h.update(np.asarray(result.trace, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("case", list(CASES))
def test_seeded_run_digest(case, mode):
    problem, iters = CASES[case]()
    digest = run_digest(problem, StaParams(max_iters=iters, mode=mode, seed=5))
    assert digest == PINNED[(case, mode.value)]
