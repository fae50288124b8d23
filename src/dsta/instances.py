"""Seeded random instance generators and instance conversions."""

from __future__ import annotations

import numpy as np

from .errors import DomainViolation, DstaError
from .problems import DvsProblem, MaxCutInstance, TspInstance
from .tsplib import euclidean_matrix


class InvalidSize(DstaError):
    pass


def maxcut_from_tsp(inst: TspInstance) -> MaxCutInstance:
    """Reuse a TSP distance matrix as MAX-CUT edge weights."""
    return MaxCutInstance(weights=inst.matrix.copy(), name=f"{inst.name}-maxcut")


def random_euclidean_tsp(n: int, seed: int) -> TspInstance:
    """n uniform points on the unit square with exact Euclidean distances."""
    if n < 3:
        raise InvalidSize(f"need n >= 3 cities, got {n}")
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    return TspInstance(matrix=euclidean_matrix(coords), coords=coords, name=f"rand-euc-{n}-s{seed}")


def random_weighted_graph(n_vertices: int, density: float, seed: int) -> MaxCutInstance:
    """Random graph with edge probability `density` and uniform [0,1] weights."""
    if n_vertices < 2:
        raise InvalidSize(f"need >= 2 vertices, got {n_vertices}")
    if not 0.0 <= density <= 1.0:
        raise InvalidSize(f"density must be in [0,1], got {density}")
    rng = np.random.default_rng(seed)
    w = np.zeros((n_vertices, n_vertices))
    iu = np.triu_indices(n_vertices, k=1)
    present = rng.random(len(iu[0])) < density
    values = rng.random(len(iu[0])) * present
    w[iu] = values
    w += w.T
    return MaxCutInstance(weights=w, name=f"rand-graph-{n_vertices}-s{seed}")


def random_dvs(n: int, m: int, seed: int) -> DvsProblem:
    """Random separable objective over a random alphabet of m distinct reals.

    Cost is a per-(position, value) lookup table, so the optimum is the
    column-wise minimum and brute force is easy to verify against.
    """
    if n < 2 or m < 2:
        raise InvalidSize(f"need n >= 2 and m >= 2, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    alphabet = np.sort(rng.choice(np.linspace(-10, 10, 10 * m), size=m, replace=False))
    table = rng.random((n, m))

    def objective(x: np.ndarray) -> np.ndarray:
        cols = np.searchsorted(alphabet, x)  # the column of each value in the sorted alphabet
        if not (alphabet[np.minimum(cols, m - 1)] == x).all():
            raise DomainViolation("value outside the alphabet")
        return table[np.arange(n), cols].sum(axis=1)

    return DvsProblem(alphabet=alphabet, dimension=n, objective=objective, name=f"rand-dvs-{n}x{m}-s{seed}")
